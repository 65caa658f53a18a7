//! Differentiable relaxation of the analytical cost engine (DOSA-style).
//!
//! The exact engine in [`crate::analysis`] is a piecewise-constant function
//! of a mapping's integer tile factors and discrete loop orders — useless
//! for gradient descent. This module relaxes it into a smooth function of
//! the *continuous feature vector* of `mapping::features` (per level, per
//! dim: `log2 temporal`, `log2 spatial`, normalized loop position), with
//! two properties:
//!
//! 1. **Consistency**: at every integer lattice point (the features of a
//!    legal mapping) the smooth cost equals `analyze()` to floating-point
//!    accuracy, so projection never optimizes a different objective than
//!    the exact re-cost reports.
//! 2. **Differentiability**: reverse-mode gradients of `ln EDP` w.r.t. every
//!    feature are available from one backward sweep over a hand-written
//!    tape (std-only, same spirit as the MLP backprop in
//!    `crates/surrogate/src/nn.rs`). The pipeline is written once over the
//!    [`Ops`] trait: [`Tape`] records it for the sweep, [`Values`] computes
//!    the same values without recording, for callers that need no gradient.
//!
//! The discontinuities of the exact engine are relaxed as follows:
//!
//! * **Tile factors** `b = 2^feature` are continuous in log space; every
//!   multiplicative traffic term uses them directly (a unit factor
//!   contributes exactly 1).
//! * **Stationarity** (the `started` flag of `multiplicities`): an
//!   irrelevant temporal loop `L` multiplies refetch traffic by `b^e` where
//!   `e = 1 - Π_r (1 - inner(r, L)·ν(r))` over relevant temporal loops `r`.
//!   `ν` is a smoothstep "non-unit" gate on the log2 factor and
//!   `inner(r, L)` a smoothstep on the loop-position gap — both sit exactly
//!   at 0/1 (with zero slope) on the integer lattice.
//! * **Capacity** uses the soft-spill form `max(1, needed/capacity)`, which
//!   coincides with the exact engine for legal mappings and gives a usable
//!   slope into the infeasible region.
//! * **Product style** (inner vs outer) is piecewise constant in the order
//!   features; it is decoded hard (argsort + rounding) and enters the tape
//!   as a constant, which is exact at lattice points and contributes no
//!   gradient — the loop-order gradient signal flows through stationarity
//!   instead.

use crate::analysis::AnalysisContext;
use crate::cost::Cost;
use crate::style::ProductStyle;
use arch::{Arch, SparseCaps};
use mapping::{LevelMapping, Mapping};
use problem::{Density, Problem, ProjTerm, TensorKind};

const NONE: u32 = u32::MAX;

/// The arithmetic the relaxation is written in. [`SmoothContext`] builds
/// its pipeline once, generic over this trait; [`Tape`] records every
/// operation for the reverse sweep, [`Values`] computes only the `f64`
/// values. Both perform the same floating-point operations in the same
/// order, so a value read from either is bit-identical.
pub trait Ops {
    /// A value handle: a tape index, or the value itself.
    type V: Copy;

    /// A leaf (input or constant).
    fn leaf(&mut self, v: f64) -> Self::V;

    /// Current value of a variable.
    fn val(&self, x: Self::V) -> f64;

    /// `a + b`
    fn add(&mut self, a: Self::V, b: Self::V) -> Self::V;

    /// `a - b`
    fn sub(&mut self, a: Self::V, b: Self::V) -> Self::V;

    /// `a * b`
    fn mul(&mut self, a: Self::V, b: Self::V) -> Self::V;

    /// `a / b`
    fn div(&mut self, a: Self::V, b: Self::V) -> Self::V;

    /// `c * a`
    fn scale(&mut self, a: Self::V, c: f64) -> Self::V;

    /// `a + c`
    fn add_const(&mut self, a: Self::V, c: f64) -> Self::V;

    /// `ln a`
    fn ln(&mut self, a: Self::V) -> Self::V;

    /// `2^a`
    fn exp2(&mut self, a: Self::V) -> Self::V;

    /// `max(a, b)`; ties go to `a`, matching `f64::max`'s left bias under
    /// equality.
    fn max(&mut self, a: Self::V, b: Self::V) -> Self::V;

    /// `max(a, c)` for a constant `c`.
    fn max_const(&mut self, a: Self::V, c: f64) -> Self::V;

    /// `min(a, c)` for a constant `c`.
    fn min_const(&mut self, a: Self::V, c: f64) -> Self::V;

    /// `clamp(a, lo, hi)` — slope 1 strictly inside, 0 outside.
    fn clamp(&mut self, a: Self::V, lo: f64, hi: f64) -> Self::V {
        let m = self.max_const(a, lo);
        self.min_const(m, hi)
    }

    /// The C¹ smoothstep `3x² - 2x³` of `clamp(a, 0, 1)`: exactly 0 below
    /// 0 and 1 above 1, with zero slope at both endpoints — the gate that
    /// keeps relaxed indicators exact (value *and* gradient) on the lattice.
    fn smoothstep01(&mut self, a: Self::V) -> Self::V {
        let c = self.clamp(a, 0.0, 1.0);
        let c2 = self.mul(c, c);
        let lin = self.scale(c, -2.0);
        let lin3 = self.add_const(lin, 3.0);
        self.mul(c2, lin3)
    }
}

/// Value-only evaluation: every operation is the plain `f64` expression
/// [`Tape`] computes for the value of its node, and nothing is recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct Values;

impl Ops for Values {
    type V = f64;

    fn leaf(&mut self, v: f64) -> f64 {
        v
    }

    fn val(&self, x: f64) -> f64 {
        x
    }

    fn add(&mut self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn sub(&mut self, a: f64, b: f64) -> f64 {
        a - b
    }

    fn mul(&mut self, a: f64, b: f64) -> f64 {
        a * b
    }

    fn div(&mut self, a: f64, b: f64) -> f64 {
        a / b
    }

    fn scale(&mut self, a: f64, c: f64) -> f64 {
        c * a
    }

    fn add_const(&mut self, a: f64, c: f64) -> f64 {
        a + c
    }

    fn ln(&mut self, a: f64) -> f64 {
        a.ln()
    }

    fn exp2(&mut self, a: f64) -> f64 {
        a.exp2()
    }

    fn max(&mut self, a: f64, b: f64) -> f64 {
        if a >= b {
            a
        } else {
            b
        }
    }

    fn max_const(&mut self, a: f64, c: f64) -> f64 {
        if a >= c {
            a
        } else {
            c
        }
    }

    fn min_const(&mut self, a: f64, c: f64) -> f64 {
        if a <= c {
            a
        } else {
            c
        }
    }
}

/// A value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(u32);

#[derive(Debug, Clone, Copy)]
struct Node {
    p0: u32,
    d0: f64,
    p1: u32,
    d1: f64,
}

/// A Wengert list: every operation appends one node holding its parents and
/// local partials; [`Tape::grad`] runs the reverse sweep. Reused across
/// evaluations via [`Tape::reset`] to amortize allocations, including the
/// adjoint buffer of the reverse sweep.
#[derive(Debug, Default)]
pub struct Tape {
    vals: Vec<f64>,
    nodes: Vec<Node>,
    adj: Vec<f64>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clears the tape, keeping allocations.
    pub fn reset(&mut self) {
        self.vals.clear();
        self.nodes.clear();
    }

    fn push(&mut self, v: f64, p0: u32, d0: f64, p1: u32, d1: f64) -> Var {
        let id = self.vals.len() as u32;
        self.vals.push(v);
        self.nodes.push(Node { p0, d0, p1, d1 });
        Var(id)
    }

    /// Reverse sweep from `out`; returns `∂out/∂leaf` for the first
    /// `n_inputs` variables pushed onto the tape.
    pub fn grad(&mut self, out: Var, n_inputs: usize) -> &[f64] {
        let adj = &mut self.adj;
        adj.clear();
        adj.resize(self.vals.len(), 0.0);
        adj[out.0 as usize] = 1.0;
        for (i, n) in self.nodes.iter().enumerate().rev() {
            let a = adj[i];
            if a == 0.0 {
                continue;
            }
            if n.p0 != NONE {
                adj[n.p0 as usize] += a * n.d0;
            }
            if n.p1 != NONE {
                adj[n.p1 as usize] += a * n.d1;
            }
        }
        &adj[..n_inputs]
    }
}

impl Ops for Tape {
    type V = Var;

    /// Gradients w.r.t. leaves are read back by index after the backward
    /// sweep.
    fn leaf(&mut self, v: f64) -> Var {
        self.push(v, NONE, 0.0, NONE, 0.0)
    }

    fn val(&self, x: Var) -> f64 {
        self.vals[x.0 as usize]
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.val(a) + self.val(b);
        self.push(v, a.0, 1.0, b.0, 1.0)
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.val(a) - self.val(b);
        self.push(v, a.0, 1.0, b.0, -1.0)
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.val(a), self.val(b));
        self.push(va * vb, a.0, vb, b.0, va)
    }

    fn div(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.val(a), self.val(b));
        self.push(va / vb, a.0, 1.0 / vb, b.0, -va / (vb * vb))
    }

    fn scale(&mut self, a: Var, c: f64) -> Var {
        let v = c * self.val(a);
        self.push(v, a.0, c, NONE, 0.0)
    }

    fn add_const(&mut self, a: Var, c: f64) -> Var {
        let v = self.val(a) + c;
        self.push(v, a.0, 1.0, NONE, 0.0)
    }

    fn ln(&mut self, a: Var) -> Var {
        let va = self.val(a);
        self.push(va.ln(), a.0, 1.0 / va, NONE, 0.0)
    }

    fn exp2(&mut self, a: Var) -> Var {
        let v = self.val(a).exp2();
        self.push(v, a.0, v * std::f64::consts::LN_2, NONE, 0.0)
    }

    /// The subgradient follows the winning side.
    fn max(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.val(a), self.val(b));
        if va >= vb {
            self.push(va, a.0, 1.0, NONE, 0.0)
        } else {
            self.push(vb, b.0, 1.0, NONE, 0.0)
        }
    }

    fn max_const(&mut self, a: Var, c: f64) -> Var {
        let va = self.val(a);
        if va >= c {
            self.push(va, a.0, 1.0, NONE, 0.0)
        } else {
            self.push(c, NONE, 0.0, NONE, 0.0)
        }
    }

    fn min_const(&mut self, a: Var, c: f64) -> Var {
        let va = self.val(a);
        if va <= c {
            self.push(va, a.0, 1.0, NONE, 0.0)
        } else {
            self.push(c, NONE, 0.0, NONE, 0.0)
        }
    }
}

/// The relaxed cost at a point of feature space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothCost {
    /// Relaxed latency (cycles).
    pub latency_cycles: f64,
    /// Relaxed energy (µJ).
    pub energy_uj: f64,
}

impl SmoothCost {
    /// Energy-delay product, comparable to [`Cost::edp`].
    pub fn edp(&self) -> f64 {
        self.latency_cycles * self.energy_uj
    }

    /// As an exact-model [`Cost`] (for reporting only).
    pub fn as_cost(&self) -> Cost {
        Cost::new(self.latency_cycles.max(0.0), self.energy_uj.max(0.0))
    }
}

/// Differentiable twin of [`AnalysisContext`]: shares its precomputed
/// per-(problem, arch, density, caps) invariants and evaluates the relaxed
/// cost (with gradients) at arbitrary points of feature space.
#[derive(Debug, Clone)]
pub struct SmoothContext {
    ctx: AnalysisContext,
    d: usize,
    nl: usize,
}

impl SmoothContext {
    /// Builds a relaxed context. Capacity is always treated softly (the
    /// spill factor `max(1, needed/cap)`), which equals the exact engine on
    /// legal mappings and keeps the relaxation finite off-lattice.
    pub fn new(problem: &Problem, arch: &Arch, density: Density, caps: &SparseCaps) -> Self {
        let ctx = AnalysisContext::new(problem, arch, density, caps, crate::CapacityMode::Soft);
        let d = problem.num_dims();
        let nl = arch.num_levels();
        SmoothContext { ctx, d, nl }
    }

    /// The dense special case (the default DOSA search objective).
    pub fn dense(problem: &Problem, arch: &Arch) -> Self {
        SmoothContext::new(problem, arch, Density::DENSE, &SparseCaps::none())
    }

    /// Shares an existing exact context's invariants.
    pub fn from_context(ctx: &AnalysisContext) -> Self {
        let d = ctx.problem().num_dims();
        let nl = ctx.arch().num_levels();
        SmoothContext { ctx: ctx.clone(), d, nl }
    }

    /// The workload this context is bound to.
    pub fn problem(&self) -> &Problem {
        self.ctx.problem()
    }

    /// The accelerator this context is bound to.
    pub fn arch(&self) -> &Arch {
        self.ctx.arch()
    }

    /// Expected feature-vector length.
    pub fn feature_len(&self) -> usize {
        mapping::features::feature_len(self.d, self.nl)
    }

    /// Relaxed cost at `feats` (no gradient): a value-only pass that
    /// records no tape, bit-identical to the values of
    /// [`SmoothContext::cost_and_grad_with`].
    pub fn cost(&self, feats: &[f64]) -> SmoothCost {
        let (_, latency_cycles, energy_uj) = self.build(feats, &mut Values);
        SmoothCost { latency_cycles, energy_uj }
    }

    /// Relaxed cost plus the reverse-mode gradient of `ln EDP` w.r.t. every
    /// feature. `ln EDP` (rather than raw EDP) keeps step sizes scale-free:
    /// its gradient is invariant to the astronomic magnitudes EDP reaches
    /// on large workloads.
    pub fn cost_and_grad(&self, feats: &[f64]) -> (SmoothCost, Vec<f64>) {
        let mut tape = Tape::new();
        self.cost_and_grad_with(feats, &mut tape)
    }

    /// [`SmoothContext::cost_and_grad`] against a caller-owned tape
    /// (cleared and refilled), so tight descent loops reuse allocations.
    pub fn cost_and_grad_with(&self, feats: &[f64], tape: &mut Tape) -> (SmoothCost, Vec<f64>) {
        tape.reset();
        let (log_edp, lat, en) = self.build(feats, tape);
        let cost = SmoothCost { latency_cycles: tape.val(lat), energy_uj: tape.val(en) };
        (cost, tape.grad(log_edp, feats.len()).to_vec())
    }

    /// Decodes the *hard* (discrete) part of a feature point: factors
    /// rounded in log space, loop orders by argsort of the position
    /// features. Used for the piecewise-constant style classification; at
    /// lattice points it reproduces the encoded mapping exactly.
    fn hard_decode(&self, feats: &[f64]) -> Mapping {
        let (d, nl) = (self.d, self.nl);
        let at = |li: usize, dim: usize, k: usize| feats[(li * d + dim) * 3 + k];
        let levels: Vec<LevelMapping> = (0..nl)
            .map(|li| {
                let mut level = LevelMapping::unit(d);
                for dim in 0..d {
                    level.temporal[dim] = (at(li, dim, 0).exp2().round() as u64).max(1);
                    level.spatial[dim] = (at(li, dim, 1).exp2().round() as u64).max(1);
                }
                let mut idx: Vec<usize> = (0..d).collect();
                idx.sort_by(|&a, &b| {
                    at(li, a, 2)
                        .partial_cmp(&at(li, b, 2))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                level.order = idx;
                level
            })
            .collect();
        Mapping::new(levels)
    }

    /// Builds the full relaxed pipeline on `tape` (recording or
    /// value-only); returns `(ln EDP, latency, energy_µJ)`.
    fn build<T: Ops>(&self, feats: &[f64], tape: &mut T) -> (T::V, T::V, T::V) {
        let (d, nl) = (self.d, self.nl);
        assert_eq!(feats.len(), self.feature_len(), "feature vector length mismatch");
        let ctx = &self.ctx;
        let arch = ctx.arch();
        let problem = ctx.problem();
        let caps = *ctx.caps();
        let density = ctx.density();
        let occ = ctx.occupancy;
        let tensors = problem.tensors();
        let denom = (d.max(2) - 1) as f64;

        // Inputs first (gradients are read back by leaf index).
        let x: Vec<T::V> = feats.iter().map(|&f| tape.leaf(f)).collect();
        let tf = |li: usize, dim: usize| x[(li * d + dim) * 3];
        let sf = |li: usize, dim: usize| x[(li * d + dim) * 3 + 1];
        let pf = |li: usize, dim: usize| x[(li * d + dim) * 3 + 2];

        let one = tape.leaf(1.0);
        let zero = tape.leaf(0.0);

        // Continuous tile factors 2^feature, per (level, dim).
        let mut bt = vec![vec![one; d]; nl];
        let mut bs = vec![vec![one; d]; nl];
        // Soft non-unit gate ν and unnormalized loop position, temporal loops.
        let mut nu = vec![vec![zero; d]; nl];
        let mut posu = vec![vec![zero; d]; nl];
        for li in 0..nl {
            for dim in 0..d {
                bt[li][dim] = tape.exp2(tf(li, dim));
                bs[li][dim] = tape.exp2(sf(li, dim));
                nu[li][dim] = tape.smoothstep01(tf(li, dim));
                posu[li][dim] = tape.scale(pf(li, dim), denom);
            }
        }

        // Tile extents per level (level nl = the unit register tile).
        let mut ext = vec![vec![one; d]; nl + 1];
        for li in (0..nl).rev() {
            for dim in 0..d {
                let f = tape.mul(bt[li][dim], bs[li][dim]);
                ext[li][dim] = tape.mul(ext[li + 1][dim], f);
            }
        }

        let footprint = |tape: &mut T, e: &[T::V], proj: &problem::Projection| -> T::V {
            let mut f = one;
            for t in proj.terms() {
                let coord = match *t {
                    ProjTerm::Single(dd) => e[dd],
                    ProjTerm::Window { base, window } => {
                        let s = tape.add(e[base], e[window]);
                        tape.add_const(s, -1.0)
                    }
                };
                f = tape.mul(f, coord);
            }
            f
        };

        // Soft spill factor per level with a capacity.
        let mut sp: Vec<Option<T::V>> = vec![None; nl];
        for li in 0..nl {
            let Some(cap) = arch.level(li).capacity_words else { continue };
            let mut needed = zero;
            for (t, s) in tensors.iter().zip(&ctx.cap_scale) {
                let f = footprint(tape, &ext[li], &t.projection);
                let scaled = tape.scale(f, *s);
                needed = tape.add(needed, scaled);
            }
            let ratio = tape.scale(needed, 1.0 / cap as f64);
            sp[li] = Some(tape.max_const(ratio, 1.0));
        }

        // Partial-output density at given extents (see `out_density_at`).
        let out_density = |tape: &mut T, e: &[T::V]| -> T::V {
            if occ >= 1.0 {
                return one;
            }
            let mut red = one;
            for &dd in &ctx.reduction_dims {
                red = tape.mul(red, e[dd]);
            }
            // (1-occ)^red = 2^(red·log2(1-occ)); occ < 1 here.
            let exponent = tape.scale(red, (1.0 - occ).log2());
            let pw = tape.exp2(exponent);
            let dens = {
                let neg = tape.scale(pw, -1.0);
                tape.add_const(neg, 1.0)
            };
            tape.clamp(dens, occ.min(1.0), 1.0)
        };
        let compress = |tape: &mut T, dv: T::V| -> T::V {
            if caps.compressed {
                let s = tape.scale(dv, 1.0 + caps.metadata_per_nnz);
                tape.min_const(s, 1.0)
            } else {
                one
            }
        };

        // Traffic accumulation, boundary-major, tensors in canonical order —
        // mirroring `AnalysisContext::analyze`.
        let mut reads = vec![zero; nl];
        let mut writes = vec![zero; nl];
        for i in 1..=nl {
            let ext_i = &ext[i];
            let sp_i = if i < nl { sp[i] } else { None };
            for (ti, t) in tensors.iter().enumerate() {
                let mask = ctx.relevance[ti];
                let rel = |dd: usize| mask & (1 << dd) != 0;

                // Refetch multiplicities over the loops outside level i.
                let mut read = one;
                let mut write_extra = one; // irrelevant spatial (multicast)
                let mut distinct = one;
                for lv in 0..i {
                    for dd in 0..d {
                        if rel(dd) {
                            read = tape.mul(read, bt[lv][dd]);
                            read = tape.mul(read, bs[lv][dd]);
                            distinct = tape.mul(distinct, bt[lv][dd]);
                            distinct = tape.mul(distinct, bs[lv][dd]);
                        } else {
                            write_extra = tape.mul(write_extra, bs[lv][dd]);
                            // Relaxed stationarity: this irrelevant temporal
                            // loop refetches iff some relevant non-unit
                            // temporal loop runs strictly inside it.
                            let mut keep = one;
                            for rlv in lv..i {
                                for rd in 0..d {
                                    if !rel(rd) {
                                        continue;
                                    }
                                    let w = if rlv > lv {
                                        nu[rlv][rd]
                                    } else {
                                        // Same level: position gap gate.
                                        let g = tape.sub(posu[rlv][rd], posu[lv][dd]);
                                        let g1 = tape.add_const(g, 1.0);
                                        let gh = tape.scale(g1, 0.5);
                                        let h = tape.smoothstep01(gh);
                                        tape.mul(h, nu[rlv][rd])
                                    };
                                    let term = tape.sub(one, w);
                                    keep = tape.mul(keep, term);
                                }
                            }
                            let evict = tape.sub(one, keep);
                            // b^evict = 2^(evict · log2 b).
                            let ex = tape.mul(evict, tf(lv, dd));
                            let pw = tape.exp2(ex);
                            read = tape.mul(read, pw);
                        }
                    }
                }
                let write = tape.mul(read, write_extra);

                let f = footprint(tape, ext_i, &t.projection);
                let mut base = match t.kind {
                    TensorKind::Output => {
                        let dv = out_density(tape, ext_i);
                        let sc = compress(tape, dv);
                        tape.mul(f, sc)
                    }
                    _ if i == nl && caps.skipping => tape.scale(f, occ.min(ctx.scale[ti])),
                    _ => tape.scale(f, ctx.scale[ti]),
                };
                if let Some(spv) = sp_i {
                    base = tape.mul(base, spv);
                }
                match t.kind {
                    TensorKind::Input | TensorKind::Weight => {
                        let parent_reads = tape.mul(read, base);
                        reads[i - 1] = tape.add(reads[i - 1], parent_reads);
                        if i < nl {
                            let child_writes = tape.mul(write, base);
                            writes[i] = tape.add(writes[i], child_writes);
                        }
                    }
                    TensorKind::Output => {
                        let drains = tape.mul(read, base);
                        let rd = tape.sub(read, distinct);
                        let rmult = tape.max_const(rd, 0.0);
                        let refills = tape.mul(rmult, base);
                        reads[i - 1] = tape.add(reads[i - 1], refills);
                        writes[i - 1] = tape.add(writes[i - 1], drains);
                        if i < nl {
                            reads[i] = tape.add(reads[i], drains);
                            writes[i] = tape.add(writes[i], refills);
                        }
                    }
                }
            }
        }

        // Datapath + style constants (piecewise constant in the features).
        let macs = ctx.macs;
        let style = crate::style::classify_masked(ctx.reduction_mask, &self.hard_decode(feats));
        let style_work = match style {
            ProductStyle::Inner => {
                caps.intersection_cost * macs * density.weight.max(density.input)
            }
            ProductStyle::Outer => (caps.merge_overhead - 1.0).max(0.0) * macs * occ,
        };
        let cycle_macs = if caps.skipping { macs * occ } else { macs };
        let energy_macs = if caps.skipping || caps.gating { macs * occ } else { macs };

        // lanes = product of every spatial factor = 2^(Σ spatial features).
        let mut ssum = zero;
        for li in 0..nl {
            for dim in 0..d {
                ssum = tape.add(ssum, sf(li, dim));
            }
        }
        let lanes = tape.exp2(ssum);
        let work = tape.leaf(cycle_macs + style_work);
        let compute_cycles = tape.div(work, lanes);

        let innermost_energy = arch.level(nl - 1).energy_per_access;
        let mut energy =
            tape.leaf(style_work * innermost_energy + energy_macs * arch.mac_energy);
        let mut totals = Vec::with_capacity(nl);
        for li in 0..nl {
            let tot = tape.add(reads[li], writes[li]);
            totals.push(tot);
            let e = tape.scale(tot, arch.level(li).energy_per_access);
            energy = tape.add(energy, e);
        }

        // Bandwidth roofline; `active` replicates bandwidth across spatial
        // instances exactly as the exact engine does.
        let mut active = one;
        let mut bw_max = zero;
        for (li, &tot) in totals.iter().enumerate() {
            let denom_v = tape.scale(active, arch.level(li).bandwidth);
            let bw = tape.div(tot, denom_v);
            bw_max = tape.max(bw_max, bw);
            let mut s_li = zero;
            for dim in 0..d {
                s_li = tape.add(s_li, sf(li, dim));
            }
            let spread = tape.exp2(s_li);
            active = tape.mul(active, spread);
        }

        let lat0 = tape.max(compute_cycles, bw_max);
        let latency = tape.max_const(lat0, 1.0);
        let energy_uj = tape.scale(energy, 1e-6);
        let l1 = tape.ln(latency);
        let l2 = tape.ln(energy_uj);
        let log_edp = tape.add(l1, l2);
        (log_edp, latency, energy_uj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::CapacityMode;
    use mapping::MapSpace;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn tape_basics() {
        let mut t = Tape::new();
        let a = t.leaf(3.0);
        let b = t.leaf(4.0);
        let p = t.mul(a, b);
        let q = t.add(p, a); // 3*4 + 3 = 15
        assert_eq!(t.val(q), 15.0);
        let g = t.grad(q, 2);
        assert_eq!(g, vec![5.0, 3.0]); // d/da = b + 1, d/db = a
    }

    #[test]
    fn tape_exp2_ln_grads() {
        let mut t = Tape::new();
        let a = t.leaf(3.0);
        let e = t.exp2(a);
        let l = t.ln(e); // = a·ln2
        let g = t.grad(l, 1);
        assert!((g[0] - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn smoothstep_is_flat_at_endpoints() {
        let mut t = Tape::new();
        for (v, want) in [(-0.5, 0.0), (0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (2.0, 1.0)] {
            let a = t.leaf(v);
            let s = t.smoothstep01(a);
            assert!((t.val(s) - want).abs() < 1e-12, "smoothstep({v})");
        }
        // Zero slope at the lattice gates.
        let mut t = Tape::new();
        let a = t.leaf(1.0);
        let s = t.smoothstep01(a);
        assert_eq!(t.grad(s, 1)[0], 0.0);
    }

    #[test]
    fn matches_exact_on_random_legal_mappings() {
        let p = Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3);
        let a = Arch::accel_b();
        let sctx = SmoothContext::dense(&p, &a);
        let space = MapSpace::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..40 {
            let m = space.random(&mut rng);
            let exact = analyze(&p, &a, &m, Density::DENSE, &SparseCaps::none(), CapacityMode::Strict)
                .expect("legal");
            let feats = mapping::features::features(&m);
            let sm = sctx.cost(&feats);
            let rel = |x: f64, y: f64| (x - y).abs() / y.abs().max(1e-30);
            assert!(
                rel(sm.latency_cycles, exact.cost.latency_cycles) < 1e-6,
                "latency {} vs {}",
                sm.latency_cycles,
                exact.cost.latency_cycles
            );
            assert!(
                rel(sm.energy_uj, exact.cost.energy_uj) < 1e-6,
                "energy {} vs {}",
                sm.energy_uj,
                exact.cost.energy_uj
            );
        }
    }

    #[test]
    fn gradient_matches_finite_difference_off_lattice() {
        let p = Problem::gemm("g", 2, 16, 32, 16);
        let a = Arch::accel_b();
        let sctx = SmoothContext::dense(&p, &a);
        let space = MapSpace::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(11);
        let m = space.random(&mut rng);
        let mut feats = mapping::features::features(&m);
        // Nudge strictly off-lattice so no gate sits on a kink.
        for (i, f) in feats.iter_mut().enumerate() {
            *f += 0.07 + 0.013 * (i % 5) as f64;
        }
        let (_, g) = sctx.cost_and_grad(&feats);
        let eps = 1e-6;
        for i in 0..feats.len() {
            let mut fp = feats.clone();
            fp[i] += eps;
            let mut fm = feats.clone();
            fm[i] -= eps;
            let up = sctx.cost(&fp).edp().ln();
            let dn = sctx.cost(&fm).edp().ln();
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (g[i] - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "feature {i}: analytic {} vs numeric {numeric}",
                g[i]
            );
        }
    }
}
