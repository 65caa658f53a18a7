//! Differentiable relaxation of the analytical cost engine (DOSA-style).
//!
//! The exact engine in `analysis` is a piecewise-constant function
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
//!    feature are available from one backward sweep (std-only, same spirit
//!    as the MLP backprop in `crates/surrogate/src/nn.rs`). The pipeline is
//!    written once over the [`Ops`] trait. Its structure does not depend on
//!    the input point, so [`SmoothContext`] records it once as a [`Graph`]
//!    (op kinds, parent edges, constants); a gradient call then runs the
//!    native pipeline keeping only the node values on a [`Tape`], and sweeps
//!    the graph in reverse over them. [`Values`] computes the same values
//!    without keeping them, for callers that need no gradient.
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
use crate::style::ProductStyle;
use arch::{Arch, SparseCaps, MAX_LEVELS};
use problem::{Density, Problem, ProjTerm, TensorKind, MAX_DIMS};

const NONE: u32 = u32::MAX;

/// Per-(level, dim) slots of `build`'s working arrays.
const SLOTS: usize = MAX_LEVELS * MAX_DIMS;

/// The arithmetic the relaxation is written in. [`SmoothContext`] builds
/// its pipeline once, generic over this trait: [`Graph`] records its
/// structure, a writer into a [`Tape`] keeps the value of every node for
/// the reverse sweep, [`Values`] computes only the `f64` values. The writer
/// computes each value through `Values`, so a value read from either is
/// bit-identical.
pub trait Ops {
    /// A value handle: a node index, or the value itself. `Default` only
    /// fills the fixed-size working arrays before their slots are written.
    type V: Copy + Default;

    /// The value behind `v`, where the pass computes values (`None` for
    /// [`Graph`], which records structure only).
    fn value(&self, v: Self::V) -> Option<f64>;

    /// A leaf (input or constant).
    fn leaf(&mut self, v: f64) -> Self::V;

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

    /// `2^a` where the caller already holds `known`, a value bit-equal to
    /// it: value passes return `known`, [`Graph`] records `2^a` as
    /// [`Ops::exp2`] does, so the graph and its gradients do not change.
    fn exp2_known(&mut self, a: Self::V, known: Self::V) -> Self::V;

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

/// Value-only evaluation: the plain `f64` expression of every operation,
/// with nothing kept.
#[derive(Debug, Clone, Copy, Default)]
pub struct Values;

impl Ops for Values {
    type V = f64;

    fn value(&self, v: f64) -> Option<f64> {
        Some(v)
    }

    fn leaf(&mut self, v: f64) -> f64 {
        v
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

    /// IEEE 754 and C99 fix `exp2(±0) = 1` exactly, so a zero argument
    /// (a clamped log factor) skips the libm call with the same bits.
    fn exp2(&mut self, a: f64) -> f64 {
        if a == 0.0 {
            1.0
        } else {
            a.exp2()
        }
    }

    fn exp2_known(&mut self, _a: f64, known: f64) -> f64 {
        known
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

/// A node of a [`Graph`]: its index in push order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Var(u32);

/// The operation a graph node applies to its parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Leaf,
    Add,
    Sub,
    Mul,
    Div,
    Scale,
    AddConst,
    Ln,
    Exp2,
    Max,
    MaxConst,
    MinConst,
}

/// The structure of a pipeline written over [`Ops`]: per node, its op
/// kind, parent ids and constant, each in its own slice (1 + 8 + 8 = 17
/// bytes a node), indexed by [`Var`]. Recording a pipeline on a `Graph`
/// keeps no values. As long as the pipeline's control flow depends only on
/// constants (the relaxation's does), the graph is the same at every
/// input point, so one recording serves every run of that pipeline.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    ops: Vec<Op>,
    parents: Vec<[u32; 2]>,
    /// The constant of `Scale`/`AddConst`/`MaxConst`/`MinConst` (0 for
    /// other ops); a leaf's value is not part of the structure and lives
    /// on the [`Tape`].
    consts: Vec<f64>,
}

/// Constants compare by bits, so a `-0.0` or NaN constant that moved is a
/// different graph.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
            && self.parents == other.parents
            && self.consts.len() == other.consts.len()
            && self.consts.iter().zip(&other.consts).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Graph {
    fn push(&mut self, op: Op, p0: u32, p1: u32, c: f64) -> Var {
        let id = self.ops.len() as u32;
        self.ops.push(op);
        self.parents.push([p0, p1]);
        self.consts.push(c);
        Var(id)
    }

    fn unary(&mut self, op: Op, a: Var, c: f64) -> Var {
        self.push(op, a.0, NONE, c)
    }

    fn binary(&mut self, op: Op, a: Var, b: Var) -> Var {
        self.push(op, a.0, b.0, 0.0)
    }

    /// Reverse sweep from `out` over the values on `tape`, filled by
    /// [`Tape::fill`] against this graph; returns `∂out/∂leaf` for the
    /// first `n_inputs` nodes. Each local partial is computed from the
    /// recorded values with the expression a node-storing tape would have
    /// stored, and `max`-like nodes re-compare their operands, so the
    /// adjoint of only the winning parent grows.
    ///
    /// # Panics
    ///
    /// Panics if `tape` does not hold exactly one value per node.
    pub(crate) fn grad<'t>(&self, tape: &'t mut Tape, out: Var, n_inputs: usize) -> &'t [f64] {
        let n = self.ops.len();
        assert_eq!(tape.vals.len(), n, "value tape does not match the graph");
        let vals = &tape.vals[..n];
        let adj = &mut tape.adj;
        adj.clear();
        adj.resize(n, 0.0);
        adj[out.0 as usize] = 1.0;
        let (parents, consts) = (&self.parents[..n], &self.consts[..n]);
        for (i, &op) in self.ops.iter().enumerate().rev() {
            let a = adj[i];
            if a == 0.0 {
                continue;
            }
            let [p0, p1] = parents[i].map(|p| p as usize);
            match op {
                Op::Leaf => {}
                Op::Add => {
                    adj[p0] += a;
                    adj[p1] += a;
                }
                Op::Sub => {
                    adj[p0] += a;
                    adj[p1] += -a;
                }
                Op::Mul => {
                    let (va, vb) = (vals[p0], vals[p1]);
                    adj[p0] += a * vb;
                    adj[p1] += a * va;
                }
                Op::Div => {
                    let (va, vb) = (vals[p0], vals[p1]);
                    adj[p0] += a * (1.0 / vb);
                    adj[p1] += a * (-va / (vb * vb));
                }
                Op::Scale => adj[p0] += a * consts[i],
                Op::AddConst => adj[p0] += a,
                Op::Ln => adj[p0] += a * (1.0 / vals[p0]),
                Op::Exp2 => adj[p0] += a * (vals[i] * std::f64::consts::LN_2),
                Op::Max => {
                    if vals[p0] >= vals[p1] {
                        adj[p0] += a;
                    } else {
                        adj[p1] += a;
                    }
                }
                Op::MaxConst => {
                    if vals[p0] >= consts[i] {
                        adj[p0] += a;
                    }
                }
                Op::MinConst => {
                    if vals[p0] <= consts[i] {
                        adj[p0] += a;
                    }
                }
            }
        }
        &adj[..n_inputs]
    }
}

impl Ops for Graph {
    type V = Var;

    fn value(&self, _v: Var) -> Option<f64> {
        None
    }

    /// Inputs are read back by leaf index after the reverse sweep.
    fn leaf(&mut self, _v: f64) -> Var {
        self.push(Op::Leaf, NONE, NONE, 0.0)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary(Op::Add, a, b)
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary(Op::Sub, a, b)
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary(Op::Mul, a, b)
    }

    fn div(&mut self, a: Var, b: Var) -> Var {
        self.binary(Op::Div, a, b)
    }

    fn scale(&mut self, a: Var, c: f64) -> Var {
        self.unary(Op::Scale, a, c)
    }

    fn add_const(&mut self, a: Var, c: f64) -> Var {
        self.unary(Op::AddConst, a, c)
    }

    fn ln(&mut self, a: Var) -> Var {
        self.unary(Op::Ln, a, 0.0)
    }

    fn exp2(&mut self, a: Var) -> Var {
        self.unary(Op::Exp2, a, 0.0)
    }

    fn exp2_known(&mut self, a: Var, _known: Var) -> Var {
        self.exp2(a)
    }

    fn max(&mut self, a: Var, b: Var) -> Var {
        self.binary(Op::Max, a, b)
    }

    fn max_const(&mut self, a: Var, c: f64) -> Var {
        self.unary(Op::MaxConst, a, c)
    }

    fn min_const(&mut self, a: Var, c: f64) -> Var {
        self.unary(Op::MinConst, a, c)
    }
}

/// The value of every node of one run of a pipeline, in push order — the
/// input of `Graph::grad`, which also keeps its adjoint buffer here.
/// Reused across evaluations to amortize allocations.
#[derive(Debug, Default)]
pub struct Tape {
    vals: Vec<f64>,
    adj: Vec<f64>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Runs `pipeline` on a writer that keeps one value per node of
    /// `graph`, replacing the tape's previous values; returns the
    /// pipeline's output.
    ///
    /// # Panics
    ///
    /// Panics unless the pipeline pushes exactly one node per graph node.
    pub(crate) fn fill<R>(
        &mut self,
        graph: &Graph,
        pipeline: impl FnOnce(&mut TapeWriter<'_>) -> R,
    ) -> R {
        // Every slot is overwritten (the length check below proves it), so
        // a tape reused for the same graph needs no clearing.
        let n = graph.ops.len();
        self.vals.resize(n, 0.0);
        let mut w = TapeWriter { vals: &mut self.vals, len: 0 };
        let out = pipeline(&mut w);
        assert_eq!(w.len, n, "pipeline does not match the graph");
        out
    }
}

/// Writes the value of every node into a [`Tape`] sized to its graph.
/// Operands stay plain `f64`s, so the pipeline runs as native code and
/// each node costs one store; the slice cannot grow, which lets the
/// compiler keep the write cursor in a register.
pub(crate) struct TapeWriter<'t> {
    vals: &'t mut [f64],
    len: usize,
}

impl TapeWriter<'_> {
    fn keep(&mut self, v: f64) -> f64 {
        self.vals[self.len] = v;
        self.len += 1;
        v
    }
}

impl Ops for TapeWriter<'_> {
    type V = f64;

    fn value(&self, v: f64) -> Option<f64> {
        Some(v)
    }

    fn leaf(&mut self, v: f64) -> f64 {
        self.keep(v)
    }

    fn add(&mut self, a: f64, b: f64) -> f64 {
        self.keep(Values.add(a, b))
    }

    fn sub(&mut self, a: f64, b: f64) -> f64 {
        self.keep(Values.sub(a, b))
    }

    fn mul(&mut self, a: f64, b: f64) -> f64 {
        self.keep(Values.mul(a, b))
    }

    fn div(&mut self, a: f64, b: f64) -> f64 {
        self.keep(Values.div(a, b))
    }

    fn scale(&mut self, a: f64, c: f64) -> f64 {
        self.keep(Values.scale(a, c))
    }

    fn add_const(&mut self, a: f64, c: f64) -> f64 {
        self.keep(Values.add_const(a, c))
    }

    fn ln(&mut self, a: f64) -> f64 {
        self.keep(Values.ln(a))
    }

    fn exp2(&mut self, a: f64) -> f64 {
        self.keep(Values.exp2(a))
    }

    fn exp2_known(&mut self, a: f64, known: f64) -> f64 {
        self.keep(Values.exp2_known(a, known))
    }

    fn max(&mut self, a: f64, b: f64) -> f64 {
        self.keep(Values.max(a, b))
    }

    fn max_const(&mut self, a: f64, c: f64) -> f64 {
        self.keep(Values.max_const(a, c))
    }

    fn min_const(&mut self, a: f64, c: f64) -> f64 {
        self.keep(Values.min_const(a, c))
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
    /// Energy-delay product, comparable to [`crate::Cost::edp`].
    pub fn edp(&self) -> f64 {
        self.latency_cycles * self.energy_uj
    }
}

/// Differentiable twin of [`AnalysisContext`]: shares its precomputed
/// per-(problem, arch, density, caps) invariants and evaluates the relaxed
/// cost (with gradients) at arbitrary points of feature space. The
/// relaxation's [`Graph`] is recorded once, here, and replayed by every
/// gradient call.
#[derive(Debug, Clone)]
pub struct SmoothContext {
    ctx: AnalysisContext,
    d: usize,
    nl: usize,
    graph: Graph,
    /// The graph's `ln EDP` node, where the reverse sweep starts.
    log_edp: Var,
}

impl SmoothContext {
    /// Builds a relaxed context. Capacity is always treated softly (the
    /// spill factor `max(1, needed/cap)`), which equals the exact engine on
    /// legal mappings and keeps the relaxation finite off-lattice.
    pub fn new(problem: &Problem, arch: &Arch, density: Density, caps: &SparseCaps) -> Self {
        SmoothContext::with_context(AnalysisContext::new(
            problem,
            arch,
            density,
            caps,
            crate::CapacityMode::Soft,
        ))
    }

    /// The dense special case (the default DOSA search objective).
    pub fn dense(problem: &Problem, arch: &Arch) -> Self {
        SmoothContext::new(problem, arch, Density::DENSE, &SparseCaps::none())
    }

    fn with_context(ctx: AnalysisContext) -> Self {
        let d = ctx.problem().num_dims();
        let nl = ctx.arch().num_levels();
        let mut sctx = SmoothContext { ctx, d, nl, graph: Graph::default(), log_edp: Var(0) };
        // Any point records the same graph; the origin is as good as any.
        let mut graph = Graph::default();
        (sctx.log_edp, _, _) = sctx.build(&vec![0.0; sctx.feature_len()], &mut graph);
        sctx.graph = graph;
        sctx
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

    /// The relaxation's graph, recorded when the context was built.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Records the relaxation's graph afresh at `feats`. It equals
    /// [`SmoothContext::graph`] at every point; this exists to test that.
    pub fn record_graph(&self, feats: &[f64]) -> Graph {
        let mut graph = Graph::default();
        self.build(feats, &mut graph);
        graph
    }

    /// Relaxed cost at `feats` (no gradient): a value-only pass that keeps
    /// no node values, bit-identical to the values of
    /// [`SmoothContext::cost_and_grad_into`].
    pub fn cost(&self, feats: &[f64]) -> SmoothCost {
        let (_, latency_cycles, energy_uj) = self.build(feats, &mut Values);
        SmoothCost { latency_cycles, energy_uj }
    }

    /// Relaxed cost plus the reverse-mode gradient of `ln EDP` w.r.t. every
    /// feature. `ln EDP` (rather than raw EDP) keeps step sizes scale-free:
    /// its gradient is invariant to the astronomic magnitudes EDP reaches
    /// on large workloads.
    pub fn cost_and_grad(&self, feats: &[f64]) -> (SmoothCost, Vec<f64>) {
        let mut grad = vec![0.0; feats.len()];
        let cost = self.cost_and_grad_into(feats, &mut Tape::new(), &mut grad);
        (cost, grad)
    }

    /// [`SmoothContext::cost_and_grad`] against a caller-owned tape
    /// (refilled) and gradient buffer, so tight descent loops allocate
    /// nothing once the tape has grown: the pipeline keeps its node values
    /// on `tape`, then the recorded graph is swept in reverse over them.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not as long as `feats`.
    pub fn cost_and_grad_into(
        &self,
        feats: &[f64],
        tape: &mut Tape,
        grad: &mut [f64],
    ) -> SmoothCost {
        let (_, latency_cycles, energy_uj) = tape.fill(&self.graph, |w| self.build(feats, w));
        grad.copy_from_slice(self.graph.grad(tape, self.log_edp, feats.len()));
        SmoothCost { latency_cycles, energy_uj }
    }

    /// Loop order of level `li` decoded from the position features:
    /// their argsort, ties (and NaNs) broken by dimension index.
    fn hard_order<'b>(&self, feats: &[f64], li: usize, buf: &'b mut [usize]) -> &'b [usize] {
        let d = self.d;
        let pos = |dim: usize| feats[(li * d + dim) * 3 + 2];
        let idx = &mut buf[..d];
        for (i, v) in idx.iter_mut().enumerate() {
            *v = i;
        }
        idx.sort_by(|&a, &b| {
            pos(a).partial_cmp(&pos(b)).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        idx
    }

    /// Temporal factor of `(li, dim)` rounded in log space.
    fn hard_temporal(&self, feats: &[f64], li: usize, dim: usize) -> u64 {
        (feats[(li * self.d + dim) * 3].exp2().round() as u64).max(1)
    }

    /// Product style of the hard (discrete) decode of a feature point:
    /// factors rounded in log space, loop orders by argsort of the position
    /// features. Walks the temporal loops innermost-first the way
    /// `style::classify_masked` walks a mapping's nest, without building
    /// the mapping.
    fn hard_style(&self, feats: &[f64]) -> ProductStyle {
        let mut buf = [0usize; MAX_DIMS];
        let mut saw_output_loop = false;
        for li in (0..self.nl).rev() {
            for &dim in self.hard_order(feats, li, &mut buf).iter().rev() {
                if self.hard_temporal(feats, li, dim) <= 1 {
                    continue;
                }
                if self.ctx.reduction_mask & (1 << dim) != 0 {
                    return if saw_output_loop { ProductStyle::Outer } else { ProductStyle::Inner };
                }
                saw_output_loop = true;
            }
        }
        ProductStyle::Inner
    }

    /// The hard decode as a [`mapping::Mapping`]: the oracle
    /// [`SmoothContext::hard_style`] is tested against. At lattice points
    /// it reproduces the encoded mapping exactly.
    #[cfg(test)]
    fn hard_decode(&self, feats: &[f64]) -> mapping::Mapping {
        let (d, nl) = (self.d, self.nl);
        let mut buf = [0usize; MAX_DIMS];
        let mut m = mapping::Mapping::unit(nl, d);
        for li in 0..nl {
            for dim in 0..d {
                m.temporal_mut(li)[dim] = self.hard_temporal(feats, li, dim);
                m.spatial_mut(li)[dim] = (feats[(li * d + dim) * 3 + 1].exp2().round() as u64).max(1);
            }
            m.set_order(li, self.hard_order(feats, li, &mut buf));
        }
        m
    }

    /// Builds the full relaxed pipeline on `tape` (structure, kept values,
    /// or plain values); returns `(ln EDP, latency, energy_µJ)`. Its working
    /// arrays are fixed-size, bounded by [`MAX_LEVELS`] and [`MAX_DIMS`]
    /// (`Arch` and `Problem` reject larger shapes), so a call never touches
    /// the heap.
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
        let mut x = [T::V::default(); 3 * SLOTS];
        for (xi, &f) in x.iter_mut().zip(feats) {
            *xi = tape.leaf(f);
        }
        let tf = |li: usize, dim: usize| x[(li * d + dim) * 3];
        let sf = |li: usize, dim: usize| x[(li * d + dim) * 3 + 1];
        let pf = |li: usize, dim: usize| x[(li * d + dim) * 3 + 2];

        let one = tape.leaf(1.0);
        let zero = tape.leaf(0.0);

        // Per-(level, dim) buffers below are flat, indexed `li * d + dim`.
        // Continuous tile factors 2^feature.
        let mut bt = [one; SLOTS];
        let mut bs = [one; SLOTS];
        // Soft non-unit gate ν and unnormalized loop position, temporal loops.
        let mut nu = [zero; SLOTS];
        let mut posu = [zero; SLOTS];
        for li in 0..nl {
            for dim in 0..d {
                let k = li * d + dim;
                bt[k] = tape.exp2(tf(li, dim));
                bs[k] = tape.exp2(sf(li, dim));
                nu[k] = tape.smoothstep01(tf(li, dim));
                posu[k] = tape.scale(pf(li, dim), denom);
            }
        }

        // Tile extents per level (level nl = the unit register tile).
        let mut ext = [one; SLOTS + MAX_DIMS];
        for li in (0..nl).rev() {
            for dim in 0..d {
                let k = li * d + dim;
                let f = tape.mul(bt[k], bs[k]);
                ext[k] = tape.mul(ext[k + d], f);
            }
        }
        let ext_at = |li: usize| &ext[li * d..(li + 1) * d];

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
        let mut sp: [Option<T::V>; MAX_LEVELS] = [None; MAX_LEVELS];
        for (li, sp_li) in sp[..nl].iter_mut().enumerate() {
            let Some(cap) = arch.level(li).capacity_words else { continue };
            let mut needed = zero;
            for (t, s) in tensors.iter().zip(&ctx.cap_scale) {
                let f = footprint(tape, ext_at(li), &t.projection);
                let scaled = tape.scale(f, *s);
                needed = tape.add(needed, scaled);
            }
            let ratio = tape.scale(needed, 1.0 / cap as f64);
            *sp_li = Some(tape.max_const(ratio, 1.0));
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
        let mut reads = [zero; MAX_LEVELS];
        let mut writes = [zero; MAX_LEVELS];
        for i in 1..=nl {
            let ext_i = ext_at(i);
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
                        let k = lv * d + dd;
                        if rel(dd) {
                            read = tape.mul(read, bt[k]);
                            read = tape.mul(read, bs[k]);
                            distinct = tape.mul(distinct, bt[k]);
                            distinct = tape.mul(distinct, bs[k]);
                        } else {
                            write_extra = tape.mul(write_extra, bs[k]);
                            // Relaxed stationarity: this irrelevant temporal
                            // loop refetches iff some relevant non-unit
                            // temporal loop runs strictly inside it.
                            let mut keep = one;
                            for rlv in lv..i {
                                for rd in 0..d {
                                    if !rel(rd) {
                                        continue;
                                    }
                                    let r = rlv * d + rd;
                                    let w = if rlv > lv {
                                        nu[r]
                                    } else {
                                        // Same level: position gap gate.
                                        let g = tape.sub(posu[r], posu[k]);
                                        let g1 = tape.add_const(g, 1.0);
                                        let gh = tape.scale(g1, 0.5);
                                        let h = tape.smoothstep01(gh);
                                        tape.mul(h, nu[r])
                                    };
                                    let term = tape.sub(one, w);
                                    keep = tape.mul(keep, term);
                                }
                            }
                            let evict = tape.sub(one, keep);
                            // b^evict = 2^(evict · log2 b). At evict = 1 the
                            // product is exactly log2 b, whose power `bt[k]`
                            // is already computed.
                            let ex = tape.mul(evict, tf(lv, dd));
                            let pw = if tape.value(evict) == Some(1.0) {
                                tape.exp2_known(ex, bt[k])
                            } else {
                                tape.exp2(ex)
                            };
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
        let style_work = match self.hard_style(feats) {
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
        let mut totals = [zero; MAX_LEVELS];
        for li in 0..nl {
            let tot = tape.add(reads[li], writes[li]);
            totals[li] = tot;
            let e = tape.scale(tot, arch.level(li).energy_per_access);
            energy = tape.add(energy, e);
        }

        // Bandwidth roofline; `active` replicates bandwidth across spatial
        // instances exactly as the exact engine does.
        let mut active = one;
        let mut bw_max = zero;
        for (li, &tot) in totals[..nl].iter().enumerate() {
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

    fn basics<T: Ops>(t: &mut T) -> T::V {
        let a = t.leaf(3.0);
        let b = t.leaf(4.0);
        let p = t.mul(a, b);
        t.add(p, a) // 3*4 + 3 = 15
    }

    #[test]
    fn tape_basics() {
        let mut graph = Graph::default();
        let q = basics(&mut graph);
        let mut t = Tape::new();
        assert_eq!(t.fill(&graph, |w| basics(w)), 15.0);
        let g = graph.grad(&mut t, q, 2);
        assert_eq!(g, vec![5.0, 3.0]); // d/da = b + 1, d/db = a
    }

    fn exp2_ln<T: Ops>(t: &mut T) -> T::V {
        let a = t.leaf(3.0);
        let e = t.exp2(a);
        t.ln(e) // = a·ln2
    }

    #[test]
    fn tape_exp2_ln_grads() {
        let mut graph = Graph::default();
        let l = exp2_ln(&mut graph);
        let mut t = Tape::new();
        t.fill(&graph, |w| exp2_ln(w));
        let g = graph.grad(&mut t, l, 1);
        assert!((g[0] - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn graph_equality_compares_constant_bits() {
        let scaled = |c: f64| {
            let mut g = Graph::default();
            let a = g.leaf(1.0);
            g.scale(a, c);
            g
        };
        assert!(scaled(0.0) == scaled(0.0));
        assert!(scaled(0.0) != scaled(-0.0));
        assert!(scaled(f64::NAN) == scaled(f64::NAN));
    }

    #[test]
    fn exp2_of_zero_has_libm_bits() {
        for z in [0.0f64, -0.0] {
            assert_eq!(Values.exp2(z).to_bits(), z.exp2().to_bits(), "exp2({z:?})");
            assert_eq!(Values.exp2(z).to_bits(), 0f64.exp2().to_bits(), "exp2({z:?})");
        }
    }

    fn smoothstep_at_one<T: Ops>(t: &mut T) -> T::V {
        let a = t.leaf(1.0);
        t.smoothstep01(a)
    }

    #[test]
    fn smoothstep_is_flat_at_endpoints() {
        for (v, want) in [(-0.5, 0.0), (0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (2.0, 1.0)] {
            assert!((Values.smoothstep01(v) - want).abs() < 1e-12, "smoothstep({v})");
        }
        // Zero slope at the lattice gates.
        let mut graph = Graph::default();
        let s = smoothstep_at_one(&mut graph);
        let mut t = Tape::new();
        t.fill(&graph, |w| smoothstep_at_one(w));
        assert_eq!(graph.grad(&mut t, s, 1)[0], 0.0);
    }

    fn max_of_inf<T: Ops>(t: &mut T) -> T::V {
        let a = t.leaf(2.0);
        let b = t.leaf(1.0);
        let m = t.max(a, b);
        let z = t.leaf(0.0);
        t.div(m, z) // +inf, so the max node's adjoint is infinite
    }

    #[test]
    fn max_sends_the_adjoint_to_the_winner_only() {
        let mut graph = Graph::default();
        let q = max_of_inf(&mut graph);
        let mut t = Tape::new();
        t.fill(&graph, |w| max_of_inf(w));
        let g = graph.grad(&mut t, q, 2);
        // The loser gets nothing, not `inf * 0 = NaN`.
        assert_eq!(g, vec![f64::INFINITY, 0.0]);
    }

    #[test]
    #[should_panic(expected = "pipeline does not match the graph")]
    fn fill_rejects_a_pipeline_of_another_length() {
        let mut graph = Graph::default();
        basics(&mut graph);
        Tape::new().fill(&graph, |w| exp2_ln(w));
    }

    /// Every zoo shape of the consistency corpus on both presets, with the
    /// features of `n` random legal mappings each and two off-lattice
    /// nudges of every point.
    fn style_corpus(n: usize) -> Vec<(SmoothContext, Vec<Vec<f64>>)> {
        let problems = [
            problem::zoo::resnet_conv4(),
            problem::zoo::bert_kqv(),
            Problem::gemm("Tiny GEMM", 2, 32, 32, 32),
            Problem::conv2d("small conv", 2, 8, 8, 7, 7, 3, 3),
        ];
        let mut out = Vec::new();
        for a in [Arch::accel_a(), Arch::accel_b()] {
            for (pi, p) in problems.iter().enumerate() {
                let sctx = SmoothContext::dense(p, &a);
                let space = MapSpace::new(p.clone(), a.clone());
                let mut rng = SmallRng::seed_from_u64(40 + pi as u64);
                let mut points = Vec::new();
                for _ in 0..n {
                    let feats = mapping::features::features(&space.random(&mut rng));
                    for k in 0..3usize {
                        let mut x = feats.clone();
                        if k > 0 {
                            for (i, f) in x.iter_mut().enumerate() {
                                *f += 0.29 * ((i + k) % 4) as f64 - 0.37 + 0.011 * k as f64;
                            }
                        }
                        points.push(x);
                    }
                }
                out.push((sctx, points));
            }
        }
        out
    }

    fn assert_style_matches_oracle(sctx: &SmoothContext, feats: &[f64]) {
        let oracle =
            crate::style::classify_masked(sctx.ctx.reduction_mask, &sctx.hard_decode(feats).nest());
        assert_eq!(sctx.hard_style(feats), oracle, "features {feats:?}");
    }

    #[test]
    fn hard_style_matches_classify_of_hard_decode() {
        let mut styles = [0usize; 2];
        for (sctx, points) in style_corpus(30) {
            let d = sctx.d;
            for feats in points {
                assert_style_matches_oracle(&sctx, &feats);
                styles[(sctx.hard_style(&feats) == ProductStyle::Outer) as usize] += 1;
                let n_pos = feats.len() / 3;
                // Ties: every position of a level equal, then pairwise.
                let mut tied = feats.clone();
                for j in 0..n_pos {
                    tied[j * 3 + 2] = 0.5;
                }
                assert_style_matches_oracle(&sctx, &tied);
                let mut paired = feats.clone();
                for j in 0..n_pos {
                    paired[j * 3 + 2] = ((j % d) / 2) as f64 / d as f64;
                }
                assert_style_matches_oracle(&sctx, &paired);
                // A NaN position compares equal to everything, so the
                // argsort comparator is not transitive around it.
                for j in [0, n_pos / 2, n_pos - 1] {
                    let mut nan = feats.clone();
                    nan[j * 3 + 2] = f64::NAN;
                    assert_style_matches_oracle(&sctx, &nan);
                }
            }
        }
        // The corpus exercises both outcomes.
        assert!(styles[0] > 0 && styles[1] > 0, "styles {styles:?}");
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
            let exact =
                analyze(&p, &a, &m, Density::DENSE, &SparseCaps::none(), CapacityMode::Strict)
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
