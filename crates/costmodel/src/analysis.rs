//! The analytical traffic/latency/energy engine shared by the dense and
//! sparse cost models.
//!
//! Like Timeloop, the engine derives, for every tensor and every storage
//! level, (a) the resident tile footprint and (b) the number of times that
//! tile's contents change as the loops outside it iterate, honoring
//! temporal reuse (stationarity) granted by the loop order and spatial
//! reuse (multicast) granted by parallelization. Traffic × per-level access
//! energies gives energy; a compute/bandwidth roofline gives latency.

use crate::cost::Cost;
use crate::style::ProductStyle;
use arch::{Arch, SparseCaps};
use mapping::{Loop, Mapping, MappingError};
use problem::{Density, Problem, TensorKind};

/// Traffic observed at one storage level (words accessed at that level's
/// port, summed over all instances).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelTraffic {
    /// Words read out of this level (supplies to children, partial-sum
    /// re-reads, drain reads).
    pub reads: f64,
    /// Words written into this level (fills from the parent, partial-sum
    /// writebacks from children).
    pub writes: f64,
}

impl LevelTraffic {
    /// Total words accessed.
    pub fn total(&self) -> f64 {
        self.reads + self.writes
    }
}

/// Full evaluation breakdown; [`Cost`] is derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Per-storage-level traffic, outermost (DRAM) first.
    pub per_level: Vec<LevelTraffic>,
    /// Dense MAC count.
    pub macs: f64,
    /// MACs actually consuming a cycle (post-skipping).
    pub cycle_macs: f64,
    /// MACs actually consuming energy (post-gating/skipping).
    pub energy_macs: f64,
    /// Extra datapath work cycles charged by the sparse style model
    /// (fiber intersection for inner product, merge for outer product).
    pub style_work: f64,
    /// Detected product style (only meaningful for sparse evaluations).
    pub style: ProductStyle,
    /// Spatial lanes used by the mapping.
    pub lanes: f64,
    /// Compute-bound cycles.
    pub compute_cycles: f64,
    /// Per-level bandwidth-bound cycles.
    pub bw_cycles: Vec<f64>,
    /// Capacity spill factor per level (1.0 = tile fits; >1.0 = the level
    /// overflows by that factor and its boundary traffic is inflated
    /// accordingly; soft-capacity sparse evaluations only).
    pub spill: Vec<f64>,
    /// Final cost.
    pub cost: Cost,
}

impl Breakdown {
    /// Per-level energy in pJ (traffic × per-access energy), outermost
    /// first. MAC and sparse-style energy are not included (they are
    /// datapath, not storage).
    pub fn energy_by_level(&self, arch: &Arch) -> Vec<f64> {
        self.per_level
            .iter()
            .enumerate()
            .map(|(i, t)| t.total() * arch.level(i).energy_per_access)
            .collect()
    }

    /// Fraction of the chip's multiply lanes the mapping uses.
    pub fn utilization(&self, arch: &Arch) -> f64 {
        self.lanes / arch.total_spatial_lanes() as f64
    }

    /// Whether latency is bound by compute (true) or by some level's
    /// bandwidth (false).
    pub fn compute_bound(&self) -> bool {
        self.compute_cycles >= self.bw_cycles.iter().copied().fold(0.0, f64::max)
    }
}

/// How buffer-capacity violations are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityMode {
    /// Violations are errors (the dense engine; mappings must be legal).
    Strict,
    /// Violations inflate boundary traffic by the overflow factor (the
    /// sparse engine's cross-density testing, where a mapping tuned for a
    /// sparser tensor may overflow when run denser — Table 2).
    Soft,
}

/// Per-tensor refetch multiplicities at one level.
#[derive(Debug, Clone, Copy)]
struct Mult {
    /// Multicast-collapsed multiplicity: parent-port transfers.
    read: f64,
    /// Per-instance multiplicity: child fill writes.
    write: f64,
    /// Number of distinct tiles (relevant loops only).
    distinct: f64,
}

/// Scans the loops strictly outside `level` (i.e. `Loop::level < level`),
/// innermost first, and derives the refetch multiplicities of a tensor
/// whose relevance predicate is `relevant`.
///
/// Temporal loops over irrelevant dimensions that are innermost-consecutive
/// grant stationarity (the resident tile is reused); once any relevant
/// temporal loop is crossed, every loop outside it — relevant or not —
/// multiplies the refetch count, because intervening relevant iterations
/// evict the tile. Spatial loops never evict: relevant ones partition data
/// (count everywhere), irrelevant ones multicast (count only on the
/// receiving side).
fn multiplicities(nest: &[Loop], level: usize, relevant: impl Fn(usize) -> bool) -> Mult {
    let mut started = false;
    let mut read = 1.0f64;
    let mut write = 1.0f64;
    let mut distinct = 1.0f64;
    // Unit-bound loops never iterate: they are transparent to reuse (this
    // is also what makes Random-Pruned's unit-loop order canonicalization a
    // lossless pruning).
    for l in nest.iter().rev().filter(|l| l.level < level && l.bound > 1) {
        let b = l.bound as f64;
        if l.spatial {
            if relevant(l.dim) {
                read *= b;
                write *= b;
                distinct *= b;
            } else {
                write *= b;
            }
        } else if relevant(l.dim) {
            started = true;
            read *= b;
            write *= b;
            distinct *= b;
        } else if started {
            read *= b;
            write *= b;
        }
    }
    Mult { read, write, distinct }
}

/// Evaluates `m` for `problem` on `arch` with the given workload densities
/// and sparse capabilities. The dense model is the special case
/// `Density::DENSE` + [`SparseCaps::none`] + [`CapacityMode::Strict`].
///
/// One-shot convenience over [`AnalysisContext`]: hot paths (the cost
/// models, which evaluate thousands of mappings against one fixed
/// `(problem, arch)` pair) hold a context instead, so the per-pair
/// invariants below are derived once, not per mapping.
///
/// # Errors
///
/// Returns a structural [`MappingError`] for illegal mappings, or
/// [`MappingError::CapacityExceeded`] under [`CapacityMode::Strict`].
pub fn analyze(
    problem: &Problem,
    arch: &Arch,
    m: &Mapping,
    density: Density,
    caps: &SparseCaps,
    capacity: CapacityMode,
) -> Result<Breakdown, MappingError> {
    AnalysisContext::new(problem, arch, density, caps, capacity).analyze(m)
}

/// Everything the traffic engine needs that does *not* depend on the
/// mapping being evaluated: total MACs, occupancy, compression scales,
/// per-tensor relevance bitmasks, reduction dims, the virtual register
/// tile. A mapper evaluates thousands to millions of mappings against one
/// fixed `(problem, arch, density, caps)` tuple, so these invariants are
/// hoisted out of the per-mapping path ([`AnalysisContext::analyze`]).
#[derive(Debug, Clone)]
pub struct AnalysisContext {
    problem: Problem,
    arch: Arch,
    density: Density,
    caps: SparseCaps,
    capacity: CapacityMode,
    /// Dense MAC count.
    pub(crate) macs: f64,
    /// Probability a MAC has both operands nonzero.
    pub(crate) occupancy: f64,
    /// Reduction dims (output-irrelevant), canonical order.
    pub(crate) reduction_dims: Vec<usize>,
    /// Bit `d` set ⇔ dim `d` is a reduction dim (for style classification).
    pub(crate) reduction_mask: u64,
    /// Per-tensor relevance bitmask: bit `d` set ⇔ the tensor depends on
    /// dim `d`.
    pub(crate) relevance: Vec<u64>,
    /// Per-tensor traffic/footprint scale from compression (outputs get a
    /// per-level scale during analysis).
    pub(crate) scale: Vec<f64>,
    /// Per-tensor *capacity provisioning* scale: worst case over runtime
    /// densities — activations/outputs dense, weights may be compressed.
    pub(crate) cap_scale: Vec<f64>,
    /// The virtual per-ALU register tile (all-unit extents).
    unit_tile: Vec<u64>,
    /// Joint operand occupancy, capped at 1: the scale every bound floor
    /// carries ([`AnalysisContext::bound`]).
    bound_floor: f64,
    /// Compulsory-traffic DRAM-bandwidth latency floor (cycles).
    dram_bw_floor: f64,
    /// MAC energy floor (pJ).
    mac_energy_floor_pj: f64,
    /// Compulsory-traffic DRAM energy floor (pJ).
    dram_energy_floor_pj: f64,
}

/// Compulsory traffic of a problem in words: the summed footprints of its
/// non-output tensors over the whole iteration space, which DRAM must
/// source at least once under any mapping. Level 0's tile of every
/// structurally valid mapping is the whole problem, so this is a
/// per-problem constant.
pub(crate) fn compulsory_words(problem: &Problem) -> f64 {
    let bounds = problem.bounds();
    problem
        .tensors()
        .iter()
        .filter(|t| t.kind != TensorKind::Output)
        .map(|t| t.projection.footprint_f64(&bounds))
        .sum()
}

impl AnalysisContext {
    /// Precomputes the per-`(problem, arch, density, caps)` invariants.
    pub fn new(
        problem: &Problem,
        arch: &Arch,
        density: Density,
        caps: &SparseCaps,
        capacity: CapacityMode,
    ) -> Self {
        let tensors = problem.tensors();
        let macs = problem.total_macs() as f64;
        let occupancy = density.weight * density.input;
        // A tensor is stored compressed only when the compressed form
        // (nnz + metadata) is smaller than the dense form.
        let compress = |d: f64| -> f64 {
            if caps.compressed {
                (d * (1.0 + caps.metadata_per_nnz)).min(1.0)
            } else {
                1.0
            }
        };
        let reduction_dims = problem.reduction_dims();
        let mut reduction_mask = 0u64;
        for &d in &reduction_dims {
            reduction_mask |= 1 << d;
        }
        let relevance = tensors
            .iter()
            .map(|t| {
                let mut mask = 0u64;
                for d in 0..problem.num_dims() {
                    if t.projection.depends_on(d) {
                        mask |= 1 << d;
                    }
                }
                mask
            })
            .collect();
        let scale: Vec<f64> = tensors
            .iter()
            .map(|t| match t.kind {
                TensorKind::Output => 1.0,
                k => compress(density.of(k)),
            })
            .collect();
        // Capacity must be provisioned for the *worst case* of any density
        // that is dynamic at runtime: activations (and therefore partial
        // outputs) vary per input, so their tiles are allocated at dense
        // size. Weight sparsity is static (fixed when the model is
        // pruned), so weight tiles may be provisioned compressed.
        let cap_scale = tensors
            .iter()
            .zip(&scale)
            .map(|(t, s)| match t.kind {
                TensorKind::Weight => *s,
                TensorKind::Input | TensorKind::Output => 1.0,
            })
            .collect();
        let unit_tile = vec![1u64; problem.num_dims()];
        // Joint operand occupancy lower-bounds every traffic/cycle/energy
        // scale the engine can apply (compression keeps ≥ density words;
        // gating/skipping keep ≥ occupancy MACs); 1.0 for dense.
        let bound_floor = occupancy.min(1.0);
        let full = compulsory_words(problem);
        let l0 = arch.level(0);
        AnalysisContext {
            problem: problem.clone(),
            arch: arch.clone(),
            density,
            caps: *caps,
            capacity,
            macs,
            occupancy,
            reduction_dims,
            reduction_mask,
            relevance,
            scale,
            cap_scale,
            unit_tile,
            bound_floor,
            dram_bw_floor: full * bound_floor / l0.bandwidth,
            mac_energy_floor_pj: macs * bound_floor * arch.mac_energy,
            dram_energy_floor_pj: full * bound_floor * l0.energy_per_access,
        }
    }

    /// The workload this context is bound to.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The accelerator this context is bound to.
    pub fn arch(&self) -> &Arch {
        &self.arch
    }

    /// The density profile this context evaluates at.
    pub fn density(&self) -> Density {
        self.density
    }

    /// The sparse capability description.
    pub fn caps(&self) -> &SparseCaps {
        &self.caps
    }

    fn compress(&self, d: f64) -> f64 {
        if self.caps.compressed {
            (d * (1.0 + self.caps.metadata_per_nnz)).min(1.0)
        } else {
            1.0
        }
    }

    /// Density of a *partially accumulated* output tile at a level,
    /// governed by the reduction volume already folded inside that tile:
    /// per-MAC partial updates (the register boundary) are `occupancy`
    /// dense, while a fully reduced DRAM output is `1-(1-occ)^R` dense.
    fn out_density_at(&self, ext: &[u64]) -> f64 {
        // Dense fast path: `(1 - 0^r).clamp(1, 1)` is 1.0 for every `r`
        // (including `r = 0`, where the clamp floor takes over), so skip
        // the `powf` — it dominates this function's cost.
        if self.occupancy >= 1.0 {
            return 1.0;
        }
        let red_inside: f64 = self.reduction_dims.iter().map(|&d| ext[d] as f64).product();
        (1.0 - (1.0 - self.occupancy).powf(red_inside)).clamp(self.occupancy.min(1.0), 1.0)
    }

    /// Capacity spill factor of one level given its resident-tile extents:
    /// `1.0` when the tile fits, the overflow factor under
    /// [`CapacityMode::Soft`], and [`MappingError::CapacityExceeded`] under
    /// [`CapacityMode::Strict`].
    fn spill_at(&self, li: usize, ext: &[u64]) -> Result<f64, MappingError> {
        let Some(cap) = self.arch.level(li).capacity_words else { return Ok(1.0) };
        let needed: f64 = self
            .problem
            .tensors()
            .iter()
            .zip(&self.cap_scale)
            .map(|(t, s)| t.projection.footprint_f64(ext) * s)
            .sum();
        if needed > cap as f64 {
            if self.capacity == CapacityMode::Strict {
                return Err(MappingError::CapacityExceeded {
                    level: li,
                    needed_words: needed,
                    capacity_words: cap,
                });
            }
            return Ok(needed / cap as f64);
        }
        Ok(1.0)
    }

    /// Traffic contributed by one tensor at one loop-nest boundary
    /// (parent = `i-1`, child = `i`; `i == num_levels` is the virtual
    /// per-ALU register boundary with unit-tile extents `ext`). `sp` is the
    /// child's spill factor. Pure per-(boundary, tensor) work, called only
    /// from [`AnalysisContext::analyze_with`].
    fn boundary_contrib(
        &self,
        nest: &[Loop],
        i: usize,
        ext: &[u64],
        sp: f64,
        ti: usize,
    ) -> BoundaryContrib {
        let nl = self.arch.num_levels();
        let t = &self.problem.tensors()[ti];
        let f = t.projection.footprint_f64(ext);
        let mask = self.relevance[ti];
        let mult = multiplicities(nest, i, |d| mask & (1 << d) != 0);
        let sc = if t.kind == TensorKind::Output {
            // Per-level partial-output density (per-MAC updates at the
            // register boundary, fully reduced tiles further out).
            self.compress(self.out_density_at(ext))
        } else if i == nl && self.caps.skipping {
            // At the MAC boundary, skipping hardware only fetches operands
            // for surviving (all-nonzero) MACs, regardless of which operand
            // carries the zeros.
            self.occupancy.min(self.scale[ti])
        } else {
            self.scale[ti]
        };
        match t.kind {
            TensorKind::Input | TensorKind::Weight => BoundaryContrib {
                parent_reads: mult.read * f * sc * sp,
                parent_writes: 0.0,
                child_reads: 0.0,
                child_writes: mult.write * f * sc * sp,
            },
            TensorKind::Output => {
                // Drains: every recycle of the child tile writes its
                // contents up (spatial reduction collapses multicast).
                // Accumulation refills: revisited tiles re-read their
                // partials from the parent (first pass initializes).
                let drains = mult.read * f * sc * sp;
                let refills = (mult.read - mult.distinct).max(0.0) * f * sc * sp;
                BoundaryContrib {
                    parent_reads: refills,
                    parent_writes: drains,
                    child_reads: drains,
                    child_writes: refills,
                }
            }
        }
    }

    /// Adds one boundary contribution into the per-level traffic lanes.
    /// Every cell receives exactly one add per (boundary, tensor) pair, in
    /// boundary-then-tensor order (adding `+0.0` to a non-negative cell is
    /// an IEEE no-op).
    fn apply_contrib(per_level: &mut [LevelTraffic], i: usize, c: BoundaryContrib) {
        per_level[i - 1].reads += c.parent_reads;
        per_level[i - 1].writes += c.parent_writes;
        if i < per_level.len() {
            per_level[i].reads += c.child_reads;
            per_level[i].writes += c.child_writes;
        }
    }

    /// Datapath, energy, and roofline tail of the boundary loop: turns
    /// accumulated per-level traffic plus spill factors into a full
    /// [`Breakdown`]. `nest` is `m`'s flattened loop nest.
    fn finalize(
        &self,
        m: &Mapping,
        nest: &[Loop],
        per_level: Vec<LevelTraffic>,
        spill: Vec<f64>,
    ) -> Breakdown {
        let arch = &self.arch;
        let nl = arch.num_levels();
        let macs = self.macs;
        let occupancy = self.occupancy;

        // Datapath: skipping removes zero cycles; gating removes zero
        // energy.
        let caps = &self.caps;
        let cycle_macs = if caps.skipping { macs * occupancy } else { macs };
        let energy_macs = if caps.skipping || caps.gating { macs * occupancy } else { macs };

        // Sparse dataflow-style overhead (§4.5.3); zero for dense caps.
        let style = crate::style::classify_masked(self.reduction_mask, nest);
        let style_work = match style {
            ProductStyle::Inner => {
                caps.intersection_cost * macs * self.density.weight.max(self.density.input)
            }
            ProductStyle::Outer => (caps.merge_overhead - 1.0).max(0.0) * macs * occupancy,
        };

        let lanes = m.used_lanes() as f64;
        let compute_cycles = (cycle_macs + style_work) / lanes;

        let innermost_energy = arch.level(nl - 1).energy_per_access;
        let mut energy_pj = style_work * innermost_energy + energy_macs * arch.mac_energy;
        for (li, t) in per_level.iter().enumerate() {
            energy_pj += t.total() * arch.level(li).energy_per_access;
        }

        let mut bw_cycles = Vec::with_capacity(nl);
        let mut active = 1.0f64;
        for (li, t) in per_level.iter().enumerate() {
            bw_cycles.push(t.total() / (arch.level(li).bandwidth * active));
            active *= m.spatial_product(li) as f64;
        }

        let latency = compute_cycles.max(bw_cycles.iter().copied().fold(0.0, f64::max)).max(1.0);
        let cost = Cost::new(latency, energy_pj * 1e-6);

        Breakdown {
            per_level,
            macs,
            cycle_macs,
            energy_macs,
            style_work,
            style,
            lanes,
            compute_cycles,
            bw_cycles,
            spill,
            cost,
        }
    }

    /// Evaluates one mapping: the one boundary loop over a fresh workspace.
    ///
    /// # Errors
    ///
    /// Returns a structural [`MappingError`] for illegal mappings, or
    /// [`MappingError::CapacityExceeded`] under [`CapacityMode::Strict`].
    pub fn analyze(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
        self.analyze_with(m, &mut Scratch::default())
    }

    /// The one boundary loop behind every evaluation path — one-shot
    /// ([`AnalysisContext::analyze`]) and batched (the engines share one
    /// `s` across a batch or a neighborhood): validate → extents → spill →
    /// nest → per-(boundary, tensor) contributions →
    /// [`AnalysisContext::finalize`]. Every field of `s` is rewritten
    /// before it is read, so a workspace left behind by an early error is
    /// harmless.
    pub(crate) fn analyze_with(
        &self,
        m: &Mapping,
        s: &mut Scratch,
    ) -> Result<Breakdown, MappingError> {
        let problem = &self.problem;
        let arch = &self.arch;
        m.validate_structure(problem, arch)?;
        let nl = arch.num_levels();
        let nt = problem.tensors().len();
        let d = problem.num_dims();

        // Extents, levels `0..nl` flattened: backward suffix-product sweep.
        // Integer multiplication is exact, so level `li` equals
        // `m.tile_extents(li)` bit for bit.
        s.extents.clear();
        s.extents.resize(nl * d, 1);
        for li in (0..nl).rev() {
            let (temporal, spatial) = (m.temporal(li), m.spatial(li));
            for dim in 0..d {
                let above = if li + 1 < nl { s.extents[(li + 1) * d + dim] } else { 1 };
                s.extents[li * d + dim] = above * temporal[dim] * spatial[dim];
            }
        }

        // Capacity: spill factor per level (strict-capacity errors
        // propagate, lowest level first).
        let mut spill = vec![1.0f64; nl];
        for (li, spill_li) in spill.iter_mut().enumerate() {
            *spill_li = self.spill_at(li, &s.extents[li * d..(li + 1) * d])?;
        }

        s.nest.clear();
        s.nest.reserve(2 * nl * d);
        m.nest_into(&mut s.nest);

        // Boundaries: (parent = i-1, child = i) for i in 1..=nl, where
        // i == nl is the virtual per-ALU register level (unit tiles) that
        // models MAC operand fetch and accumulator drain.
        let mut per_level = vec![LevelTraffic::default(); nl];
        for i in 1..=nl {
            let ext = if i < nl { &s.extents[i * d..(i + 1) * d] } else { &self.unit_tile[..] };
            // Spill at the child inflates its boundary with the parent
            // (the register boundary `i == nl` has none).
            let sp = spill.get(i).copied().unwrap_or(1.0);
            for ti in 0..nt {
                let c = self.boundary_contrib(&s.nest, i, ext, sp, ti);
                Self::apply_contrib(&mut per_level, i, c);
            }
        }

        Ok(self.finalize(m, &s.nest, per_level, spill))
    }

    /// Admissible lower bound on the cost of `m`: provably
    /// `bound ≤ analyze(m).cost` component-wise (and therefore on EDP), so
    /// a candidate whose bound already exceeds the incumbent can be skipped
    /// without evaluation and without changing any search result. `None`
    /// when the mapping is structurally invalid (full evaluation reports
    /// the error).
    ///
    /// The bound inverts the guard layer's floors; see [`BoundReport`] for
    /// the admissibility argument per term. Only the compute floor depends
    /// on `m` (through its lanes); the rest are per-context constants, so
    /// a call costs one structural check and touches no heap.
    pub fn bound(&self, m: &Mapping) -> Option<BoundReport> {
        m.validate_structure(&self.problem, &self.arch).ok()?;
        let compute_latency = self.macs * self.bound_floor / m.used_lanes() as f64;
        let dram_bw_latency = self.dram_bw_floor;
        let latency = compute_latency.max(dram_bw_latency).max(1.0);
        let mac_energy_pj = self.mac_energy_floor_pj;
        let dram_energy_pj = self.dram_energy_floor_pj;
        let energy_uj = (mac_energy_pj + dram_energy_pj) * 1e-6;
        Some(BoundReport {
            compute_latency,
            dram_bw_latency,
            latency,
            mac_energy_pj,
            dram_energy_pj,
            cost: Cost::new(latency, energy_uj),
        })
    }
}

/// Reusable workspace of [`AnalysisContext::analyze_with`]: a batch shares
/// one instead of allocating these per mapping. The vectors that end up
/// owned by the returned [`Breakdown`] are still fresh per call.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Tile extents, levels `0..nl` flattened (`num_dims` each).
    extents: Vec<u64>,
    /// The flattened loop nest.
    nest: Vec<Loop>,
}

/// Traffic contributed by one tensor at one loop-nest boundary, split by
/// which side of the boundary each word lands on.
struct BoundaryContrib {
    /// Words read out of the parent level (`i-1`).
    parent_reads: f64,
    /// Words written into the parent level (output drains).
    parent_writes: f64,
    /// Words read out of the child level (`i`; dropped at the register
    /// boundary).
    child_reads: f64,
    /// Words written into the child level (fills / accumulation refills).
    child_writes: f64,
}

/// Per-floor breakdown of the admissible lower bound
/// ([`AnalysisContext::bound`]), printable via `mapex evaluate
/// --explain-bound`.
///
/// Admissibility, term by term (`floor` = joint operand occupancy, 1 for
/// dense; every engine scale — compression, gating, skipping, spill ≥ 1 —
/// is ≥ `floor` or only inflates):
///
/// * `compute_latency = macs × floor / used_lanes(m)`: true latency ≥
///   `compute_cycles = (cycle_macs + style_work) / used_lanes` and
///   `cycle_macs ≥ macs × floor`, `style_work ≥ 0`.
/// * `dram_bw_latency = Σ non-output footprints × floor / bw₀`: true
///   latency ≥ `bw_cycles[0] = total₀ / bw₀` (one DRAM instance), and DRAM
///   reads alone cover each non-output tensor once (the compulsory-traffic
///   floor the guard layer enforces).
/// * `latency = max(1, …)`: the engine clamps latency to ≥ 1 cycle.
/// * `mac_energy_pj = macs × floor × mac_energy`: `energy_macs ≥ macs ×
///   floor` in every gating/skipping mode.
/// * `dram_energy_pj`: the compulsory DRAM reads again, priced at the DRAM
///   access energy; all other levels' traffic only adds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundReport {
    /// Compute-roofline latency floor (cycles).
    pub compute_latency: f64,
    /// DRAM-bandwidth latency floor from compulsory traffic (cycles).
    pub dram_bw_latency: f64,
    /// Combined admissible latency bound (cycles, ≥ 1).
    pub latency: f64,
    /// MAC energy floor (pJ).
    pub mac_energy_pj: f64,
    /// Compulsory DRAM traffic energy floor (pJ).
    pub dram_energy_pj: f64,
    /// The bound as a [`Cost`] (µJ), comparable against true costs.
    pub cost: Cost,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapping::MapSpace;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dense(problem: &Problem, arch: &Arch, m: &Mapping) -> Breakdown {
        analyze(problem, arch, m, Density::DENSE, &SparseCaps::none(), CapacityMode::Strict)
            .expect("legal mapping")
    }

    fn small_setup() -> (Problem, Arch) {
        (Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3), Arch::accel_b())
    }

    #[test]
    fn trivial_mapping_dram_reads_match_hand_count() {
        // All loops at DRAM, unit tiles inside: every MAC re-fetches its
        // operands from DRAM (no reuse anywhere below), so DRAM reads for
        // each input operand equal... the stationarity granted by the DRAM
        // loop order (innermost X, S irrelevant to weights etc.).
        let (p, a) = small_setup();
        let m = Mapping::trivial(&p, &a);
        let b = dense(&p, &a, &m);
        let macs = p.total_macs() as f64;
        // Weights: order is (B,K,C,Y,X,R,S); innermost loop S is
        // weight-relevant => no stationarity => weight fetches = macs.
        // Inputs: innermost S,R are input-relevant (window) => macs.
        // Outputs: innermost S,R irrelevant (register accumulation), so
        // drains (DRAM writes) = B*K*C*Y*X = macs / 9, and accumulation
        // refills (DRAM reads) = drains - distinct outputs (first pass of
        // the C loop needs no read).
        let drains = macs / 9.0;
        let distinct_outputs = (2 * 8 * 7 * 7) as f64;
        let refills = drains - distinct_outputs;
        let expected_reads = macs + macs + refills;
        let expected_writes = drains;
        assert!((b.per_level[0].reads - expected_reads).abs() / expected_reads < 1e-9);
        assert!((b.per_level[0].writes - expected_writes).abs() / expected_writes < 1e-9);
    }

    #[test]
    fn output_stationary_order_cuts_output_traffic() {
        let (p, a) = small_setup();
        let mut m = Mapping::trivial(&p, &a);
        // (C,R,S) innermost at DRAM: full register accumulation per output.
        m.order_mut(0).copy_from_slice(&[0, 1, 3, 4, 2, 5, 6]);
        let b = dense(&p, &a, &m);
        let outputs = (2 * 8 * 7 * 7) as f64;
        assert!((b.per_level[0].writes - outputs).abs() < 1e-6);
    }

    #[test]
    fn weight_stationary_order_cuts_weight_traffic() {
        let (p, a) = small_setup();
        let mut m = Mapping::trivial(&p, &a);
        // Weight-irrelevant dims (B,Y,X) innermost: weights stationary in
        // the register across them.
        m.order_mut(0).copy_from_slice(&[1, 2, 5, 6, 0, 3, 4]);
        let b0 = dense(&p, &a, &Mapping::trivial(&p, &a));
        let b1 = dense(&p, &a, &m);
        assert!(b1.per_level[0].reads < b0.per_level[0].reads);
    }

    #[test]
    fn buffering_at_l2_reduces_dram_traffic() {
        let (p, a) = small_setup();
        let trivial = Mapping::trivial(&p, &a);
        let mut tiled = Mapping::trivial(&p, &a);
        // Move the filter loops and C inside the global buffer.
        for dim in [2usize, 5, 6] {
            tiled.temporal_mut(1)[dim] = p.bound(dim);
            tiled.temporal_mut(0)[dim] = 1;
        }
        tiled.validate(&p, &a).unwrap();
        let b0 = dense(&p, &a, &trivial);
        let b1 = dense(&p, &a, &tiled);
        assert!(b1.per_level[0].total() < b0.per_level[0].total());
    }

    #[test]
    fn parallelism_reduces_latency() {
        let (p, a) = small_setup();
        let serial = Mapping::trivial(&p, &a);
        let mut par = Mapping::trivial(&p, &a);
        par.temporal_mut(0)[1] = 1;
        par.spatial_mut(1)[1] = 8; // K across PEs
        par.validate(&p, &a).unwrap();
        let b0 = dense(&p, &a, &serial);
        let b1 = dense(&p, &a, &par);
        assert!(b1.cost.latency_cycles < b0.cost.latency_cycles);
        assert_eq!(b1.lanes, 8.0);
    }

    #[test]
    fn multicast_saves_parent_reads() {
        // Parallelize K across PEs: inputs are K-irrelevant => multicast.
        let (p, a) = small_setup();
        let mut par = Mapping::trivial(&p, &a);
        par.temporal_mut(0)[1] = 1;
        par.spatial_mut(1)[1] = 8;
        par.validate(&p, &a).unwrap();
        let b = dense(&p, &a, &par);
        // Inputs are K-irrelevant: each global-buffer read is multicast to
        // the 8 PEs, so per-PE fill writes (level 2) strictly exceed
        // parent-port supply reads (level 1); weights are partitioned
        // (equal on both sides) and output drains are reduced in the NoC.
        assert!(b.per_level[2].writes > b.per_level[1].reads);
    }

    #[test]
    fn energy_breakdown_is_positive_and_finite() {
        let (p, a) = small_setup();
        let s = MapSpace::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100 {
            let m = s.random(&mut rng);
            let b = dense(&p, &a, &m);
            assert!(b.cost.energy_uj > 0.0 && b.cost.energy_uj.is_finite());
            assert!(b.cost.latency_cycles >= 1.0 && b.cost.latency_cycles.is_finite());
            for t in &b.per_level {
                assert!(t.reads >= 0.0 && t.writes >= 0.0);
            }
        }
    }

    #[test]
    fn compute_floor_is_macs_over_lanes() {
        let (p, a) = small_setup();
        let m = Mapping::trivial(&p, &a);
        let b = dense(&p, &a, &m);
        assert!(b.cost.latency_cycles >= p.total_macs() as f64 / 1.0 - 1e-9);
    }

    #[test]
    fn strict_capacity_rejects_oversized_tiles() {
        let (p, a) = small_setup();
        let mut m = Mapping::trivial(&p, &a);
        for dim in 0..7 {
            m.temporal_mut(2)[dim] = p.bound(dim);
            m.temporal_mut(0)[dim] = 1;
        }
        let err = analyze(&p, &a, &m, Density::DENSE, &SparseCaps::none(), CapacityMode::Strict);
        assert!(matches!(err, Err(MappingError::CapacityExceeded { .. })));
        // Soft mode evaluates with a spill penalty instead.
        let soft =
            analyze(&p, &a, &m, Density::DENSE, &SparseCaps::none(), CapacityMode::Soft).unwrap();
        assert!(soft.spill[2] > 1.0);
    }

    #[test]
    fn gemm_hand_counts_output_stationary() {
        // GEMM (B=1, M=4, K=8, N=2), everything temporal at DRAM with K
        // innermost: per-output register accumulation.
        let p = Problem::gemm("g", 1, 4, 8, 2);
        let a = Arch::accel_b();
        let mut m = Mapping::trivial(&p, &a);
        m.order_mut(0).copy_from_slice(&[0, 1, 3, 2]); // B, M, N, K (K innermost)
        let b = dense(&p, &a, &m);
        let macs = (4 * 8 * 2) as f64;
        // Outputs: K innermost is register-accumulated => one write per
        // output element, no accumulation reads.
        assert_eq!(b.per_level[0].writes, 4.0 * 2.0);
        // A[b,m,k]: innermost K relevant => refetched per MAC. W[k,n]:
        // innermost K relevant => refetched per MAC. Total DRAM reads:
        assert_eq!(b.per_level[0].reads, macs + macs);
    }

    #[test]
    fn gemm_hand_counts_weight_stationary() {
        // Same GEMM, order (K, N, B, M): W[k,n] stationary across B,M.
        let p = Problem::gemm("g", 1, 4, 8, 2);
        let a = Arch::accel_b();
        let mut m = Mapping::trivial(&p, &a);
        m.order_mut(0).copy_from_slice(&[2, 3, 0, 1]);
        let b = dense(&p, &a, &m);
        let macs = (4 * 8 * 2) as f64;
        // W reads: innermost loops (B, M) are W-irrelevant => one read per
        // (k, n) pair = 16.
        // A reads: innermost M relevant => macs.
        // Output: innermost M relevant (no register reuse) => drains = macs
        // with accumulation refills = macs - distinct(8).
        let w_reads = 16.0;
        let a_reads = macs;
        let out_refills = macs - 8.0;
        assert_eq!(b.per_level[0].reads, w_reads + a_reads + out_refills);
        assert_eq!(b.per_level[0].writes, macs);
    }

    #[test]
    fn breakdown_helpers_are_consistent() {
        let (p, a) = small_setup();
        let m = Mapping::trivial(&p, &a);
        let b = dense(&p, &a, &m);
        let by_level = b.energy_by_level(&a);
        assert_eq!(by_level.len(), 3);
        let storage: f64 = by_level.iter().sum();
        let total_pj = b.cost.energy_uj * 1e6;
        assert!(storage < total_pj);
        assert!((total_pj - storage - b.macs * a.mac_energy).abs() / total_pj < 1e-9);
        assert_eq!(b.utilization(&a), 1.0 / 1024.0);
        // compute_bound agrees with which term set the latency.
        let bw_max = b.bw_cycles.iter().copied().fold(0.0, f64::max);
        assert_eq!(b.compute_bound(), b.compute_cycles >= bw_max);
        assert!((b.cost.latency_cycles - b.compute_cycles.max(bw_max)).abs() < 1e-9);
    }

    #[test]
    fn context_matches_oneshot_analyze_dense_and_sparse() {
        // The precomputed-context path must be bit-identical to the
        // one-shot path across capability/density corners, including the
        // spill (soft capacity) and skipping branches.
        let (p, a) = small_setup();
        let s = MapSpace::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(21);
        let configs = [
            (Density::DENSE, SparseCaps::none(), CapacityMode::Strict),
            (Density::weight_sparse(0.3), SparseCaps::flexible(), CapacityMode::Soft),
            (Density::weight_sparse(0.05), SparseCaps::gating_only(), CapacityMode::Soft),
        ];
        for (density, caps, capacity) in configs {
            let ctx = AnalysisContext::new(&p, &a, density, &caps, capacity);
            assert_eq!(ctx.problem(), &p);
            assert_eq!(ctx.density(), density);
            for _ in 0..50 {
                let m = s.random(&mut rng);
                let oneshot = analyze(&p, &a, &m, density, &caps, capacity);
                let ctxed = ctx.analyze(&m);
                match (oneshot, ctxed) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y),
                    (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string()),
                    (x, y) => panic!("paths disagree: {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn dram_reads_at_least_cover_each_operand_once() {
        let (p, a) = small_setup();
        let s = MapSpace::new(p.clone(), a.clone());
        let mut rng = SmallRng::seed_from_u64(5);
        let input_size = (2 * 8 * 9 * 9) as f64;
        let weight_size = (8 * 8 * 3 * 3) as f64;
        let out_size = (2 * 8 * 7 * 7) as f64;
        for _ in 0..50 {
            let m = s.random(&mut rng);
            let b = dense(&p, &a, &m);
            assert!(b.per_level[0].reads >= input_size + weight_size - 1e-6);
            assert!(b.per_level[0].writes >= out_size - 1e-6);
        }
    }
}
