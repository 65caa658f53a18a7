//! Reference loop-nest simulator.
//!
//! Executes a mapping's loop nest iteration by iteration, tracking the
//! resident data tile of every (storage level, tensor) pair and counting
//! fill/drain events *by observation* instead of by formula. On problems
//! small enough to enumerate, this validates the analytical cost model the
//! way the paper's Timeloop was "validated against real chips": every
//! refetch the analytical multiplicity machinery predicts must actually
//! happen in the executed nest, and none besides.
//!
//! # Scope: temporal mappings only
//!
//! The simulator enumerates a *sequential* loop nest. Spatial loops add
//! per-instance buffers and multicast accounting that the analytical model
//! covers with closed forms; simulating them would require one resident
//! tile per instance, which this brute-force oracle deliberately does not
//! model. [`simulate`] therefore **rejects any mapping with a spatial
//! factor above 1** with [`SimError::SpatialUnsupported`] — it never
//! silently returns wrong counts. Use [`demote_spatial`] to fold spatial
//! factors into temporal ones first: demotion keeps every level's tile
//! extents (and therefore footprints and legality) unchanged, it only
//! serializes the parallelism — the temporal machinery is the part with
//! order-dependent reuse subtleties worth brute-force checking.
//!
//! # Example
//!
//! ```
//! use refsim::simulate;
//!
//! let p = problem::Problem::gemm("g", 1, 4, 4, 4);
//! let a = arch::Arch::accel_b();
//! let m = mapping::Mapping::trivial(&p, &a);
//! let counts = simulate(&p, &a, &m).unwrap();
//! assert_eq!(counts.macs, 64);
//! ```

use arch::Arch;
use mapping::{Mapping, MappingError};
use problem::{Problem, TensorKind};
use std::collections::HashSet;

/// Traffic observed at one storage level by simulation, mirroring
/// [`costmodel::LevelTraffic`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimLevelTraffic {
    /// Words read out of this level.
    pub reads: f64,
    /// Words written into this level.
    pub writes: f64,
}

/// Simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCounts {
    /// Per-level traffic, outermost first.
    pub per_level: Vec<SimLevelTraffic>,
    /// Executed multiply-accumulates.
    pub macs: u64,
}

/// Error cases for [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The mapping is illegal for the problem/architecture.
    Illegal(MappingError),
    /// The mapping uses spatial loops, which the sequential simulator does
    /// not model (see the [module docs](self)); run [`demote_spatial`]
    /// first.
    SpatialUnsupported,
    /// The iteration space is too large to enumerate (guard rail).
    TooLarge(u128),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Illegal(e) => write!(f, "illegal mapping: {e}"),
            SimError::SpatialUnsupported => write!(
                f,
                "mapping has spatial loops, which the sequential reference \
                 simulator does not model; demote them to temporal loops \
                 first (refsim::demote_spatial)"
            ),
            SimError::TooLarge(n) => write!(f, "iteration space too large: {n}"),
        }
    }
}

/// Folds every spatial factor into the temporal factor at the same level,
/// returning a purely temporal mapping [`simulate`] accepts.
///
/// Per level, `temporal[d] × spatial[d]` is preserved, so every level's
/// tile extents — and with them footprints, capacity legality, and the
/// per-dimension factor products — are unchanged; only the parallelism is
/// serialized. A legal mapping therefore stays legal (a spatial product of
/// 1 trivially satisfies any fanout) and needs no capacity repair.
pub fn demote_spatial(m: &Mapping) -> Mapping {
    let mut out = m.clone();
    for l in 0..out.num_levels() {
        for dim in 0..out.num_dims() {
            out.temporal_mut(l)[dim] *= out.spatial(l)[dim];
            out.spatial_mut(l)[dim] = 1;
        }
    }
    out
}

impl std::error::Error for SimError {}

/// Hard cap on enumerable iterations.
pub const MAX_ITERATIONS: u128 = 50_000_000;

/// Runs the mapping's loop nest and counts per-level traffic.
///
/// # Errors
///
/// Returns [`SimError::Illegal`] for illegal mappings,
/// [`SimError::SpatialUnsupported`] for mappings with spatial loops (fold
/// them away with [`demote_spatial`] first), or [`SimError::TooLarge`] for
/// iteration spaces beyond [`MAX_ITERATIONS`].
pub fn simulate(problem: &Problem, arch: &Arch, m: &Mapping) -> Result<SimCounts, SimError> {
    m.validate(problem, arch).map_err(SimError::Illegal)?;
    if (0..m.num_levels()).any(|l| m.spatial_product(l) > 1) {
        return Err(SimError::SpatialUnsupported);
    }
    let total = problem.total_macs();
    if total > MAX_ITERATIONS {
        return Err(SimError::TooLarge(total));
    }

    let nl = arch.num_levels();
    let tensors = problem.tensors();

    // The temporal loop list, outermost first: (dim, bound, level).
    let loops: Vec<(usize, u64, usize)> = m
        .nest()
        .iter()
        .filter(|l| !l.spatial && l.bound > 1)
        .map(|l| (l.dim, l.bound, l.level))
        .collect();

    // There are nl boundaries: child level i in 1..=nl, parent i-1, where
    // i == nl is the per-MAC virtual register level (tile_extents(nl) is
    // the unit tile). The tile id of tensor T at child level i is the
    // tuple of values of loops at levels < i over dims relevant to T. A
    // fill happens whenever the id changes; outputs additionally
    // distinguish first-time ids (no accumulation read) from revisits.
    let mut footprint: Vec<Vec<f64>> = Vec::with_capacity(nl);
    for i in 1..=nl {
        let ext = m.tile_extents(i);
        footprint.push(tensors.iter().map(|t| t.projection.footprint_f64(&ext)).collect());
    }

    // Precompute, per boundary and tensor, which loop positions form the id.
    let id_positions: Vec<Vec<Vec<usize>>> = (1..=nl)
        .map(|i| {
            tensors
                .iter()
                .map(|t| {
                    loops
                        .iter()
                        .enumerate()
                        .filter(|(_, &(dim, _, level))| {
                            level < i && t.projection.depends_on(dim)
                        })
                        .map(|(pos, _)| pos)
                        .collect()
                })
                .collect()
        })
        .collect();

    let nt = tensors.len();
    let mut prev_id: Vec<Vec<Option<Vec<u64>>>> = vec![vec![None; nt]; nl];
    let mut seen_out: Vec<HashSet<Vec<u64>>> = vec![HashSet::new(); nl];
    let mut fills = vec![vec![0u64; nt]; nl]; // id changes per boundary/tensor
    let mut out_revisits = vec![0u64; nl];

    // Odometer over the loop list (innermost advances fastest).
    let mut counters = vec![0u64; loops.len()];
    let mut macs = 0u64;
    let out_idx = tensors
        .iter()
        .position(|t| t.kind == TensorKind::Output)
        .expect("problems have one output");

    loop {
        macs += 1;
        for bi in 0..nl {
            for (ti, _) in tensors.iter().enumerate() {
                let id: Vec<u64> =
                    id_positions[bi][ti].iter().map(|&pos| counters[pos]).collect();
                if prev_id[bi][ti].as_ref() != Some(&id) {
                    fills[bi][ti] += 1;
                    if ti == out_idx && !seen_out[bi].insert(id.clone()) {
                        out_revisits[bi] += 1;
                    }
                    prev_id[bi][ti] = Some(id);
                }
            }
        }
        // Advance the odometer.
        let mut pos = loops.len();
        loop {
            if pos == 0 {
                // Done: assemble traffic exactly as the analytical engine
                // does for the no-spatial case.
                let mut per_level = vec![SimLevelTraffic::default(); nl];
                for bi in 0..nl {
                    let child = bi + 1; // child level index in 1..=nl
                    for (ti, t) in tensors.iter().enumerate() {
                        let f = footprint[bi][ti];
                        let n = fills[bi][ti] as f64;
                        match t.kind {
                            TensorKind::Input | TensorKind::Weight => {
                                per_level[child - 1].reads += n * f;
                                if child < nl {
                                    per_level[child].writes += n * f;
                                }
                            }
                            TensorKind::Output => {
                                let drains = n * f;
                                let refills = out_revisits[bi] as f64 * f;
                                per_level[child - 1].writes += drains;
                                per_level[child - 1].reads += refills;
                                if child < nl {
                                    per_level[child].reads += drains;
                                    per_level[child].writes += refills;
                                }
                            }
                        }
                    }
                }
                return Ok(SimCounts { per_level, macs });
            }
            pos -= 1;
            counters[pos] += 1;
            if counters[pos] < loops[pos].1 {
                break;
            }
            counters[pos] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_gemm_macs() {
        let p = Problem::gemm("g", 1, 4, 4, 4);
        let a = Arch::accel_b();
        let m = Mapping::trivial(&p, &a);
        let c = simulate(&p, &a, &m).expect("simulable");
        assert_eq!(c.macs, 64);
        assert_eq!(c.per_level.len(), 3);
    }

    #[test]
    fn rejects_spatial_mappings() {
        let p = Problem::gemm("g", 1, 4, 4, 4);
        let a = Arch::accel_b();
        let mut m = Mapping::trivial(&p, &a);
        m.temporal_mut(0)[1] = 2;
        m.spatial_mut(1)[1] = 2;
        assert_eq!(simulate(&p, &a, &m), Err(SimError::SpatialUnsupported));
        assert!(simulate(&p, &a, &m).unwrap_err().to_string().contains("demote"));
        // Demotion makes the same mapping simulable without repair.
        let t = demote_spatial(&m);
        assert!(t.is_legal(&p, &a));
        assert!(simulate(&p, &a, &t).is_ok());
    }

    #[test]
    fn demote_spatial_preserves_extents_and_legality() {
        let p = Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3);
        let a = Arch::accel_b();
        let s = mapping::MapSpace::new(p.clone(), a.clone());
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(4);
        for _ in 0..50 {
            let m = s.random(&mut rng);
            let t = demote_spatial(&m);
            assert!(t.is_legal(&p, &a), "demotion broke legality");
            assert_eq!(t.used_lanes(), 1);
            for li in 0..a.num_levels() {
                assert_eq!(m.tile_extents(li), t.tile_extents(li), "extents changed at {li}");
            }
        }
    }

    #[test]
    fn rejects_oversized_problems() {
        let p = Problem::conv2d("big", 16, 256, 256, 14, 14, 3, 3);
        let a = Arch::accel_b();
        let m = Mapping::trivial(&p, &a);
        assert!(matches!(simulate(&p, &a, &m), Err(SimError::TooLarge(_))));
    }
}
