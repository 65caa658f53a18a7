//! Guarded evaluation: physical-invariant checking on every cost-model call.
//!
//! The search methodology (and every regenerated figure) assumes the
//! analytical model is trustworthy. [`GuardedModel`] is a decorator that
//! re-derives cheap *lower bounds* and conservation laws from the problem,
//! architecture, and mapping alone, and cross-checks the model's
//! [`Breakdown`] against them on every evaluation:
//!
//! * **finite-cost / finite-traffic** — latency, energy, per-level traffic,
//!   and all breakdown scalars are finite and non-negative.
//! * **breakdown-shape** — per-level vectors match the hierarchy depth.
//! * **mac-conservation** — per dimension, the product of all tile factors
//!   equals the problem bound, and the reported dense MAC count equals the
//!   product of all bounds (no work appears or vanishes).
//! * **capacity-overflow** — per level, the resident tile footprint fits the
//!   buffer (scaled by the reported spill factor under soft capacity).
//! * **compulsory-traffic** — outermost-level reads cover each non-output
//!   tensor at least once (the cold-miss lower bound).
//! * **compute-latency-floor** — latency is at least the surviving MACs
//!   divided by every lane the chip has.
//! * **mac-energy-floor** — energy is at least the surviving MACs times the
//!   per-MAC energy.
//! * **non-determinism** — a periodic spot-check re-evaluates the same
//!   mapping and requires bit-identical cost.
//!
//! The bounds are sound for both the dense and sparse engines: a sparse
//! evaluation scales the floors by the joint operand occupancy
//! (`d_weight × d_input`), which lower-bounds every per-tensor traffic,
//! cycle, and energy scale the engine can legitimately apply (compression,
//! gating, and skipping included). Guards therefore never reject a legal,
//! correctly-costed mapping; what they reject is a model whose output is
//! *physically impossible* for the mapping it claims to describe.
//!
//! What happens on a violation is set by [`GuardPolicy`]: `Reject` turns the
//! evaluation into [`MappingError::GuardRejected`] (quarantining the mapping
//! — mappers treat it as illegal, so it can never become the incumbent),
//! `Warn` records it and passes the result through, `Trust` skips checking.

use crate::analysis::{compulsory_words, Breakdown};
use crate::cost::Cost;
use crate::engine::CostModel;
use arch::SparseCaps;
use mapping::{Mapping, MappingError};
use problem::{Density, TensorKind};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maximum violations retained in the in-memory audit log; counters keep
/// counting past this.
const LOG_CAP: usize = 64;

/// The physical invariants [`GuardedModel`] enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Latency/energy/EDP must be finite and non-negative.
    FiniteCost,
    /// Traffic, cycle, and datapath scalars must be finite and non-negative.
    FiniteTraffic,
    /// Per-level breakdown vectors must match the hierarchy depth.
    BreakdownShape,
    /// Tile factors must multiply to the problem bounds; the dense MAC count
    /// must equal the product of all bounds.
    MacConservation,
    /// Resident tiles must fit their buffers (× the reported spill factor).
    CapacityOverflow,
    /// Outermost-level reads must cover each non-output tensor once.
    CompulsoryTraffic,
    /// Latency ≥ surviving MACs / total chip lanes.
    ComputeLatencyFloor,
    /// Energy ≥ surviving MACs × per-MAC energy.
    MacEnergyFloor,
    /// Re-evaluating the same mapping must give bit-identical cost.
    NonDeterminism,
}

impl Invariant {
    /// Stable kebab-case identifier used in reports and errors.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::FiniteCost => "finite-cost",
            Invariant::FiniteTraffic => "finite-traffic",
            Invariant::BreakdownShape => "breakdown-shape",
            Invariant::MacConservation => "mac-conservation",
            Invariant::CapacityOverflow => "capacity-overflow",
            Invariant::CompulsoryTraffic => "compulsory-traffic",
            Invariant::ComputeLatencyFloor => "compute-latency-floor",
            Invariant::MacEnergyFloor => "mac-energy-floor",
            Invariant::NonDeterminism => "non-determinism",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observed invariant violation: which invariant, at which storage level
/// (if level-specific), and the observed vs. required values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantViolation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// Storage level (outermost = 0) for per-level invariants.
    pub level: Option<usize>,
    /// The value the model reported.
    pub observed: f64,
    /// The bound it had to satisfy.
    pub bound: f64,
}

impl InvariantViolation {
    /// Converts into the quarantining [`MappingError`].
    pub fn to_error(&self) -> MappingError {
        MappingError::GuardRejected {
            invariant: self.invariant.name().to_string(),
            level: self.level,
            observed: self.observed,
            bound: self.bound,
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant `{}` violated", self.invariant)?;
        if let Some(l) = self.level {
            write!(f, " at level {l}")?;
        }
        write!(f, ": observed {:.6e}, bound {:.6e}", self.observed, self.bound)
    }
}

/// What to do when an evaluation violates an invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPolicy {
    /// Fail the evaluation with [`MappingError::GuardRejected`]: the mapping
    /// is quarantined (mappers treat it as illegal) and can never poison the
    /// incumbent. The default.
    #[default]
    Reject,
    /// Record the violation but pass the model's result through.
    Warn,
    /// Skip all checks: what `--guard off` selects. The model's result
    /// passes through unchanged; the only cost is the evaluation counter
    /// (one relaxed atomic add per evaluation).
    Trust,
}

/// Guard configuration: the policy plus the soundness floors.
///
/// Floors default to dense semantics ([`GuardConfig::new`]); sparse models
/// must use [`GuardConfig::sparse`], which relaxes the floors by the operand
/// occupancy so that compression/gating/skipping savings are never flagged.
#[derive(Debug, Clone, Copy)]
pub struct GuardConfig {
    /// Violation handling.
    pub policy: GuardPolicy,
    /// Sound scale on the traffic/latency/energy floors: 1.0 dense, the
    /// joint operand occupancy (`d_weight × d_input`) sparse.
    pub density_floor: f64,
    /// Scale applied to *weight* footprints in the capacity check (weights
    /// may be provisioned compressed; activations are provisioned dense).
    pub weight_capacity_floor: f64,
    /// Re-evaluate every Nth call and require bit-identical cost
    /// (0 disables the determinism spot-check).
    pub spot_check_every: u64,
    /// Relative tolerance applied to every floor/ceiling comparison.
    pub rel_tol: f64,
}

impl GuardConfig {
    /// Dense-model configuration: exact floors.
    pub fn new(policy: GuardPolicy) -> Self {
        GuardConfig {
            policy,
            density_floor: 1.0,
            weight_capacity_floor: 1.0,
            spot_check_every: 64,
            rel_tol: 1e-6,
        }
    }

    /// Sparse-model configuration: floors relaxed by the operand occupancy,
    /// weight capacity provisioned compressed exactly as the engine does.
    pub fn sparse(policy: GuardPolicy, caps: &SparseCaps, density: Density) -> Self {
        let occupancy = (density.weight * density.input).clamp(0.0, 1.0);
        let weight_capacity_floor = if caps.compressed {
            (density.weight * (1.0 + caps.metadata_per_nnz)).min(1.0)
        } else {
            1.0
        };
        GuardConfig {
            policy,
            density_floor: occupancy,
            weight_capacity_floor,
            ..GuardConfig::new(policy)
        }
    }
}

/// Aggregate guard statistics plus the most recent violations.
#[derive(Debug, Clone, Default)]
pub struct GuardReport {
    /// Total evaluations seen (all policies).
    pub evaluations: u64,
    /// Total invariant violations observed.
    pub violations: u64,
    /// Evaluations rejected (policy [`GuardPolicy::Reject`] only).
    pub rejections: u64,
    /// Up to the first `LOG_CAP` violations, in observation order.
    pub recent: Vec<InvariantViolation>,
}

/// Read-side interface to a guard's audit state, object-safe so runtimes can
/// consume it without knowing the wrapped model type.
pub trait GuardAudit: Sync {
    /// Snapshot of counters and the retained violation log.
    fn report(&self) -> GuardReport;

    /// Drains and returns the retained violation log (counters are kept).
    fn take_violations(&self) -> Vec<InvariantViolation>;
}

/// A [`CostModel`] decorator that checks physical invariants on every
/// evaluation (see the [module docs](self) for the invariant list).
#[derive(Debug)]
pub struct GuardedModel<M: CostModel> {
    inner: M,
    config: GuardConfig,
    /// [`compulsory_words`] of the inner model's problem, hoisted out of
    /// the per-evaluation compulsory-traffic check.
    compulsory_words: f64,
    evaluations: AtomicU64,
    violations: AtomicU64,
    rejections: AtomicU64,
    log: Mutex<Vec<InvariantViolation>>,
}

impl<M: CostModel> GuardedModel<M> {
    /// Wraps `inner` with the given configuration.
    pub fn new(inner: M, config: GuardConfig) -> Self {
        GuardedModel {
            compulsory_words: compulsory_words(inner.problem()),
            inner,
            config,
            evaluations: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Dense-floor guard with the given policy (see [`GuardConfig::new`]).
    pub fn dense(inner: M, policy: GuardPolicy) -> Self {
        GuardedModel::new(inner, GuardConfig::new(policy))
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn record(&self, found: &[InvariantViolation]) {
        self.violations.fetch_add(found.len() as u64, Ordering::Relaxed);
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        for v in found {
            if log.len() >= LOG_CAP {
                break;
            }
            log.push(*v);
        }
    }

    /// Runs every invariant check against one breakdown. Returns all
    /// violations found (empty = the evaluation is physically plausible).
    fn check(&self, m: &Mapping, b: &Breakdown) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let cfg = &self.config;
        let problem = self.inner.problem();
        let arch = self.inner.arch();
        let nl = arch.num_levels();
        let tol = cfg.rel_tol;

        let bad = |x: f64| !x.is_finite() || x < 0.0;

        // finite-cost.
        for x in [b.cost.latency_cycles, b.cost.energy_uj, b.cost.edp()] {
            if bad(x) {
                out.push(InvariantViolation {
                    invariant: Invariant::FiniteCost,
                    level: None,
                    observed: x,
                    bound: 0.0,
                });
                break;
            }
        }

        // breakdown-shape: everything below indexes per-level vectors, so a
        // malformed shape short-circuits the remaining checks.
        for len in [b.per_level.len(), b.bw_cycles.len(), b.spill.len()] {
            if len != nl {
                out.push(InvariantViolation {
                    invariant: Invariant::BreakdownShape,
                    level: None,
                    observed: len as f64,
                    bound: nl as f64,
                });
                return out;
            }
        }

        // finite-traffic.
        'finite: for (li, t) in b.per_level.iter().enumerate() {
            for x in [t.reads, t.writes, b.bw_cycles[li], b.spill[li]] {
                if bad(x) {
                    out.push(InvariantViolation {
                        invariant: Invariant::FiniteTraffic,
                        level: Some(li),
                        observed: x,
                        bound: 0.0,
                    });
                    break 'finite;
                }
            }
        }
        for x in [b.macs, b.cycle_macs, b.energy_macs, b.style_work, b.lanes, b.compute_cycles]
        {
            if bad(x) {
                out.push(InvariantViolation {
                    invariant: Invariant::FiniteTraffic,
                    level: None,
                    observed: x,
                    bound: 0.0,
                });
                break;
            }
        }

        // mac-conservation: factor products per dimension, then the dense
        // MAC count itself.
        let macs = problem.total_macs() as f64;
        let mut conserved = false;
        if m.num_levels() == nl && m.num_dims() == problem.num_dims() {
            conserved = true;
            for dim in 0..problem.num_dims() {
                let product: u64 =
                    (0..nl).map(|l| m.temporal(l)[dim] * m.spatial(l)[dim]).product();
                if product != problem.bound(dim) {
                    out.push(InvariantViolation {
                        invariant: Invariant::MacConservation,
                        level: None,
                        observed: product as f64,
                        bound: problem.bound(dim) as f64,
                    });
                    conserved = false;
                    break;
                }
            }
        }
        if (b.macs - macs).abs() > macs * tol {
            out.push(InvariantViolation {
                invariant: Invariant::MacConservation,
                level: None,
                observed: b.macs,
                bound: macs,
            });
        }

        // capacity-overflow: dense footprints (weights may be provisioned
        // compressed), permitted to exceed capacity only by the spill factor
        // the model itself reported (soft capacity).
        if m.num_levels() == nl {
            for li in 0..nl {
                let Some(cap) = arch.level(li).capacity_words else { continue };
                let ext = m.tile_extents(li);
                let needed: f64 = problem
                    .tensors()
                    .iter()
                    .map(|t| {
                        let f = t.projection.footprint_f64(&ext);
                        match t.kind {
                            TensorKind::Weight => f * cfg.weight_capacity_floor,
                            TensorKind::Input | TensorKind::Output => f,
                        }
                    })
                    .sum();
                let allowed = cap as f64 * b.spill[li].max(1.0);
                if needed > allowed * (1.0 + tol) {
                    out.push(InvariantViolation {
                        invariant: Invariant::CapacityOverflow,
                        level: Some(li),
                        observed: needed,
                        bound: allowed,
                    });
                }
            }
        }

        // compulsory-traffic: the outermost level must source each
        // non-output tensor at least once (scaled by the occupancy floor).
        // Once every factor product is conserved, level 0's tile is the
        // whole problem, so the per-problem constant is exact.
        if m.num_levels() == nl {
            let full = if conserved {
                self.compulsory_words
            } else {
                let ext = m.tile_extents(0);
                problem
                    .tensors()
                    .iter()
                    .filter(|t| t.kind != TensorKind::Output)
                    .map(|t| t.projection.footprint_f64(&ext))
                    .sum()
            };
            let floor = full * cfg.density_floor;
            if b.per_level[0].reads < floor * (1.0 - tol) {
                out.push(InvariantViolation {
                    invariant: Invariant::CompulsoryTraffic,
                    level: Some(0),
                    observed: b.per_level[0].reads,
                    bound: floor,
                });
            }
        }

        // compute-latency-floor: even with perfect skipping and every lane
        // busy, surviving MACs take cycles (and latency is at least one).
        let lanes = arch.total_spatial_lanes() as f64;
        let latency_floor = (macs * cfg.density_floor / lanes).max(1.0);
        if b.cost.latency_cycles < latency_floor * (1.0 - tol) {
            out.push(InvariantViolation {
                invariant: Invariant::ComputeLatencyFloor,
                level: None,
                observed: b.cost.latency_cycles,
                bound: latency_floor,
            });
        }

        // mac-energy-floor (mac_energy is in pJ; energy in µJ).
        let energy_floor = macs * cfg.density_floor * arch.mac_energy * 1e-6;
        if b.cost.energy_uj < energy_floor * (1.0 - tol) {
            out.push(InvariantViolation {
                invariant: Invariant::MacEnergyFloor,
                level: None,
                observed: b.cost.energy_uj,
                bound: energy_floor,
            });
        }

        out
    }

    /// Post-evaluation guard sequence for one item: invariant checks, the
    /// periodic determinism spot-check (keyed on the evaluation ordinal
    /// `n`), and policy handling. Shared verbatim by the one-shot, batched,
    /// and neighbor evaluation paths so accounting stays exact.
    fn guard_one(&self, m: &Mapping, b: Breakdown, n: u64) -> Result<Breakdown, MappingError> {
        if self.config.policy == GuardPolicy::Trust {
            return Ok(b);
        }
        let mut found = self.check(m, &b);
        let every = self.config.spot_check_every;
        if every > 0 && n.is_multiple_of(every) {
            if let Ok(again) = self.inner.evaluate_detailed(m) {
                let same = again.cost.latency_cycles.to_bits()
                    == b.cost.latency_cycles.to_bits()
                    && again.cost.energy_uj.to_bits() == b.cost.energy_uj.to_bits();
                if !same {
                    found.push(InvariantViolation {
                        invariant: Invariant::NonDeterminism,
                        level: None,
                        observed: again.cost.edp(),
                        bound: b.cost.edp(),
                    });
                }
            }
        }
        if found.is_empty() {
            return Ok(b);
        }
        self.record(&found);
        match self.config.policy {
            GuardPolicy::Warn => Ok(b),
            GuardPolicy::Trust => unreachable!("Trust returns before checking"),
            GuardPolicy::Reject => {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                Err(found[0].to_error())
            }
        }
    }
}

impl<M: CostModel> GuardAudit for GuardedModel<M> {
    fn report(&self) -> GuardReport {
        GuardReport {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
            recent: self.log.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }

    fn take_violations(&self) -> Vec<InvariantViolation> {
        std::mem::take(&mut *self.log.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<M: CostModel> CostModel for GuardedModel<M> {
    fn problem(&self) -> &problem::Problem {
        self.inner.problem()
    }

    fn arch(&self) -> &arch::Arch {
        self.inner.arch()
    }

    fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
        // Route through the detailed path so the full invariant set runs.
        self.evaluate_detailed(m).map(|b| b.cost)
    }

    fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
        let n = self.evaluations.fetch_add(1, Ordering::Relaxed);
        let b = self.inner.evaluate_detailed(m)?;
        self.guard_one(m, b, n)
    }

    fn evaluate_batch(&self, ms: &[Mapping]) -> Vec<Result<Cost, MappingError>> {
        self.evaluate_detailed_batch(ms).into_iter().map(|r| r.map(|b| b.cost)).collect()
    }

    fn evaluate_detailed_batch(&self, ms: &[Mapping]) -> Vec<Result<Breakdown, MappingError>> {
        // Inner batch first (the SoA fast path), then the exact per-item
        // guard sequence: every item still counts one evaluation, runs the
        // full invariant set, and is eligible for the periodic determinism
        // spot-check (which re-evaluates through the one-shot path,
        // cross-validating the batch engine in production).
        let inner = self.inner.evaluate_detailed_batch(ms);
        ms.iter()
            .zip(inner)
            .map(|(m, r)| {
                let n = self.evaluations.fetch_add(1, Ordering::Relaxed);
                self.guard_one(m, r?, n)
            })
            .collect()
    }

    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Cost, MappingError>> {
        self.evaluate_neighbors_detailed(parent, neighbors)
            .into_iter()
            .map(|r| r.map(|b| b.cost))
            .collect()
    }

    fn evaluate_neighbors_detailed(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Breakdown, MappingError>> {
        let inner = self.inner.evaluate_neighbors_detailed(parent, neighbors);
        neighbors
            .iter()
            .zip(inner)
            .map(|(m, r)| {
                let n = self.evaluations.fetch_add(1, Ordering::Relaxed);
                self.guard_one(m, r?, n)
            })
            .collect()
    }

    fn cost_bound(&self, m: &Mapping) -> Option<Cost> {
        // The bound is analytical (independent of the wrapped model's
        // evaluation path) and only ever *skips* provably-dominated
        // candidates, so forwarding it cannot change what the guard would
        // accept; models without a bound (fault injectors) return None and
        // disable pruning entirely.
        self.inner.cost_bound(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DenseModel, SparseModel};
    use arch::Arch;
    use mapping::MapSpace;
    use problem::Problem;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn conv() -> Problem {
        Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3)
    }

    /// A model that corrupts one field of the true breakdown — the test
    /// double for "plausible but physically impossible" outputs.
    struct Corrupt<F: Fn(&mut Breakdown) + Sync> {
        inner: DenseModel,
        tweak: F,
    }

    impl<F: Fn(&mut Breakdown) + Sync> CostModel for Corrupt<F> {
        fn problem(&self) -> &Problem {
            self.inner.problem()
        }
        fn arch(&self) -> &Arch {
            self.inner.arch()
        }
        fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
            self.evaluate_detailed(m).map(|b| b.cost)
        }
        fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
            let mut b = self.inner.evaluate_detailed(m)?;
            (self.tweak)(&mut b);
            Ok(b)
        }
    }

    fn corrupt(tweak: impl Fn(&mut Breakdown) + Sync) -> Corrupt<impl Fn(&mut Breakdown) + Sync> {
        Corrupt { inner: DenseModel::new(conv(), Arch::accel_b()), tweak }
    }

    fn rejected_as(model: &impl CostModel, expect: &str) {
        let m = Mapping::trivial(&conv(), &Arch::accel_b());
        match model.evaluate(&m) {
            Err(MappingError::GuardRejected { invariant, .. }) => {
                assert_eq!(invariant, expect);
            }
            other => panic!("expected GuardRejected({expect}), got {other:?}"),
        }
    }

    #[test]
    fn legal_dense_samples_pass_reject_policy() {
        for arch in [Arch::accel_a(), Arch::accel_b()] {
            let model =
                GuardedModel::dense(DenseModel::new(conv(), arch.clone()), GuardPolicy::Reject);
            let space = MapSpace::new(conv(), arch);
            let mut rng = SmallRng::seed_from_u64(11);
            for _ in 0..100 {
                let m = space.random(&mut rng);
                model.evaluate_detailed(&m).expect("guard rejected a legal mapping");
            }
            let r = model.report();
            assert_eq!((r.violations, r.rejections), (0, 0));
            assert_eq!(r.evaluations, 100);
        }
    }

    #[test]
    fn legal_sparse_samples_pass_reject_policy() {
        let caps = SparseCaps::flexible();
        for dw in [1.0, 0.5, 0.1, 0.01] {
            let density = Density::weight_sparse(dw);
            let inner = SparseModel::new(conv(), Arch::accel_b(), caps, density);
            let cfg = GuardConfig::sparse(GuardPolicy::Reject, &caps, density);
            let model = GuardedModel::new(inner, cfg);
            let space = MapSpace::new(conv(), Arch::accel_b());
            let mut rng = SmallRng::seed_from_u64(5);
            for _ in 0..50 {
                let m = space.random(&mut rng);
                model.evaluate(&m).expect("guard rejected a legal sparse evaluation");
            }
            assert_eq!(model.report().violations, 0);
        }
    }

    #[test]
    fn nan_cost_caught_as_finite_cost() {
        let model = GuardedModel::dense(
            corrupt(|b| b.cost = Cost { latency_cycles: f64::NAN, energy_uj: 1.0 }),
            GuardPolicy::Reject,
        );
        rejected_as(&model, "finite-cost");
    }

    #[test]
    fn negative_traffic_caught_as_finite_traffic() {
        let model =
            GuardedModel::dense(corrupt(|b| b.per_level[1].reads = -4.0), GuardPolicy::Reject);
        rejected_as(&model, "finite-traffic");
    }

    #[test]
    fn truncated_breakdown_caught_as_shape() {
        let model = GuardedModel::dense(
            corrupt(|b| {
                b.per_level.pop();
            }),
            GuardPolicy::Reject,
        );
        rejected_as(&model, "breakdown-shape");
    }

    #[test]
    fn mac_undercount_caught() {
        let model = GuardedModel::dense(corrupt(|b| b.macs *= 0.5), GuardPolicy::Reject);
        rejected_as(&model, "mac-conservation");
    }

    #[test]
    fn vanished_dram_reads_caught_as_compulsory_traffic() {
        let model = GuardedModel::dense(
            corrupt(|b| b.per_level[0].reads *= 1e-6),
            GuardPolicy::Reject,
        );
        rejected_as(&model, "compulsory-traffic");
    }

    #[test]
    fn too_fast_caught_as_latency_floor() {
        let model = GuardedModel::dense(
            corrupt(|b| b.cost.latency_cycles = 0.5),
            GuardPolicy::Reject,
        );
        rejected_as(&model, "compute-latency-floor");
    }

    #[test]
    fn too_cheap_caught_as_energy_floor() {
        let model =
            GuardedModel::dense(corrupt(|b| b.cost.energy_uj *= 1e-9), GuardPolicy::Reject);
        rejected_as(&model, "mac-energy-floor");
    }

    #[test]
    fn warn_policy_passes_through_but_logs() {
        let model =
            GuardedModel::dense(corrupt(|b| b.cost.energy_uj = -1.0), GuardPolicy::Warn);
        let m = Mapping::trivial(&conv(), &Arch::accel_b());
        assert!(model.evaluate(&m).is_ok());
        let r = model.report();
        assert!(r.violations >= 1 && r.rejections == 0);
        assert_eq!(r.recent[0].invariant, Invariant::FiniteCost);
        assert!(!model.take_violations().is_empty());
        assert!(model.report().recent.is_empty(), "take_violations drains the log");
    }

    #[test]
    fn trust_policy_skips_checks() {
        let model =
            GuardedModel::dense(corrupt(|b| b.cost.energy_uj = -1.0), GuardPolicy::Trust);
        let m = Mapping::trivial(&conv(), &Arch::accel_b());
        assert!(model.evaluate(&m).is_ok());
        assert_eq!(model.report().violations, 0);
        assert_eq!(model.report().evaluations, 1);
    }

    #[test]
    fn faulty_model_nan_is_quarantined() {
        // The acceptance-criteria scenario: FaultyModel smuggles a NaN cost
        // past Cost::new; the guard converts it into a named rejection.
        use crate::fault::{FaultConfig, FaultyModel};
        let faulty =
            FaultyModel::new(DenseModel::new(conv(), Arch::accel_b()), FaultConfig::nans(1.0, 3));
        let model = GuardedModel::dense(faulty, GuardPolicy::Reject);
        rejected_as(&model, "finite-cost");
        assert_eq!(model.report().rejections, 1);
    }

    #[test]
    fn boxed_dyn_model_can_be_guarded() {
        let boxed: Box<dyn CostModel> = Box::new(DenseModel::new(conv(), Arch::accel_b()));
        let model = GuardedModel::dense(boxed, GuardPolicy::Reject);
        let m = Mapping::trivial(&conv(), &Arch::accel_b());
        assert!(model.evaluate(&m).is_ok());
    }

    #[test]
    fn spot_check_flags_nondeterminism() {
        use std::sync::atomic::AtomicU64 as Counter;
        struct Flaky {
            inner: DenseModel,
            calls: Counter,
        }
        impl CostModel for Flaky {
            fn problem(&self) -> &Problem {
                self.inner.problem()
            }
            fn arch(&self) -> &Arch {
                self.inner.arch()
            }
            fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
                self.evaluate_detailed(m).map(|b| b.cost)
            }
            fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
                let mut b = self.inner.evaluate_detailed(m)?;
                b.cost.energy_uj += self.calls.fetch_add(1, Ordering::Relaxed) as f64;
                Ok(b)
            }
        }
        let flaky = Flaky { inner: DenseModel::new(conv(), Arch::accel_b()), calls: Counter::new(0) };
        let mut cfg = GuardConfig::new(GuardPolicy::Reject);
        cfg.spot_check_every = 1;
        let model = GuardedModel::new(flaky, cfg);
        rejected_as(&model, "non-determinism");
    }

    #[test]
    fn violation_display_names_everything() {
        let v = InvariantViolation {
            invariant: Invariant::CapacityOverflow,
            level: Some(2),
            observed: 3.0e4,
            bound: 1.0e4,
        };
        let s = v.to_string();
        assert!(s.contains("capacity-overflow") && s.contains("level 2"));
        assert!(s.contains("3.000000e4") && s.contains("1.000000e4"));
    }
}
