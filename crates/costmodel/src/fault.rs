//! Deterministic fault injection for resilience testing.
//!
//! [`FaultyModel`] wraps any [`CostModel`] and makes a seeded, per-mapping
//! decision to panic, return a NaN-poisoned cost, or report the mapping as
//! illegal. The decision is a pure function of `(mapping, seed)` — no
//! interior RNG state — so the same mapping faults the same way on every
//! evaluation, across threads, and across reruns: tests stay reproducible
//! and a retry with a *different search seed* genuinely explores different
//! mappings rather than re-rolling the fault dice on the same ones.

use crate::analysis::Breakdown;
use crate::cost::Cost;
use crate::engine::CostModel;
use arch::Arch;
use mapping::{Mapping, MappingError};
use problem::Problem;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel panic payload used by injected panics, so a resilient harness
/// (or a panic hook) can distinguish an injected fault from a genuine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The fault seed of the [`FaultyModel`] that raised it.
    pub seed: u64,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault (seed {})", self.seed)
    }
}

/// Fault-class probabilities. Classes are disjoint: a single uniform draw
/// in `[0, 1)` is bucketed as panic, then NaN, then illegal, so the total
/// fault rate is the sum of the three and must be `<= 1`.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability an evaluation panics (with an [`InjectedFault`] payload).
    pub p_panic: f64,
    /// Probability an evaluation returns a NaN-poisoned [`Cost`].
    pub p_nan: f64,
    /// Probability an evaluation spuriously reports the mapping illegal.
    pub p_illegal: f64,
    /// Seed mixed into every per-mapping fault decision.
    pub seed: u64,
}

impl FaultConfig {
    /// No faults at all (the wrapper becomes a transparent pass-through).
    pub fn none(seed: u64) -> Self {
        FaultConfig { p_panic: 0.0, p_nan: 0.0, p_illegal: 0.0, seed }
    }

    /// Panic-only faults at rate `p`.
    pub fn panics(p: f64, seed: u64) -> Self {
        FaultConfig { p_panic: p, ..FaultConfig::none(seed) }
    }

    /// NaN-only faults at rate `p`.
    pub fn nans(p: f64, seed: u64) -> Self {
        FaultConfig { p_nan: p, ..FaultConfig::none(seed) }
    }

    /// Illegal-mapping-only faults at rate `p`.
    pub fn illegals(p: f64, seed: u64) -> Self {
        FaultConfig { p_illegal: p, ..FaultConfig::none(seed) }
    }

    fn validate(&self) {
        let total = self.p_panic + self.p_nan + self.p_illegal;
        assert!(
            (0.0..=1.0).contains(&total)
                && self.p_panic >= 0.0
                && self.p_nan >= 0.0
                && self.p_illegal >= 0.0,
            "fault probabilities must be non-negative and sum to <= 1 (got {total})"
        );
    }
}

/// What the fault decision said for one mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Panic,
    Nan,
    Illegal,
}

/// A [`CostModel`] decorator that injects deterministic faults — the test
/// double for the resilient runtime (`mse::runtime`). Healthy evaluations
/// pass straight through to the wrapped model.
#[derive(Debug)]
pub struct FaultyModel<M: CostModel> {
    inner: M,
    config: FaultConfig,
    injected_panics: AtomicUsize,
    injected_nans: AtomicUsize,
    injected_illegals: AtomicUsize,
}

impl<M: CostModel> FaultyModel<M> {
    /// Wraps `inner` with the given fault configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured probabilities are negative or sum above 1.
    pub fn new(inner: M, config: FaultConfig) -> Self {
        config.validate();
        FaultyModel {
            inner,
            config,
            injected_panics: AtomicUsize::new(0),
            injected_nans: AtomicUsize::new(0),
            injected_illegals: AtomicUsize::new(0),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Counts of faults injected so far: `(panics, nans, illegals)`.
    pub fn injected(&self) -> (usize, usize, usize) {
        (
            self.injected_panics.load(Ordering::Relaxed),
            self.injected_nans.load(Ordering::Relaxed),
            self.injected_illegals.load(Ordering::Relaxed),
        )
    }

    /// The seeded, per-mapping fault decision. FNV-1a over the mapping's
    /// level decisions and the config seed, finished with a splitmix64-style
    /// avalanche so structurally similar mappings don't fault in lockstep.
    ///
    /// Unit-bound temporal loops are skipped from the order hash: they
    /// never iterate, so the engine's cost is invariant to their position
    /// and the fault decision must be too — otherwise two mappings that
    /// are semantically identical (and share an evaluation-cache entry)
    /// could fault differently, which no deterministic model can do.
    fn decide(&self, m: &Mapping) -> Fault {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.config.seed;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for l in 0..m.num_levels() {
            let temporal = m.temporal(l);
            for &d in m.order(l).iter().filter(|&&d| temporal[d as usize] > 1) {
                mix(d as u64);
            }
            for &t in temporal {
                mix(t);
            }
            for &s in m.spatial(l) {
                mix(s.wrapping_add(0x9e37_79b9_7f4a_7c15));
            }
        }
        // Finalize (FNV alone is weak in the high bits we sample from).
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let c = &self.config;
        if u < c.p_panic {
            Fault::Panic
        } else if u < c.p_panic + c.p_nan {
            Fault::Nan
        } else if u < c.p_panic + c.p_nan + c.p_illegal {
            Fault::Illegal
        } else {
            Fault::None
        }
    }

    fn inject(&self, m: &Mapping) -> Result<Option<Cost>, MappingError> {
        match self.decide(m) {
            Fault::None => Ok(None),
            Fault::Panic => {
                self.injected_panics.fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(InjectedFault { seed: self.config.seed });
            }
            Fault::Nan => {
                self.injected_nans.fetch_add(1, Ordering::Relaxed);
                // Bypasses Cost::new, whose debug_assert rejects NaN — the
                // whole point here is smuggling a poisoned cost through.
                Ok(Some(Cost { latency_cycles: f64::NAN, energy_uj: f64::NAN }))
            }
            Fault::Illegal => {
                self.injected_illegals.fetch_add(1, Ordering::Relaxed);
                Err(MappingError::CapacityExceeded {
                    level: 0,
                    needed_words: f64::MAX,
                    capacity_words: 0,
                })
            }
        }
    }
}

impl<M: CostModel> CostModel for FaultyModel<M> {
    fn problem(&self) -> &Problem {
        self.inner.problem()
    }

    fn arch(&self) -> &Arch {
        self.inner.arch()
    }

    fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
        match self.inject(m)? {
            Some(poisoned) => Ok(poisoned),
            None => self.inner.evaluate(m),
        }
    }

    fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
        match self.inject(m)? {
            Some(poisoned) => {
                let mut b = self.inner.evaluate_detailed(m)?;
                b.cost = poisoned;
                Ok(b)
            }
            None => self.inner.evaluate_detailed(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DenseModel;
    use mapping::MapSpace;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dense() -> DenseModel {
        DenseModel::new(
            problem::Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3),
            Arch::accel_b(),
        )
    }

    fn sample_mappings(n: usize) -> Vec<Mapping> {
        let m = dense();
        let space = MapSpace::new(m.problem().clone(), m.arch().clone());
        let mut rng = SmallRng::seed_from_u64(7);
        (0..n).map(|_| space.random(&mut rng)).collect()
    }

    #[test]
    fn no_faults_is_transparent() {
        let model = FaultyModel::new(dense(), FaultConfig::none(0));
        for m in sample_mappings(50) {
            assert_eq!(model.evaluate(&m).ok(), model.inner().evaluate(&m).ok());
        }
        assert_eq!(model.injected(), (0, 0, 0));
    }

    #[test]
    fn fault_decision_is_deterministic() {
        let a = FaultyModel::new(dense(), FaultConfig::nans(0.3, 42));
        let b = FaultyModel::new(dense(), FaultConfig::nans(0.3, 42));
        for m in sample_mappings(100) {
            let ra = a.evaluate(&m).map(|c| c.edp().to_bits()).ok();
            let rb = b.evaluate(&m).map(|c| c.edp().to_bits()).ok();
            assert_eq!(ra, rb);
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn nan_rate_is_roughly_configured() {
        let model = FaultyModel::new(dense(), FaultConfig::nans(0.2, 1));
        let mappings = sample_mappings(500);
        let mut nans = 0;
        for m in &mappings {
            if model.evaluate(m).map(|c| c.edp().is_nan()).unwrap_or(false) {
                nans += 1;
            }
        }
        let rate = nans as f64 / mappings.len() as f64;
        assert!((0.1..=0.3).contains(&rate), "NaN rate {rate} far from 0.2");
        assert_eq!(model.injected().1, nans);
    }

    #[test]
    fn panic_carries_sentinel_payload() {
        let model = FaultyModel::new(dense(), FaultConfig::panics(1.0, 9));
        let m = sample_mappings(1).pop().unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = model.evaluate(&m);
        }))
        .unwrap_err();
        let fault = err.downcast_ref::<InjectedFault>().expect("sentinel payload");
        assert_eq!(fault.seed, 9);
        assert_eq!(model.injected().0, 1);
    }

    #[test]
    fn illegal_fault_reports_mapping_error() {
        let model = FaultyModel::new(dense(), FaultConfig::illegals(1.0, 3));
        let m = sample_mappings(1).pop().unwrap();
        assert!(matches!(
            model.evaluate(&m),
            Err(MappingError::CapacityExceeded { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "fault probabilities")]
    fn rejects_probabilities_above_one() {
        let _ = FaultyModel::new(dense(), FaultConfig { p_panic: 0.6, p_nan: 0.6, p_illegal: 0.0, seed: 0 });
    }

    #[test]
    fn different_seeds_fault_different_mappings() {
        let a = FaultyModel::new(dense(), FaultConfig::illegals(0.2, 1));
        let b = FaultyModel::new(dense(), FaultConfig::illegals(0.2, 2));
        let mut differs = false;
        for m in sample_mappings(200) {
            if a.evaluate(&m).is_err() != b.evaluate(&m).is_err() {
                differs = true;
                break;
            }
        }
        assert!(differs, "fault pattern ignored the seed");
    }
}
