//! Watchdog budget enforcement and panic classification for the resilient
//! runtime (`mse::runtime`).
//!
//! A [`WatchdogEvaluator`] sits between the mapper and the real evaluator.
//! Because *every* cost-model call funnels through it, it can count
//! evaluations and wall clock no matter how badly the mapper itself
//! ignores its [`Budget`] — and hard-stop a runaway search by raising a
//! [`WatchdogStop`] sentinel panic that the guarded runner catches and
//! converts into a structured outcome. It also keeps a *shadow incumbent*
//! (best mapping seen so far) outside the mapper's own state, so a stopped
//! or panicked run can still be salvaged into a truncated result.

use costmodel::{Cost, InjectedFault};
use mappers::{Budget, CacheStats, ConvergencePoint, Evaluator, SearchResult};
use mapping::Mapping;
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

/// Sentinel panic payload raised by [`WatchdogEvaluator`] when a mapper
/// overruns its budget past the grace window. Carried as a panic so it can
/// cut through mapper code that never returns control voluntarily; the
/// guarded runner downcasts it back into a [`mappers::RunError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogStop {
    /// Evaluations performed when the watchdog fired.
    pub evaluated: usize,
}

impl std::fmt::Display for WatchdogStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "watchdog stop after {} evaluations", self.evaluated)
    }
}

struct Shadow {
    best: Option<(Mapping, Cost)>,
    best_score: f64,
}

/// Evaluator decorator enforcing a [`Budget`] from *inside* the
/// evaluation path.
///
/// Within the budget (plus a grace window sized for mappers that evaluate
/// whole generations at a time) it is a transparent pass-through, so
/// well-behaved mappers produce bit-identical results with or without the
/// watchdog. Past the grace window it panics with [`WatchdogStop`].
pub struct WatchdogEvaluator<'a> {
    inner: &'a dyn Evaluator,
    budget: Budget,
    grace_evals: usize,
    /// Absolute wall-clock point past which evaluation stops *immediately*
    /// (no 2x slack) — the service layer's per-request deadline. `None`
    /// keeps the historical budget-only enforcement.
    deadline: Option<Instant>,
    start: Instant,
    evaluated: AtomicUsize,
    shadow: Mutex<Shadow>,
}

impl<'a> WatchdogEvaluator<'a> {
    /// Wraps `inner`, enforcing `budget` with `grace_evals` of slack on
    /// the sample count (time budgets get 2x the limit plus 100 ms).
    pub fn new(inner: &'a dyn Evaluator, budget: Budget, grace_evals: usize) -> Self {
        Self::with_deadline(inner, budget, grace_evals, None)
    }

    /// [`WatchdogEvaluator::new`] plus a hard absolute deadline: once
    /// `deadline` passes, the next evaluation raises [`WatchdogStop`] with
    /// no grace at all. Budgets describe what the mapper *should* spend;
    /// the deadline is what the caller (e.g. a serving request) can
    /// *afford* — the salvageable shadow incumbent is the answer either
    /// way.
    pub fn with_deadline(
        inner: &'a dyn Evaluator,
        budget: Budget,
        grace_evals: usize,
        deadline: Option<Instant>,
    ) -> Self {
        WatchdogEvaluator {
            inner,
            budget,
            grace_evals,
            deadline,
            start: Instant::now(),
            evaluated: AtomicUsize::new(0),
            shadow: Mutex::new(Shadow { best: None, best_score: f64::INFINITY }),
        }
    }

    /// Evaluations funneled through so far.
    pub fn evaluated(&self) -> usize {
        self.evaluated.load(Ordering::Relaxed)
    }

    /// Best (finite) score seen so far, `INFINITY` if none.
    pub fn best_score(&self) -> f64 {
        self.shadow.lock().unwrap_or_else(|e| e.into_inner()).best_score
    }

    /// Builds a truncated [`SearchResult`] from the shadow incumbent —
    /// what a stopped or panicked run still managed to find. `None` if no
    /// legal finite-scored mapping was ever seen. The history carries a
    /// single point (per-improvement history lives in the mapper's
    /// recorder, which did not survive the unwind).
    pub fn salvage(&self) -> Option<SearchResult> {
        let shadow = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
        let (m, c) = shadow.best.clone()?;
        let evaluated = self.evaluated();
        let elapsed = self.start.elapsed();
        Some(SearchResult {
            best: Some((m.clone(), c)),
            best_score: shadow.best_score,
            history: vec![ConvergencePoint {
                samples: evaluated,
                seconds: elapsed.as_secs_f64(),
                best_score: shadow.best_score,
            }],
            samples: Vec::new(),
            pareto: vec![(m, c)],
            evaluated,
            pruned: 0,
            elapsed,
            cache: CacheStats::default(),
        })
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    fn overrun(&self, n: usize) -> bool {
        if self.past_deadline() {
            return true;
        }
        if let Some(max) = self.budget.max_samples {
            if n > max + self.grace_evals {
                return true;
            }
        }
        if let Some(t) = self.budget.max_time {
            if self.start.elapsed() > t * 2 + std::time::Duration::from_millis(100) {
                return true;
            }
        }
        false
    }

    /// Shared enforcement of the multi-mapping calls: exactly the prefix
    /// of `batch` that the serial path would have admitted is forwarded
    /// through `eval` (as one call, so pooled or neighbor evaluation stays
    /// inside the watchdog's accounting), the shadow incumbent sees every
    /// outcome, then the same [`WatchdogStop`] sentinel fires at the same
    /// evaluation count the per-call path would have reported.
    fn forward_admitted<F>(&self, batch: &[Mapping], eval: F) -> Vec<Option<(Cost, f64)>>
    where
        F: Fn(&[Mapping]) -> Vec<Option<(Cost, f64)>>,
    {
        let start = self.evaluated.load(Ordering::Relaxed);
        if self.past_deadline() {
            std::panic::panic_any(WatchdogStop { evaluated: start });
        }
        if let Some(t) = self.budget.max_time {
            if self.start.elapsed() > t * 2 + std::time::Duration::from_millis(100) {
                std::panic::panic_any(WatchdogStop { evaluated: start });
            }
        }
        let allowed = match self.budget.max_samples {
            Some(max) => (max + self.grace_evals).saturating_sub(start).min(batch.len()),
            None => batch.len(),
        };
        // Without a deadline the whole admitted prefix goes to the inner
        // evaluator in one call (the historical, maximally parallel
        // behavior, bit-identical to serial). With one, it goes in bounded
        // chunks so the stop lands within one chunk's latency of the
        // deadline instead of one whole generation's.
        let chunk_len = if self.deadline.is_some() { 64 } else { allowed.max(1) };
        let mut outs: Vec<Option<(Cost, f64)>> = Vec::with_capacity(allowed);
        let mut deadline_hit = false;
        for chunk in batch[..allowed].chunks(chunk_len) {
            if !outs.is_empty() && self.past_deadline() {
                deadline_hit = true;
                break;
            }
            outs.extend(eval(chunk));
        }
        let done = outs.len();
        self.evaluated.fetch_add(done, Ordering::Relaxed);
        {
            let mut shadow = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
            for (m, out) in batch[..done].iter().zip(&outs) {
                if let Some((cost, score)) = out {
                    if score.is_finite() && *score < shadow.best_score {
                        shadow.best_score = *score;
                        shadow.best = Some((m.clone(), *cost));
                    }
                }
            }
        }
        if deadline_hit || done < batch.len() {
            std::panic::panic_any(WatchdogStop { evaluated: start + done });
        }
        outs
    }
}

impl Evaluator for WatchdogEvaluator<'_> {
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
        let n = self.evaluated.fetch_add(1, Ordering::Relaxed) + 1;
        if self.overrun(n) {
            // This call never evaluates; keep the counter honest for
            // `salvage()`.
            self.evaluated.fetch_sub(1, Ordering::Relaxed);
            std::panic::panic_any(WatchdogStop { evaluated: n - 1 });
        }
        let out = self.inner.evaluate(m);
        if let Some((cost, score)) = &out {
            if score.is_finite() {
                let mut shadow = self.shadow.lock().unwrap_or_else(|e| e.into_inner());
                if *score < shadow.best_score {
                    shadow.best_score = *score;
                    shadow.best = Some((m.clone(), *cost));
                }
            }
        }
        out
    }

    /// Batch counterpart with identical enforcement semantics (see
    /// `forward_admitted`).
    fn evaluate_batch(&self, batch: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.forward_admitted(batch, |chunk| self.inner.evaluate_batch(chunk))
    }

    /// Forwarded as neighbors, so the inner stack sees the neighborhood as
    /// its own call (the trait default would turn it into a plain batch),
    /// under the same enforcement as [`Evaluator::evaluate_batch`].
    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Option<(Cost, f64)>> {
        self.forward_admitted(neighbors, |chunk| self.inner.evaluate_neighbors(parent, chunk))
    }

    fn score_bound(&self, m: &Mapping) -> Option<f64> {
        // Bounds never touch the cost model's hot path and consume no
        // evaluation budget themselves — the *pruned candidate* is charged
        // by the mapper's recorder, which the watchdog sees through the
        // counts reported at the next evaluate call.
        self.inner.score_bound(m)
    }
}

/// Whether a caught panic payload is one of the runtime's own sentinels
/// (an injected test fault or a watchdog stop) rather than a genuine bug.
pub fn is_sentinel(payload: &(dyn Any + Send)) -> bool {
    payload.is::<WatchdogStop>() || payload.is::<InjectedFault>()
}

/// Renders a caught panic payload to text: `&str`/`String` payloads (the
/// `panic!` macro), the runtime's sentinels, and an opaque fallback.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(w) = payload.downcast_ref::<WatchdogStop>() {
        w.to_string()
    } else if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        f.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Installs (once, process-wide) a panic hook that stays silent for the
/// runtime's sentinel payloads. Guarded runs *expect* injected faults and
/// watchdog stops; without this every caught sentinel would still spray a
/// "thread panicked" banner on stderr. Genuine panics keep the previous
/// hook's behavior, including full backtraces.
pub fn quiet_sentinel_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !is_sentinel(info.payload()) {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Arch;
    use costmodel::{CostModel, DenseModel};
    use mappers::EdpEvaluator;
    use mapping::MapSpace;
    use problem::Problem;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn setup() -> (MapSpace, DenseModel) {
        let p = Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3);
        let a = Arch::accel_b();
        (MapSpace::new(p.clone(), a.clone()), DenseModel::new(p, a))
    }

    #[test]
    fn passes_through_within_budget() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let dog = WatchdogEvaluator::new(&eval, Budget::samples(100), 16);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..50 {
            let m = space.random(&mut rng);
            assert_eq!(
                dog.evaluate(&m).map(|(_, s)| s.to_bits()),
                eval.evaluate(&m).map(|(_, s)| s.to_bits())
            );
        }
        assert_eq!(dog.evaluated(), 50);
    }

    #[test]
    fn stops_sample_overrun_with_sentinel() {
        quiet_sentinel_panics();
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let dog = WatchdogEvaluator::new(&eval, Budget::samples(10), 5);
        let mut rng = SmallRng::seed_from_u64(1);
        let err = catch_unwind(AssertUnwindSafe(|| {
            // A "mapper" that ignores the budget entirely.
            loop {
                dog.evaluate(&space.random(&mut rng));
            }
        }))
        .unwrap_err();
        let stop = err.downcast_ref::<WatchdogStop>().expect("watchdog sentinel");
        assert_eq!(stop.evaluated, 15, "fired exactly at budget + grace");
        assert!(is_sentinel(&*err));
    }

    #[test]
    fn batch_overrun_fires_same_sentinel_as_serial() {
        quiet_sentinel_panics();
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let dog = WatchdogEvaluator::new(&eval, Budget::samples(10), 5);
        let mut rng = SmallRng::seed_from_u64(3);
        let batch: Vec<_> = (0..40).map(|_| space.random(&mut rng)).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = dog.evaluate_batch(&batch);
        }))
        .unwrap_err();
        let stop = err.downcast_ref::<WatchdogStop>().expect("watchdog sentinel");
        assert_eq!(stop.evaluated, 15, "fired exactly at budget + grace");
        assert_eq!(dog.evaluated(), 15, "admitted prefix still counted");
        assert!(dog.best_score().is_finite(), "shadow captured the prefix");
    }

    /// Counts the neighbor calls that reach it, so a test can tell a
    /// forwarded neighborhood from the trait default's plain batch.
    struct NeighborProbe<'a> {
        inner: EdpEvaluator<'a>,
        neighbor_calls: AtomicUsize,
    }

    impl Evaluator for NeighborProbe<'_> {
        fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
            self.inner.evaluate(m)
        }

        fn evaluate_neighbors(
            &self,
            parent: &Mapping,
            neighbors: &[Mapping],
        ) -> Vec<Option<(Cost, f64)>> {
            self.neighbor_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.evaluate_neighbors(parent, neighbors)
        }
    }

    #[test]
    fn neighbors_reach_the_inner_delta_path() {
        quiet_sentinel_panics();
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let probe = NeighborProbe { inner: EdpEvaluator::new(&model), neighbor_calls: 0.into() };
        let mut rng = SmallRng::seed_from_u64(4);
        let parent = space.random(&mut rng);
        let batch: Vec<_> = (0..12).map(|_| space.random(&mut rng)).collect();
        let bits = |outs: Vec<Option<(Cost, f64)>>| -> Vec<Option<u64>> {
            outs.into_iter().map(|o| o.map(|(_, s)| s.to_bits())).collect()
        };

        let dog = WatchdogEvaluator::new(&probe, Budget::samples(100), 0);
        let got = bits(dog.evaluate_neighbors(&parent, &batch));
        assert_eq!(got, bits(eval.evaluate_batch(&batch)), "neighbors equal the batch");
        assert_eq!(probe.neighbor_calls.load(Ordering::Relaxed), 1, "forwarded as neighbors");
        assert_eq!(dog.evaluated(), 12);

        // Overrun: same admitted prefix and sentinel as the batch path.
        let dog = WatchdogEvaluator::new(&probe, Budget::samples(5), 2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = dog.evaluate_neighbors(&parent, &batch);
        }))
        .unwrap_err();
        let stop = err.downcast_ref::<WatchdogStop>().expect("watchdog sentinel");
        assert_eq!(stop.evaluated, 7, "fired exactly at budget + grace");
        assert_eq!(dog.evaluated(), 7, "admitted prefix still counted");
        assert!(dog.best_score().is_finite(), "shadow captured the prefix");
    }

    #[test]
    fn salvage_recovers_shadow_incumbent() {
        quiet_sentinel_panics();
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let dog = WatchdogEvaluator::new(&eval, Budget::samples(20), 0);
        let mut rng = SmallRng::seed_from_u64(2);
        let _ = catch_unwind(AssertUnwindSafe(|| loop {
            dog.evaluate(&space.random(&mut rng));
        }));
        let salvaged = dog.salvage().expect("saw legal mappings before the stop");
        assert!(salvaged.best_score.is_finite());
        assert_eq!(salvaged.best_score, dog.best_score());
        assert_eq!(salvaged.evaluated, 20);
        let (m, c) = salvaged.best.unwrap();
        assert!(m.is_legal(model.problem(), model.arch()));
        assert!((c.edp() - salvaged.best_score).abs() < 1e-9);
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let err = catch_unwind(|| panic!("plain {}", "text")).unwrap_err();
        assert_eq!(panic_message(&*err), "plain text");
        assert!(panic_message(&WatchdogStop { evaluated: 3 }).contains("3"));
        assert_eq!(panic_message(&17u32), "non-string panic payload");
    }
}
