//! Which path each evaluation takes through the production stack, pinned
//! by counts instead of a stopwatch.
//!
//! A counting [`CostModel`] sits under the guard, at the engine boundary,
//! and every search runs through [`Mse::run_guarded_with`] at four
//! evaluation-stack configurations (1 or 2 lanes, cache off or on). Counts
//! are exact on any machine, so the test states what the worker pool and
//! the memo cache must never cost:
//!
//! - the configuration changes no result: pruned and evaluated counts and
//!   the best score's bits are equal across all four;
//! - bound pruning still fires (fixed floors per pruning mapper, and
//!   engine `cost_bound` calls in every case);
//! - the pool adds no engine work and the cache saves exactly what it
//!   reports: engine batch items equal the guard's evaluations, equal the
//!   cache's misses when the cache is on, and are the same at 1 and 2
//!   lanes; gamma's revisits hit;
//! - the pool keeps the batched path: at 2 lanes an engine batch call
//!   carries more than 4 mappings on average.

use arch::Arch;
use costmodel::{
    Breakdown, Cost, CostModel, DenseModel, GuardAudit, GuardConfig, GuardPolicy, GuardedModel,
};
use mappers::{Budget, CacheStats, EdpEvaluator};
use mapping::{Mapping, MappingError};
use mse::{EvalConfig, Mse, RunPolicy};
use problem::Problem;
use std::sync::atomic::{AtomicU64, Ordering};

/// The dense engine, counting the batch and bound calls it receives.
/// One-shot calls pass uncounted: under the guard they are only its
/// periodic determinism spot-checks.
struct Counting {
    inner: DenseModel,
    batch_calls: AtomicU64,
    batch_items: AtomicU64,
    bounds: AtomicU64,
}

impl Counting {
    fn new(p: &Problem) -> Self {
        Counting {
            inner: DenseModel::new(p.clone(), Arch::accel_b()),
            batch_calls: AtomicU64::new(0),
            batch_items: AtomicU64::new(0),
            bounds: AtomicU64::new(0),
        }
    }

    fn count_batch(&self, n: usize) {
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        self.batch_items.fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl CostModel for Counting {
    fn problem(&self) -> &Problem {
        self.inner.problem()
    }

    fn arch(&self) -> &Arch {
        self.inner.arch()
    }

    fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
        self.inner.evaluate(m)
    }

    fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
        self.inner.evaluate_detailed(m)
    }

    fn evaluate_batch(&self, ms: &[Mapping]) -> Vec<Result<Cost, MappingError>> {
        self.count_batch(ms.len());
        self.inner.evaluate_batch(ms)
    }

    fn evaluate_detailed_batch(&self, ms: &[Mapping]) -> Vec<Result<Breakdown, MappingError>> {
        self.count_batch(ms.len());
        self.inner.evaluate_detailed_batch(ms)
    }

    fn cost_bound(&self, m: &Mapping) -> Option<Cost> {
        self.bounds.fetch_add(1, Ordering::Relaxed);
        self.inner.cost_bound(m)
    }
}

/// What one search reports, and what its engine and guard saw.
#[derive(Debug)]
struct Counts {
    eval: EvalConfig,
    pruned: usize,
    evaluated: usize,
    best_bits: u64,
    cache: CacheStats,
    guard_evaluations: u64,
    batch_calls: u64,
    batch_items: u64,
    bound_calls: u64,
}

fn search(p: &Problem, mapper: &str, eval: EvalConfig) -> Counts {
    let guarded = GuardedModel::new(Counting::new(p), GuardConfig::new(GuardPolicy::Reject));
    let evaluator = EdpEvaluator::new(&guarded);
    let mapper = mappers::by_name(mapper).expect("known mapper");
    let outcome = Mse::new(&guarded).run_guarded_with(
        mapper.as_ref(),
        &evaluator,
        Budget::samples(3_000),
        0,
        RunPolicy::with_retries(0).with_eval(eval),
        Some(&guarded),
    );
    let r = outcome.result.expect("the search finds a legal mapping");
    let engine = guarded.inner();
    Counts {
        eval,
        pruned: r.pruned,
        evaluated: r.evaluated,
        best_bits: r.best_score.to_bits(),
        cache: r.cache,
        guard_evaluations: guarded.report().evaluations,
        batch_calls: engine.batch_calls.load(Ordering::Relaxed),
        batch_items: engine.batch_items.load(Ordering::Relaxed),
        bound_calls: engine.bounds.load(Ordering::Relaxed),
    }
}

/// Checks one case at all four stack configurations. `min_pruned` is the
/// pruning floor, about half of what the case pruned when the test was
/// written (0 for gamma, which barely prunes).
fn check(p: &Problem, mapper: &str, min_pruned: usize) {
    let runs: Vec<Counts> = [(1, 0), (2, 0), (1, 1 << 16), (2, 1 << 16)]
        .into_iter()
        .map(|(threads, cache_capacity)| search(p, mapper, EvalConfig { threads, cache_capacity }))
        .collect();
    let case = format!("{mapper} on {}", p.name());
    let base = &runs[0];
    assert!(base.pruned >= min_pruned, "{case}: pruned {} < {min_pruned}", base.pruned);
    for r in &runs {
        let at = format!("{case} at {:?}", r.eval);
        assert_eq!(
            (r.pruned, r.evaluated, r.best_bits),
            (base.pruned, base.evaluated, base.best_bits),
            "{at}: the stack configuration changed the search"
        );
        assert!(r.bound_calls > 0, "{at}: the engine saw no bound call");
        assert_eq!(r.batch_items, r.guard_evaluations, "{at}: evaluations left the batch path");
        if r.eval.cache_capacity > 0 {
            assert_eq!(r.batch_items, r.cache.misses, "{at}: engine work != cache misses");
        }
        if r.eval.threads > 1 {
            assert!(
                r.batch_items > 4 * r.batch_calls,
                "{at}: {} mappings over {} engine batch calls",
                r.batch_items,
                r.batch_calls
            );
        }
    }
    for (serial, pooled) in [(&runs[0], &runs[1]), (&runs[2], &runs[3])] {
        assert_eq!(
            serial.batch_items, pooled.batch_items,
            "{case}: the pool changed the engine's work ({:?} vs {:?})",
            serial.eval, pooled.eval
        );
    }
    if mapper == "gamma" {
        assert!(runs[2].cache.hits > 0, "{case}: gamma's revisits never hit the cache");
    }
}

#[test]
fn gamma_and_random_on_resnet_conv4() {
    let p = problem::zoo::resnet_conv4();
    check(&p, "gamma", 0);
    check(&p, "random", 877);
}

#[test]
fn gamma_and_random_on_bert_kqv() {
    let p = problem::zoo::bert_kqv();
    check(&p, "gamma", 0);
    check(&p, "random", 717);
}

#[test]
fn exhaustive_tiles_on_a_tiny_gemm() {
    check(&Problem::gemm("Tiny GEMM", 2, 32, 32, 32), "exhaustive-tiles", 526);
}
