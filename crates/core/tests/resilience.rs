//! Integration tests for the resilient runtime: fault-injected guarded
//! runs, checkpoint/resume identity, retry-with-reseed, and watchdog
//! enforcement against budget-ignoring mappers.

use arch::Arch;
use costmodel::{CostModel, DenseModel, FaultConfig, FaultyModel};
use mappers::{
    Budget, Evaluator, Gamma, Mapper, RandomPruned, RunError, RunStatus, SearchResult,
    SimulatedAnnealing,
};
use mse::runtime::{reseed, run_network_checkpointed};
use mse::{quiet_sentinel_panics, InitStrategy, Mse, ReplayBuffer, RunPolicy};
use problem::Problem;
use rand::rngs::SmallRng;
use std::path::PathBuf;

fn dense() -> DenseModel {
    DenseModel::new(Problem::conv2d("t", 2, 16, 16, 14, 14, 3, 3), Arch::accel_b())
}

fn tmp_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mapex-{tag}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A cost model that panics on ~10% of evaluations must not take any of
/// three mappers down. Every outcome completes with a structured status,
/// and any result that does come back is healthy — finite score, legal
/// mapping, no NaN leaked through.
#[test]
fn faulty_portfolio_completes_with_healthy_results() {
    quiet_sentinel_panics();
    let model = FaultyModel::new(dense(), FaultConfig::panics(0.10, 13));
    let mse = Mse::new(&model);
    let gamma = Gamma::new();
    let random = RandomPruned::new();
    let annealing = SimulatedAnnealing::new();
    let mappers: Vec<&dyn Mapper> = vec![&random, &gamma, &annealing];

    let outcomes: Vec<_> = mappers
        .iter()
        .map(|m| mse.run_guarded(*m, Budget::samples(300), 7, RunPolicy::default()))
        .collect();

    assert_eq!(outcomes.len(), 3, "every mapper produced an outcome");
    let (panics, _, _) = model.injected();
    assert!(panics > 0, "the fault injector never fired — test is vacuous");
    for o in &outcomes {
        // Structured audit trail: every attempt recorded, panics named.
        assert!(!o.attempts.is_empty());
        for a in &o.attempts {
            if let Some(RunError::MapperPanicked { message }) = &a.error {
                assert!(message.contains("injected fault"), "unexpected panic: {message}");
            }
        }
        // Whatever survived is healthy.
        if let Some(r) = &o.result {
            assert!(r.best_score.is_finite());
            let (best, cost) = r.best.as_ref().expect("result carries a mapping");
            assert!(best.is_legal(model.problem(), model.arch()));
            assert!(cost.edp().is_finite());
        }
    }
    // At 10% fault rate with salvage, at least one mapper must come back
    // with something usable.
    assert!(
        outcomes.iter().any(|o| o.is_usable()),
        "no mapper salvaged anything: {:?}",
        outcomes.iter().map(|o| o.status).collect::<Vec<_>>()
    );
}

/// A NaN-poisoning model: scores are quarantined by the recorder, the run
/// ends with no usable result, and the guarded runner retries then fails
/// with a full audit trail — it must never return a NaN-scored result.
#[test]
fn all_nan_model_fails_cleanly_after_retries() {
    let model = FaultyModel::new(dense(), FaultConfig::nans(1.0, 5));
    let mse = Mse::new(&model);
    let outcome = mse.run_guarded(&RandomPruned::new(), Budget::samples(50), 0, RunPolicy::with_retries(2));
    assert_eq!(outcome.status, RunStatus::Failed);
    assert_eq!(outcome.attempts.len(), 3, "initial attempt + 2 retries");
    assert!(outcome.result.is_none());
    for a in &outcome.attempts {
        assert_eq!(a.error, Some(RunError::NoLegalMapping));
    }
    // Retries used distinct, deterministically derived seeds.
    assert_eq!(outcome.attempts[0].seed, 0);
    assert_eq!(outcome.attempts[1].seed, reseed(0, 1));
    assert_eq!(outcome.attempts[2].seed, reseed(0, 2));
    assert_ne!(outcome.attempts[1].seed, outcome.attempts[2].seed);
}

/// A mapper whose first attempt panics and whose retries succeed: the
/// guarded runner recovers and records both attempts.
struct FlakyOnce {
    inner: RandomPruned,
    failed: std::sync::atomic::AtomicBool,
}

impl FlakyOnce {
    fn new() -> Self {
        FlakyOnce { inner: RandomPruned::new(), failed: std::sync::atomic::AtomicBool::new(false) }
    }
}

impl Mapper for FlakyOnce {
    fn name(&self) -> &str {
        "Flaky-Once"
    }

    fn search(
        &self,
        space: &mapping::MapSpace,
        evaluator: &dyn Evaluator,
        budget: Budget,
        rng: &mut SmallRng,
    ) -> SearchResult {
        if !self.failed.swap(true, std::sync::atomic::Ordering::SeqCst) {
            panic!("transient failure on the first attempt");
        }
        self.inner.search(space, evaluator, budget, rng)
    }
}

#[test]
fn retry_with_reseed_recovers_from_transient_panic() {
    let model = dense();
    let mse = Mse::new(&model);
    let outcome = mse.run_guarded(&FlakyOnce::new(), Budget::samples(100), 42, RunPolicy::default());
    assert_eq!(outcome.status, RunStatus::Recovered);
    assert_eq!(outcome.attempts.len(), 2);
    assert!(matches!(
        outcome.attempts[0].error,
        Some(RunError::MapperPanicked { ref message }) if message.contains("transient")
    ));
    assert!(outcome.attempts[1].error.is_none());
    assert_eq!(outcome.attempts[1].seed, reseed(42, 1));
    assert!(outcome.is_usable());
}

/// ISSUE scenario (c): a mapper that ignores `Budget` entirely — both the
/// sample and the wall-clock limit — is hard-stopped by the watchdog, and
/// the best point it had found is salvaged.
struct BudgetIgnorer;

impl Mapper for BudgetIgnorer {
    fn name(&self) -> &str {
        "Budget-Ignorer"
    }

    fn search(
        &self,
        space: &mapping::MapSpace,
        evaluator: &dyn Evaluator,
        _budget: Budget,
        rng: &mut SmallRng,
    ) -> SearchResult {
        // Never checks the budget, never returns.
        loop {
            let _ = evaluator.evaluate(&space.random(rng));
        }
    }
}

#[test]
fn watchdog_stops_mapper_ignoring_sample_budget() {
    let model = dense();
    let mse = Mse::new(&model);
    let policy = RunPolicy { retries: 2, grace_evals: 64, ..RunPolicy::default() };
    let outcome = mse.run_guarded(&BudgetIgnorer, Budget::samples(200), 3, policy);
    assert_eq!(outcome.status, RunStatus::WatchdogStopped);
    // No retry for runaway mappers — they would run away again.
    assert_eq!(outcome.attempts.len(), 1);
    assert_eq!(
        outcome.attempts[0].error,
        Some(RunError::BudgetOverrun { evaluated: 200 + 64 })
    );
    // The shadow incumbent salvaged a real result.
    let r = outcome.result.expect("salvaged result");
    assert!(r.best_score.is_finite());
    assert!(r.evaluated <= 200 + 64);
    let (best, _) = r.best.unwrap();
    assert!(best.is_legal(model.problem(), model.arch()));
}

#[test]
fn watchdog_stops_mapper_ignoring_time_budget() {
    let model = dense();
    let mse = Mse::new(&model);
    let start = std::time::Instant::now();
    let outcome =
        mse.run_guarded(&BudgetIgnorer, Budget::seconds(0.2), 3, RunPolicy::default());
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(outcome.status, RunStatus::WatchdogStopped);
    // Hard stop fires at 2x the limit + 100 ms; well under 5 s even on a
    // loaded CI box.
    assert!(elapsed < 5.0, "watchdog too slow: {elapsed:.1}s");
    assert!(outcome.result.is_some());
}

/// ISSUE scenario (b): write checkpoint → kill → resume reproduces the
/// *identical* final sweep result. The "kill" is simulated by running the
/// sweep over a truncated layer list (the checkpoint ends mid-network),
/// then resuming over the full list.
#[test]
fn checkpoint_resume_reproduces_identical_sweep() {
    let arch = Arch::accel_b();
    let layers = vec![
        Problem::conv2d("l1", 2, 8, 8, 7, 7, 3, 3),
        Problem::conv2d("l2", 2, 16, 8, 7, 7, 3, 3),
        Problem::conv2d("l3", 2, 16, 16, 7, 7, 3, 3),
        Problem::conv2d("l4", 2, 32, 16, 7, 7, 3, 3),
    ];
    let budget = Budget::samples(150);
    let seed = 11;
    let make_model =
        |p: &Problem| -> Box<dyn CostModel> { Box::new(DenseModel::new(p.clone(), Arch::accel_b())) };
    let make_mapper = || -> Box<dyn Mapper> { Box::new(Gamma::new()) };

    // Reference: one uninterrupted sweep.
    let reference = mse::run_network(
        &layers,
        &arch,
        &ReplayBuffer::new(),
        InitStrategy::BySimilarity,
        budget,
        seed,
        1,
        make_model,
        make_mapper,
    );

    // Interrupted run: only the first two layers complete before the
    // "kill"; the checkpoint survives on disk.
    let ckpt = tmp_path("resume");
    let partial = run_network_checkpointed(
        &layers[..2],
        &arch,
        &ReplayBuffer::new(),
        InitStrategy::BySimilarity,
        budget,
        seed,
        1,
        make_model,
        make_mapper,
        &ckpt,
        false,
    )
    .expect("partial sweep");
    assert_eq!(partial.len(), 2);
    assert!(ckpt.exists(), "checkpoint written after every layer");

    // Resume over the full layer list: layers 1-2 come from the file,
    // layers 3-4 run fresh.
    let resumed = run_network_checkpointed(
        &layers,
        &arch,
        &ReplayBuffer::new(),
        InitStrategy::BySimilarity,
        budget,
        seed,
        1,
        make_model,
        make_mapper,
        &ckpt,
        true,
    )
    .expect("resumed sweep");

    assert_eq!(resumed.len(), reference.len());
    for (r, full) in resumed.iter().zip(&reference) {
        assert_eq!(r.name, full.name);
        assert_eq!(
            r.result.best_score, full.result.best_score,
            "layer {} diverged after resume",
            r.name
        );
        assert_eq!(r.converge_sample, full.converge_sample);
        let (rm, _) = r.result.best.as_ref().unwrap();
        let (fm, _) = full.result.best.as_ref().unwrap();
        assert_eq!(rm, fm, "layer {} best mapping diverged", r.name);
    }
    let _ = std::fs::remove_file(&ckpt);
}

/// Resuming under different sweep parameters is refused — silently mixing
/// two sweeps would corrupt the warm-start chain.
#[test]
fn resume_rejects_foreign_checkpoint() {
    let arch = Arch::accel_b();
    let layers = vec![Problem::conv2d("l1", 2, 8, 8, 7, 7, 3, 3)];
    let make_model =
        |p: &Problem| -> Box<dyn CostModel> { Box::new(DenseModel::new(p.clone(), Arch::accel_b())) };
    let make_mapper = || -> Box<dyn Mapper> { Box::new(Gamma::new()) };
    let ckpt = tmp_path("foreign");
    run_network_checkpointed(
        &layers,
        &arch,
        &ReplayBuffer::new(),
        InitStrategy::Random,
        Budget::samples(60),
        1,
        1,
        make_model,
        make_mapper,
        &ckpt,
        false,
    )
    .expect("seed run");
    // Different seed → mismatch, not silent divergence.
    let err = run_network_checkpointed(
        &layers,
        &arch,
        &ReplayBuffer::new(),
        InitStrategy::Random,
        Budget::samples(60),
        2,
        1,
        make_model,
        make_mapper,
        &ckpt,
        true,
    )
    .expect_err("foreign checkpoint accepted");
    assert!(err.to_string().contains("seed"), "unexpected error: {err}");
    let _ = std::fs::remove_file(&ckpt);
}
