//! Integration tests for guarded evaluation inside the resilient runtime:
//! a corrupted cost model is caught by `GuardedModel`, the offending
//! mappings are quarantined (never the incumbent), and the attempt log
//! names the violated invariant.

use arch::{Arch, SparseCaps};
use costmodel::{
    guarded_engine, CostModel, DenseModel, FaultConfig, FaultyModel, GuardAudit, GuardConfig,
    GuardPolicy, GuardedModel, SparseModel,
};
use mappers::{
    Budget, EdpEvaluator, Gamma, Mapper, RandomMapper, RandomPruned, RunError, RunStatus,
    SearchResult,
};
use mapping::MapSpace;
use mse::{EvalConfig, Mse, RunPolicy};
use problem::{Density, Problem};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn conv() -> Problem {
    Problem::conv2d("t", 2, 16, 16, 14, 14, 3, 3)
}

fn dense() -> DenseModel {
    DenseModel::new(conv(), Arch::accel_b())
}

/// The ISSUE acceptance scenario: a deliberately corrupted model (NaN
/// faults on every evaluation) is caught by `GuardedModel` with a named
/// `InvariantViolation` instead of propagating a bad score into a
/// `RunOutcome` incumbent.
#[test]
fn fully_corrupted_model_yields_named_invariant_violation() {
    let faulty = FaultyModel::new(dense(), FaultConfig::nans(1.0, 21));
    let guarded = GuardedModel::dense(faulty, GuardPolicy::Reject);
    let mse = Mse::new(&guarded);
    let evaluator = EdpEvaluator::new(&guarded);

    let outcome = mse.run_guarded_with(
        &RandomPruned::new(),
        &evaluator,
        Budget::samples(50),
        3,
        RunPolicy::with_retries(1),
        Some(&guarded),
    );

    assert_eq!(outcome.status, RunStatus::Failed);
    assert!(outcome.result.is_none(), "a poisoned score must never become an incumbent");
    assert_eq!(outcome.attempts.len(), 2);
    for a in &outcome.attempts {
        assert!(a.quarantined > 0, "guard saw no rejections");
        match &a.error {
            Some(RunError::InvariantViolation { invariant, quarantined, .. }) => {
                assert_eq!(invariant, "finite-cost");
                assert_eq!(*quarantined, a.quarantined);
            }
            other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }
}

/// Partial corruption: the guard quarantines the poisoned evaluations but
/// the run still succeeds, and the incumbent it returns re-verifies
/// against a clean model — the bad scores never leaked into the result.
#[test]
fn partially_corrupted_model_recovers_with_clean_incumbent() {
    let faulty = FaultyModel::new(dense(), FaultConfig::nans(0.3, 8));
    let guarded = GuardedModel::dense(faulty, GuardPolicy::Reject);
    let mse = Mse::new(&guarded);
    let evaluator = EdpEvaluator::new(&guarded);

    let outcome = mse.run_guarded_with(
        &RandomPruned::new(),
        &evaluator,
        Budget::samples(200),
        5,
        RunPolicy::default(),
        Some(&guarded),
    );

    assert_eq!(outcome.status, RunStatus::Succeeded);
    assert!(outcome.attempts[0].quarantined > 0, "fault injector never fired");
    let result = outcome.result.expect("usable result");
    let (best, cost) = result.best.expect("incumbent mapping");
    let clean = dense();
    let truth = clean.evaluate(&best).expect("incumbent is legal");
    assert_eq!(truth, cost, "incumbent cost must match a clean evaluation");
    assert!(result.best_score.is_finite());
}

/// A healthy model under Reject guarding produces the same search result
/// as the same model unguarded: guards never reject a legal,
/// correctly-costed mapping, so they are invisible on the happy path.
#[test]
fn guard_is_transparent_for_healthy_model() {
    let clean = dense();
    let guarded = GuardedModel::dense(dense(), GuardPolicy::Reject);

    let plain = Mse::new(&clean).run_guarded(
        &RandomPruned::new(),
        Budget::samples(150),
        11,
        RunPolicy::default(),
    );
    let mse = Mse::new(&guarded);
    let evaluator = EdpEvaluator::new(&guarded);
    let audited = mse.run_guarded_with(
        &RandomPruned::new(),
        &evaluator,
        Budget::samples(150),
        11,
        RunPolicy::default(),
        Some(&guarded),
    );

    assert_eq!(audited.status, RunStatus::Succeeded);
    assert_eq!(audited.best_score(), plain.best_score());
    assert_eq!(audited.attempts[0].quarantined, 0);
    assert_eq!(guarded.report().violations, 0);
}

/// Warn policy: violations are logged for the audit trail but results pass
/// through — the run keeps the model's (poisoned) numbers, which the
/// recorder's own NaN quarantine then handles.
#[test]
fn warn_policy_logs_without_rejecting() {
    let faulty = FaultyModel::new(dense(), FaultConfig::nans(1.0, 2));
    let guarded = GuardedModel::new(faulty, GuardConfig::new(GuardPolicy::Warn));
    let mse = Mse::new(&guarded);
    let evaluator = EdpEvaluator::new(&guarded);

    let outcome = mse.run_guarded_with(
        &RandomPruned::new(),
        &evaluator,
        Budget::samples(30),
        9,
        RunPolicy::with_retries(0),
        Some(&guarded),
    );

    // Warn never converts evaluations into errors, so the guard records
    // violations but quarantines nothing; the NaN scores are instead
    // dropped by the recorder and the attempt ends with NoLegalMapping.
    assert_eq!(outcome.status, RunStatus::Failed);
    assert_eq!(outcome.attempts[0].quarantined, 0);
    assert!(matches!(outcome.attempts[0].error, Some(RunError::NoLegalMapping)));
    assert!(guarded.report().violations > 0, "warn policy must still log violations");
}

/// One search through `run_guarded_with` at `threads` lanes (cache on, as
/// `mapex search` runs it), audited when `audit` is given.
fn search(
    model: &dyn CostModel,
    audit: Option<&dyn GuardAudit>,
    mapper: &dyn Mapper,
    threads: usize,
) -> SearchResult {
    let evaluator = EdpEvaluator::new(model);
    let policy = RunPolicy::with_retries(0)
        .with_eval(EvalConfig { threads, cache_capacity: 1 << 12 });
    let outcome =
        Mse::new(model).run_guarded_with(mapper, &evaluator, Budget::samples(300), 7, policy, audit);
    outcome.result.expect("search produced a result")
}

/// `--guard off` is `GuardPolicy::Trust` on the model `guarded_engine`
/// builds, and that model is exactly the engine it wraps: dense, and sparse
/// on flexible hardware, against references built independently of
/// `guarded_engine`. The same density's `Reject` guard (the pairing
/// `guarded_engine` owns) flags nothing on legal sparse mappings.
#[test]
fn trust_engine_is_the_unguarded_engine() {
    let (p, a) = (conv(), Arch::accel_b());
    let sparse = Density { weight: 0.3, input: 0.6 };
    let space = MapSpace::new(p.clone(), a.clone());
    for density in [None, Some(sparse)] {
        let reference: Box<dyn CostModel> = match density {
            Some(d) => Box::new(SparseModel::new(p.clone(), a.clone(), SparseCaps::flexible(), d)),
            None => Box::new(DenseModel::new(p.clone(), a.clone())),
        };
        let trust = guarded_engine(&p, &a, density, GuardPolicy::Trust);
        let reject = guarded_engine(&p, &a, density, GuardPolicy::Reject);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut legal = 0;
        for i in 0..240 {
            let m = space.random(&mut rng);
            let want = reference.evaluate_detailed(&m);
            let got = trust.evaluate_detailed(&m);
            assert_eq!(got, want, "{density:?} #{i}: evaluate_detailed differs");
            if let (Ok(g), Ok(w)) = (&got, &want) {
                legal += 1;
                assert_eq!(g.cost.latency_cycles.to_bits(), w.cost.latency_cycles.to_bits());
                assert_eq!(g.cost.energy_uj.to_bits(), w.cost.energy_uj.to_bits());
                assert_eq!(reject.evaluate_detailed(&m), want, "{density:?} #{i}: reject differs");
            }
            assert_eq!(trust.cost_bound(&m), reference.cost_bound(&m), "{density:?} #{i}: bound");
        }
        assert!(legal > 0, "{density:?}: corpus has no legal mapping");
        let r = reject.report();
        assert_eq!((r.violations, r.rejections), (0, 0), "{density:?}: reject flagged {r:?}");

        let mappers: [&dyn Mapper; 2] = [&Gamma::new(), &RandomMapper::new()];
        for mapper in mappers {
            for threads in [1, 2] {
                let tag = format!("{density:?} {} @ {threads}", mapper.name());
                let want = search(reference.as_ref(), None, mapper, threads);
                let got = search(&trust, Some(&trust), mapper, threads);
                assert_eq!(got.best_score.to_bits(), want.best_score.to_bits(), "{tag}");
                assert_eq!(got.best, want.best, "{tag}");
                assert_eq!((got.evaluated, got.pruned), (want.evaluated, want.pruned), "{tag}");
                let curve = |r: &SearchResult| -> Vec<(usize, u64)> {
                    r.history.iter().map(|c| (c.samples, c.best_score.to_bits())).collect()
                };
                assert_eq!(curve(&got), curve(&want), "{tag}: history");
            }
        }
        let t = trust.report();
        assert_eq!((t.violations, t.rejections), (0, 0), "{density:?}: trust checked {t:?}");
        assert!(t.evaluations > 0, "{density:?}: trust counted no evaluation");
    }
}
