//! Acceptance tests for the parallel evaluation engine: thread count must
//! never change results (bit-identical incumbent, history, Pareto archive,
//! and attempt audit trail), and the evaluation cache must never change a
//! reported cost — including under the guard's reject policy, whose
//! quarantine accounting must match between serial and parallel runs.

use arch::Arch;
use costmodel::{DenseModel, FaultConfig, FaultyModel, GuardAudit, GuardPolicy, GuardedModel};
use mappers::{Budget, EdpEvaluator, Gamma, Mapper, RandomMapper, SearchResult, StandardGa};
use mse::{EvalConfig, Mse, RunPolicy};
use problem::Problem;

fn policy(eval: EvalConfig) -> RunPolicy {
    RunPolicy::with_retries(0).with_eval(eval)
}

/// Field-by-field equality, skipping only wall-clock times.
fn assert_identical(a: &SearchResult, b: &SearchResult, what: &str) {
    assert_eq!(a.best, b.best, "{what}: incumbent diverged");
    assert_eq!(a.best_score, b.best_score, "{what}: best score diverged");
    assert_eq!(a.evaluated, b.evaluated, "{what}: evaluation count diverged");
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length diverged");
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(
            (x.samples, x.best_score),
            (y.samples, y.best_score),
            "{what}: history diverged"
        );
    }
    assert_eq!(a.pareto, b.pareto, "{what}: pareto archive diverged");
    assert_eq!(a.samples, b.samples, "{what}: sample log diverged");
}

#[test]
fn parallel_runs_bit_identical_across_thread_counts() {
    let problems =
        [Problem::conv2d("c", 2, 16, 16, 14, 14, 3, 3), Problem::gemm("g", 2, 32, 32, 32)];
    let archs = [Arch::accel_a(), Arch::accel_b()];
    let mappers: Vec<Box<dyn Mapper>> =
        vec![Box::new(Gamma::new()), Box::new(StandardGa::new()), Box::new(RandomMapper::new())];
    for p in &problems {
        for a in &archs {
            let model = DenseModel::new(p.clone(), a.clone());
            let mse = Mse::new(&model);
            for mapper in &mappers {
                let tag = format!("{}/{}/{}", mapper.name(), p.name(), a.name());
                let serial = mse.run_guarded(
                    mapper.as_ref(),
                    Budget::samples(300),
                    7,
                    policy(EvalConfig::serial()),
                );
                let sres = serial.result.as_ref().expect("serial search produced a result");
                for threads in [1usize, 2, 8] {
                    let par = mse.run_guarded(
                        mapper.as_ref(),
                        Budget::samples(300),
                        7,
                        policy(EvalConfig { threads, cache_capacity: 0 }),
                    );
                    // Attempt audit trail matches: same seeds, same
                    // accept/reject outcomes, same per-attempt counts.
                    assert_eq!(par.attempts.len(), serial.attempts.len(), "{tag}");
                    for (x, y) in par.attempts.iter().zip(&serial.attempts) {
                        assert_eq!(x.seed, y.seed, "{tag}: attempt seed diverged");
                        assert_eq!(x.evaluated, y.evaluated, "{tag}: attempt count diverged");
                        assert_eq!(x.best_score, y.best_score, "{tag}: attempt score diverged");
                        assert_eq!(x.quarantined, y.quarantined, "{tag}: quarantine diverged");
                    }
                    let pres = par.result.as_ref().expect("parallel search produced a result");
                    assert_identical(pres, sres, &format!("{tag} @ {threads} threads"));
                }
            }
        }
    }
}

/// An evaluator that hides the admissible score bound — reproducing the
/// pre-pruning engine exactly — while forwarding everything else.
struct NoBound<'a>(EdpEvaluator<'a>);

impl mappers::Evaluator for NoBound<'_> {
    fn evaluate(&self, m: &mapping::Mapping) -> Option<(costmodel::Cost, f64)> {
        self.0.evaluate(m)
    }

    fn evaluate_batch(&self, batch: &[mapping::Mapping]) -> Vec<Option<(costmodel::Cost, f64)>> {
        self.0.evaluate_batch(batch)
    }
    // `score_bound` stays the default `None`: pruning disabled.
}

/// Admissible-bound pruning must never change what a search finds: the
/// bound-blind evaluator above (the pre-pruning engine) and the default
/// bound-aware stack must agree on the incumbent, its score, and the
/// sample count at every thread count — while the bound-aware runs
/// actually skip work (`pruned > 0` somewhere across the matrix).
#[test]
fn bound_pruning_preserves_results_and_fires() {
    let p = Problem::conv2d("c", 2, 16, 16, 14, 14, 3, 3);
    let model = DenseModel::new(p, Arch::accel_b());
    let mse = Mse::new(&model);
    let mappers_under_test: Vec<Box<dyn Mapper>> =
        vec![Box::new(Gamma::new()), Box::new(RandomMapper::new())];
    let mut total_pruned = 0usize;
    for mapper in &mappers_under_test {
        let blind = NoBound(EdpEvaluator::new(&model));
        let base = mse.run_guarded_with(
            mapper.as_ref(),
            &blind,
            Budget::samples(400),
            11,
            policy(EvalConfig::serial()),
            None,
        );
        let bres = base.result.as_ref().expect("bound-blind run produced a result");
        assert_eq!(bres.pruned, 0, "{}: blind evaluator must never prune", mapper.name());
        for threads in [1usize, 2, 8] {
            let pruned_run = mse.run_guarded(
                mapper.as_ref(),
                Budget::samples(400),
                11,
                policy(EvalConfig { threads, cache_capacity: 0 }),
            );
            let pres = pruned_run.result.as_ref().expect("bound-aware run produced a result");
            let tag = format!("{} @ {threads} threads", mapper.name());
            assert_eq!(pres.best, bres.best, "{tag}: pruning changed the incumbent");
            assert_eq!(pres.best_score, bres.best_score, "{tag}: pruning changed the score");
            assert_eq!(pres.evaluated, bres.evaluated, "{tag}: pruning changed the budget walk");
            total_pruned += pres.pruned;
        }
    }
    assert!(total_pruned > 0, "bound pruning never fired across the test matrix");
}

/// One guarded+faulty run: a deterministic per-mapping NaN injector under
/// the reject policy, so a fixed subset of mappings is quarantined no
/// matter which thread (or cache shard) handles them.
fn guarded_run(eval: EvalConfig) -> (mappers::RunOutcome, costmodel::GuardReport) {
    let p = Problem::conv2d("c", 2, 16, 16, 14, 14, 3, 3);
    let faulty =
        FaultyModel::new(DenseModel::new(p, Arch::accel_b()), FaultConfig::nans(0.2, 3));
    let guarded = GuardedModel::dense(faulty, GuardPolicy::Reject);
    let evaluator = EdpEvaluator::new(&guarded);
    let mse = Mse::new(&guarded);
    let outcome = mse.run_guarded_with(
        &Gamma::new(),
        &evaluator,
        Budget::samples(400),
        5,
        policy(eval),
        Some(&guarded),
    );
    let report = guarded.report();
    (outcome, report)
}

#[test]
fn cache_and_pool_preserve_guard_quarantine_semantics() {
    let (serial, serial_report) = guarded_run(EvalConfig::serial());
    let sres = serial.result.as_ref().expect("serial guarded run produced a result");
    assert!(serial_report.rejections > 0, "fault injector produced no quarantines");

    // Parallel, uncached: identical results AND identical quarantine
    // accounting — the pool must not change what the guard sees.
    let (par, par_report) = guarded_run(EvalConfig { threads: 4, cache_capacity: 0 });
    assert_identical(par.result.as_ref().unwrap(), sres, "guarded parallel");
    assert_eq!(par_report.violations, serial_report.violations);
    assert_eq!(par_report.rejections, serial_report.rejections);
    assert_eq!(
        par.attempts.iter().map(|at| at.quarantined).collect::<Vec<_>>(),
        serial.attempts.iter().map(|at| at.quarantined).collect::<Vec<_>>()
    );

    // Cached: identical search results (a hit must return exactly what a
    // fresh evaluation would, including "rejected"), >0 hits, and *fewer*
    // model calls — dedup is the whole point.
    let (cached, cached_report) = guarded_run(EvalConfig { threads: 4, cache_capacity: 1 << 16 });
    let cres = cached.result.as_ref().expect("cached guarded run produced a result");
    assert_identical(cres, sres, "guarded cached");
    assert!(cres.cache.hits > 0, "gamma run produced no cache hits");
    assert_eq!(cres.cache.hits + cres.cache.misses, cres.evaluated as u64);
    assert!(
        cached_report.evaluations < serial_report.evaluations,
        "cache did not reduce model evaluations ({} vs {})",
        cached_report.evaluations,
        serial_report.evaluations
    );
}
