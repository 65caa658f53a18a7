//! Traced-stack fidelity: the timing wrappers forward every trait method,
//! and the traced stack returns exactly what `run_resilient_shared`
//! returns for every `search_mix` request (and one seed of every
//! `search_dosa` configuration: dosa is the only mapper that takes the
//! neighbors/delta path), with every engine path in use.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use costmodel::{Breakdown, Cost, CostModel, DenseModel};
use mappers::Evaluator;
use mapping::{MapSpace, Mapping, MappingError};
use perfbench::data::{Data, Digest};
use perfbench::search::{self, policy};
use perfbench::trace::{self, Aggregate, Layer, Method, TracedEval, TracedModel};
use perfbench::workload::{SearchRequest, SearchWorkload, VARIANTS};
use problem::Problem;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Mutex;

/// A cost model that records which of its methods ran, so a wrapper that
/// fell back to a trait default (e.g. `evaluate_neighbors` →
/// `evaluate_batch`) shows up as a wrong name.
struct Probe {
    inner: DenseModel,
    calls: Mutex<Vec<&'static str>>,
}

impl Probe {
    fn log(&self, name: &'static str) {
        self.calls.lock().unwrap().push(name);
    }
}

impl CostModel for Probe {
    fn problem(&self) -> &Problem {
        self.inner.problem()
    }
    fn arch(&self) -> &arch::Arch {
        self.inner.arch()
    }
    fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
        self.log("evaluate");
        self.inner.evaluate(m)
    }
    fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
        self.log("evaluate_detailed");
        self.inner.evaluate_detailed(m)
    }
    fn evaluate_batch(&self, ms: &[Mapping]) -> Vec<Result<Cost, MappingError>> {
        self.log("evaluate_batch");
        self.inner.evaluate_batch(ms)
    }
    fn evaluate_detailed_batch(&self, ms: &[Mapping]) -> Vec<Result<Breakdown, MappingError>> {
        self.log("evaluate_detailed_batch");
        self.inner.evaluate_detailed_batch(ms)
    }
    fn evaluate_neighbors(&self, p: &Mapping, ns: &[Mapping]) -> Vec<Result<Cost, MappingError>> {
        self.log("evaluate_neighbors");
        self.inner.evaluate_neighbors(p, ns)
    }
    fn evaluate_neighbors_detailed(
        &self,
        p: &Mapping,
        ns: &[Mapping],
    ) -> Vec<Result<Breakdown, MappingError>> {
        self.log("evaluate_neighbors_detailed");
        self.inner.evaluate_neighbors_detailed(p, ns)
    }
    fn cost_bound(&self, m: &Mapping) -> Option<Cost> {
        self.log("cost_bound");
        self.inner.cost_bound(m)
    }
}

/// The same for the evaluator trait.
struct EvalProbe<'a> {
    inner: mappers::EdpEvaluator<'a>,
    calls: Mutex<Vec<&'static str>>,
}

impl Evaluator for EvalProbe<'_> {
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
        self.calls.lock().unwrap().push("evaluate");
        self.inner.evaluate(m)
    }
    fn evaluate_batch(&self, b: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.calls.lock().unwrap().push("evaluate_batch");
        self.inner.evaluate_batch(b)
    }
    fn evaluate_neighbors(&self, p: &Mapping, ns: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.calls.lock().unwrap().push("evaluate_neighbors");
        self.inner.evaluate_neighbors(p, ns)
    }
    fn score_bound(&self, m: &Mapping) -> Option<f64> {
        self.calls.lock().unwrap().push("score_bound");
        self.inner.score_bound(m)
    }
}

fn sample() -> (DenseModel, Vec<Mapping>) {
    let p = Problem::gemm("t", 2, 16, 16, 16);
    let a = arch::Arch::accel_b();
    let space = MapSpace::new(p.clone(), a.clone());
    let mut rng = SmallRng::seed_from_u64(7);
    let ms = (0..4).map(|_| space.random(&mut rng)).collect();
    (DenseModel::new(p, a), ms)
}

#[test]
fn cost_model_wrapper_forwards_every_method() {
    let (inner, ms) = sample();
    let traced = TracedModel::new(
        Probe {
            inner,
            calls: Mutex::new(Vec::new()),
        },
        Layer::Engine,
    );
    let _ = traced.evaluate(&ms[0]);
    let _ = traced.evaluate_detailed(&ms[0]);
    let _ = traced.evaluate_batch(&ms);
    let _ = traced.evaluate_detailed_batch(&ms);
    let _ = traced.evaluate_neighbors(&ms[0], &ms[1..]);
    let _ = traced.evaluate_neighbors_detailed(&ms[0], &ms[1..]);
    let _ = traced.cost_bound(&ms[0]);
    assert_eq!(
        *traced.inner().calls.lock().unwrap(),
        [
            "evaluate",
            "evaluate_detailed",
            "evaluate_batch",
            "evaluate_detailed_batch",
            "evaluate_neighbors",
            "evaluate_neighbors_detailed",
            "cost_bound"
        ]
    );
}

#[test]
fn evaluator_wrapper_forwards_every_method() {
    let (model, ms) = sample();
    let probe = EvalProbe {
        inner: mappers::EdpEvaluator::new(&model),
        calls: Mutex::new(Vec::new()),
    };
    let traced = TracedEval::new(&probe, Layer::Objective);
    let _ = traced.evaluate(&ms[0]);
    let _ = traced.evaluate_batch(&ms);
    let _ = traced.evaluate_neighbors(&ms[0], &ms[1..]);
    let _ = traced.score_bound(&ms[0]);
    assert_eq!(
        *probe.calls.lock().unwrap(),
        [
            "evaluate",
            "evaluate_batch",
            "evaluate_neighbors",
            "score_bound"
        ]
    );
}

/// The span recorder is process-wide: tests that record spans take turns.
static SPANS: Mutex<()> = Mutex::new(());

/// Every `search_mix` request, and seed 0 of every `search_dosa`
/// configuration.
fn search_requests() -> Vec<SearchRequest> {
    let mut reqs = Vec::new();
    for config in SearchWorkload::Mix.configs() {
        for seed in 0..VARIANTS {
            reqs.push(SearchRequest {
                config,
                seed,
                round: 0,
            });
        }
    }
    for config in SearchWorkload::Dosa.configs() {
        reqs.push(SearchRequest {
            config,
            seed: 0,
            round: 0,
        });
    }
    reqs
}

#[test]
fn traced_stack_matches_run_resilient_shared_on_every_search_request() {
    let data = Data::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("data")).unwrap();
    let reqs = search_requests();
    let prepared = search::prepare(&reqs);
    let (mut plain, mut traced) = (Digest::default(), Digest::default());
    let _spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    for (i, r) in reqs.iter().enumerate() {
        let o = search::run_one(&prepared.pool, &prepared.models[i], r);
        let label = format!("{}#{}", r.config.label(), r.seed);
        plain.add(&label, &o.spec(), o.score);
        let model = trace::traced_model(&r.config.key);
        let cache = mse::EvalCache::new(policy().eval.cache_capacity);
        let t = trace::traced_search(r, &model, &prepared.spaces[i], &prepared.pool, &cache)
            .expect("traced search returns a result");
        let spec = t
            .best
            .as_ref()
            .map(|(m, _)| mapping::codec::to_spec(m))
            .unwrap_or_default();
        traced.add(&label, &spec, t.best_score);
        trace::drain();
        assert_eq!(t.best_score.to_bits(), o.score.to_bits(), "{label}");
        assert_eq!(spec, o.spec(), "{label}");
        let e = data
            .expected(&r.config, r.seed)
            .expect("checked-in expectation");
        assert_eq!(
            e.score.to_bits(),
            o.score.to_bits(),
            "{label} vs checked-in"
        );
    }
    assert_eq!(plain, traced);
}

/// Every costing path of the engine must run under the production stack,
/// or the per-layer numbers describe a different program. This fails
/// while `WatchdogEvaluator` lacks an `evaluate_neighbors` override: the
/// trait default turns dosa's neighbor calls into plain batches, so the
/// delta path never runs under `run_resilient_shared`.
#[test]
fn every_engine_path_runs_under_the_stack() {
    let reqs: Vec<SearchRequest> = search_requests()
        .into_iter()
        .filter(|r| r.seed == 0)
        .collect();
    let prepared = search::prepare(&reqs);
    let _spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    trace::drain();
    for (i, r) in reqs.iter().enumerate() {
        let model = trace::traced_model(&r.config.key);
        let cache = mse::EvalCache::new(policy().eval.cache_capacity);
        trace::traced_search(r, &model, &prepared.spaces[i], &prepared.pool, &cache)
            .expect("traced search returns a result");
    }
    let agg = Aggregate::of(&trace::drain());
    for method in [
        Method::Oneshot,
        Method::Batch,
        Method::Neighbors,
        Method::Bound,
    ] {
        assert!(
            agg.method(Layer::Engine, method).0 > 0,
            "engine path {} never ran under the traced stack",
            method.name()
        );
    }
}
