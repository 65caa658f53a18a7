//! The search workloads: a closed loop of library searches through
//! `Mse::run_resilient_shared`, on the stack `mapex search` builds by
//! default (pool width = all cores, a 64k-entry cache per search, guard
//! reject, two retries).

use crate::data::{Data, Digest, Expected};
use crate::stats::{self, Metrics};
use crate::workload::{
    make_mapper, rounds_for, search_requests, Key, SearchRequest, SearchWorkload,
};
use costmodel::{CostModel, GuardedModel};
use mappers::{Budget, CacheStats, EdpEvaluator, RunStatus};
use mapping::MapSpace;
use mse::{EvalCache, EvalConfig, EvalPool, Mse, RunPolicy};
use std::time::{Duration, Instant};

/// The stack's configuration: `mapex search` defaults.
pub fn policy() -> RunPolicy {
    RunPolicy::with_retries(2).with_eval(EvalConfig::full())
}

/// What a run needs built before its first search: the shared worker pool
/// and one guarded model and map space per request.
pub struct Prepared {
    pub pool: EvalPool,
    pub models: Vec<GuardedModel<Box<dyn CostModel>>>,
    pub spaces: Vec<MapSpace>,
}

pub fn prepare(reqs: &[SearchRequest]) -> Prepared {
    let pool = EvalPool::new(policy().eval);
    let models: Vec<_> = reqs.iter().map(|r| r.config.key.guarded()).collect();
    let spaces = reqs
        .iter()
        .map(|r| MapSpace::new(r.config.key.problem(), r.config.key.arch()))
        .collect();
    Prepared {
        pool,
        models,
        spaces,
    }
}

/// Result of one search request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub req: SearchRequest,
    pub ok: bool,
    pub score: f64,
    pub mapping: Option<mapping::Mapping>,
    pub evaluated: usize,
    pub pruned: usize,
    pub attempts: usize,
    pub cache: CacheStats,
    pub latency: Duration,
}

impl Outcome {
    pub fn spec(&self) -> String {
        self.mapping
            .as_ref()
            .map(mapping::codec::to_spec)
            .unwrap_or_default()
    }
}

/// Runs one request through `run_resilient_shared` with a fresh cache,
/// timing the whole call (mapper and cache construction included: a
/// caller pays both).
pub fn run_one(
    pool: &EvalPool,
    model: &GuardedModel<Box<dyn CostModel>>,
    req: &SearchRequest,
) -> Outcome {
    let started = Instant::now();
    let cache = EvalCache::new(policy().eval.cache_capacity);
    run_one_with(pool, model, req, &cache, started)
}

/// [`run_one`] against a caller-owned cache (the service keeps one per
/// model key), timed from `started`.
pub fn run_one_with(
    pool: &EvalPool,
    model: &GuardedModel<Box<dyn CostModel>>,
    req: &SearchRequest,
    cache: &EvalCache,
    started: Instant,
) -> Outcome {
    let mapper = make_mapper(req.config.mapper);
    let evaluator = EdpEvaluator::new(model);
    let outcome = Mse::new(model).run_resilient_shared(
        mapper.as_ref(),
        &evaluator,
        Budget::samples(req.config.samples),
        req.seed,
        policy(),
        Some(model),
        pool,
        cache,
    );
    let latency = started.elapsed();
    let ok = matches!(outcome.status, RunStatus::Succeeded | RunStatus::Recovered);
    let attempts = outcome.attempts.len();
    match outcome.result {
        Some(r) => Outcome {
            req: *req,
            ok: ok && r.best.is_some() && r.best_score.is_finite(),
            score: r.best_score,
            mapping: r.best.map(|(m, _)| m),
            evaluated: r.evaluated,
            pruned: r.pruned,
            attempts,
            cache: r.cache,
            latency,
        },
        None => Outcome {
            req: *req,
            ok: false,
            score: f64::INFINITY,
            mapping: None,
            evaluated: 0,
            pruned: 0,
            attempts,
            cache: CacheStats::default(),
            latency,
        },
    }
}

/// Re-costs `m` with a fresh one-shot engine (no pool, cache, batch,
/// delta or guard) and returns its EDP.
pub fn recost(key: &Key, m: &mapping::Mapping) -> Option<f64> {
    key.engine().evaluate(m).ok().map(|c| c.edp())
}

/// Output check of one search result against the checked-in data; returns
/// the problems found.
pub fn check(data: &Data, o: &Outcome, problems: &mut Vec<String>) {
    let label = o.req.config.label();
    let Some(m) = &o.mapping else {
        problems.push(format!("{label} seed {}: no result", o.req.seed));
        return;
    };
    match recost(&o.req.config.key, m) {
        Some(edp) if edp.to_bits() == o.score.to_bits() => {}
        other => problems.push(format!(
            "{label} seed {}: reported score {:e} but a fresh one-shot evaluation gives {other:?}",
            o.req.seed, o.score
        )),
    }
    let got = Expected {
        score: o.score,
        mapping: o.spec(),
    };
    match data.expected(&o.req.config, o.req.seed) {
        Some(e) if *e == got => {}
        Some(e) => problems.push(format!(
            "{label} seed {}: result {:e} differs from the checked-in {:e}",
            o.req.seed, got.score, e.score
        )),
        None => problems.push(format!(
            "{label} seed {}: no checked-in expectation",
            o.req.seed
        )),
    }
    match data.reference(&o.req.config.key) {
        Some(r) if o.score / r >= 1.0 => {}
        r => problems.push(format!(
            "{label} seed {}: EDP {:e} is below the reference {r:?}",
            o.req.seed, o.score
        )),
    }
}

/// Digest of the outcomes, and the digest the checked-in data predicts
/// for the same request list.
pub fn digests(data: &Data, outcomes: &[Outcome]) -> (Digest, Digest) {
    let mut got = Digest::default();
    let mut want = Digest::default();
    for o in outcomes {
        let label = format!("{}#{}", o.req.config.label(), o.req.seed);
        got.add(&label, &o.spec(), o.score);
        if let Some(e) = data.expected(&o.req.config, o.req.seed) {
            want.add(&label, &e.mapping, e.score);
        }
    }
    (got, want)
}

/// One timed set-up: pool spawn plus every model and map space of the
/// list.
fn timed_prepare(reqs: &[SearchRequest]) -> (Prepared, f64) {
    let t = Instant::now();
    let p = prepare(reqs);
    (p, t.elapsed().as_secs_f64())
}

/// The in-process read path on each result: a fresh guarded model and one
/// one-shot evaluation of the returned mapping, timed in ms. A read that
/// disagrees with the search's score is a failed check.
fn timed_reads(outcomes: &[Outcome], read_ms: &mut Vec<f64>, problems: &mut Vec<String>) {
    for o in outcomes {
        let Some(m) = &o.mapping else { continue };
        let t = Instant::now();
        let read = o.req.config.key.guarded().evaluate_detailed(m);
        read_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if read.map(|b| b.cost.edp().to_bits()) != Ok(o.score.to_bits()) {
            problems.push(format!("{}: guarded read disagrees", o.req.config.label()));
        }
    }
}

/// Set-ups timed per run, spread over its rounds; `setup_s` is their
/// median.
const SETUP_SAMPLES: usize = 24;

/// Latency limit of `goodput_frac` per workload.
fn goodput_limit(w: SearchWorkload) -> Duration {
    match w {
        SearchWorkload::Mix => Duration::from_millis(500),
        SearchWorkload::Dosa => Duration::from_millis(3000),
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(
    w: SearchWorkload,
    seed: u64,
    seconds: u64,
    data: &Data,
) -> (Metrics, usize, usize, bool) {
    let reqs = search_requests(w, seed, rounds_for(w, seconds));
    let ticks = stats::cpu_ticks();
    let (prepared, first_setup) = timed_prepare(&reqs);
    // Set-ups and reads are repeated after every round rather than back
    // to back, so a burst of CPU steal on the shared VM moves one sample,
    // not the median.
    let mut setup_times = vec![first_setup];
    let mut read_ms = Vec::new();
    let mut problems = Vec::new();
    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut round_rates = Vec::new();
    let mut round_first = 0;
    let mut round_start = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        outcomes.push(run_one(&prepared.pool, &prepared.models[i], req));
        if reqs.get(i + 1).is_none_or(|n| n.round != req.round) {
            let round = &outcomes[round_first..];
            let evals: usize = round.iter().map(|o| o.evaluated).sum();
            round_rates.push(evals as f64 / round_start.elapsed().as_secs_f64());
            timed_reads(round, &mut read_ms, &mut problems);
            for _ in 0..(SETUP_SAMPLES / reqs.last().map_or(1, |r| r.round + 1)).max(1) {
                setup_times.push(timed_prepare(&reqs).1);
            }
            round_first = outcomes.len();
            round_start = Instant::now();
        }
    }
    drop(prepared);
    println!(
        "cpu steal        : {:.1}% of CPU time during the run",
        100.0 * stats::steal_since(ticks)
    );
    let setup_s = stats::median(&setup_times);
    report(
        w,
        &reqs,
        &outcomes,
        round_rates,
        setup_s,
        read_ms,
        problems,
        data,
    )
}

#[allow(clippy::too_many_arguments)]
fn report(
    w: SearchWorkload,
    reqs: &[SearchRequest],
    outcomes: &[Outcome],
    round_rates: Vec<f64>,
    setup_s: f64,
    read_ms: Vec<f64>,
    mut problems: Vec<String>,
    data: &Data,
) -> (Metrics, usize, usize, bool) {
    let mut gaps = Vec::new();
    let limit = goodput_limit(w);
    let mut good = 0usize;
    for o in outcomes {
        check(data, o, &mut problems);
        if let Some(r) = data.reference(&o.req.config.key) {
            gaps.push(o.score / r);
        }
        if o.ok && o.latency <= limit {
            good += 1;
        }
    }
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    let (got, want) = digests(data, outcomes);
    if got != want {
        problems.push(format!("digest {} != expected {}", got.hex(), want.hex()));
    }
    let lat: Vec<f64> = outcomes
        .iter()
        .map(|o| o.latency.as_secs_f64() * 1e3)
        .collect();
    let (tail, pct, n) = stats::tail(&lat);
    let n_req = reqs.len();
    println!(
        "workload         : {} ({} requests, {} rounds)",
        w.name(),
        n_req,
        round_rates.len()
    );
    println!("digest           : {} (expected {})", got.hex(), want.hex());
    println!("latency_ms_tail  : p{pct:.2} of {n} samples (10 beyond it)");
    println!(
        "evals/s by round : {}",
        round_rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for p in &problems {
        println!("CHECK FAILED     : {p}");
    }
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("evals_per_s", stats::median(&round_rates), "1/s");
    m.put("latency_ms_p50", stats::median(&lat), "ms");
    m.put("latency_ms_tail", tail, "ms");
    m.put("read_latency_ms_p50", stats::median(&read_ms), "ms");
    m.put("goodput_frac", good as f64 / n_req as f64, "frac");
    m.put("edp_gap_geomean", stats::geomean(&gaps), "ratio");
    m.put("ok_frac", 1.0 - failed as f64 / n_req as f64, "frac");
    m.put(
        "peak_rss_mb",
        stats::peak_rss_mb("self").unwrap_or(0.0),
        "MiB",
    );
    (m, n_req, failed, problems.is_empty())
}
