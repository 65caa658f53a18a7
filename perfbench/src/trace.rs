//! The traced run: the evaluation stack `run_resilient_shared` builds,
//! assembled here from its public types with a timing wrapper at every
//! boundary:
//!
//! `mapper.search` → `WatchdogEvaluator` → `CachedEvaluator` →
//! `PoolEvaluator` → `EdpEvaluator` → `GuardedModel` → engine.
//!
//! Spans (name, start, end, parent, request id) are kept in per-thread
//! buffers and written out when the run ends. A layer's self time is its
//! spans' durations minus the part of each that its child spans cover,
//! summed across pool lanes.

use crate::data::Data;
use crate::search::{self, policy, Outcome};
use crate::stats::{self, Metrics};
use crate::workload::{make_mapper, search_requests, Key, SearchRequest, SearchWorkload};
use costmodel::{Breakdown, Cost, CostModel, GuardAudit, GuardedModel};
use mappers::{Budget, CacheStats, EdpEvaluator, Evaluator, SearchResult};
use mapping::{MapSpace, Mapping, MappingError};
use mse::runtime::reseed;
use mse::{CachedEvaluator, EvalCache, EvalPool, PoolEvaluator, WatchdogEvaluator};
use problem::Problem;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A traced boundary, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Layer {
    Mapper,
    Watchdog,
    Cache,
    Pool,
    Objective,
    Guard,
    Engine,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Mapper => "mapper",
            Layer::Watchdog => "watchdog",
            Layer::Cache => "eval_cache",
            Layer::Pool => "eval_pool",
            Layer::Objective => "objective",
            Layer::Guard => "guard",
            Layer::Engine => "engine",
        }
    }
}

/// The entry point a span timed. Cost-model `*_detailed` variants count
/// under the same path as their plain forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Method {
    Search,
    Oneshot,
    Batch,
    Neighbors,
    Bound,
}

impl Method {
    pub fn name(self) -> &'static str {
        match self {
            Method::Search => "search",
            Method::Oneshot => "oneshot",
            Method::Batch => "batch",
            Method::Neighbors => "neighbors",
            Method::Bound => "bound",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    pub request: u32,
    pub layer: Layer,
    pub method: Method,
    /// Mappings the call carried.
    pub items: u32,
    /// Cache layer only: whether the call probed the cache.
    pub probed: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Span of the pool batch in flight: the parent of spans that start on a
/// pool worker thread, where no span of this thread is open.
static CROSS_PARENT: AtomicU64 = AtomicU64::new(0);
static REQUEST: AtomicU32 = AtomicU32::new(0);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Buffer = {
        let b: Buffer = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("span registry poisoned").push(Arc::clone(&b));
        b
    };
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sets the request id later spans carry.
pub fn set_request(id: u32) {
    REQUEST.store(id, Ordering::Relaxed);
}

/// Takes every recorded span, from every thread.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("span registry poisoned");
    let mut out = Vec::new();
    for b in buffers.iter() {
        out.append(&mut b.lock().expect("span buffer poisoned"));
    }
    out.sort_by_key(|s| s.id);
    out
}

/// Closes the span when dropped, so a call that unwinds (a watchdog stop)
/// still records it and restores this thread's open span.
struct Open {
    span: Span,
    restore: u64,
    cross: Option<u64>,
}

impl Drop for Open {
    fn drop(&mut self) {
        self.span.end_ns = now_ns();
        CURRENT.with(|c| c.set(self.restore));
        if let Some(prev) = self.cross {
            CROSS_PARENT.store(prev, Ordering::Relaxed);
        }
        let span = self.span;
        LOCAL.with(|b| b.lock().expect("span buffer poisoned").push(span));
    }
}

fn open(layer: Layer, method: Method, items: usize, cross: bool) -> Open {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let restore = CURRENT.with(|c| c.replace(id));
    let parent = if restore != 0 {
        restore
    } else {
        CROSS_PARENT.load(Ordering::Relaxed)
    };
    let cross = cross.then(|| CROSS_PARENT.swap(id, Ordering::Relaxed));
    Open {
        span: Span {
            id,
            parent,
            request: REQUEST.load(Ordering::Relaxed),
            layer,
            method,
            items: items as u32,
            probed: false,
            start_ns: now_ns(),
            end_ns: 0,
        },
        restore,
        cross,
    }
}

/// Times `f` as one span.
pub fn span<R>(layer: Layer, method: Method, items: usize, f: impl FnOnce() -> R) -> R {
    let _open = open(layer, method, items, false);
    f()
}

/// Timing wrapper over an [`Evaluator`]; forwards every trait method.
pub struct TracedEval<'a> {
    inner: &'a dyn Evaluator,
    layer: Layer,
    /// For the cache layer: the cache whose counters tell a probed call
    /// (hits or inserts moved) from a bypassed one.
    cache: Option<&'a EvalCache>,
}

impl<'a> TracedEval<'a> {
    pub fn new(inner: &'a dyn Evaluator, layer: Layer) -> Self {
        TracedEval {
            inner,
            layer,
            cache: None,
        }
    }

    pub fn over_cache(inner: &'a dyn Evaluator, cache: &'a EvalCache) -> Self {
        TracedEval {
            inner,
            layer: Layer::Cache,
            cache: Some(cache),
        }
    }

    fn timed<R>(&self, method: Method, items: usize, f: impl FnOnce() -> R) -> R {
        let mut open = open(self.layer, method, items, self.layer == Layer::Pool);
        let before = self.cache.map(EvalCache::stats);
        let out = f();
        if let (Some(c), Some(b)) = (self.cache, before) {
            let a = c.stats();
            open.span.probed = a.hits > b.hits || a.inserts > b.inserts;
        }
        out
    }
}

impl Evaluator for TracedEval<'_> {
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
        self.timed(Method::Oneshot, 1, || self.inner.evaluate(m))
    }

    fn evaluate_batch(&self, batch: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.timed(Method::Batch, batch.len(), || {
            self.inner.evaluate_batch(batch)
        })
    }

    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Option<(Cost, f64)>> {
        self.timed(Method::Neighbors, neighbors.len(), || {
            self.inner.evaluate_neighbors(parent, neighbors)
        })
    }

    fn score_bound(&self, m: &Mapping) -> Option<f64> {
        self.timed(Method::Bound, 1, || self.inner.score_bound(m))
    }
}

/// Timing wrapper over a [`CostModel`]; forwards every trait method.
pub struct TracedModel<M: CostModel> {
    inner: M,
    layer: Layer,
}

impl<M: CostModel> TracedModel<M> {
    pub fn new(inner: M, layer: Layer) -> Self {
        TracedModel { inner, layer }
    }

    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: CostModel> CostModel for TracedModel<M> {
    fn problem(&self) -> &Problem {
        self.inner.problem()
    }

    fn arch(&self) -> &arch::Arch {
        self.inner.arch()
    }

    fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
        span(self.layer, Method::Oneshot, 1, || self.inner.evaluate(m))
    }

    fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
        span(self.layer, Method::Oneshot, 1, || {
            self.inner.evaluate_detailed(m)
        })
    }

    fn evaluate_batch(&self, ms: &[Mapping]) -> Vec<Result<Cost, MappingError>> {
        span(self.layer, Method::Batch, ms.len(), || {
            self.inner.evaluate_batch(ms)
        })
    }

    fn evaluate_detailed_batch(&self, ms: &[Mapping]) -> Vec<Result<Breakdown, MappingError>> {
        span(self.layer, Method::Batch, ms.len(), || {
            self.inner.evaluate_detailed_batch(ms)
        })
    }

    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Cost, MappingError>> {
        span(self.layer, Method::Neighbors, neighbors.len(), || {
            self.inner.evaluate_neighbors(parent, neighbors)
        })
    }

    fn evaluate_neighbors_detailed(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Breakdown, MappingError>> {
        span(self.layer, Method::Neighbors, neighbors.len(), || {
            self.inner.evaluate_neighbors_detailed(parent, neighbors)
        })
    }

    fn cost_bound(&self, m: &Mapping) -> Option<Cost> {
        span(self.layer, Method::Bound, 1, || self.inner.cost_bound(m))
    }
}

/// The traced model stack of one key: guard boundary over
/// `GuardedModel` over engine boundary over the engine.
pub type TracedStackModel = TracedModel<GuardedModel<TracedModel<Box<dyn CostModel>>>>;

pub fn traced_model(key: &Key) -> TracedStackModel {
    let engine = TracedModel::new(key.engine(), Layer::Engine);
    TracedModel::new(GuardedModel::new(engine, key.guard_config()), Layer::Guard)
}

/// One search through the traced stack, with `run_resilient_shared`'s
/// layering, retry-with-reseed and acceptance rule (mappers here never
/// overrun their budget, so the watchdog-stop branch is not mirrored).
pub fn traced_search(
    req: &SearchRequest,
    model: &TracedStackModel,
    space: &MapSpace,
    pool: &EvalPool,
    cache: &EvalCache,
) -> Option<SearchResult> {
    let p = policy();
    let budget = Budget::samples(req.config.samples);
    let objective = EdpEvaluator::new(model);
    let t_objective = TracedEval::new(&objective, Layer::Objective);
    let pooled;
    let below_pool: &dyn Evaluator = if pool.lanes() > 1 {
        pooled = PoolEvaluator::new(pool, &t_objective);
        &pooled
    } else {
        &t_objective
    };
    let t_pool = TracedEval::new(below_pool, Layer::Pool);
    let cached;
    let below_cache: &dyn Evaluator = if cache.enabled() {
        cached = CachedEvaluator::new(cache, &t_pool);
        &cached
    } else {
        &t_pool
    };
    let t_cache = TracedEval::over_cache(below_cache, cache);
    let mapper = make_mapper(req.config.mapper);
    for attempt in 0..=p.retries {
        let watchdog =
            WatchdogEvaluator::with_deadline(&t_cache, budget, p.grace_evals, p.deadline);
        let t_watchdog = TracedEval::new(&watchdog, Layer::Watchdog);
        let mut rng = SmallRng::seed_from_u64(reseed(req.seed, attempt as u64));
        let mut result = span(Layer::Mapper, Method::Search, 0, || {
            mapper.search(space, &t_watchdog, budget, &mut rng)
        });
        result.cache = cache.stats();
        if result.best.is_some() && result.best_score.is_finite() {
            return Some(result);
        }
    }
    None
}

/// Per-layer aggregates over a set of spans.
#[derive(Debug, Default)]
pub struct Aggregate {
    /// (layer, method) → (calls, mappings, total ns, self ns).
    pub by_method: HashMap<(Layer, Method), (u64, u64, u64, u64)>,
    /// Per mapper span: (duration ns, self ns).
    pub searches: Vec<(u64, u64)>,
    /// Cache-layer lookups (mappings) that probed the cache.
    pub probed_items: u64,
    /// Pool batch spans: total duration and the time their lane children
    /// were busy.
    pub pool_batch_ns: u64,
    pub pool_child_ns: u64,
}

impl Aggregate {
    pub fn of(spans: &[Span]) -> Aggregate {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        let mut agg = Aggregate::default();
        for s in spans {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start_ns, spans[k].end_ns))
                .collect();
            iv.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in iv {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let self_ns = s.dur().saturating_sub(covered);
            let e = agg.by_method.entry((s.layer, s.method)).or_default();
            e.0 += 1;
            e.1 += s.items as u64;
            e.2 += s.dur();
            e.3 += self_ns;
            match s.layer {
                Layer::Mapper => agg.searches.push((s.dur(), self_ns)),
                Layer::Cache if s.probed => agg.probed_items += s.items as u64,
                Layer::Pool if s.method == Method::Batch => {
                    agg.pool_batch_ns += s.dur();
                    agg.pool_child_ns += kids.iter().map(|&k| spans[k].dur()).sum::<u64>();
                }
                _ => {}
            }
        }
        agg
    }

    /// (calls, mappings, total ns, self ns) of a layer, summed over
    /// methods, counting only evaluations (not bounds) when `evals_only`.
    pub fn layer(&self, layer: Layer, evals_only: bool) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for (&(l, m), v) in &self.by_method {
            if l == layer && !(evals_only && m == Method::Bound) {
                t = (t.0 + v.0, t.1 + v.1, t.2 + v.2, t.3 + v.3);
            }
        }
        t
    }

    pub fn method(&self, layer: Layer, method: Method) -> (u64, u64, u64, u64) {
        self.by_method
            .get(&(layer, method))
            .copied()
            .unwrap_or_default()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics of the search stack, from spans and the traced
/// searches' own counters. Names a workload cannot exercise are reported
/// as 0 by the caller.
pub fn stack_metrics(
    m: &mut Metrics,
    agg: &Aggregate,
    cache: CacheStats,
    evaluated_pruned: (u64, u64),
    rejections: u64,
    lanes: usize,
) {
    let self_ms: Vec<f64> = agg.searches.iter().map(|&(_, s)| s as f64 / 1e6).collect();
    let total: u64 = agg.searches.iter().map(|&(d, _)| d).sum();
    let own: u64 = agg.searches.iter().map(|&(_, s)| s).sum();
    m.put("mappers.self_ms_p50", stats::median(&self_ms), "ms");
    m.put(
        "mappers.eval_share",
        ratio((total - own) as f64, total as f64),
        "frac",
    );
    let wd = agg.layer(Layer::Watchdog, true);
    m.put(
        "watchdog.self_ns_per_eval",
        ratio(wd.3 as f64, wd.1 as f64),
        "ns",
    );
    // Cache lookups are the one-shot and batch calls; neighbor and bound
    // calls pass through it.
    let lookups = cache.hits + cache.misses;
    let looked_up =
        agg.method(Layer::Cache, Method::Oneshot).1 + agg.method(Layer::Cache, Method::Batch).1;
    let c = agg.layer(Layer::Cache, false);
    m.put("eval_cache.hit_rate", cache.hit_rate(), "frac");
    m.put(
        "eval_cache.probe_frac",
        ratio(agg.probed_items as f64, looked_up as f64),
        "frac",
    );
    m.put(
        "eval_cache.self_ns_per_lookup",
        ratio(c.3 as f64, lookups as f64),
        "ns",
    );
    let pb = agg.method(Layer::Pool, Method::Batch);
    let p = agg.layer(Layer::Pool, true);
    m.put(
        "eval_pool.mappings_per_batch",
        ratio(pb.1 as f64, pb.0 as f64),
        "count",
    );
    m.put(
        "eval_pool.self_ns_per_eval",
        ratio(p.3 as f64, p.1 as f64),
        "ns",
    );
    m.put(
        "eval_pool.lane_busy_frac",
        ratio(
            agg.pool_child_ns as f64,
            (agg.pool_batch_ns * lanes as u64) as f64,
        ),
        "frac",
    );
    let g = agg.layer(Layer::Guard, true);
    m.put(
        "guard.self_ns_per_eval",
        ratio(g.3 as f64, g.1 as f64),
        "ns",
    );
    m.put("guard.rejections", rejections as f64, "count");
    for (method, n, ns) in [
        (
            Method::Oneshot,
            "engine.mappings.oneshot",
            "engine.ns_per_mapping.oneshot",
        ),
        (
            Method::Batch,
            "engine.mappings.batch",
            "engine.ns_per_mapping.batch",
        ),
        (
            Method::Neighbors,
            "engine.mappings.neighbors",
            "engine.ns_per_mapping.neighbors",
        ),
    ] {
        let e = agg.method(Layer::Engine, method);
        m.put(n, e.1 as f64, "count");
        m.put(ns, ratio(e.2 as f64, e.1 as f64), "ns");
    }
    let b = agg.method(Layer::Engine, Method::Bound);
    m.put("engine.calls.bound", b.0 as f64, "count");
    m.put(
        "engine.ns_per_call.bound",
        ratio(b.2 as f64, b.0 as f64),
        "ns",
    );
    let (evaluated, pruned) = evaluated_pruned;
    m.put(
        "bound.pruned_frac",
        ratio(pruned as f64, (evaluated + pruned) as f64),
        "frac",
    );
}

/// Writes spans as CSV (`id,parent,request,layer,method,items,start_ns,end_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,parent,request,layer,method,items,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.request,
            s.layer.name(),
            s.method.name(),
            s.items,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

/// The traced run of a search workload: the first round of the list runs
/// untraced (through `run_resilient_shared`) and then traced; digests
/// must match, and the wall-time difference is the tracing overhead. One
/// round already records about half a million spans on `search_mix`.
pub fn run_search(
    w: SearchWorkload,
    seed: u64,
    data: &Data,
    work: &Path,
) -> (Metrics, usize, usize, bool) {
    let reqs = search_requests(w, seed, 1);
    let prepared = search::prepare(&reqs);
    let t = Instant::now();
    let plain: Vec<Outcome> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| search::run_one(&prepared.pool, &prepared.models[i], r))
        .collect();
    let plain_s = t.elapsed().as_secs_f64();
    let models: Vec<TracedStackModel> = reqs.iter().map(|r| traced_model(&r.config.key)).collect();
    drain();
    let t = Instant::now();
    let mut traced = Vec::with_capacity(reqs.len());
    let mut cache_total = CacheStats::default();
    for (i, r) in reqs.iter().enumerate() {
        set_request(i as u32 + 1);
        let cache = EvalCache::new(policy().eval.cache_capacity);
        let res = traced_search(r, &models[i], &prepared.spaces[i], &prepared.pool, &cache);
        let c = cache.stats();
        cache_total.hits += c.hits;
        cache_total.misses += c.misses;
        traced.push(res);
    }
    let traced_s = t.elapsed().as_secs_f64();
    let spans = drain();
    let mut problems = Vec::new();
    let mut evaluated_pruned = (0u64, 0u64);
    for (o, t) in plain.iter().zip(&traced) {
        search::check(data, o, &mut problems);
        let same = t.as_ref().is_some_and(|t| {
            t.best_score.to_bits() == o.score.to_bits()
                && t.best.as_ref().map(|(m, _)| mapping::codec::to_spec(m)) == Some(o.spec())
        });
        if !same {
            problems.push(format!(
                "{}: traced stack result differs from run_resilient_shared",
                o.req.config.label()
            ));
        }
        if let Some(t) = t {
            evaluated_pruned.0 += t.evaluated as u64;
            evaluated_pruned.1 += t.pruned as u64;
        }
    }
    let (got, want) = search::digests(data, &plain);
    let rejections: u64 = models.iter().map(|m| m.inner().report().rejections).sum();
    let agg = Aggregate::of(&spans);
    let path = work.join(format!("spans-{}.csv", w.name()));
    if let Err(e) = write_spans(&path, &spans) {
        problems.push(format!("writing {}: {e}", path.display()));
    }
    println!(
        "workload         : {} traced ({} requests)",
        w.name(),
        reqs.len()
    );
    println!("digest           : {} (expected {})", got.hex(), want.hex());
    println!(
        "spans            : {} written to {}",
        spans.len(),
        path.display()
    );
    println!("wall untraced    : {plain_s:.3} s, traced {traced_s:.3} s");
    for p in &problems {
        println!("CHECK FAILED     : {p}");
    }
    let mut m = Metrics::default();
    stack_metrics(
        &mut m,
        &agg,
        cache_total,
        evaluated_pruned,
        rejections,
        prepared.pool.lanes(),
    );
    let attempts: usize = plain.iter().map(|o| o.attempts).sum();
    m.put(
        "runtime.attempts_per_search",
        ratio(attempts as f64, plain.len() as f64),
        "count",
    );
    serve_layers_absent(&mut m);
    m.put("trace.overhead_frac", traced_s / plain_s - 1.0, "frac");
    let failed = plain.iter().filter(|o| !o.ok).count();
    (m, reqs.len(), failed, problems.is_empty() && got == want)
}

/// The service, store and load-generator layers are not on a library
/// search's path: reported as 0.
fn serve_layers_absent(m: &mut Metrics) {
    for (name, unit) in SERVE_LAYER_METRICS {
        m.put(name, 0.0, unit);
    }
}

/// Per-layer metrics only the serving workload exercises.
pub const SERVE_LAYER_METRICS: [(&str, &str); 10] = [
    ("eval_cache.cross_request_hits", "count"),
    ("service.parse_us", "us"),
    ("service.model_build_us", "us"),
    ("service.render_us", "us"),
    ("service.queue_depth_p90", "count"),
    ("loadgen.lag_ms_max", "ms"),
    ("store.open_ms", "ms"),
    ("store.deposit_ms_p50", "ms"),
    ("store.recall_us_p50", "us"),
    ("store.hit_rate", "frac"),
];
