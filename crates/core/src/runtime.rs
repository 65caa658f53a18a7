//! The resilient search runtime: guarded mapper execution and
//! checkpointed network sweeps.
//!
//! Production MSE runs race portfolios of third-party mappers against
//! cost models for hours; one buggy mapper or one NaN-poisoned cost must
//! not take the whole run down. This module layers four defenses over the
//! plain [`Mse`] driver:
//!
//! 1. **Panic isolation** — every mapper run executes under
//!    [`std::panic::catch_unwind`]; a panic becomes a structured
//!    [`RunError::MapperPanicked`] inside a [`RunOutcome`] instead of an
//!    abort.
//! 2. **Watchdog budget enforcement** — the evaluator handed to the
//!    mapper is a [`WatchdogEvaluator`] that counts evaluations and wall
//!    clock itself and hard-stops a mapper that ignores its [`Budget`]
//!    (with a grace window, so well-behaved mappers are bit-identical
//!    with or without the watchdog).
//! 3. **Retry with reseed** — attempts that panic or end with an empty /
//!    non-finite result are retried up to [`RunPolicy::retries`] times
//!    with deterministically perturbed seeds; every attempt is recorded
//!    in the outcome's audit trail.
//! 4. **Checkpoint / resume** — [`run_network_checkpointed`] writes an
//!    atomic JSON checkpoint after every layer of a sweep, and a resumed
//!    run skips completed layers while reproducing the exact result a
//!    fresh run would have produced (per-layer seeds depend only on the
//!    layer index, and the replay buffer is rebuilt from the checkpoint).

use crate::driver::Mse;
use crate::eval::{CachedEvaluator, EvalCache, EvalConfig, EvalPool, PoolEvaluator};
use crate::json;
use crate::fault::{panic_message, quiet_sentinel_panics, WatchdogEvaluator, WatchdogStop};
use crate::warmstart::{run_network_parallel_from, InitStrategy, LayerOutcome, ReplayBuffer};
use arch::Arch;
use costmodel::{Cost, CostModel, GuardAudit};
use mappers::{
    score_cmp, AttemptRecord, Budget, ConvergencePoint, EdpEvaluator, Evaluator, Mapper,
    RunError, RunOutcome, RunStatus, SearchResult,
};
use problem::Problem;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Process-wide count of checkpoint loads that only succeeded via the
/// `.bak` sibling — each one is a torn or missing primary that the rolling
/// backup absorbed. Surfaced by `health`/`stats` so operators see
/// near-miss corruption before it becomes data loss.
static BAK_RESCUES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total [`SweepCheckpoint::load`] calls rescued by the `.bak` fallback
/// since process start.
pub fn checkpoint_bak_rescues() -> u64 {
    BAK_RESCUES.load(std::sync::atomic::Ordering::Relaxed)
}

/// Knobs of the guarded runner.
#[derive(Debug, Clone, Copy)]
pub struct RunPolicy {
    /// Additional attempts (with perturbed seeds) after a failed first
    /// attempt. `0` disables retry.
    pub retries: usize,
    /// Watchdog slack on the sample budget: population-based mappers
    /// legitimately finish the generation in flight when the budget runs
    /// out, so the hard stop only fires this many evaluations past the
    /// limit.
    pub grace_evals: usize,
    /// Evaluation-stack configuration: worker-pool width and cache
    /// capacity. Defaults to [`EvalConfig::serial`] (one lane, no cache) —
    /// the historical behavior — so library callers opt in explicitly;
    /// the CLI runs [`EvalConfig::full`] unless `--threads` says
    /// otherwise. Results are bit-identical across configurations by
    /// construction; only throughput (and cache counters) change.
    pub eval: EvalConfig,
    /// Absolute hard deadline shared by *all* attempts: once it passes,
    /// the watchdog stops the mapper immediately (no 2x slack) and the
    /// shadow incumbent is salvaged. `None` (the default) keeps plain
    /// budget enforcement. Set by the service layer, where a request's
    /// deadline is a promise to the client, not a hint to the mapper.
    pub deadline: Option<Instant>,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            retries: 2,
            grace_evals: 1024,
            eval: EvalConfig::serial(),
            deadline: None,
        }
    }
}

impl RunPolicy {
    /// Policy with a given retry count and the default grace window.
    pub fn with_retries(retries: usize) -> Self {
        RunPolicy { retries, ..RunPolicy::default() }
    }

    /// Same policy with a different evaluation-stack configuration.
    pub fn with_eval(mut self, eval: EvalConfig) -> Self {
        self.eval = eval;
        self
    }

    /// Same policy with a hard absolute deadline.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }
}

/// Deterministic seed perturbation for retry attempt `attempt` (attempt 0
/// is the caller's seed unchanged). Splitmix64-style mixing: retries land
/// far from the original stream and from each other.
pub fn reseed(seed: u64, attempt: u64) -> u64 {
    if attempt == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Mse<'_> {
    /// Runs `mapper` under the full defensive stack (panic isolation,
    /// watchdog, retry-with-reseed) with the default EDP objective. Never
    /// panics on a misbehaving mapper or cost model; the outcome records
    /// what happened.
    pub fn run_guarded(
        &self,
        mapper: &dyn Mapper,
        budget: Budget,
        seed: u64,
        policy: RunPolicy,
    ) -> RunOutcome {
        let evaluator = EdpEvaluator::new(self.model());
        self.run_guarded_with(mapper, &evaluator, budget, seed, policy, None)
    }

    /// [`Mse::run_guarded`] with a custom objective and, optionally, an
    /// invariant-guard audit: `audit` is the [`GuardAudit`] side of the
    /// `GuardedModel` the evaluator scores against. Each attempt's
    /// quarantined-evaluation count lands in its [`AttemptRecord`], and an
    /// attempt whose every scored mapping was quarantined reports
    /// [`RunError::InvariantViolation`] (with the first violation's
    /// invariant/level/observed/bound) instead of a bare
    /// [`RunError::NoLegalMapping`] — distinguishing "the model is lying"
    /// from "the space has no legal point".
    pub fn run_guarded_with(
        &self,
        mapper: &dyn Mapper,
        evaluator: &dyn Evaluator,
        budget: Budget,
        seed: u64,
        policy: RunPolicy,
        audit: Option<&dyn GuardAudit>,
    ) -> RunOutcome {
        let pool = EvalPool::new(policy.eval);
        let cache = EvalCache::new(policy.eval.cache_capacity);
        self.run_resilient_shared(mapper, evaluator, budget, seed, policy, audit, &pool, &cache)
    }

    /// The full defensive stack against an *externally owned* evaluation
    /// engine: the worker pool and memo cache are the caller's, so they
    /// outlive this run. This is the serving entry point — `mapex serve`
    /// keeps one [`EvalPool`] for the whole daemon and one [`EvalCache`]
    /// per (problem, arch, density) model key, so repeated requests hit
    /// warm caches while results stay bit-identical to a cold run.
    ///
    /// `audit` is optional: `Some` enables the per-attempt quarantine
    /// accounting of [`Mse::run_guarded_with`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_resilient_shared(
        &self,
        mapper: &dyn Mapper,
        evaluator: &dyn Evaluator,
        budget: Budget,
        seed: u64,
        policy: RunPolicy,
        audit: Option<&dyn GuardAudit>,
        pool: &EvalPool,
        cache: &EvalCache,
    ) -> RunOutcome {
        quiet_sentinel_panics();
        let space = self.space();
        // Evaluation stack, innermost first: the caller's evaluator, a
        // worker pool for batch dispatch, a memo cache (on the submitting
        // thread, so hit sequences are thread-count independent), and the
        // per-attempt watchdog outermost so its counts include cache hits
        // and stay identical to an uncached serial run. Pool and cache
        // persist across retry attempts.
        let pooled;
        let inner: &dyn Evaluator = if pool.lanes() > 1 {
            pooled = PoolEvaluator::new(pool, evaluator);
            &pooled
        } else {
            evaluator
        };
        let cached;
        let stack: &dyn Evaluator = if cache.enabled() {
            cached = CachedEvaluator::new(cache, inner);
            &cached
        } else {
            inner
        };
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        // Best truncated result salvaged from panicked attempts, kept in
        // case every attempt fails.
        let mut salvaged: Option<SearchResult> = None;
        for attempt in 0..=policy.retries {
            let attempt_seed = reseed(seed, attempt as u64);
            let rejections_before = audit.map_or(0, |a| a.report().rejections);
            let watchdog = WatchdogEvaluator::with_deadline(
                stack,
                budget,
                policy.grace_evals,
                policy.deadline,
            );
            let started = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut rng = SmallRng::seed_from_u64(attempt_seed);
                mapper.search(&space, &watchdog, budget, &mut rng)
            }));
            // Per-attempt guard activity: quarantine count from the
            // counters, violation details from the drained log.
            let quarantined = audit
                .map_or(0, |a| (a.report().rejections - rejections_before) as usize);
            let violations = audit.map_or_else(Vec::new, |a| a.take_violations());
            match run {
                Ok(mut result) => {
                    result.cache = cache.stats();
                    let error = if result.best.is_none() {
                        match violations.first() {
                            // Nothing scored *and* the guard was busy: the
                            // model, not the space, is the problem.
                            Some(v) if quarantined > 0 => Some(RunError::InvariantViolation {
                                invariant: v.invariant.name().to_string(),
                                level: v.level,
                                observed: v.observed,
                                bound: v.bound,
                                quarantined,
                            }),
                            _ => Some(RunError::NoLegalMapping),
                        }
                    } else if !result.best_score.is_finite() {
                        Some(RunError::NonFiniteScore { score: result.best_score })
                    } else {
                        None
                    };
                    let accepted = error.is_none();
                    attempts.push(AttemptRecord {
                        seed: attempt_seed,
                        error,
                        evaluated: result.evaluated,
                        elapsed: result.elapsed,
                        best_score: result.best_score,
                        quarantined,
                    });
                    if accepted {
                        let status = if attempt == 0 {
                            RunStatus::Succeeded
                        } else {
                            RunStatus::Recovered
                        };
                        return RunOutcome {
                            mapper: mapper.name().to_string(),
                            status,
                            attempts,
                            result: Some(result),
                        };
                    }
                }
                Err(payload) => {
                    let evaluated = watchdog.evaluated();
                    let best_score = watchdog.best_score();
                    if let Some(stop) = payload.downcast_ref::<WatchdogStop>() {
                        attempts.push(AttemptRecord {
                            seed: attempt_seed,
                            error: Some(RunError::BudgetOverrun { evaluated: stop.evaluated }),
                            evaluated,
                            elapsed: started.elapsed(),
                            best_score,
                            quarantined,
                        });
                        // No retry: a mapper that ignores its budget once
                        // will ignore it again. Hand back whatever the
                        // shadow incumbent caught before the stop.
                        return RunOutcome {
                            mapper: mapper.name().to_string(),
                            status: RunStatus::WatchdogStopped,
                            attempts,
                            result: watchdog.salvage().map(|mut s| {
                                s.cache = cache.stats();
                                s
                            }),
                        };
                    }
                    attempts.push(AttemptRecord {
                        seed: attempt_seed,
                        error: Some(RunError::MapperPanicked {
                            message: panic_message(&*payload),
                        }),
                        evaluated,
                        elapsed: started.elapsed(),
                        best_score,
                        quarantined,
                    });
                    if let Some(s) = watchdog.salvage() {
                        let better = salvaged
                            .as_ref()
                            .is_none_or(|cur| score_cmp(s.best_score, cur.best_score).is_lt());
                        if better {
                            salvaged = Some(s);
                        }
                    }
                }
            }
        }
        RunOutcome {
            mapper: mapper.name().to_string(),
            status: RunStatus::Failed,
            attempts,
            result: salvaged.map(|mut s| {
                s.cache = cache.stats();
                s
            }),
        }
    }

    /// Guarded portfolio run: every mapper gets the full defensive stack,
    /// results come back ordered best-first (NaN-safe), and one crashing
    /// or runaway mapper cannot poison its peers' results.
    pub fn run_portfolio_resilient(
        &self,
        mappers: &[&dyn Mapper],
        budget: Budget,
        seed: u64,
        policy: RunPolicy,
    ) -> Vec<RunOutcome> {
        let mut out: Vec<RunOutcome> =
            mappers.iter().map(|m| self.run_guarded(*m, budget, seed, policy)).collect();
        out.sort_by(|a, b| score_cmp(a.best_score(), b.best_score()));
        out
    }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be loaded, written, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint.
    Io(std::io::Error),
    /// The file is not a well-formed checkpoint.
    Corrupt(String),
    /// The checkpoint is well-formed but belongs to a different sweep
    /// (seed, budget, strategy, or layer sequence differs).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Mismatch(msg) => {
                write!(f, "checkpoint does not match this sweep: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One completed layer inside a [`SweepCheckpoint`]: enough to rebuild
/// the layer's [`LayerOutcome`] and its replay-buffer contribution
/// exactly. Convergence history and per-sample features are not carried —
/// they do not influence later layers.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCheckpoint {
    /// Workload name (must match the sweep's layer list on resume).
    pub name: String,
    /// EDP of the initialization point.
    pub init_score: f64,
    /// Best score the layer's search reached.
    pub best_score: f64,
    /// The paper's 99.5%-convergence sample index.
    pub converge_sample: usize,
    /// Evaluations the layer consumed.
    pub evaluated: usize,
    /// Wall-clock seconds the layer consumed (informational).
    pub elapsed_secs: f64,
    /// Best mapping in `mapping::codec` spec form; `None` when the layer
    /// found no legal mapping.
    pub mapping: Option<String>,
    /// Latency of the best mapping (cycles).
    pub latency_cycles: f64,
    /// Energy of the best mapping (µJ).
    pub energy_uj: f64,
}

impl LayerCheckpoint {
    /// Captures a finished layer. Public so a fleet worker can ship its
    /// shard result in exactly the form the coordinator checkpoints.
    pub fn from_outcome(o: &LayerOutcome) -> Self {
        let (mapping, cost) = match &o.result.best {
            Some((m, c)) => (Some(mapping::codec::to_spec(m)), *c),
            None => (None, Cost { latency_cycles: f64::NAN, energy_uj: f64::NAN }),
        };
        LayerCheckpoint {
            name: o.name.clone(),
            init_score: o.init_score,
            best_score: o.result.best_score,
            converge_sample: o.converge_sample,
            evaluated: o.result.evaluated,
            elapsed_secs: o.result.elapsed.as_secs_f64(),
            mapping,
            latency_cycles: cost.latency_cycles,
            energy_uj: cost.energy_uj,
        }
    }

    /// Rebuilds the layer's [`LayerOutcome`] (inverse of
    /// [`LayerCheckpoint::from_outcome`] up to non-deterministic fields).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the stored mapping spec no longer
    /// parses.
    pub fn to_outcome(&self) -> Result<LayerOutcome, CheckpointError> {
        let best = match &self.mapping {
            Some(spec) => {
                let m = mapping::codec::from_spec(spec).map_err(|e| {
                    CheckpointError::Corrupt(format!("layer {}: bad mapping spec: {e}", self.name))
                })?;
                Some((m, Cost { latency_cycles: self.latency_cycles, energy_uj: self.energy_uj }))
            }
            None => None,
        };
        let pareto = best.clone().into_iter().collect();
        Ok(LayerOutcome {
            name: self.name.clone(),
            init_score: self.init_score,
            result: SearchResult {
                best,
                best_score: self.best_score,
                history: vec![ConvergencePoint {
                    samples: self.evaluated,
                    seconds: self.elapsed_secs,
                    best_score: self.best_score,
                }],
                samples: Vec::new(),
                pareto,
                evaluated: self.evaluated,
                pruned: 0,
                elapsed: Duration::from_secs_f64(self.elapsed_secs.max(0.0)),
                cache: mappers::CacheStats::default(),
            },
            converge_sample: self.converge_sample,
        })
    }
}

/// On-disk state of a partially completed network sweep. Serialized as
/// JSON (hand-rolled: the build environment is offline, so no serde) and
/// written atomically — a crash mid-write leaves the previous checkpoint
/// intact, never a torn file.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// Base seed of the sweep.
    pub seed: u64,
    /// Init strategy, as its canonical name.
    pub strategy: String,
    /// Sample budget per layer, if any.
    pub budget_samples: Option<usize>,
    /// Wall-clock budget per layer in seconds, if any.
    pub budget_seconds: Option<f64>,
    /// Completed layers, in sweep order.
    pub layers: Vec<LayerCheckpoint>,
}

/// Canonical checkpoint name of an [`InitStrategy`].
pub fn strategy_name(s: InitStrategy) -> &'static str {
    match s {
        InitStrategy::Random => "random",
        InitStrategy::PreviousLayer => "previous-layer",
        InitStrategy::BySimilarity => "by-similarity",
    }
}

impl SweepCheckpoint {
    /// Empty checkpoint for a fresh sweep.
    pub fn new(seed: u64, strategy: InitStrategy, budget: Budget) -> Self {
        SweepCheckpoint {
            seed,
            strategy: strategy_name(strategy).to_string(),
            budget_samples: budget.max_samples,
            budget_seconds: budget.max_time.map(|t| t.as_secs_f64()),
            layers: Vec::new(),
        }
    }

    /// Rejects resuming under different sweep parameters — a resumed run
    /// must reproduce exactly what the fresh run would have produced, and
    /// seed/budget/strategy all feed into that.
    pub(crate) fn check_matches(
        &self,
        seed: u64,
        strategy: InitStrategy,
        budget: Budget,
        layers: &[Problem],
    ) -> Result<(), CheckpointError> {
        if self.seed != seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint seed {} != requested seed {seed}",
                self.seed
            )));
        }
        if self.strategy != strategy_name(strategy) {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint strategy {:?} != requested {:?}",
                self.strategy,
                strategy_name(strategy)
            )));
        }
        if self.budget_samples != budget.max_samples {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint sample budget {:?} != requested {:?}",
                self.budget_samples, budget.max_samples
            )));
        }
        if self.layers.len() > layers.len() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has {} completed layers, sweep has only {}",
                self.layers.len(),
                layers.len()
            )));
        }
        for (lc, p) in self.layers.iter().zip(layers) {
            if lc.name != p.name() {
                return Err(CheckpointError::Mismatch(format!(
                    "checkpoint layer {:?} != sweep layer {:?}",
                    lc.name,
                    p.name()
                )));
            }
        }
        Ok(())
    }

    /// The checkpoint with every layer's wall-clock `elapsed_secs` zeroed
    /// — the only field that differs between runs of the same sweep on
    /// different machines (or fleet topologies). Comparing `canonical()`
    /// serializations is how "bit-identical sweep result" is defined:
    /// everything except elapsed time must match byte for byte. The fleet
    /// coordinator writes checkpoints pre-canonicalized so files from 1,
    /// 2, or N workers are directly comparable.
    pub fn canonical(&self) -> Self {
        let mut c = self.clone();
        for l in &mut c.layers {
            l.elapsed_secs = 0.0;
        }
        c
    }

    /// Serializes to JSON text.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.layers.len() * 256);
        s.push_str("{\n");
        s.push_str("  \"version\": 1,\n");
        // u64 seeds as strings: JSON numbers are doubles and would round
        // seeds above 2^53.
        s.push_str(&format!("  \"seed\": \"{}\",\n", self.seed));
        s.push_str(&format!("  \"strategy\": {},\n", json::escape(&self.strategy)));
        match self.budget_samples {
            Some(n) => s.push_str(&format!("  \"budget_samples\": {n},\n")),
            None => s.push_str("  \"budget_samples\": null,\n"),
        }
        match self.budget_seconds {
            Some(t) => s.push_str(&format!("  \"budget_seconds\": {},\n", json::num(t))),
            None => s.push_str("  \"budget_seconds\": null,\n"),
        }
        s.push_str("  \"layers\": [");
        for (i, l) in self.layers.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {");
            s.push_str(&format!("\"name\": {}, ", json::escape(&l.name)));
            s.push_str(&format!("\"init_score\": {}, ", json::num(l.init_score)));
            s.push_str(&format!("\"best_score\": {}, ", json::num(l.best_score)));
            s.push_str(&format!("\"converge_sample\": {}, ", l.converge_sample));
            s.push_str(&format!("\"evaluated\": {}, ", l.evaluated));
            s.push_str(&format!("\"elapsed_secs\": {}, ", json::num(l.elapsed_secs)));
            match &l.mapping {
                Some(spec) => s.push_str(&format!("\"mapping\": {}, ", json::escape(spec))),
                None => s.push_str("\"mapping\": null, "),
            }
            s.push_str(&format!("\"latency_cycles\": {}, ", json::num(l.latency_cycles)));
            s.push_str(&format!("\"energy_uj\": {}", json::num(l.energy_uj)));
            s.push('}');
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses checkpoint JSON.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] on malformed JSON or missing fields.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let corrupt = |msg: &str| CheckpointError::Corrupt(msg.to_string());
        let root = json::parse(text).map_err(CheckpointError::Corrupt)?;
        let version = root.get("version").and_then(json::Value::as_u64);
        if version != Some(1) {
            return Err(corrupt("unsupported or missing version"));
        }
        let seed = root
            .get("seed")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| corrupt("missing seed"))?;
        let strategy = root
            .get("strategy")
            .and_then(json::Value::as_str)
            .ok_or_else(|| corrupt("missing strategy"))?
            .to_string();
        let budget_samples = match root.get("budget_samples") {
            None | Some(json::Value::Null) => None,
            Some(v) => {
                Some(v.as_u64().ok_or_else(|| corrupt("bad budget_samples"))? as usize)
            }
        };
        let budget_seconds = match root.get("budget_seconds") {
            None | Some(json::Value::Null) => None,
            Some(v) => Some(v.as_f64().ok_or_else(|| corrupt("bad budget_seconds"))?),
        };
        let layers_json = root
            .get("layers")
            .and_then(json::Value::as_array)
            .ok_or_else(|| corrupt("missing layers"))?;
        let mut layers = Vec::with_capacity(layers_json.len());
        for (i, l) in layers_json.iter().enumerate() {
            let field = |key: &str| {
                l.get(key)
                    .ok_or_else(|| CheckpointError::Corrupt(format!("layer {i}: missing {key}")))
            };
            let num = |key: &str| -> Result<f64, CheckpointError> {
                field(key)?
                    .as_f64()
                    .ok_or_else(|| CheckpointError::Corrupt(format!("layer {i}: bad {key}")))
            };
            let count = |key: &str| -> Result<usize, CheckpointError> {
                field(key)?
                    .as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| CheckpointError::Corrupt(format!("layer {i}: bad {key}")))
            };
            let mapping = match l.get("mapping") {
                None | Some(json::Value::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| CheckpointError::Corrupt(format!("layer {i}: bad mapping")))?
                        .to_string(),
                ),
            };
            layers.push(LayerCheckpoint {
                name: field("name")?
                    .as_str()
                    .ok_or_else(|| CheckpointError::Corrupt(format!("layer {i}: bad name")))?
                    .to_string(),
                init_score: num("init_score")?,
                best_score: num("best_score")?,
                converge_sample: count("converge_sample")?,
                evaluated: count("evaluated")?,
                elapsed_secs: num("elapsed_secs")?,
                mapping,
                latency_cycles: num("latency_cycles")?,
                energy_uj: num("energy_uj")?,
            });
        }
        Ok(SweepCheckpoint { seed, strategy, budget_samples, budget_seconds, layers })
    }

    /// Path of the rolling backup `save` keeps next to `path`
    /// (`<path>.bak`): always the previous successfully written
    /// checkpoint, at most one layer of progress behind.
    pub fn backup_path(path: &Path) -> std::path::PathBuf {
        let mut s = path.as_os_str().to_owned();
        s.push(".bak");
        std::path::PathBuf::from(s)
    }

    /// Loads a checkpoint file, falling back to the `.bak` sibling when
    /// the primary is corrupt (torn write, bit rot) or missing (a crash
    /// landed between `save`'s two renames). The backup is at most one
    /// layer behind, and resume re-runs that layer deterministically.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when neither file is readable,
    /// [`CheckpointError::Corrupt`] when neither parses.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let fall_back = |primary_err: CheckpointError| {
            match crate::chaos::read_to_string(&Self::backup_path(path)) {
                Ok(text) => match SweepCheckpoint::from_json(&text) {
                    Ok(c) => {
                        // Operators watch this (`stats.bak_rescues`): a
                        // rescue means the primary was torn or missing and
                        // only the rolling backup saved the resume.
                        BAK_RESCUES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        Ok(c)
                    }
                    Err(_) => Err(match primary_err {
                        CheckpointError::Corrupt(msg) => {
                            CheckpointError::Corrupt(format!("{msg} (backup also unusable)"))
                        }
                        other => other,
                    }),
                },
                Err(_) => Err(primary_err),
            }
        };
        match crate::chaos::read_to_string(path) {
            Ok(text) => match SweepCheckpoint::from_json(&text) {
                Ok(c) => Ok(c),
                Err(e @ CheckpointError::Corrupt(_)) => fall_back(e),
                Err(e) => Err(e),
            },
            Err(io) => fall_back(CheckpointError::Io(io)),
        }
    }

    /// Writes the checkpoint atomically *and durably*: the bytes go to a
    /// `.tmp` sibling which is fsynced before being renamed over `path`
    /// (so a crash cannot promote a torn file), the previous checkpoint is
    /// kept as `.bak` (so later corruption of the primary still resumes),
    /// and the parent directory is fsynced after the renames (so the
    /// renames themselves survive a power cut).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on write, sync, or rename failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut f = crate::chaos::create(&tmp)?;
            crate::chaos::write_all(&mut f, self.to_json().as_bytes())?;
            // A rename is only as durable as the data behind it.
            crate::chaos::sync_all(&f)?;
        }
        if path.exists() {
            crate::chaos::rename(path, &Self::backup_path(path))?;
        }
        crate::chaos::rename(&tmp, path)?;
        // Directory entries have their own durability; fsync is
        // best-effort because not every platform lets a directory be
        // opened for syncing.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(d) = std::fs::File::open(parent) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// [`crate::warmstart::run_network`] with checkpoint/resume: after every
/// completed layer the sweep state is written atomically to
/// `checkpoint_path`. With `resume = true` and an existing checkpoint,
/// completed layers are skipped — their outcomes and replay-buffer
/// contributions are rebuilt from the file — and the remaining layers run
/// with exactly the seeds a fresh run would have used, so the final
/// outcome is identical to an uninterrupted sweep. A missing checkpoint
/// file with `resume = true` simply starts fresh.
///
/// Remaining layers fan out over `threads` scoped workers (0 = one per
/// core) exactly as in [`crate::warmstart::run_network`], while checkpoint
/// writes still happen strictly in layer order on the calling thread, so
/// a resumed run at any thread count reproduces the identical sweep.
///
/// # Errors
///
/// [`CheckpointError`] when the checkpoint cannot be read, written, or
/// belongs to a different sweep (other seed/budget/strategy/layers).
#[allow(clippy::too_many_arguments)]
pub fn run_network_checkpointed<'m, M, F>(
    layers: &[Problem],
    arch: &Arch,
    buffer: &ReplayBuffer,
    strategy: InitStrategy,
    budget: Budget,
    seed: u64,
    threads: usize,
    make_model: M,
    make_mapper: F,
    checkpoint_path: &Path,
    resume: bool,
) -> Result<Vec<LayerOutcome>, CheckpointError>
where
    M: Fn(&Problem) -> Box<dyn CostModel + 'm> + Sync,
    F: Fn() -> Box<dyn Mapper> + Sync,
{
    let (mut ckpt, mut out) = replay_checkpoint(layers, buffer, strategy, budget, seed, checkpoint_path, resume)?;
    let start = ckpt.layers.len();
    let rest = run_network_parallel_from(
        start,
        layers,
        arch,
        buffer,
        strategy,
        budget,
        seed,
        threads,
        make_model,
        make_mapper,
        |_, outcome| {
            ckpt.layers.push(LayerCheckpoint::from_outcome(outcome));
            ckpt.save(checkpoint_path)
        },
    )?;
    out.extend(rest);
    Ok(out)
}

/// Shared prelude of the checkpointed sweeps: load (or create) the
/// checkpoint, validate it against this sweep's parameters, and rebuild
/// the outcomes and replay-buffer contributions of already-completed
/// layers.
fn replay_checkpoint(
    layers: &[Problem],
    buffer: &ReplayBuffer,
    strategy: InitStrategy,
    budget: Budget,
    seed: u64,
    checkpoint_path: &Path,
    resume: bool,
) -> Result<(SweepCheckpoint, Vec<LayerOutcome>), CheckpointError> {
    let resumable = checkpoint_path.exists()
        || SweepCheckpoint::backup_path(checkpoint_path).exists();
    let ckpt = if resume && resumable {
        let c = SweepCheckpoint::load(checkpoint_path)?;
        c.check_matches(seed, strategy, budget, layers)?;
        c
    } else {
        SweepCheckpoint::new(seed, strategy, budget)
    };
    let mut out = Vec::with_capacity(layers.len());
    for (lc, layer) in ckpt.layers.iter().zip(layers) {
        let outcome = lc.to_outcome()?;
        if let Some((best, _)) = &outcome.result.best {
            buffer.insert(layer.clone(), best.clone());
        }
        out.push(outcome);
    }
    Ok((ckpt, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_is_deterministic_and_distinct() {
        assert_eq!(reseed(42, 0), 42);
        assert_eq!(reseed(42, 1), reseed(42, 1));
        let seeds: Vec<u64> = (0..8).map(|a| reseed(42, a)).collect();
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "attempts {i} and {j} collide");
            }
        }
    }

    #[test]
    fn json_round_trips_strings_and_numbers() {
        let v = json::parse(r#"{"a": [1, -2.5e3, "x\"\\\nA"], "b": null, "c": true}"#)
            .unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\"\\\nA"));
        assert_eq!(v.get("b"), Some(&json::Value::Null));
        assert_eq!(v.get("c"), Some(&json::Value::Bool(true)));
        assert!(json::parse("{").is_err());
        assert!(json::parse("{} trailing").is_err());
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let ckpt = SweepCheckpoint {
            seed: u64::MAX - 7, // would round through an f64
            strategy: "by-similarity".to_string(),
            budget_samples: Some(500),
            budget_seconds: None,
            layers: vec![
                LayerCheckpoint {
                    name: "conv \"1\"".to_string(),
                    init_score: f64::INFINITY,
                    best_score: 1.25e9,
                    converge_sample: 77,
                    evaluated: 500,
                    elapsed_secs: 0.125,
                    mapping: Some("L0: K4;ord=...".to_string()),
                    latency_cycles: 1.0e6,
                    energy_uj: 3.5,
                },
                LayerCheckpoint {
                    name: "dead-layer".to_string(),
                    init_score: f64::NAN,
                    best_score: f64::INFINITY,
                    converge_sample: 0,
                    evaluated: 10,
                    elapsed_secs: 0.0,
                    mapping: None,
                    latency_cycles: f64::NAN,
                    energy_uj: f64::NAN,
                },
            ],
        };
        let parsed = SweepCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(parsed.seed, ckpt.seed);
        assert_eq!(parsed.strategy, ckpt.strategy);
        assert_eq!(parsed.budget_samples, ckpt.budget_samples);
        assert_eq!(parsed.layers.len(), 2);
        assert_eq!(parsed.layers[0].name, "conv \"1\"");
        assert_eq!(parsed.layers[0].best_score, 1.25e9);
        assert!(parsed.layers[0].init_score.is_infinite());
        assert!(parsed.layers[1].init_score.is_nan());
        assert_eq!(parsed.layers[1].mapping, None);
    }

    #[test]
    fn checkpoint_mismatch_is_rejected() {
        let layers = vec![problem::Problem::conv2d("l1", 2, 8, 8, 7, 7, 3, 3)];
        let budget = Budget::samples(100);
        let ckpt = SweepCheckpoint::new(1, InitStrategy::BySimilarity, budget);
        assert!(ckpt.check_matches(1, InitStrategy::BySimilarity, budget, &layers).is_ok());
        assert!(matches!(
            ckpt.check_matches(2, InitStrategy::BySimilarity, budget, &layers),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            ckpt.check_matches(1, InitStrategy::Random, budget, &layers),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            ckpt.check_matches(1, InitStrategy::BySimilarity, Budget::samples(99), &layers),
            Err(CheckpointError::Mismatch(_))
        ));
        let mut wrong_layer = ckpt.clone();
        wrong_layer.layers.push(LayerCheckpoint {
            name: "other".to_string(),
            init_score: 0.0,
            best_score: 0.0,
            converge_sample: 0,
            evaluated: 0,
            elapsed_secs: 0.0,
            mapping: None,
            latency_cycles: 0.0,
            energy_uj: 0.0,
        });
        assert!(matches!(
            wrong_layer.check_matches(1, InitStrategy::BySimilarity, budget, &layers),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn corrupt_checkpoints_are_reported() {
        assert!(matches!(
            SweepCheckpoint::from_json("not json"),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            SweepCheckpoint::from_json("{\"version\": 2}"),
            Err(CheckpointError::Corrupt(_))
        ));
        // Valid JSON, missing required fields.
        assert!(matches!(
            SweepCheckpoint::from_json("{\"version\": 1, \"seed\": \"0\"}"),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}
