//! The [`Mapper`] abstraction (the "Exploration Method" of Fig. 2) and the
//! bookkeeping shared by all search algorithms: budgets, convergence
//! histories, and the (latency, energy) Pareto archive from which the best
//! EDP point is selected (§4.1 "Objective").

use costmodel::{Cost, CostModel};
use mapping::Mapping;
use rand::rngs::SmallRng;
use std::time::{Duration, Instant};

/// Search budget: the search stops when *any* limit is hit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Maximum number of cost-model evaluations (sampled points).
    pub max_samples: Option<usize>,
    /// Maximum wall-clock time.
    pub max_time: Option<Duration>,
}

impl Budget {
    /// Sample-count budget (the paper's iso-sample comparisons, Fig. 3 top).
    pub fn samples(n: usize) -> Self {
        Budget { max_samples: Some(n), max_time: None }
    }

    /// Wall-clock budget (the paper's iso-time comparisons, Fig. 3 bottom).
    pub fn seconds(s: f64) -> Self {
        Budget { max_samples: None, max_time: Some(Duration::from_secs_f64(s)) }
    }

    /// Whether the budget is exhausted.
    pub fn exhausted(&self, samples: usize, start: Instant) -> bool {
        if let Some(n) = self.max_samples {
            if samples >= n {
                return true;
            }
        }
        if let Some(t) = self.max_time {
            if start.elapsed() >= t {
                return true;
            }
        }
        false
    }
}

/// One point of a convergence curve: best-so-far after `samples`
/// evaluations / `seconds` of wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Evaluations performed so far.
    pub samples: usize,
    /// Wall-clock seconds elapsed so far.
    pub seconds: f64,
    /// Best (lowest) score so far; for the default objective this is EDP in
    /// `cycles·µJ`.
    pub best_score: f64,
}

/// Evaluation-cache counters for one run (zero when no cache was active).
///
/// Surfaced on [`SearchResult`] so callers can verify that memoized hits
/// actually happened (and how often) without instrumenting the evaluator
/// stack themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a full evaluation.
    pub misses: u64,
    /// Entries written into the cache.
    pub inserts: u64,
    /// Entries dropped to stay within the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (zero when the cache saw no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Result of one mapper run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best mapping found and its cost, if any legal mapping was evaluated.
    pub best: Option<(Mapping, Cost)>,
    /// Best score (lower is better) of `best`.
    pub best_score: f64,
    /// Convergence history, one point per *improvement* plus the final
    /// state (kept sparse so long searches stay cheap to store).
    pub history: Vec<ConvergencePoint>,
    /// All evaluated samples (legal ones), if recording was enabled.
    pub samples: Vec<(Vec<f64>, f64)>,
    /// The (latency, energy) Pareto frontier over every evaluated point,
    /// sorted by ascending latency.
    pub pareto: Vec<(Mapping, Cost)>,
    /// Total samples consumed (full evaluations plus bound-pruned skips).
    pub evaluated: usize,
    /// Of `evaluated`, candidates skipped because their admissible lower
    /// bound already exceeded the incumbent ([`Evaluator::score_bound`]).
    /// Pruned candidates consume a sample — keeping budgets, and therefore
    /// search trajectories, bit-identical to a non-pruning run — but never
    /// touch the cost model.
    pub pruned: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Evaluation-cache counters (all zero when no cache was active).
    pub cache: CacheStats,
}

/// What a mapper minimizes. Implementations wrap one or more cost models;
/// the default is EDP on a single model. Returning `None` marks the mapping
/// illegal under the evaluator's rules.
pub trait Evaluator: Sync {
    /// Scores a mapping (lower is better), together with its cost at the
    /// reference density for reporting.
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)>;

    /// Scores a batch of mappings, returning one outcome per input in the
    /// same order. The default implementation evaluates serially; decorated
    /// evaluators (worker pools, caches, watchdogs) override it to dispatch
    /// work concurrently while preserving submission order, which is what
    /// keeps parallel runs bit-identical to serial ones.
    fn evaluate_batch(&self, batch: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        batch.iter().map(|m| self.evaluate(m)).collect()
    }

    /// Scores neighbors of an already-scored `parent`. Semantically
    /// identical to [`Evaluator::evaluate_batch`], and no in-tree
    /// evaluator uses the parent; the decorators forward the call so the
    /// neighborhood reaches the cost model as its own traced entry point.
    /// Results must stay bit-identical to the batch.
    fn evaluate_neighbors(&self, parent: &Mapping, neighbors: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        let _ = parent;
        self.evaluate_batch(neighbors)
    }

    /// Admissible lower bound on the score of `m` (lower is better): when
    /// `Some(b)`, the evaluator guarantees `b <= evaluate(m)`'s score, so a
    /// candidate whose bound exceeds the incumbent can be skipped without
    /// changing any search result. `None` (the default) disables pruning.
    fn score_bound(&self, m: &Mapping) -> Option<f64> {
        let _ = m;
        None
    }
}

/// EDP objective over one cost model — the paper's default criterion.
pub struct EdpEvaluator<'a> {
    model: &'a dyn CostModel,
}

impl<'a> EdpEvaluator<'a> {
    /// Wraps a cost model.
    pub fn new(model: &'a dyn CostModel) -> Self {
        EdpEvaluator { model }
    }
}

impl Evaluator for EdpEvaluator<'_> {
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
        let cost = self.model.evaluate(m).ok()?;
        Some((cost, cost.edp()))
    }

    fn evaluate_batch(&self, batch: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.model
            .evaluate_batch(batch)
            .into_iter()
            .map(|r| r.ok().map(|c| (c, c.edp())))
            .collect()
    }

    fn evaluate_neighbors(&self, parent: &Mapping, neighbors: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.model
            .evaluate_neighbors(parent, neighbors)
            .into_iter()
            .map(|r| r.ok().map(|c| (c, c.edp())))
            .collect()
    }

    fn score_bound(&self, m: &Mapping) -> Option<f64> {
        // EDP of the component-wise cost bound: both factors are admissible
        // and positive, so their product lower-bounds the true EDP.
        self.model.cost_bound(m).map(|c| c.edp())
    }
}

/// Shared run-state used by every mapper implementation: counts samples,
/// tracks the incumbent, the history, and the Pareto archive.
pub struct Recorder<'a> {
    evaluator: &'a dyn Evaluator,
    start: Instant,
    budget: Budget,
    best: Option<(Mapping, Cost)>,
    best_score: f64,
    history: Vec<ConvergencePoint>,
    pareto: Vec<(Mapping, Cost)>,
    samples: Vec<(Vec<f64>, f64)>,
    record_samples: bool,
    evaluated: usize,
    pruned: usize,
}

impl<'a> Recorder<'a> {
    /// Starts a run.
    pub fn new(evaluator: &'a dyn Evaluator, budget: Budget) -> Self {
        Recorder {
            evaluator,
            start: Instant::now(),
            budget,
            best: None,
            best_score: f64::INFINITY,
            history: Vec::new(),
            pareto: Vec::new(),
            samples: Vec::new(),
            record_samples: false,
            evaluated: 0,
            pruned: 0,
        }
    }

    /// Also record every evaluated sample's feature vector and score (used
    /// by the Fig. 4 PCA harness). Off by default: it is memory-heavy.
    pub fn record_samples(&mut self, on: bool) {
        self.record_samples = on;
    }

    /// Whether the budget is spent.
    pub fn done(&self) -> bool {
        self.budget.exhausted(self.evaluated, self.start)
    }

    /// Whether the budget would be spent after `pending` more evaluations.
    /// Lets batching mappers size a batch to the remaining budget so a
    /// batched run consumes exactly the same samples as a serial one.
    pub fn would_be_done(&self, pending: usize) -> bool {
        self.budget.exhausted(self.evaluated + pending, self.start)
    }

    /// How many more evaluations fit in the sample budget, capped at
    /// `want`. Always at least 1 when `want >= 1` so forward progress is
    /// guaranteed even when the time budget is the binding constraint.
    pub fn batch_room(&self, want: usize) -> usize {
        let room = match self.budget.max_samples {
            Some(n) => n.saturating_sub(self.evaluated).min(want),
            None => want,
        };
        room.max(1).min(want.max(1))
    }

    /// Evaluates one mapping, updating all bookkeeping. Returns the score
    /// (`None` for illegal mappings — which still consume a sample, as in
    /// Timeloop-mapper).
    pub fn evaluate(&mut self, m: &Mapping) -> Option<f64> {
        let out = self.evaluator.evaluate(m);
        self.record_outcome(m, out)
    }

    /// Evaluates a batch through [`Evaluator::evaluate_batch`] and records
    /// every outcome in submission order. Returns one score per input.
    pub fn evaluate_batch(&mut self, batch: &[Mapping]) -> Vec<Option<f64>> {
        let outs = self.evaluator.evaluate_batch(batch);
        batch.iter().zip(outs).map(|(m, out)| self.record_outcome(m, out)).collect()
    }

    /// Tries to prune `m` against `threshold` using the evaluator's
    /// admissible score bound. Returns `true` — and consumes one sample,
    /// exactly like a full evaluation would have — iff the bound *strictly*
    /// exceeds a finite `threshold`, which proves `score(m) ≥ bound >
    /// threshold`: the candidate could not have beaten (or even tied) the
    /// threshold, so skipping its evaluation cannot change the incumbent,
    /// the best score, or any subsequent budget decision.
    ///
    /// Never prunes while sample recording is on: recorded samples feed
    /// surrogate training and PCA visualization, which need the true cost
    /// of *every* drawn candidate — skipping dominated ones would bias the
    /// dataset (and shrink it below the sample budget).
    pub fn try_prune(&mut self, m: &Mapping, threshold: f64) -> bool {
        if !threshold.is_finite() || self.record_samples {
            return false;
        }
        match self.evaluator.score_bound(m) {
            Some(bound) if bound > threshold => {
                self.record_pruned();
                true
            }
            _ => false,
        }
    }

    /// Records one bound-pruned candidate: consumes a sample (budgets and
    /// trajectories stay identical to a run that evaluated it) without
    /// touching the incumbent, history, Pareto archive, or cost model.
    pub fn record_pruned(&mut self) {
        self.evaluated += 1;
        self.pruned += 1;
    }

    /// Records a pre-computed evaluation outcome (used by mappers that
    /// evaluate a population on worker threads and then feed the results
    /// back in a deterministic order).
    ///
    /// Non-finite scores or costs (a NaN-poisoned objective, e.g. from a
    /// faulty cost model) are counted and returned to the caller — the
    /// mapper may want to steer away from them — but are quarantined from
    /// the incumbent, the history, and the Pareto archive: a NaN cost
    /// neither dominates nor is dominated, so one poisoned point would
    /// otherwise sit in the archive forever.
    pub fn record_outcome(&mut self, m: &Mapping, out: Option<(Cost, f64)>) -> Option<f64> {
        self.evaluated += 1;
        let (cost, score) = out?;
        if !(score.is_finite() && cost.latency_cycles.is_finite() && cost.energy_uj.is_finite()) {
            return Some(score);
        }
        if self.record_samples {
            self.samples.push((mapping::features::features(m), score));
        }
        if score < self.best_score {
            self.best_score = score;
            self.best = Some((m.clone(), cost));
            self.history.push(ConvergencePoint {
                samples: self.evaluated,
                seconds: self.start.elapsed().as_secs_f64(),
                best_score: score,
            });
        }
        self.pareto_insert(m, cost);
        Some(score)
    }

    /// Pareto archive on (latency, energy), kept sorted by ascending
    /// latency. In a mutually non-dominated set, points at strictly larger
    /// latency have strictly smaller energy (and equal-latency points have
    /// equal energy), so both the dominance check and the removal of newly
    /// dominated points reduce to a binary search plus a scan of the
    /// contiguous affected neighborhood — O(log n + k) per insertion
    /// instead of the old full-archive `iter().any` + `retain` pass.
    fn pareto_insert(&mut self, m: &Mapping, cost: Cost) {
        let lat = cost.latency_cycles;
        let e = cost.energy_uj;
        // The strongest potential dominator is the last point with
        // latency <= lat: energy is non-increasing along the archive, so
        // it has the smallest energy among all points at latency <= lat.
        let after = self.pareto.partition_point(|(_, c)| c.latency_cycles <= lat);
        if after > 0 && self.pareto[after - 1].1.dominates(&cost) {
            return;
        }
        // Points dominated by `cost` have latency >= lat AND energy >= e:
        // a contiguous run starting at the first point with latency >= lat.
        // Exact duplicates of `cost` (which the archive keeps, matching the
        // historical semantics where equal points do not dominate each
        // other) can only sit at the head of that run.
        let start = self.pareto.partition_point(|(_, c)| c.latency_cycles < lat);
        let mut keep = start;
        while keep < self.pareto.len() {
            let c = &self.pareto[keep].1;
            if c.latency_cycles == lat && c.energy_uj == e {
                keep += 1;
            } else {
                break;
            }
        }
        let mut end = keep;
        while end < self.pareto.len() && self.pareto[end].1.energy_uj >= e {
            end += 1;
        }
        self.pareto.drain(keep..end);
        self.pareto.insert(keep, (m.clone(), cost));
    }

    /// Current best score (infinite when nothing legal evaluated yet).
    pub fn best_score(&self) -> f64 {
        self.best_score
    }

    /// Number of evaluations so far.
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// Number of bound-pruned candidates so far.
    pub fn pruned(&self) -> usize {
        self.pruned
    }

    /// Finalizes the run.
    pub fn finish(mut self) -> SearchResult {
        let elapsed = self.start.elapsed();
        self.history.push(ConvergencePoint {
            samples: self.evaluated,
            seconds: elapsed.as_secs_f64(),
            best_score: self.best_score,
        });
        SearchResult {
            best: self.best,
            best_score: self.best_score,
            history: self.history,
            samples: self.samples,
            pareto: self.pareto,
            evaluated: self.evaluated,
            pruned: self.pruned,
            elapsed,
            cache: CacheStats::default(),
        }
    }
}

/// A map-space search algorithm.
pub trait Mapper {
    /// Short display name ("Random-Pruned", "Gamma", ...).
    fn name(&self) -> &str;

    /// Runs the search against `evaluator` for the problem/architecture
    /// bound into `space`, within `budget`. Deterministic given `rng`.
    fn search(
        &self,
        space: &mapping::MapSpace,
        evaluator: &dyn Evaluator,
        budget: Budget,
        rng: &mut SmallRng,
    ) -> SearchResult;

    /// Supplies warm-start seed mappings (§5.1). Mappers that support
    /// seeding use them to initialize their population/incumbent; the
    /// default implementation ignores them.
    fn set_seeds(&mut self, _seeds: Vec<Mapping>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Arch;
    use costmodel::DenseModel;
    use mapping::MapSpace;
    use problem::Problem;
    use rand::SeedableRng;

    fn setup() -> (MapSpace, DenseModel) {
        let p = Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3);
        let a = Arch::accel_b();
        (MapSpace::new(p.clone(), a.clone()), DenseModel::new(p, a))
    }

    #[test]
    fn recorder_tracks_best_and_history() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut rec = Recorder::new(&eval, Budget::samples(50));
        let mut rng = SmallRng::seed_from_u64(0);
        while !rec.done() {
            rec.evaluate(&space.random(&mut rng));
        }
        let r = rec.finish();
        assert_eq!(r.evaluated, 50);
        assert!(r.best.is_some());
        // History is monotone non-increasing in score, increasing in samples.
        assert!(r.history.windows(2).all(|w| w[0].best_score >= w[1].best_score));
        assert!(r.history.windows(2).all(|w| w[0].samples <= w[1].samples));
        assert_eq!(r.history.last().unwrap().best_score, r.best_score);
    }

    #[test]
    fn pareto_archive_is_nondominated() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut rec = Recorder::new(&eval, Budget::samples(100));
        let mut rng = SmallRng::seed_from_u64(1);
        while !rec.done() {
            rec.evaluate(&space.random(&mut rng));
        }
        let r = rec.finish();
        assert!(!r.pareto.is_empty());
        for (i, (_, a)) in r.pareto.iter().enumerate() {
            for (j, (_, b)) in r.pareto.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "archive contains dominated point");
                }
            }
        }
        // The best-EDP point is on the frontier.
        let best_edp = r.best_score;
        let frontier_best =
            r.pareto.iter().map(|(_, c)| c.edp()).fold(f64::INFINITY, f64::min);
        assert!((frontier_best - best_edp).abs() / best_edp < 1e-12);
    }

    /// Feeds a 10k-point adversarial stream (scattered frontier builds,
    /// overlapping grids with heavy ties and exact duplicates, then a
    /// strictly improving diagonal that repeatedly sweeps the archive) and
    /// checks the sorted archive against the brute-force reference
    /// semantics the O(n²) implementation used.
    #[test]
    fn pareto_archive_matches_bruteforce_on_adversarial_stream() {
        struct Null;
        impl Evaluator for Null {
            fn evaluate(&self, _m: &Mapping) -> Option<(Cost, f64)> {
                None
            }
        }
        let (space, _) = setup();
        let mut rng = SmallRng::seed_from_u64(9);
        let m = space.random(&mut rng);
        let eval = Null;
        let mut rec = Recorder::new(&eval, Budget::samples(1_000_000));
        let mut reference: Vec<Cost> = Vec::new();
        let feed = |rec: &mut Recorder, reference: &mut Vec<Cost>, lat: f64, e: f64| {
            let c = Cost::new(lat, e);
            rec.record_outcome(&m, Some((c, c.edp())));
            if !reference.iter().any(|a| a.dominates(&c)) {
                reference.retain(|a| !c.dominates(a));
                reference.push(c);
            }
        };
        // Phase 1: a 2500-point mutually non-dominated frontier fed in a
        // scattered order, forcing insertions throughout the archive.
        for i in 0..2500usize {
            let j = ((i * 7919) % 2500) as f64;
            feed(&mut rec, &mut reference, 10.0 + j, 2510.0 - j);
        }
        // Phase 2: a coarse overlapping grid with ties and duplicates.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..5000 {
            let lat = (next() % 64) as f64 * 40.0 + 5.0;
            let e = (next() % 64) as f64 * 40.0 + 5.0;
            feed(&mut rec, &mut reference, lat, e);
        }
        // Phase 3: a strictly improving diagonal; each point dominates the
        // previous one, repeatedly draining archive neighborhoods.
        for i in 0..2500usize {
            let v = (2500 - i) as f64;
            feed(&mut rec, &mut reference, v, v);
        }
        let r = rec.finish();
        assert_eq!(r.evaluated, 10_000);
        assert!(r
            .pareto
            .windows(2)
            .all(|w| w[0].1.latency_cycles <= w[1].1.latency_cycles));
        let mut got: Vec<(f64, f64)> =
            r.pareto.iter().map(|(_, c)| (c.latency_cycles, c.energy_uj)).collect();
        let mut want: Vec<(f64, f64)> =
            reference.iter().map(|c| (c.latency_cycles, c.energy_uj)).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn batch_evaluation_matches_serial_bookkeeping() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(4);
        let batch: Vec<Mapping> = (0..40).map(|_| space.random(&mut rng)).collect();
        let mut serial = Recorder::new(&eval, Budget::samples(40));
        for m in &batch {
            serial.evaluate(m);
        }
        let mut batched = Recorder::new(&eval, Budget::samples(40));
        batched.evaluate_batch(&batch);
        let (s, b) = (serial.finish(), batched.finish());
        assert_eq!(s.evaluated, b.evaluated);
        assert_eq!(s.best_score.to_bits(), b.best_score.to_bits());
        assert_eq!(s.pareto.len(), b.pareto.len());
        for (x, y) in s.pareto.iter().zip(&b.pareto) {
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn budget_by_time_stops() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut rec = Recorder::new(&eval, Budget::seconds(0.05));
        let mut rng = SmallRng::seed_from_u64(2);
        while !rec.done() {
            rec.evaluate(&space.random(&mut rng));
        }
        let r = rec.finish();
        assert!(r.elapsed.as_secs_f64() < 1.0);
        assert!(r.evaluated > 0);
    }

    #[test]
    fn sample_recording_captures_features() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut rec = Recorder::new(&eval, Budget::samples(10));
        rec.record_samples(true);
        let mut rng = SmallRng::seed_from_u64(3);
        while !rec.done() {
            rec.evaluate(&space.random(&mut rng));
        }
        let r = rec.finish();
        assert_eq!(r.samples.len(), 10);
        assert_eq!(r.samples[0].0.len(), mapping::features::feature_len(7, 3));
    }
}
