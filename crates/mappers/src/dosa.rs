//! DOSA-style differentiable one-loop mapper: gradient descent *directly
//! through* the smooth relaxation of the analytical cost model
//! ([`costmodel::smooth`]) — no surrogate network, no training set.
//!
//! The search state is a continuous feature vector (per level, per dim:
//! log2 temporal factor, log2 spatial factor, normalized loop position).
//! Each round takes several reverse-mode gradient steps on relaxed
//! `ln EDP` with a step-size backoff line search, projects the iterate onto
//! the legal integer lattice (`mapping_from_features`), and exactly
//! re-costs the rounded candidate plus a small gradient-guided projection
//! neighborhood through the evaluator — one
//! [`Evaluator::evaluate_neighbors`] batch (at most seven mappings at the
//! default `neighborhood`), with admissible-bound pruning against the
//! incumbent. Only
//! these exact evaluations consume budget; smooth gradient queries are
//! free, which is what makes the method dominate at small sample budgets.
//!
//! Two details keep the descent honest:
//!
//! * **Feasibility projection**: unconstrained descent on traffic collapses
//!   every factor toward 1 (MACs are constant, traffic shrinks), so after
//!   each step the per-dimension log factors are renormalized to sum to
//!   `log2(bound)` and per-level spatial sums are folded back under the
//!   fanout (excess moved to the same dim's temporal factor).
//! * **Exploration noise**: the relaxation is *exact* on the lattice, which
//!   means its order-position gates are flat there (zero gradient). Small
//!   annealed noise moves the iterate into the gate interiors where order
//!   gradients flow, and multi-restart covers distinct order basins.

use crate::mapper::{Budget, Evaluator, Mapper, Recorder, SearchResult};
use costmodel::SmoothContext;
use mapping::features::{features, mapping_from_features};
use mapping::{MapSpace, Mapping, MAX_DIMS, MAX_LEVELS};
use rand::rngs::SmallRng;
use rand::Rng;

/// DOSA hyper-parameters.
#[derive(Debug, Clone)]
pub struct DosaConfig {
    /// Initial step size (feature space is log2 factors / unit positions).
    pub lr: f64,
    /// Step-size decay on a rejected (non-improving) smooth step.
    pub backoff: f64,
    /// Step-size growth on an accepted step (capped at 4x the initial lr).
    pub grow: f64,
    /// Step size below which the trajectory is considered converged.
    pub min_lr: f64,
    /// Smooth gradient steps between consecutive lattice projections.
    pub inner_steps: usize,
    /// Extra rounded candidates per projection, jittered along the largest
    /// gradient coordinates (exact-costed in the projection's batch).
    pub neighborhood: usize,
    /// Projection rounds without exact-cost improvement before restarting
    /// from a fresh point.
    pub restart_patience: usize,
    /// Amplitude of the annealed exploration noise.
    pub noise: f64,
    /// Record evaluated samples' features (Fig. 4 PCA harness).
    pub record_samples: bool,
}

impl Default for DosaConfig {
    fn default() -> Self {
        DosaConfig {
            lr: 0.4,
            backoff: 0.6,
            grow: 1.25,
            min_lr: 1e-3,
            inner_steps: 12,
            neighborhood: 4,
            restart_patience: 4,
            noise: 0.12,
            record_samples: false,
        }
    }
}

/// The feasibility targets of one map space, computed once per search:
/// `log2` of every dimension's bound and of every level's fanout.
struct Feasible {
    d: usize,
    nl: usize,
    log_bound: [f64; MAX_DIMS],
    log_fanout: [f64; MAX_LEVELS],
}

impl Feasible {
    fn new(space: &MapSpace) -> Self {
        let (problem, arch) = (space.problem(), space.arch());
        let (d, nl) = (problem.num_dims(), arch.num_levels());
        let mut log_bound = [0.0; MAX_DIMS];
        for (dim, t) in log_bound[..d].iter_mut().enumerate() {
            *t = (problem.bound(dim) as f64).log2();
        }
        let mut log_fanout = [0.0; MAX_LEVELS];
        for (li, cap) in log_fanout[..nl].iter_mut().enumerate() {
            *cap = (arch.fanout_below(li) as f64).log2();
        }
        Feasible { d, nl, log_bound, log_fanout }
    }

    /// Projects an iterate back onto (the continuous hull of) the feasible
    /// set: non-negative log factors, per-dim factor products matching the
    /// problem bounds, per-level spatial products within the fanout, and
    /// positions in [0, 1].
    fn project(&self, x: &mut [f64]) {
        let (d, nl) = (self.d, self.nl);
        let idx = |li: usize, dim: usize, k: usize| (li * d + dim) * 3 + k;
        for dim in 0..d {
            let mut total = 0.0;
            for li in 0..nl {
                for k in 0..2 {
                    let v = &mut x[idx(li, dim, k)];
                    *v = v.clamp(0.0, 16.0);
                    total += *v;
                }
            }
            let target = self.log_bound[dim];
            if total > 1e-9 {
                let s = target / total;
                for li in 0..nl {
                    x[idx(li, dim, 0)] *= s;
                    x[idx(li, dim, 1)] *= s;
                }
            } else {
                // Degenerate iterate: park the whole dimension at DRAM.
                x[idx(0, dim, 0)] = target;
            }
        }
        for li in 0..nl {
            let cap = self.log_fanout[li];
            let ssum: f64 = (0..d).map(|dim| x[idx(li, dim, 1)]).sum();
            if ssum > cap {
                // Demote the excess to temporal, preserving per-dim totals.
                let keep = if ssum > 1e-12 { cap / ssum } else { 0.0 };
                for dim in 0..d {
                    let s = x[idx(li, dim, 1)];
                    x[idx(li, dim, 1)] = s * keep;
                    x[idx(li, dim, 0)] += s * (1.0 - keep);
                }
            }
            for dim in 0..d {
                let p = &mut x[idx(li, dim, 2)];
                *p = p.clamp(0.0, 1.0);
            }
        }
    }
}

/// The working buffers of `Dosa::project_and_cost`, reused across rounds.
#[derive(Default)]
struct RoundBuffers {
    /// One jittered copy of the iterate.
    xi: Vec<f64>,
    /// Feature indices by descending gradient magnitude.
    order: Vec<usize>,
    /// Distinct rounded candidates of the round.
    cands: Vec<Mapping>,
    /// The candidates that survive bound pruning, costed in one batch.
    batch: Vec<Mapping>,
}

/// The DOSA mapper (differentiable one-loop search).
#[derive(Debug, Clone, Default)]
pub struct Dosa {
    /// Search configuration.
    pub config: DosaConfig,
    seeds: Vec<Mapping>,
}

impl Dosa {
    /// A DOSA mapper with default configuration.
    pub fn new() -> Self {
        Dosa::default()
    }

    /// Rounds `x` and a gradient-guided jitter neighborhood to legal
    /// mappings, exact-costs them (bound-pruned, in one batch), and
    /// returns the round's incumbent-improving mapping, if any.
    #[allow(clippy::too_many_arguments)]
    fn project_and_cost(
        &self,
        space: &MapSpace,
        evaluator: &dyn Evaluator,
        rec: &mut Recorder,
        feasible: &Feasible,
        bufs: &mut RoundBuffers,
        x: &[f64],
        g: &[f64],
        rng: &mut SmallRng,
    ) -> Option<Mapping> {
        let problem = space.problem();
        let arch = space.arch();
        let m0 = mapping_from_features(problem, arch, x)?;
        let RoundBuffers { xi, order, cands, batch } = bufs;
        cands.clear();
        cands.push(m0.clone());
        // Jitter the highest-|gradient| coordinates by half a step in the
        // descent direction: the rounding that hurt most is the one the
        // smooth model most wants changed.
        order.clear();
        order.extend(0..x.len());
        order.sort_by(|&a, &b| {
            g[b].abs().partial_cmp(&g[a].abs()).unwrap_or(std::cmp::Ordering::Equal)
        });
        for &ci in order.iter().take(self.config.neighborhood) {
            xi.clear();
            xi.extend_from_slice(x);
            xi[ci] -= 0.5 * g[ci].signum();
            feasible.project(xi);
            if let Some(m) = mapping_from_features(problem, arch, xi) {
                if !cands.contains(&m) {
                    cands.push(m);
                }
            }
        }
        // Domain-operator variants of the rounded point. The feature
        // round-trip factors spatial targets into divisors, which underfills
        // the fanout on awkward bounds (parallelizing a 7 or a 3 wastes
        // lanes); the parallelism/tile operators redistribute factors in
        // moves the rounding cannot express.
        for k in 0..2u32 {
            let mut m = m0.clone();
            match k {
                0 => crate::operators::mutate_parallelism(&mut m, space, rng),
                _ => crate::operators::mutate_tile(&mut m, rng),
            }
            if crate::operators::repair(&mut m, space) && !cands.contains(&m) {
                cands.push(m);
            }
        }
        batch.clear();
        for m in cands.drain(..) {
            if rec.would_be_done(batch.len()) {
                break;
            }
            if !rec.try_prune(&m, rec.best_score()) {
                batch.push(m);
            }
        }
        let mut improved: Option<Mapping> = None;
        if !batch.is_empty() {
            let outs = evaluator.evaluate_neighbors(&m0, batch);
            for (m, out) in batch.iter().zip(outs) {
                let prior = rec.best_score();
                if let Some(score) = rec.record_outcome(m, out) {
                    if score < prior {
                        improved = Some(m.clone());
                    }
                }
            }
        }
        improved
    }
}

impl Mapper for Dosa {
    fn name(&self) -> &str {
        "DOSA"
    }

    fn set_seeds(&mut self, seeds: Vec<Mapping>) {
        self.seeds = seeds;
    }

    fn search(
        &self,
        space: &MapSpace,
        evaluator: &dyn Evaluator,
        budget: Budget,
        rng: &mut SmallRng,
    ) -> SearchResult {
        let mut rec = Recorder::new(evaluator, budget);
        rec.record_samples(self.config.record_samples);
        let cfg = &self.config;
        // The relaxation is the *search heuristic*; exact scoring always
        // goes through the evaluator, so a dense relaxation remains sound
        // (if not perfectly informed) under sparse evaluators.
        let sctx = SmoothContext::dense(space.problem(), space.arch());
        let feasible = Feasible::new(space);
        let mut bufs = RoundBuffers::default();
        let mut tape = costmodel::smooth::Tape::new();
        // The gradient at `x`, and the trial step; an accepted step swaps
        // the trial in as `x`.
        let mut g = vec![0.0; sctx.feature_len()];
        let mut cand: Vec<f64> = Vec::with_capacity(g.len());
        let total = budget.max_samples.unwrap_or(2_000) as f64;

        let mut restart = 0usize;
        // Features of the best exact mapping found so far: the basin-hop
        // anchor for alternate restarts.
        let mut incumbent: Option<Vec<f64>> = None;
        while !rec.done() {
            // Restart point: seeds first (warm start), then alternate
            // between fresh random draws (global coverage) and large kicks
            // off the incumbent (basin hopping — the winning basin's
            // neighbors tend to hold the refinements a single descent
            // rounds past).
            let mut x = match self.seeds.get(restart) {
                Some(s) => features(s),
                None => match &incumbent {
                    Some(f) if restart % 2 == 1 => {
                        let mut x = f.clone();
                        for v in &mut x {
                            *v += rng.gen_range(-1.0..1.0);
                        }
                        x
                    }
                    _ => features(&space.random(rng)),
                },
            };
            restart += 1;
            feasible.project(&mut x);
            let c0 = sctx.cost_and_grad_into(&x, &mut tape, &mut g);
            let mut cur_obj = c0.edp().ln();
            let mut stall = 0usize;

            while !rec.done() && stall < cfg.restart_patience {
                // Smooth descent with step-size backoff (budget-free). The
                // step size resets each round: the backoff is a per-round
                // line search, not a global annealing schedule — a round
                // that converged to a basin floor should not doom the next
                // round (post-projection, a different point) to tiny steps.
                let mut lr = cfg.lr;
                let progress = (rec.evaluated() as f64 / total).min(1.0);
                let noise = cfg.noise * (1.0 - progress);
                for _ in 0..cfg.inner_steps.max(1) {
                    let gmax = g.iter().fold(0.0f64, |a, &b| a.max(b.abs())).max(1e-12);
                    cand.clear();
                    cand.extend(x.iter().zip(&g).map(|(xi, gi)| {
                        let mut v = xi - lr * gi / gmax;
                        if noise > 0.0 {
                            v += rng.gen_range(-noise..noise);
                        }
                        v
                    }));
                    feasible.project(&mut cand);
                    // Score the trial point value-only; only an accepted
                    // step pays for the taped pass whose gradient the next
                    // step reads.
                    let obj2 = sctx.cost(&cand).edp().ln();
                    if obj2.is_finite() && obj2 < cur_obj {
                        sctx.cost_and_grad_into(&cand, &mut tape, &mut g);
                        std::mem::swap(&mut x, &mut cand);
                        cur_obj = obj2;
                        lr = (lr * cfg.grow).min(cfg.lr * 4.0);
                    } else {
                        lr *= cfg.backoff;
                        if lr < cfg.min_lr {
                            break;
                        }
                    }
                }
                // Lattice projection + exact re-cost (budget-charged).
                match self
                    .project_and_cost(space, evaluator, &mut rec, &feasible, &mut bufs, &x, &g, rng)
                {
                    Some(best) => {
                        stall = 0;
                        incumbent = Some(features(&best));
                    }
                    None => stall += 1,
                }
            }
        }
        rec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::EdpEvaluator;
    use crate::random::RandomMapper;
    use arch::Arch;
    use costmodel::DenseModel;
    use problem::Problem;
    use rand::SeedableRng;

    fn setup(p: Problem) -> (MapSpace, DenseModel) {
        let a = Arch::accel_b();
        (MapSpace::new(p.clone(), a.clone()), DenseModel::new(p, a))
    }

    #[test]
    fn respects_sample_budget_and_finds_legal_best() {
        let (space, model) = setup(Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3));
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(0);
        let r = Dosa::new().search(&space, &eval, Budget::samples(80), &mut rng);
        assert!(r.evaluated <= 80, "evaluated {}", r.evaluated);
        let (m, c) = r.best.expect("found something");
        assert!(m.is_legal(space.problem(), space.arch()));
        assert!(c.edp().is_finite());
    }

    #[test]
    fn beats_random_at_small_budgets() {
        let (space, model) = setup(Problem::gemm("g", 2, 32, 64, 32));
        let eval = EdpEvaluator::new(&model);
        let mut wins = 0;
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = Dosa::new().search(&space, &eval, Budget::samples(120), &mut rng);
            let mut rng = SmallRng::seed_from_u64(seed);
            let r = RandomMapper::new().search(&space, &eval, Budget::samples(120), &mut rng);
            if d.best_score <= r.best_score {
                wins += 1;
            }
        }
        assert!(wins >= 4, "dosa won only {wins}/5 vs random at 120 samples");
    }

    #[test]
    fn seeded_start_is_used() {
        let (space, model) = setup(Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3));
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(1);
        let seed_m = space.random(&mut rng);
        let mut d = Dosa::new();
        d.set_seeds(vec![seed_m.clone()]);
        let mut rng = SmallRng::seed_from_u64(2);
        let r = d.search(&space, &eval, Budget::samples(30), &mut rng);
        assert!(r.best.is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let (space, model) = setup(Problem::gemm("g", 2, 16, 32, 16));
        let eval = EdpEvaluator::new(&model);
        let runs: Vec<f64> = (0..2)
            .map(|_| {
                let mut rng = SmallRng::seed_from_u64(7);
                Dosa::new().search(&space, &eval, Budget::samples(60), &mut rng).best_score
            })
            .collect();
        assert_eq!(runs[0].to_bits(), runs[1].to_bits());
    }
}
