//! Cross-entropy method (CEM) over the continuous mapping-feature space —
//! a representative of the paper's "other black-box optimizers" category
//! (§3.3 cites evolution strategies such as CMA-ES [17] among the
//! feedback-based family Gamma was shown to beat).
//!
//! CEM maintains a diagonal Gaussian over the feature embedding of
//! [`mapping::features`], samples a batch, projects each sample to a legal
//! mapping, and refits the Gaussian on the elite fraction.

use crate::mapper::{Budget, Evaluator, Mapper, Recorder, SearchResult};
use mapping::features::{feature_len, features, features_into, mapping_from_features};
use mapping::{MapSpace, Mapping};
use rand::rngs::SmallRng;
use rand::Rng;

/// Cross-entropy method configuration.
#[derive(Debug, Clone)]
pub struct CrossEntropy {
    /// Samples per iteration.
    pub batch: usize,
    /// Fraction of the batch refit as elites.
    pub elite_frac: f64,
    /// Initial per-feature standard deviation.
    pub init_std: f64,
    /// Lower bound on the standard deviation (keeps exploration alive).
    pub min_std: f64,
    /// Smoothing factor for mean/std updates (1.0 = replace).
    pub alpha: f64,
}

impl CrossEntropy {
    /// Defaults tuned for ~1e3-sample budgets.
    pub fn new() -> Self {
        CrossEntropy { batch: 40, elite_frac: 0.2, init_std: 2.0, min_std: 0.15, alpha: 0.7 }
    }
}

impl Default for CrossEntropy {
    fn default() -> Self {
        CrossEntropy::new()
    }
}

fn gaussian(rng: &mut SmallRng) -> f64 {
    // Box-Muller.
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Mapper for CrossEntropy {
    fn name(&self) -> &str {
        "Cross-Entropy"
    }

    fn search(
        &self,
        space: &MapSpace,
        evaluator: &dyn Evaluator,
        budget: Budget,
        rng: &mut SmallRng,
    ) -> SearchResult {
        let mut rec = Recorder::new(evaluator, budget);
        let problem = space.problem();
        let n = feature_len(problem.num_dims(), space.arch().num_levels());

        // Initialize the distribution on a random legal mapping.
        let mut mean = features(&space.random(rng));
        let mut std = vec![self.init_std; n];
        let elite_count = ((self.batch as f64 * self.elite_frac) as usize).max(2);

        // One generation's buffers, reused across generations: the drawn
        // sample, the projected mappings, their flattened feature vectors
        // (`n` per mapping) and their (index, score) ranking.
        let mut x: Vec<f64> = Vec::with_capacity(n);
        let mut pending: Vec<Mapping> = Vec::with_capacity(self.batch);
        let mut feats: Vec<f64> = Vec::with_capacity(self.batch * n);
        let mut ranked: Vec<(usize, f64)> = Vec::with_capacity(self.batch);
        while !rec.done() {
            // Sampling and projection touch only the rng; evaluation is
            // deferred to one batch call. Only successful projections
            // consume samples, so the budget check counts the pending
            // batch — reproducing the serial per-draw `rec.done()` gate.
            pending.clear();
            for _ in 0..self.batch {
                if rec.would_be_done(pending.len()) {
                    break;
                }
                x.clear();
                x.extend((0..n).map(|i| mean[i] + std[i] * gaussian(rng)));
                if let Some(m) = mapping_from_features(problem, space.arch(), &x) {
                    pending.push(m);
                }
            }
            let scores = rec.evaluate_batch(&pending);
            // Refit on the *projected* (legal) points: the distribution
            // then tracks the feasible manifold.
            feats.clear();
            ranked.clear();
            for (j, (m, s)) in pending.iter().zip(scores).enumerate() {
                features_into(m, &mut feats);
                ranked.push((j, s.unwrap_or(f64::INFINITY)));
            }
            if ranked.len() < elite_count {
                continue;
            }
            ranked.sort_by(|a, b| crate::outcome::score_cmp(a.1, b.1));
            let elites = &ranked[..elite_count];
            for i in 0..n {
                let em: f64 =
                    elites.iter().map(|&(j, _)| feats[j * n + i]).sum::<f64>() / elite_count as f64;
                let ev: f64 = elites
                    .iter()
                    .map(|&(j, _)| (feats[j * n + i] - em) * (feats[j * n + i] - em))
                    .sum::<f64>()
                    / elite_count as f64;
                mean[i] = self.alpha * em + (1.0 - self.alpha) * mean[i];
                let new_std = ev.sqrt().max(self.min_std);
                std[i] = self.alpha * new_std + (1.0 - self.alpha) * std[i];
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

    fn setup() -> (MapSpace, DenseModel) {
        let p = Problem::conv2d("t", 2, 16, 16, 14, 14, 3, 3);
        let a = Arch::accel_b();
        (MapSpace::new(p.clone(), a.clone()), DenseModel::new(p, a))
    }

    #[test]
    fn cem_improves_and_is_deterministic() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let run = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            CrossEntropy::new().search(&space, &eval, Budget::samples(600), &mut rng)
        };
        let r = run(0);
        assert_eq!(r.best_score, run(0).best_score);
        let first = r.history.first().unwrap().best_score;
        assert!(r.best_score < first, "no improvement");
    }

    #[test]
    fn cem_not_worse_than_random() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut wins = 0;
        for seed in 0..6 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let c = CrossEntropy::new().search(&space, &eval, Budget::samples(600), &mut rng);
            let mut rng = SmallRng::seed_from_u64(seed);
            let r = RandomMapper::new().search(&space, &eval, Budget::samples(600), &mut rng);
            if c.best_score <= r.best_score {
                wins += 1;
            }
        }
        assert!(wins >= 3, "CEM won only {wins}/6 vs random");
    }
}
