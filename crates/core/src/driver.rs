//! The MSE driver: the outer loop of Fig. 2 binding a workload, an
//! accelerator, a cost model, a mapper, and a budget.

use costmodel::CostModel;
use mappers::{Budget, EdpEvaluator, Evaluator, Mapper, SearchResult};
use mapping::MapSpace;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One map-space exploration run for a single workload.
#[derive(Clone)]
pub struct Mse<'a> {
    model: &'a dyn CostModel,
}

impl<'a> Mse<'a> {
    /// Binds the driver to a cost model (which carries the workload and
    /// accelerator).
    pub fn new(model: &'a dyn CostModel) -> Self {
        Mse { model }
    }

    /// The cost model the driver is bound to.
    pub fn model(&self) -> &'a dyn CostModel {
        self.model
    }

    /// The map space being explored.
    pub fn space(&self) -> MapSpace {
        MapSpace::new(self.model.problem().clone(), self.model.arch().clone())
    }

    /// Runs `mapper` with the default EDP objective.
    pub fn run(&self, mapper: &dyn Mapper, budget: Budget, seed: u64) -> SearchResult {
        let evaluator = EdpEvaluator::new(self.model);
        self.run_with_evaluator(mapper, &evaluator, budget, seed)
    }

    /// Runs `mapper` with a custom objective (e.g. the sparsity-aware
    /// density-sweep evaluator).
    pub fn run_with_evaluator(
        &self,
        mapper: &dyn Mapper,
        evaluator: &dyn Evaluator,
        budget: Budget,
        seed: u64,
    ) -> SearchResult {
        let space = self.space();
        let mut rng = SmallRng::seed_from_u64(seed);
        mapper.search(&space, evaluator, budget, &mut rng)
    }
}

/// Sample index at which a search reached `frac` (e.g. 0.995) of its total
/// improvement — the paper's time-to-converge metric (§5.1.3: "we define
/// time-to-converge as the time to reach 99.5% of performance
/// improvement"). A flat history (e.g. a warm-started search that opened at
/// its final quality) converges at its first evaluated sample.
pub fn convergence_sample(result: &SearchResult, frac: f64) -> usize {
    let Some(first) = result.history.first() else {
        return result.evaluated;
    };
    let init = first.best_score;
    let fin = result.best_score;
    if !(init.is_finite() && fin.is_finite()) || init <= fin {
        return first.samples;
    }
    let threshold = init - frac * (init - fin);
    result
        .history
        .iter()
        .find(|p| p.best_score <= threshold)
        .map(|p| p.samples)
        .unwrap_or(result.evaluated)
}

/// First sample index at which the search's best-so-far dropped to
/// `target` or below; `None` if it never did. This is the metric behind
/// the paper's warm-start headline ("converge *to a similar performance
/// point* 3.3x-7.3x faster"): pick a common target score and compare how
/// many samples each run needed to reach it.
pub fn samples_to_reach(result: &SearchResult, target: f64) -> Option<usize> {
    result.history.iter().find(|p| p.best_score <= target).map(|p| p.samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Arch;
    use costmodel::DenseModel;
    use mappers::{ConvergencePoint, Gamma, RandomPruned};
    use problem::Problem;

    fn model() -> DenseModel {
        DenseModel::new(Problem::conv2d("t", 2, 16, 16, 14, 14, 3, 3), Arch::accel_b())
    }

    #[test]
    fn run_is_reproducible() {
        let m = model();
        let mse = Mse::new(&m);
        let a = mse.run(&RandomPruned::new(), Budget::samples(100), 42).best_score;
        let b = mse.run(&RandomPruned::new(), Budget::samples(100), 42).best_score;
        assert_eq!(a, b);
    }

    #[test]
    fn gamma_run_returns_legal_best() {
        let m = model();
        let mse = Mse::new(&m);
        let r = mse.run(&Gamma::new(), Budget::samples(300), 0);
        let (best, cost) = r.best.unwrap();
        assert!(best.is_legal(m.problem(), m.arch()));
        assert!((cost.edp() - r.best_score).abs() < 1e-9);
    }

    #[test]
    fn convergence_sample_hits_threshold() {
        let mut r = SearchResult {
            best: None,
            best_score: 10.0,
            history: vec![
                ConvergencePoint { samples: 1, seconds: 0.0, best_score: 1000.0 },
                ConvergencePoint { samples: 10, seconds: 0.0, best_score: 100.0 },
                ConvergencePoint { samples: 50, seconds: 0.0, best_score: 11.0 },
                ConvergencePoint { samples: 200, seconds: 0.0, best_score: 10.0 },
            ],
            samples: vec![],
            pareto: vec![],
            evaluated: 200,
            pruned: 0,
            elapsed: std::time::Duration::ZERO,
            cache: mappers::CacheStats::default(),
        };
        // 99.5% of the 990 improvement → threshold 1000 - 985.05 = 14.95.
        assert_eq!(convergence_sample(&r, 0.995), 50);
        // Flat history converges at its first evaluated sample.
        r.history.truncate(1);
        r.best_score = 1000.0;
        assert_eq!(convergence_sample(&r, 0.995), 1);
        // samples_to_reach uses an absolute target.
        assert_eq!(samples_to_reach(&r, 1000.0), Some(1));
        assert_eq!(samples_to_reach(&r, 10.0), None);
    }
}
