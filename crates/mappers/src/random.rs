//! Random-based mappers (§3.3): raw random sampling and Timeloop-mapper's
//! default *Random-Pruned* strategy.

use crate::mapper::{Budget, Evaluator, Mapper, Recorder, SearchResult};
use mapping::{MapSpace, Mapping};
use rand::rngs::SmallRng;
use std::collections::HashSet;

/// How many candidates the random samplers draw before handing them to the
/// evaluator in one [`Evaluator::evaluate_batch`] call. Candidates are drawn
/// *before* any evaluation, so the rng stream — and therefore the sampled
/// sequence — is identical to the historical draw-evaluate-draw loop.
const EVAL_CHUNK: usize = 64;

/// Uniform random sampling of legal mappings — the unpruned baseline.
#[derive(Debug, Clone, Default)]
pub struct RandomMapper {
    record_samples: bool,
}

impl RandomMapper {
    /// Creates the mapper.
    pub fn new() -> Self {
        RandomMapper::default()
    }

    /// Record each sample's feature vector (for the Fig. 4 PCA harness).
    pub fn with_sample_recording(mut self) -> Self {
        self.record_samples = true;
        self
    }
}

impl Mapper for RandomMapper {
    fn name(&self) -> &str {
        "Random"
    }

    fn search(
        &self,
        space: &MapSpace,
        evaluator: &dyn Evaluator,
        budget: Budget,
        rng: &mut SmallRng,
    ) -> SearchResult {
        let mut rec = Recorder::new(evaluator, budget);
        rec.record_samples(self.record_samples);
        let mut batch: Vec<Mapping> = Vec::with_capacity(EVAL_CHUNK);
        while !rec.done() {
            let n = rec.batch_room(EVAL_CHUNK);
            batch.clear();
            for _ in 0..n {
                let m = space.random(rng);
                // Bound-prune against the incumbent: a candidate whose
                // admissible lower bound already exceeds the best score
                // could not have improved it, so it consumes its sample
                // without touching the cost model.
                let incumbent = rec.best_score();
                if !rec.try_prune(&m, incumbent) {
                    batch.push(m);
                }
            }
            rec.evaluate_batch(&batch);
        }
        rec.finish()
    }
}

/// Canonicalizes a mapping for pruning purposes: unit-factor temporal loops
/// carry no information, so within each level they are moved innermost and
/// sorted. Two mappings with equal canonical forms are
/// performance-equivalent under the cost model.
pub fn canonicalize(m: &Mapping) -> Mapping {
    let mut c = m.clone();
    for l in 0..c.num_levels() {
        let (order, temporal) = (m.order(l), m.temporal(l));
        let is_unit = |d: u8| temporal[d as usize] <= 1;
        let non_unit = order.iter().copied().filter(|&d| !is_unit(d));
        let unit = order.iter().copied().filter(|&d| is_unit(d));
        let out = c.order_mut(l);
        for (dst, d) in out.iter_mut().zip(non_unit.chain(unit)) {
            *dst = d;
        }
        let n = order.iter().filter(|&&d| !is_unit(d)).count();
        out[n..].sort_unstable();
    }
    c
}

/// Timeloop-mapper's default *Random-Pruned* search (§4.3): random sampling
/// over a pruned space. Pruning heuristics: (a) unit-factor loop
/// permutations are canonicalized away; (b) already-visited canonical forms
/// are not re-evaluated (each still costs a draw, not a cost-model call —
/// which is precisely why pruning raises sampling efficiency).
#[derive(Debug, Clone)]
pub struct RandomPruned {
    /// How many re-draws to attempt when a duplicate canonical form comes
    /// up before giving up and evaluating it anyway.
    pub redraws: usize,
    record_samples: bool,
}

impl RandomPruned {
    /// Creates the mapper with the default redraw limit.
    pub fn new() -> Self {
        RandomPruned { redraws: 4, record_samples: false }
    }

    /// Record each sample's feature vector (for the Fig. 4 PCA harness).
    pub fn with_sample_recording(mut self) -> Self {
        self.record_samples = true;
        self
    }
}

impl Default for RandomPruned {
    fn default() -> Self {
        RandomPruned::new()
    }
}

impl Mapper for RandomPruned {
    fn name(&self) -> &str {
        "Random-Pruned"
    }

    fn search(
        &self,
        space: &MapSpace,
        evaluator: &dyn Evaluator,
        budget: Budget,
        rng: &mut SmallRng,
    ) -> SearchResult {
        let mut rec = Recorder::new(evaluator, budget);
        rec.record_samples(self.record_samples);
        let mut seen: HashSet<Mapping> = HashSet::new();
        let mut batch: Vec<Mapping> = Vec::with_capacity(EVAL_CHUNK);
        while !rec.done() {
            let n = rec.batch_room(EVAL_CHUNK);
            batch.clear();
            // Drawing (including redraws against `seen`) touches only the
            // rng and the visited set, never the evaluator, so batching
            // preserves the exact candidate sequence of the serial loop.
            for _ in 0..n {
                let mut candidate = canonicalize(&space.random(rng));
                for _ in 0..self.redraws {
                    if seen.insert(candidate.clone()) {
                        break;
                    }
                    candidate = canonicalize(&space.random(rng));
                }
                // Bound-prune against the incumbent (see `RandomMapper`).
                let incumbent = rec.best_score();
                if !rec.try_prune(&candidate, incumbent) {
                    batch.push(candidate);
                }
            }
            rec.evaluate_batch(&batch);
        }
        rec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::EdpEvaluator;
    use arch::Arch;
    use costmodel::{CostModel, DenseModel};
    use problem::Problem;
    use rand::SeedableRng;

    fn setup() -> (MapSpace, DenseModel) {
        let p = Problem::conv2d("t", 2, 16, 16, 14, 14, 3, 3);
        let a = Arch::accel_b();
        (MapSpace::new(p.clone(), a.clone()), DenseModel::new(p, a))
    }

    #[test]
    fn random_finds_something_legal() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(0);
        let r = RandomMapper::new().search(&space, &eval, Budget::samples(200), &mut rng);
        assert_eq!(r.evaluated, 200);
        let (m, c) = r.best.expect("some legal mapping");
        assert!(m.is_legal(space.problem(), space.arch()));
        assert!(c.edp().is_finite());
    }

    #[test]
    fn canonicalize_preserves_cost() {
        let (space, model) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let m = space.random(&mut rng);
            let c = canonicalize(&m);
            assert!(c.is_legal(space.problem(), space.arch()));
            let cm = model.evaluate(&m).unwrap();
            let cc = model.evaluate(&c).unwrap();
            assert!(
                (cm.edp() - cc.edp()).abs() / cm.edp() < 1e-12,
                "canonicalization changed EDP: {} vs {}",
                cm.edp(),
                cc.edp()
            );
        }
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let (space, _) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..20 {
            let m = canonicalize(&space.random(&mut rng));
            assert_eq!(m, canonicalize(&m));
        }
    }

    #[test]
    fn pruned_is_deterministic_per_seed() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let run = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            RandomPruned::new().search(&space, &eval, Budget::samples(100), &mut rng).best_score
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn pruned_not_worse_than_random_on_average() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut pruned_wins = 0;
        for seed in 0..10 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let r1 = RandomMapper::new().search(&space, &eval, Budget::samples(150), &mut rng);
            let mut rng = SmallRng::seed_from_u64(seed);
            let r2 = RandomPruned::new().search(&space, &eval, Budget::samples(150), &mut rng);
            if r2.best_score <= r1.best_score {
                pruned_wins += 1;
            }
        }
        assert!(pruned_wins >= 5, "pruned won only {pruned_wins}/10");
    }
}
