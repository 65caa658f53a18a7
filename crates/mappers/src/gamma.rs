//! Gamma (§4.3, Kao & Krishna ICCAD'20): the feedback-based mapper — a
//! genetic algorithm with operators specialized per mapping axis
//! (mutate-tile / mutate-order / mutate-parallelism) plus a mapping-aware
//! crossover. Each operator can be disabled individually to reproduce the
//! paper's Fig. 5 (axis sensitivity) and Fig. 6 (crossover sensitivity)
//! ablations.

use crate::mapper::{Budget, Evaluator, Mapper, Recorder, SearchResult};
use crate::nsga::{nsga2_order_costs, Selection};
use crate::operators;
use costmodel::Cost;
use mapping::{MapSpace, Mapping};
use rand::rngs::SmallRng;
use rand::Rng;

/// One scored population member.
#[derive(Debug, Clone)]
struct Indiv {
    mapping: Mapping,
    score: f64,
    cost: Option<Cost>,
}

/// Configuration of the Gamma mapper.
#[derive(Debug, Clone)]
pub struct GammaConfig {
    /// Population size per generation.
    pub population: usize,
    /// Fraction of the population kept as elites.
    pub elite_frac: f64,
    /// Enable the *mutate-tile* operator.
    pub enable_tile: bool,
    /// Enable the *mutate-order* operator.
    pub enable_order: bool,
    /// Enable the *mutate-parallelism* operator.
    pub enable_parallelism: bool,
    /// Enable crossover between elite parents.
    pub enable_crossover: bool,
    /// Probability each enabled mutation applies to a child.
    pub mutation_rate: f64,
    /// Elite-selection strategy: scalar score (default) or NSGA-II
    /// multi-objective ranking on (latency, energy) — the paper's
    /// multi-objective protocol (§4.1).
    pub selection: Selection,
    /// Record each sample's feature vector (Fig. 4 PCA harness).
    pub record_samples: bool,
}

impl Default for GammaConfig {
    fn default() -> Self {
        GammaConfig {
            population: 50,
            elite_frac: 0.25,
            enable_tile: true,
            enable_order: true,
            enable_parallelism: true,
            enable_crossover: true,
            mutation_rate: 0.6,
            selection: Selection::Scalar,
            record_samples: false,
        }
    }
}

/// The Gamma mapper.
#[derive(Debug, Clone, Default)]
pub struct Gamma {
    /// Operator configuration (ablations flip the `enable_*` flags).
    pub config: GammaConfig,
    seeds: Vec<Mapping>,
}

impl Gamma {
    /// Full-fledged Gamma: all operators enabled.
    pub fn new() -> Self {
        Gamma::default()
    }

    /// Gamma with a custom configuration.
    pub fn with_config(config: GammaConfig) -> Self {
        Gamma { config, seeds: Vec::new() }
    }

    /// Fig. 5 ablation: explore only the tile axis. Crossover is disabled
    /// too — it blends whole factor columns between parents and would leak
    /// exploration onto the other axes, masking the per-axis sensitivity.
    pub fn tile_only() -> Self {
        Gamma::with_config(GammaConfig {
            enable_order: false,
            enable_parallelism: false,
            enable_crossover: false,
            ..GammaConfig::default()
        })
    }

    /// Fig. 5 ablation: explore only the loop-order axis (no crossover;
    /// tiles and parallelization stay at their randomly initialized
    /// values, per the paper's protocol note in §4.4.2).
    pub fn order_only() -> Self {
        Gamma::with_config(GammaConfig {
            enable_tile: false,
            enable_parallelism: false,
            enable_crossover: false,
            ..GammaConfig::default()
        })
    }

    /// Fig. 5 ablation: explore only the parallelism axis (no crossover).
    pub fn parallelism_only() -> Self {
        Gamma::with_config(GammaConfig {
            enable_tile: false,
            enable_order: false,
            enable_crossover: false,
            ..GammaConfig::default()
        })
    }

    /// Fig. 6 ablation: all mutations, crossover disabled.
    pub fn no_crossover() -> Self {
        Gamma::with_config(GammaConfig { enable_crossover: false, ..GammaConfig::default() })
    }

    /// Fig. 6 ablation: crossover only, no mutations.
    pub fn crossover_only() -> Self {
        Gamma::with_config(GammaConfig {
            enable_tile: false,
            enable_order: false,
            enable_parallelism: false,
            ..GammaConfig::default()
        })
    }

    /// The warm-start seeds currently installed.
    pub fn seeds(&self) -> &[Mapping] {
        &self.seeds
    }

    fn make_child(
        &self,
        space: &MapSpace,
        parents: &[Indiv],
        rng: &mut SmallRng,
    ) -> Mapping {
        let cfg = &self.config;
        // Parents are pre-sorted best-first (by scalar score or NSGA-II
        // rank), so a binary tournament on indices works for both modes.
        let pick = |rng: &mut SmallRng| {
            let a = rng.gen_range(0..parents.len());
            let b = rng.gen_range(0..parents.len());
            a.min(b)
        };
        let mut child = if cfg.enable_crossover && parents.len() >= 2 {
            let i = pick(rng);
            let mut j = pick(rng);
            if i == j {
                j = (j + 1) % parents.len();
            }
            operators::crossover(&parents[i].mapping, &parents[j].mapping, rng)
        } else {
            parents[pick(rng)].mapping.clone()
        };
        let mut mutated = false;
        if cfg.enable_tile && rng.gen_bool(cfg.mutation_rate) {
            operators::mutate_tile(&mut child, rng);
            mutated = true;
        }
        if cfg.enable_order && rng.gen_bool(cfg.mutation_rate) {
            operators::mutate_order(&mut child, rng);
            mutated = true;
        }
        if cfg.enable_parallelism && rng.gen_bool(cfg.mutation_rate) {
            operators::mutate_parallelism(&mut child, space, rng);
            mutated = true;
        }
        // Guarantee progress when crossover is off and no mutation fired.
        if !cfg.enable_crossover && !mutated {
            if cfg.enable_tile {
                operators::mutate_tile(&mut child, rng);
            } else if cfg.enable_order {
                operators::mutate_order(&mut child, rng);
            } else if cfg.enable_parallelism {
                operators::mutate_parallelism(&mut child, space, rng);
            }
        }
        if !operators::repair(&mut child, space) {
            // Unmappable problems are rejected earlier; fall back to a
            // fresh random individual for robustness.
            child = space.random(rng);
        }
        child
    }

    fn evaluate_batch(
        &self,
        batch: &[Mapping],
        evaluator: &dyn Evaluator,
        rec: &mut Recorder<'_>,
    ) -> Vec<Indiv> {
        // Concurrency (and panic propagation with original payloads) lives
        // in the evaluator stack now: `Evaluator::evaluate_batch` is serial
        // by default and dispatches to the shared worker pool when the run
        // is configured with one (`mse::eval`). Outcomes always come back
        // in submission order, so the recording below is identical no
        // matter how many threads evaluated the batch.
        let outcomes: Vec<_> = evaluator.evaluate_batch(batch);
        batch
            .iter()
            .zip(outcomes)
            .map(|(m, out)| {
                let cost = out.as_ref().map(|(c, _)| *c);
                let score = rec.record_outcome(m, out).unwrap_or(f64::INFINITY);
                Indiv { mapping: m.clone(), score, cost }
            })
            .collect()
    }

    /// Evaluates one generation of children with admissible-bound pruning.
    ///
    /// A child whose lower bound strictly exceeds `threshold` (the worst
    /// current elite's score under scalar selection) could never rank
    /// among the elites at the next truncation — its true score is
    /// provably worse than every survivor's — so skipping its evaluation
    /// cannot change the incumbent, the best score, or any later
    /// generation. Pruned children still consume a sample
    /// ([`Recorder::try_prune`]) and enter the population with an
    /// infinite score, exactly where their true score would have ranked
    /// them: past the truncation cut.
    fn evaluate_children(
        &self,
        children: &[Mapping],
        threshold: f64,
        evaluator: &dyn Evaluator,
        rec: &mut Recorder<'_>,
    ) -> Vec<Indiv> {
        let mut pruned = vec![false; children.len()];
        let mut keep: Vec<Mapping> = Vec::with_capacity(children.len());
        for (i, m) in children.iter().enumerate() {
            if rec.try_prune(m, threshold) {
                pruned[i] = true;
            } else {
                keep.push(m.clone());
            }
        }
        let mut outcomes = evaluator.evaluate_batch(&keep).into_iter();
        children
            .iter()
            .zip(pruned)
            .map(|(m, was_pruned)| {
                if was_pruned {
                    return Indiv { mapping: m.clone(), score: f64::INFINITY, cost: None };
                }
                let out = outcomes.next().expect("one outcome per surviving child");
                let cost = out.as_ref().map(|(c, _)| *c);
                let score = rec.record_outcome(m, out).unwrap_or(f64::INFINITY);
                Indiv { mapping: m.clone(), score, cost }
            })
            .collect()
    }

    /// Sorts the population best-first under the configured selection.
    fn rank(&self, pop: &mut Vec<Indiv>) {
        match self.config.selection {
            Selection::Scalar => {
                pop.sort_by(|a, b| crate::outcome::score_cmp(a.score, b.score));
            }
            Selection::Nsga2 => {
                let costs: Vec<Option<Cost>> = pop.iter().map(|i| i.cost).collect();
                let order = nsga2_order_costs(&costs);
                let mut ranked = Vec::with_capacity(pop.len());
                for idx in order {
                    ranked.push(pop[idx].clone());
                }
                *pop = ranked;
            }
        }
    }
}

impl Mapper for Gamma {
    fn name(&self) -> &str {
        "Gamma"
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
        let pop_size = self.config.population.max(4);
        let elite_count = ((pop_size as f64 * self.config.elite_frac) as usize).clamp(2, pop_size - 1);

        // Initial population: warm-start seeds (plus perturbed copies),
        // topped up with random individuals.
        let mut init: Vec<Mapping> = Vec::with_capacity(pop_size);
        for seed in &self.seeds {
            let mut s = seed.clone();
            if operators::repair(&mut s, space) && init.len() < pop_size {
                init.push(s);
            }
        }
        let seeded = init.len();
        if seeded > 0 {
            while init.len() < pop_size / 2 {
                let mut v = init[rng.gen_range(0..seeded)].clone();
                operators::mutate_tile(&mut v, rng);
                if operators::repair(&mut v, space) {
                    init.push(v);
                }
            }
        }
        while init.len() < pop_size {
            init.push(space.random(rng));
        }

        let mut pop = self.evaluate_batch(&init, evaluator, &mut rec);

        while !rec.done() {
            self.rank(&mut pop);
            pop.truncate(elite_count);
            // Bound-pruning threshold: under scalar selection the worst
            // current elite — anything provably worse can be skipped (see
            // `evaluate_children`). NSGA-II ranks on full cost vectors, so
            // pruning is disabled there (infinite threshold).
            let threshold = match self.config.selection {
                Selection::Scalar => pop.last().map_or(f64::INFINITY, |e| e.score),
                Selection::Nsga2 => f64::INFINITY,
            };
            let mut children = Vec::with_capacity(pop_size - elite_count);
            while children.len() + elite_count < pop_size {
                children.push(self.make_child(space, &pop, rng));
            }
            // Respect the budget mid-generation.
            let remaining = match budget.max_samples {
                Some(n) => n.saturating_sub(rec.evaluated()),
                None => children.len(),
            };
            children.truncate(remaining.max(1).min(children.len()));
            let scored = self.evaluate_children(&children, threshold, evaluator, &mut rec);
            pop.extend(scored);
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
    fn gamma_respects_sample_budget() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(0);
        let r = Gamma::new().search(&space, &eval, Budget::samples(300), &mut rng);
        assert!(r.evaluated <= 300 + 1, "evaluated {}", r.evaluated);
        assert!(r.best.is_some());
    }

    #[test]
    fn gamma_beats_random_at_equal_samples() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut gamma_wins = 0;
        for seed in 0..6 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let rg = Gamma::new().search(&space, &eval, Budget::samples(600), &mut rng);
            let mut rng = SmallRng::seed_from_u64(seed);
            let rr = RandomMapper::new().search(&space, &eval, Budget::samples(600), &mut rng);
            if rg.best_score < rr.best_score {
                gamma_wins += 1;
            }
        }
        assert!(gamma_wins >= 4, "gamma won only {gamma_wins}/6");
    }

    #[test]
    fn gamma_is_deterministic_per_seed() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let run = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Gamma::new().search(&space, &eval, Budget::samples(200), &mut rng).best_score
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn seeded_start_initializes_population() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        // Seed with the best of a pre-search: the seeded run must start at
        // least as good as the seed.
        let mut rng = SmallRng::seed_from_u64(7);
        let pre = Gamma::new().search(&space, &eval, Budget::samples(400), &mut rng);
        let (seed_mapping, seed_cost) = pre.best.unwrap();
        let mut g = Gamma::new();
        g.set_seeds(vec![seed_mapping]);
        let mut rng = SmallRng::seed_from_u64(8);
        let r = g.search(&space, &eval, Budget::samples(100), &mut rng);
        assert!(
            r.best_score <= seed_cost.edp() * 1.0001,
            "seeded run ({:.3e}) worse than its seed ({:.3e})",
            r.best_score,
            seed_cost.edp()
        );
    }

    #[test]
    fn ablation_configs_disable_axes() {
        assert!(!Gamma::tile_only().config.enable_order);
        assert!(!Gamma::order_only().config.enable_tile);
        assert!(!Gamma::parallelism_only().config.enable_order);
        assert!(!Gamma::no_crossover().config.enable_crossover);
        let xo = Gamma::crossover_only().config;
        assert!(xo.enable_crossover && !xo.enable_tile && !xo.enable_order);
    }

    #[test]
    fn nsga2_selection_matches_scalar_quality_and_widens_frontier() {
        use crate::nsga::Selection;
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut scalar_edp = Vec::new();
        let mut nsga_edp = Vec::new();
        let mut scalar_front = 0usize;
        let mut nsga_front = 0usize;
        for seed in 0..4 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let s = Gamma::new().search(&space, &eval, Budget::samples(600), &mut rng);
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = Gamma::with_config(GammaConfig {
                selection: Selection::Nsga2,
                ..GammaConfig::default()
            })
            .search(&space, &eval, Budget::samples(600), &mut rng);
            scalar_edp.push(s.best_score);
            nsga_edp.push(n.best_score);
            scalar_front += s.pareto.len();
            nsga_front += n.pareto.len();
        }
        // Comparable best-EDP quality (within 4x geomean either way).
        let geo = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
        let ratio = geo(&nsga_edp) / geo(&scalar_edp);
        assert!((0.25..4.0).contains(&ratio), "NSGA-II EDP ratio {ratio:.2}");
        // Multi-objective selection maintains at least as diverse a
        // frontier on average.
        assert!(nsga_front * 2 >= scalar_front, "{nsga_front} vs {scalar_front}");
    }

    #[test]
    fn crossover_only_still_searches() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(9);
        let r = Gamma::crossover_only().search(&space, &eval, Budget::samples(300), &mut rng);
        assert!(r.best.is_some());
    }
}
