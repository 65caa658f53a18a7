//! Standard (non-domain-aware) genetic algorithm — the Fig. 6 baseline
//! that full Gamma beats by roughly an order of magnitude.
//!
//! Unlike Gamma, which manipulates mappings through operators that keep
//! the per-dimension factor products valid by construction, this GA works
//! on a *naive flat genome*: one independent divisor choice per
//! (dimension, level) for tiles and spatial factors, plus per-level order
//! permutations. Crossover is a single-point cut of the flat gene vector
//! and mutation is a random gene reset. Decoded genomes frequently violate
//! the factor-product constraint; the only repair available is the naive
//! one (absorb the residual into the outermost level when divisible,
//! otherwise the sample is wasted as illegal) — which is exactly why
//! domain operators matter (§4.4).

use crate::mapper::{Budget, Evaluator, Mapper, Recorder, SearchResult};
use mapping::factorization::divisors;
use mapping::permutation::random_permutation;
use mapping::{MapSpace, Mapping, MAX_DIMS, MAX_LEVELS};
use rand::rngs::SmallRng;
use rand::Rng;

/// Flat genome: independent divisor indices per (dim, level), stored
/// inline so building, cloning and crossing genomes never touches the heap.
#[derive(Debug, Clone)]
struct Genome {
    /// Problem dimensions.
    d: usize,
    /// Storage levels.
    nl: usize,
    /// Temporal divisor index per dim (outer) per level (inner).
    t: [[usize; MAX_LEVELS]; MAX_DIMS],
    /// Spatial divisor index per dim per level.
    s: [[usize; MAX_LEVELS]; MAX_DIMS],
    /// Loop order per level (the first `d` entries).
    orders: [[u8; MAX_DIMS]; MAX_LEVELS],
}

impl Genome {
    /// A feasible starting genome: everything at the outermost level
    /// (gene index 0 = factor 1 everywhere), random loop orders. The GA
    /// explores from here via mutation and crossover.
    fn seed(space: &MapSpace, rng: &mut SmallRng) -> Self {
        let d = space.problem().num_dims();
        let nl = space.arch().num_levels();
        let mut g = Genome {
            d,
            nl,
            t: [[0; MAX_LEVELS]; MAX_DIMS],
            s: [[0; MAX_LEVELS]; MAX_DIMS],
            orders: [[0; MAX_DIMS]; MAX_LEVELS],
        };
        for order in &mut g.orders[..nl] {
            random_permutation(rng, &mut order[..d]);
        }
        g
    }

    /// Naive decode: take the gene factors verbatim, absorb the residual
    /// into the outermost temporal factor if (and only if) it divides
    /// evenly; otherwise the genome is illegal.
    fn decode(&self, space: &MapSpace, divs: &[Vec<u64>]) -> Option<Mapping> {
        let problem = space.problem();
        let (d, nl) = (self.d, self.nl);
        let mut m = Mapping::unit(nl, d);
        for dim in 0..d {
            let mut inner_product = 1u64;
            for l in 0..nl {
                let tf = divs[dim][self.t[dim][l]];
                let sf = divs[dim][self.s[dim][l]];
                m.temporal_mut(l)[dim] = tf;
                m.spatial_mut(l)[dim] = sf;
                if l > 0 {
                    inner_product = inner_product.checked_mul(tf * sf)?;
                } else {
                    inner_product = inner_product.checked_mul(sf)?;
                }
            }
            let bound = problem.bound(dim);
            if inner_product == 0 || !bound.is_multiple_of(inner_product) {
                return None;
            }
            m.temporal_mut(0)[dim] = bound / inner_product;
        }
        for (l, o) in self.orders[..nl].iter().enumerate() {
            m.order_mut(l).copy_from_slice(&o[..d]);
        }
        // Fanout/capacity violations are also simply illegal for the naive
        // GA (no domain-aware repair).
        m.validate(problem, space.arch()).ok()?;
        Some(m)
    }

    fn mutate(&mut self, divs: &[Vec<u64>], rng: &mut SmallRng) {
        let (d, nl) = (self.d, self.nl);
        match rng.gen_range(0..3) {
            0 => {
                let dim = rng.gen_range(0..d);
                let l = rng.gen_range(0..nl);
                self.t[dim][l] = rng.gen_range(0..divs[dim].len());
            }
            1 => {
                let dim = rng.gen_range(0..d);
                let l = rng.gen_range(0..nl);
                self.s[dim][l] = rng.gen_range(0..divs[dim].len());
            }
            _ => {
                let l = rng.gen_range(0..nl);
                random_permutation(rng, &mut self.orders[l][..d]);
            }
        }
    }

    /// Single-point crossover over the flattened (dim-major) gene vector.
    fn crossover(a: &Genome, b: &Genome, rng: &mut SmallRng) -> Genome {
        let (d, nl) = (a.d, a.nl);
        let total = d * nl * 2;
        let cut = rng.gen_range(0..=total);
        let mut child = a.clone();
        let mut idx = 0usize;
        for dim in 0..d {
            for l in 0..nl {
                if idx >= cut {
                    child.t[dim][l] = b.t[dim][l];
                }
                idx += 1;
                if idx >= cut {
                    child.s[dim][l] = b.s[dim][l];
                }
                idx += 1;
            }
        }
        for l in 0..nl {
            if rng.gen_bool(0.5) {
                child.orders[l] = b.orders[l];
            }
        }
        child
    }
}

/// The standard-GA baseline mapper.
#[derive(Debug, Clone)]
pub struct StandardGa {
    /// Population size per generation.
    pub population: usize,
    /// Fraction kept as elites.
    pub elite_frac: f64,
    /// Per-child mutation probability.
    pub mutation_rate: f64,
}

impl StandardGa {
    /// Default-configured standard GA (same population shape as Gamma).
    pub fn new() -> Self {
        StandardGa { population: 50, elite_frac: 0.25, mutation_rate: 0.6 }
    }
}

impl Default for StandardGa {
    fn default() -> Self {
        StandardGa::new()
    }
}

impl Mapper for StandardGa {
    fn name(&self) -> &str {
        "Standard-GA"
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
        let divs: Vec<Vec<u64>> =
            (0..problem.num_dims()).map(|d| divisors(problem.bound(d))).collect();
        let pop_size = self.population.max(4);
        let elite_count =
            ((pop_size as f64 * self.elite_frac) as usize).clamp(2, pop_size - 1);

        let trivial = Mapping::trivial(problem, space.arch());
        // Scores one generation of genomes through a single
        // `Evaluator::evaluate_batch` call, recording every outcome in
        // generation order: legal decodes get their batched result, illegal
        // decodes still consume a sample (the naive GA pays for its
        // constraint-blindness) exactly where the serial loop charged them.
        // `threshold` additionally bound-prunes legal decodes: a child whose
        // admissible lower bound strictly exceeds the worst current elite
        // can neither survive the next truncation nor improve the incumbent
        // (its true score is provably worse than every elite's), so it
        // consumes its sample via [`Recorder::try_prune`] and enters the
        // population with an infinite score — exactly where its true score
        // would have ranked it.
        let score_batch = |genomes: Vec<Genome>,
                           threshold: f64,
                           rec: &mut Recorder<'_>|
         -> Vec<(Genome, f64)> {
            let decoded: Vec<Option<Mapping>> =
                genomes.iter().map(|g| g.decode(space, &divs)).collect();
            let mut pruned = vec![false; decoded.len()];
            let mut legal: Vec<Mapping> = Vec::with_capacity(decoded.len());
            for (i, d) in decoded.iter().enumerate() {
                if let Some(m) = d {
                    if rec.try_prune(m, threshold) {
                        pruned[i] = true;
                    } else {
                        legal.push(m.clone());
                    }
                }
            }
            let outs = evaluator.evaluate_batch(&legal);
            let mut pending = legal.iter().zip(outs);
            genomes
                .into_iter()
                .zip(decoded.into_iter().zip(pruned))
                .map(|(g, (d, was_pruned))| {
                    let s = match d {
                        Some(_) if was_pruned => f64::INFINITY,
                        Some(_) => {
                            let (m, out) = pending.next().expect("one outcome per legal decode");
                            rec.record_outcome(m, out).unwrap_or(f64::INFINITY)
                        }
                        None => {
                            rec.record_outcome(&trivial, None);
                            f64::INFINITY
                        }
                    };
                    (g, s)
                })
                .collect()
        };

        // Genome construction touches only the rng, never the evaluator, so
        // building the whole generation first and evaluating it as a batch
        // preserves the serial rng stream bit for bit.
        let genomes: Vec<Genome> = (0..pop_size)
            .map(|_| {
                let mut g = Genome::seed(space, rng);
                // Light random diversification of the initial population.
                for _ in 0..3 {
                    g.mutate(&divs, rng);
                }
                g
            })
            .collect();
        let mut pop: Vec<(Genome, f64)> = score_batch(genomes, f64::INFINITY, &mut rec);

        while !rec.done() {
            pop.sort_by(|a, b| crate::outcome::score_cmp(a.1, b.1));
            pop.truncate(elite_count);
            let threshold = pop.last().map_or(f64::INFINITY, |e| e.1);
            // Each child consumes exactly one sample (legal or not), so
            // capping the brood at the remaining sample budget reproduces
            // the serial per-child `rec.done()` check.
            let k = rec.batch_room(pop_size - elite_count);
            let mut children = Vec::with_capacity(k);
            for _ in 0..k {
                let i = rng.gen_range(0..pop.len().min(elite_count));
                let j = rng.gen_range(0..pop.len().min(elite_count));
                let mut child = Genome::crossover(&pop[i].0, &pop[j].0, rng);
                if rng.gen_bool(self.mutation_rate) {
                    child.mutate(&divs, rng);
                }
                children.push(child);
            }
            pop.extend(score_batch(children, threshold, &mut rec));
        }
        rec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::Gamma;
    use crate::mapper::EdpEvaluator;
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
    fn standard_ga_runs_and_improves() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(0);
        let r = StandardGa::new().search(&space, &eval, Budget::samples(600), &mut rng);
        assert!(r.best.is_some());
        assert!(r.history.len() >= 2, "no improvements recorded");
    }

    #[test]
    fn decoded_genomes_are_legal_mappings() {
        let (space, _) = setup();
        let divs: Vec<Vec<u64>> =
            (0..7).map(|d| divisors(space.problem().bound(d))).collect();
        let mut rng = SmallRng::seed_from_u64(1);
        let seed = Genome::seed(&space, &mut rng);
        assert!(seed.decode(&space, &divs).is_some(), "seed genome must decode");
        // Children one-to-three mutations away from a feasible parent (the
        // GA's actual operating regime): some decode, some are wasted.
        let mut decoded = 0;
        for _ in 0..500 {
            let mut g = seed.clone();
            for _ in 0..3 {
                g.mutate(&divs, &mut rng);
            }
            if let Some(m) = g.decode(&space, &divs) {
                m.validate(space.problem(), space.arch()).unwrap();
                decoded += 1;
            }
        }
        assert!(decoded > 10, "only {decoded}/500 decodable");
        assert!(decoded < 490, "naive GA should waste some samples");
    }

    #[test]
    fn gamma_clearly_beats_standard_ga() {
        // Fig. 6: full Gamma's domain operators dominate standard GA.
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let mut wins = 0;
        for seed in 0..6 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = Gamma::new().search(&space, &eval, Budget::samples(500), &mut rng);
            let mut rng = SmallRng::seed_from_u64(seed);
            let s = StandardGa::new().search(&space, &eval, Budget::samples(500), &mut rng);
            if g.best_score <= s.best_score {
                wins += 1;
            }
        }
        assert!(wins >= 5, "gamma won only {wins}/6 vs standard GA");
    }
}
