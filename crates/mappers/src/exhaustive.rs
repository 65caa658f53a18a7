//! Exhaustive enumeration of (a pruned subset of) the map space.
//!
//! Hopeless for real workloads (§4.2: ~10^21 points) but invaluable for
//! validation: on problems small enough to enumerate, the heuristic
//! mappers can be checked against the true optimum. Timeloop-mapper offers
//! the same "linear"/exhaustive heuristic for tiny spaces.
//!
//! The enumeration walks ordered tile factorizations per dimension, a
//! configurable set of loop orders per level, and spatialization choices,
//! with the Random-Pruned canonicalization (unit-factor loops carry no
//! order information) applied implicitly by enumerating orders only once
//! per level.

use crate::mapper::{Budget, Evaluator, Mapper, Recorder, SearchResult};
use mapping::factorization::ordered_factorizations;
use mapping::permutation::{factorial, nth_permutation};
use mapping::{MapSpace, Mapping};
use rand::rngs::SmallRng;

/// Exhaustive mapper with a safety valve.
#[derive(Debug, Clone)]
pub struct Exhaustive {
    /// Hard cap on enumerated candidates; enumeration stops (and the
    /// result notes truncation via the sample budget) beyond this.
    pub max_candidates: usize,
    /// Orders per level: `All` enumerates every permutation at the
    /// outermost level (inner levels inherit it, the Fig. 7 relaxation);
    /// `Canonical` fixes the identity order and explores tiles/parallelism
    /// only.
    pub orders: OrderEnumeration,
}

/// How loop orders are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderEnumeration {
    /// Identity order everywhere (tiles/parallelism only).
    Canonical,
    /// All `D!` orders, applied uniformly to every level.
    All,
}

impl Exhaustive {
    /// Exhaustive search capped at one million candidates.
    pub fn new() -> Self {
        Exhaustive { max_candidates: 1_000_000, orders: OrderEnumeration::All }
    }

    /// Tiles/parallelism only (canonical order) — a much smaller space.
    pub fn tiles_only() -> Self {
        Exhaustive { max_candidates: 1_000_000, orders: OrderEnumeration::Canonical }
    }

    /// Number of candidates this configuration would enumerate for a
    /// space, before the cap. Use to decide whether exhaustion is viable.
    pub fn candidate_count(&self, space: &MapSpace) -> f64 {
        let p = space.problem();
        let nl = space.arch().num_levels();
        let mut tiles = 1.0f64;
        for d in 0..p.num_dims() {
            tiles *= mapping::factorization::count_ordered_factorizations(
                p.bound(d),
                nl as u32 + 1, // +1 slot: the PE-boundary spatial factor
            );
        }
        let orders = match self.orders {
            OrderEnumeration::Canonical => 1.0,
            OrderEnumeration::All => factorial(p.num_dims()) as f64,
        };
        tiles * orders
    }
}

impl Default for Exhaustive {
    fn default() -> Self {
        Exhaustive::new()
    }
}

impl Mapper for Exhaustive {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    fn search(
        &self,
        space: &MapSpace,
        evaluator: &dyn Evaluator,
        budget: Budget,
        _rng: &mut SmallRng,
    ) -> SearchResult {
        let mut rec = Recorder::new(evaluator, budget);
        let p = space.problem();
        let arch = space.arch();
        let d = p.num_dims();
        let nl = arch.num_levels();

        // Per-dimension choices: ordered factorization into nl temporal
        // slots plus one spatial factor at the main PE boundary (the level
        // with the largest fanout).
        let pe_level =
            (0..nl).max_by_key(|&l| arch.fanout_below(l)).expect("non-empty hierarchy");
        let per_dim: Vec<Vec<Vec<u64>>> =
            (0..d).map(|dim| ordered_factorizations(p.bound(dim), nl + 1)).collect();

        let order_count = match self.orders {
            OrderEnumeration::Canonical => 1,
            OrderEnumeration::All => factorial(d),
        };

        // Candidates are buffered and evaluated through
        // `Evaluator::evaluate_batch` so the enumeration benefits from a
        // pooled evaluator; the budget gate counts the pending buffer, so
        // the evaluated candidate set matches the serial walk exactly.
        let mut buf: Vec<Mapping> = Vec::with_capacity(64);
        // Odometer over per-dimension choices.
        let mut idx = vec![0usize; d];
        let mut emitted = 0usize;
        'outer: loop {
            // Build the tiling once per odometer state.
            let mut tiling = Mapping::unit(nl, d);
            for dim in 0..d {
                let choice = &per_dim[dim][idx[dim]];
                for (l, &f) in choice[..nl].iter().enumerate() {
                    tiling.temporal_mut(l)[dim] = f;
                }
                tiling.spatial_mut(pe_level)[dim] = choice[nl];
            }
            let fanout_ok = tiling.spatial_product(pe_level) <= arch.fanout_below(pe_level);
            // Legality is order-independent (orders are valid permutations
            // by construction; factor products, fanouts, and capacities
            // depend only on the tiling), so validate the tiling once and
            // skip all `order_count` variants of a doomed one — instead of
            // re-running the capacity check per permutation.
            if fanout_ok && tiling.validate(p, arch).is_ok() {
                for oi in 0..order_count {
                    if rec.would_be_done(buf.len()) || emitted >= self.max_candidates {
                        break 'outer;
                    }
                    // The unit tiling already carries the identity order.
                    let mut m = tiling.clone();
                    if self.orders == OrderEnumeration::All {
                        let order = nth_permutation(d, oi);
                        for l in 0..nl {
                            m.set_order(l, &order);
                        }
                    }
                    {
                        emitted += 1;
                        // Bound-prune against the incumbent: a candidate
                        // whose admissible lower bound already exceeds the
                        // best score cannot be the optimum; it consumes its
                        // sample (keeping the budget walk identical) without
                        // a cost-model call.
                        let incumbent = rec.best_score();
                        if !rec.try_prune(&m, incumbent) {
                            buf.push(m);
                            if buf.len() >= 64 {
                                rec.evaluate_batch(&buf);
                                buf.clear();
                            }
                        }
                    }
                }
            }
            // Advance the odometer.
            let mut carry = 0usize;
            loop {
                idx[carry] += 1;
                if idx[carry] < per_dim[carry].len() {
                    break;
                }
                idx[carry] = 0;
                carry += 1;
                if carry == d {
                    break 'outer;
                }
            }
            if rec.would_be_done(buf.len()) || emitted >= self.max_candidates {
                break;
            }
        }
        if !buf.is_empty() {
            rec.evaluate_batch(&buf);
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

    fn tiny() -> (MapSpace, DenseModel) {
        // Small enough to exhaust: bounds with few divisors.
        let p = Problem::gemm("tiny", 2, 4, 4, 4);
        let a = Arch::accel_b();
        (MapSpace::new(p.clone(), a.clone()), DenseModel::new(p, a))
    }

    #[test]
    fn candidate_count_estimates() {
        let (space, _) = tiny();
        let e = Exhaustive::new();
        assert!(e.candidate_count(&space) > 100.0);
        assert!(e.candidate_count(&space) < 1e7);
        assert!(Exhaustive::tiles_only().candidate_count(&space) < e.candidate_count(&space));
    }

    #[test]
    fn exhaustive_finds_global_optimum_of_its_space() {
        // Canonical-order subspace: exhaustive is optimal within it, and
        // running it twice gives identical results.
        let (space, model) = tiny();
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(0);
        let e = Exhaustive::tiles_only();
        let r1 = e.search(&space, &eval, Budget::default(), &mut rng);
        let r2 = e.search(&space, &eval, Budget::default(), &mut rng);
        assert_eq!(r1.best_score, r2.best_score);
        assert!(r1.evaluated > 50);
    }

    #[test]
    fn gamma_approaches_exhaustive_optimum() {
        // The key validation: on an exhaustible space, Gamma gets within a
        // small factor of the true optimum.
        let (space, model) = tiny();
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(1);
        let truth = Exhaustive::new().search(&space, &eval, Budget::default(), &mut rng);
        let mut best_gamma = f64::INFINITY;
        for seed in 0..3 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = Gamma::new().search(&space, &eval, Budget::samples(2_000), &mut rng);
            best_gamma = best_gamma.min(g.best_score);
        }
        assert!(
            best_gamma <= truth.best_score * 1.10,
            "gamma {best_gamma:.4e} vs exhaustive {:.4e}",
            truth.best_score
        );
        // Exhaustive covers a superset including spatial choices at the PE
        // boundary; gamma must not beat it by much either (sanity on the
        // enumeration): allow gamma the win since its space is larger.
        assert!(truth.best_score <= best_gamma * 50.0);
    }

    #[test]
    fn budget_caps_enumeration() {
        let (space, model) = tiny();
        let eval = EdpEvaluator::new(&model);
        let mut rng = SmallRng::seed_from_u64(0);
        let r = Exhaustive::new().search(&space, &eval, Budget::samples(100), &mut rng);
        assert!(r.evaluated <= 100);
    }
}
