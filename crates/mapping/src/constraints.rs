//! User constraints on the map space, in the spirit of Timeloop's mapper
//! constraints: fixed loop orders per level, temporal tile-factor caps,
//! and restrictions on which dimensions may be spatialized.
//!
//! Constraints are *applied* to candidate mappings (projecting them onto
//! the constrained subspace) rather than rejecting them, so any mapper
//! composes with them unchanged — the same pattern the Table 3 harness
//! uses to pin inner/outer-product styles.

use crate::factorization::smallest_prime_factor;
use crate::map::Mapping;

/// A set of constraints for a problem with `num_dims` dimensions on a
/// hierarchy with `num_levels` storage levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraints {
    num_dims: usize,
    num_levels: usize,
    /// Per-level fixed loop order (`None` = unconstrained).
    fixed_order: Vec<Option<Vec<usize>>>,
    /// Per-level, per-dim cap on the temporal factor (`None` = free).
    max_temporal: Vec<Vec<Option<u64>>>,
    /// Per-level whitelist of spatializable dims (`None` = all allowed).
    spatial_allowed: Vec<Option<Vec<usize>>>,
}

impl Constraints {
    /// No constraints.
    pub fn none(num_dims: usize, num_levels: usize) -> Self {
        Constraints {
            num_dims,
            num_levels,
            fixed_order: vec![None; num_levels],
            max_temporal: vec![vec![None; num_dims]; num_levels],
            spatial_allowed: vec![None; num_levels],
        }
    }

    /// Fixes the loop order at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the dimensions or `level`
    /// is out of range.
    pub fn fix_order(mut self, level: usize, order: Vec<usize>) -> Self {
        assert!(level < self.num_levels, "level out of range");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..self.num_dims).collect::<Vec<_>>(), "not a permutation");
        self.fixed_order[level] = Some(order);
        self
    }

    /// Caps the temporal tile factor of `dim` at `level` (e.g. "no K
    /// tiling in the local buffers": cap at 1).
    ///
    /// # Panics
    ///
    /// Panics if `level`/`dim` are out of range or `max == 0`.
    pub fn cap_temporal(mut self, level: usize, dim: usize, max: u64) -> Self {
        assert!(level < self.num_levels && dim < self.num_dims, "index out of range");
        assert!(max >= 1, "cap must be at least 1");
        self.max_temporal[level][dim] = Some(max);
        self
    }

    /// Restricts spatialization at `level` to the given dims (e.g. an
    /// NVDLA-like array that only parallelizes K and C across PEs).
    ///
    /// # Panics
    ///
    /// Panics if `level` or any dim is out of range.
    pub fn restrict_spatial(mut self, level: usize, dims: Vec<usize>) -> Self {
        assert!(level < self.num_levels, "level out of range");
        assert!(dims.iter().all(|&d| d < self.num_dims), "dim out of range");
        self.spatial_allowed[level] = Some(dims);
        self
    }

    /// Whether `m` already satisfies every constraint.
    pub fn satisfied_by(&self, m: &Mapping) -> bool {
        for l in 0..m.num_levels() {
            if let Some(order) = &self.fixed_order[l] {
                if !m.order(l).iter().map(|&o| o as usize).eq(order.iter().copied()) {
                    return false;
                }
            }
            for dim in 0..self.num_dims {
                if let Some(max) = self.max_temporal[l][dim] {
                    if m.temporal(l)[dim] > max {
                        return false;
                    }
                }
            }
            if let Some(allowed) = &self.spatial_allowed[l] {
                for dim in 0..self.num_dims {
                    if m.spatial(l)[dim] > 1 && !allowed.contains(&dim) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Projects `m` onto the constrained subspace in place:
    ///
    /// * fixed orders overwrite the level's order;
    /// * over-cap temporal factors move their excess prime factors to the
    ///   outermost level;
    /// * disallowed spatial factors are demoted to temporal at the same
    ///   level.
    ///
    /// The per-dimension factor-product invariant is preserved; capacity
    /// may need a follow-up [`Mapping::repair_capacity`].
    pub fn apply(&self, m: &mut Mapping) {
        for l in 0..self.num_levels {
            if let Some(order) = &self.fixed_order[l] {
                m.set_order(l, order);
            }
            if let Some(allowed) = &self.spatial_allowed[l] {
                for dim in 0..self.num_dims {
                    if m.spatial(l)[dim] > 1 && !allowed.contains(&dim) {
                        let s = m.spatial(l)[dim];
                        m.spatial_mut(l)[dim] = 1;
                        m.temporal_mut(l)[dim] *= s;
                    }
                }
            }
            for dim in 0..self.num_dims {
                if let Some(max) = self.max_temporal[l][dim] {
                    while m.temporal(l)[dim] > max {
                        let t = m.temporal(l)[dim];
                        let p = smallest_prime_factor(t).expect("factor > 1");
                        m.temporal_mut(l)[dim] /= p;
                        m.temporal_mut(0)[dim] *= p;
                        if l == 0 {
                            // Cap at the outermost level itself cannot be
                            // satisfied by migration; clamp to the cap by
                            // pushing primes inward to the next level.
                            let t0 = m.temporal(0)[dim];
                            if t0 > max && self.num_levels > 1 {
                                let p = smallest_prime_factor(t0).expect("factor > 1");
                                m.temporal_mut(0)[dim] /= p;
                                m.temporal_mut(1)[dim] *= p;
                            } else {
                                break;
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(
            self.fixed_order.iter().enumerate().all(|(l, o)| match o {
                Some(o) => m.order(l).iter().map(|&d| d as usize).eq(o.iter().copied()),
                None => true,
            }),
            "order projection failed"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::MapSpace;
    use arch::Arch;
    use problem::Problem;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn space() -> MapSpace {
        MapSpace::new(Problem::conv2d("t", 4, 16, 16, 14, 14, 3, 3), Arch::accel_b())
    }

    #[test]
    fn fixed_order_is_applied_and_satisfied() {
        let s = space();
        let c = Constraints::none(7, 3).fix_order(2, vec![6, 5, 4, 3, 2, 1, 0]);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..20 {
            let mut m = s.random(&mut rng);
            c.apply(&mut m);
            assert!(c.satisfied_by(&m));
            assert_eq!(m.order(2), [6, 5, 4, 3, 2, 1, 0]);
            // Other axes untouched by an order-only constraint: still legal.
            assert!(m.is_legal(s.problem(), s.arch()));
        }
    }

    #[test]
    fn temporal_caps_migrate_factors_outward() {
        let s = space();
        // No K tiling inside the local buffer.
        let c = Constraints::none(7, 3).cap_temporal(2, 1, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let mut m = s.random(&mut rng);
            c.apply(&mut m);
            assert!(c.satisfied_by(&m), "cap violated");
            assert_eq!(m.temporal(2)[1], 1);
            // Factor products intact.
            m.validate_structure(s.problem(), s.arch()).unwrap();
        }
    }

    #[test]
    fn spatial_restrictions_demote_disallowed_dims() {
        let s = space();
        // NVDLA-like: only K (1) and C (2) across the PE array.
        let c = Constraints::none(7, 3).restrict_spatial(1, vec![1, 2]);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..50 {
            let mut m = s.random(&mut rng);
            c.apply(&mut m);
            assert!(c.satisfied_by(&m));
            for dim in [0usize, 3, 4, 5, 6] {
                assert_eq!(m.spatial(1)[dim], 1, "dim {dim} still spatial");
            }
            m.validate_structure(s.problem(), s.arch()).unwrap();
        }
    }

    #[test]
    fn combined_constraints_compose() {
        let s = space();
        let c = Constraints::none(7, 3)
            .fix_order(0, (0..7).collect())
            .cap_temporal(2, 2, 2)
            .restrict_spatial(2, vec![1]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut m = s.random(&mut rng);
        c.apply(&mut m);
        assert!(c.satisfied_by(&m));
        let _ = m.repair_capacity(s.problem(), s.arch());
        assert!(m.is_legal(s.problem(), s.arch()));
    }

    #[test]
    fn satisfied_detects_violations() {
        let s = space();
        let c = Constraints::none(7, 3).cap_temporal(0, 0, 1);
        let m = Mapping::trivial(s.problem(), s.arch()); // B=4 at level 0
        assert!(!c.satisfied_by(&m));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_bad_order() {
        let _ = Constraints::none(7, 3).fix_order(0, vec![0, 0, 1, 2, 3, 4, 5]);
    }
}
