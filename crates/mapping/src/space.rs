//! The [`MapSpace`]: everything knowable about the set of legal mappings of
//! one problem on one architecture — sampling, size estimation (§4.2), and
//! reference mappings.

use crate::factorization::{count_ordered_factorizations, prime_factors, random_factorization};
use crate::map::Mapping;
use crate::permutation::{factorial, random_permutation};
use arch::{Arch, MAX_LEVELS};
use problem::Problem;
use rand::Rng;

/// The map space of a (problem, architecture) pair.
#[derive(Debug, Clone)]
pub struct MapSpace {
    problem: Problem,
    arch: Arch,
}

impl MapSpace {
    /// Binds a problem to an architecture.
    pub fn new(problem: Problem, arch: Arch) -> Self {
        MapSpace { problem, arch }
    }

    /// The workload.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The accelerator.
    pub fn arch(&self) -> &Arch {
        &self.arch
    }

    /// Samples a uniformly random *legal* mapping: random per-dimension
    /// factorizations over levels, random spatialization within fanouts,
    /// random loop orders, then capacity repair.
    ///
    /// # Panics
    ///
    /// Panics if the problem is fundamentally unmappable (a buffer cannot
    /// hold even unit tiles), which cannot happen for the paper's presets.
    /// User-supplied architectures should be screened with
    /// [`MapSpace::is_mappable`] (or sampled with [`MapSpace::try_random`])
    /// first.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Mapping {
        self.try_random(rng).unwrap_or_else(|| {
            panic!("problem {} unmappable on {}", self.problem.name(), self.arch.name())
        })
    }

    /// Whether the pair admits *any* legal mapping: the trivial mapping's
    /// unit inner tiles are the smallest possible footprint, so if they do
    /// not fit, nothing does. Spec-loaded (user-supplied) architectures go
    /// through this check before any sampling path that would panic.
    pub fn is_mappable(&self) -> bool {
        Mapping::trivial(&self.problem, &self.arch).is_legal(&self.problem, &self.arch)
    }

    /// Fallible [`MapSpace::random`]: returns `None` instead of panicking
    /// when even unit tiles overflow some buffer (possible only with
    /// user-supplied architectures; see [`MapSpace::is_mappable`]).
    pub fn try_random<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Mapping> {
        let d = self.problem.num_dims();
        let nl = self.arch.num_levels();
        let mut m = Mapping::unit(nl, d);

        let mut split = [1u64; MAX_LEVELS];
        for dim in 0..d {
            random_factorization(rng, self.problem.bound(dim), &mut split[..nl]);
            for (li, &f) in split[..nl].iter().enumerate() {
                m.temporal_mut(li)[dim] = f;
            }
        }
        // Spatialize: at each boundary, greedily promote random prime
        // factors from this level's temporal loops into spatial loops.
        for li in 0..nl {
            let fanout = self.arch.fanout_below(li);
            if fanout <= 1 {
                continue;
            }
            let attempts = 2 * d;
            for _ in 0..attempts {
                let dim = rng.gen_range(0..d);
                let t = m.temporal(li)[dim];
                if t <= 1 {
                    continue;
                }
                let primes = prime_factors(t);
                let p = primes[rng.gen_range(0..primes.len())];
                if m.spatial_product(li) * p <= fanout && rng.gen_bool(0.7) {
                    m.temporal_mut(li)[dim] /= p;
                    m.spatial_mut(li)[dim] *= p;
                }
            }
            random_permutation(rng, m.order_mut(li));
        }

        if !m.repair_capacity(&self.problem, &self.arch) {
            return None;
        }
        debug_assert!(m.is_legal(&self.problem, &self.arch), "{:?}", m.validate(&self.problem, &self.arch));
        Some(m)
    }

    /// Samples a random legal mapping already projected onto a constraint
    /// set (see [`crate::Constraints`]): sample, apply, capacity-repair.
    ///
    /// # Panics
    ///
    /// Panics if the problem is unmappable (as [`MapSpace::random`]).
    pub fn random_constrained<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        constraints: &crate::Constraints,
    ) -> Mapping {
        let mut m = self.random(rng);
        constraints.apply(&mut m);
        assert!(
            m.repair_capacity(&self.problem, &self.arch),
            "problem {} unmappable under constraints",
            self.problem.name()
        );
        debug_assert!(m.is_legal(&self.problem, &self.arch));
        m
    }

    /// log10 of the map-space size, decomposed per the paper's §4.2:
    /// ordered tile factorizations per dimension across levels, `(D!)^L`
    /// loop orders, and `2^(D × #spatial boundaries)` parallelization
    /// choices. For the paper's CONV2D workloads on a 3-level hierarchy
    /// this lands around `10^20`–`10^24`.
    pub fn size_log10(&self) -> f64 {
        let d = self.problem.num_dims();
        let nl = self.arch.num_levels() as u32;
        let mut log = 0.0f64;
        for dim in 0..d {
            log += count_ordered_factorizations(self.problem.bound(dim), nl).log10();
        }
        log += (nl as f64) * (factorial(d) as f64).log10();
        let boundaries = (0..self.arch.num_levels())
            .filter(|&i| self.arch.fanout_below(i) > 1)
            .count();
        log += (d * boundaries) as f64 * 2f64.log10();
        log
    }

    /// An NVDLA-like reference mapping (Fig. 1): weights stationary in the
    /// local buffers, `K` and `C` parallelized across the PE array, spatial
    /// output tiling at the global buffer. Falls back toward
    /// [`Mapping::trivial`] structure for problems without those dims.
    pub fn nvdla_like(&self) -> Mapping {
        let p = &self.problem;
        let mut m = Mapping::trivial(p, &self.arch);
        // Parallelize K (then C) across the PE boundary as far as fanout and
        // the dimensions allow.
        let pe_level = 1.min(self.arch.num_levels() - 1);
        let fanout = self.arch.fanout_below(pe_level);
        let mut budget = fanout;
        for name in [problem::DimName::K, problem::DimName::C] {
            if let Some(dim) = p.dim_index(name) {
                let avail = p.bound(dim) / m.spatial(pe_level)[dim].max(1);
                let mut take = 1u64;
                for &prime in prime_factors(avail).iter() {
                    if take * prime <= budget {
                        take *= prime;
                    }
                }
                if take > 1 {
                    m.temporal_mut(0)[dim] /= take;
                    m.spatial_mut(pe_level)[dim] = take;
                    budget /= take;
                }
            }
        }
        let ok = m.repair_capacity(p, &self.arch);
        assert!(ok, "nvdla-like mapping unmappable");
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn space() -> MapSpace {
        MapSpace::new(Problem::conv2d("t", 4, 16, 16, 14, 14, 3, 3), Arch::accel_b())
    }

    #[test]
    fn random_mappings_are_legal() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let m = s.random(&mut rng);
            m.validate(s.problem(), s.arch()).unwrap();
        }
    }

    #[test]
    fn random_mappings_are_diverse() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            seen.insert(format!("{:?}", s.random(&mut rng)));
        }
        assert!(seen.len() > 40, "only {} distinct mappings", seen.len());
    }

    #[test]
    fn random_sometimes_uses_parallelism() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(3);
        let any_parallel = (0..50).any(|_| s.random(&mut rng).used_lanes() > 1);
        assert!(any_parallel);
    }

    #[test]
    fn try_random_returns_none_when_unmappable() {
        // 1-word inner buffer cannot hold even one word per tensor.
        let arch = Arch::new(
            "tiny",
            vec![
                arch::MemLevel::new("DRAM", None, 1, 200.0, 16.0),
                arch::MemLevel::new("Buf", Some(1), 1, 1.0, 1.0),
            ],
            1.0,
            2,
        )
        .unwrap();
        let s = MapSpace::new(Problem::gemm("g", 1, 8, 8, 8), arch);
        assert!(!s.is_mappable());
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(s.try_random(&mut rng).is_none());
    }

    #[test]
    fn is_mappable_on_presets() {
        assert!(space().is_mappable());
    }

    #[test]
    fn constrained_sampling_respects_constraints() {
        let s = space();
        let c = crate::Constraints::none(7, 3)
            .fix_order(2, (0..7).rev().collect())
            .restrict_spatial(1, vec![1, 2]);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let m = s.random_constrained(&mut rng, &c);
            assert!(c.satisfied_by(&m));
            m.validate(s.problem(), s.arch()).unwrap();
        }
    }

    #[test]
    fn paper_scale_map_space_size() {
        // Paper §4.2: O(10^21)-class for Table 1 CONV workloads on a
        // 3-level hierarchy.
        let s = MapSpace::new(
            problem::zoo::resnet_conv4(),
            Arch::accel_b(),
        );
        let log = s.size_log10();
        assert!(log > 18.0 && log < 28.0, "log10 size = {log}");
    }

    #[test]
    fn nvdla_like_is_legal_and_parallel() {
        let s = space();
        let m = s.nvdla_like();
        m.validate(s.problem(), s.arch()).unwrap();
        assert!(m.used_lanes() > 1);
    }

    #[test]
    fn nvdla_like_for_gemm_is_legal() {
        let s = MapSpace::new(Problem::gemm("g", 4, 64, 32, 64), Arch::accel_a());
        let m = s.nvdla_like();
        m.validate(s.problem(), s.arch()).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_legal_for_arbitrary_small_problems(
            b in 1u64..5, k in 1u64..65, c in 1u64..65, y in 1u64..29, r in 1u64..4, seed in any::<u64>()
        ) {
            let p = Problem::conv2d("p", b, k, c, y, y, r, r);
            for arch in [Arch::accel_a(), Arch::accel_b()] {
                let s = MapSpace::new(p.clone(), arch);
                let mut rng = SmallRng::seed_from_u64(seed);
                let m = s.random(&mut rng);
                prop_assert!(m.is_legal(s.problem(), s.arch()));
            }
        }
    }
}
