//! Genetic search operators over mappings.
//!
//! Gamma's sampling efficiency comes from operators specialized to the
//! three mapping axes (§4.4): [`mutate_tile`], [`mutate_order`],
//! [`mutate_parallelism`], and a mapping-aware [`crossover`]. The
//! non-domain-aware [`reset_dim`] / [`reset_order`] operators are what the
//! "standard GA" baseline of Fig. 6 uses instead.
//!
//! All operators preserve the per-dimension factor-product invariant by
//! construction; [`repair`] restores fanout and capacity legality
//! afterwards.

use mapping::factorization::{prime_factors, random_factorization};
use mapping::permutation::random_permutation;
use mapping::{MapSpace, Mapping, MAX_LEVELS};
use rand::Rng;

/// Moves one random prime factor of one dimension between two storage
/// levels' temporal factors — the paper's *mutate-tile* (the axis found most
/// impactful in Fig. 5). No-op if the picked dimension has bound 1.
pub fn mutate_tile<R: Rng + ?Sized>(m: &mut Mapping, rng: &mut R) {
    let d = m.num_dims();
    let nl = m.num_levels();
    let dim = rng.gen_range(0..d);
    // Source: a level with a non-unit temporal factor for `dim`.
    let is_source = |&l: &usize| m.temporal(l)[dim] > 1;
    let n = (0..nl).filter(is_source).count();
    if n == 0 {
        return;
    }
    let src = (0..nl).filter(is_source).nth(rng.gen_range(0..n)).expect("n sources");
    let primes = prime_factors(m.temporal(src)[dim]);
    let p = primes[rng.gen_range(0..primes.len())];
    let mut dst = rng.gen_range(0..nl);
    if dst == src {
        dst = (dst + 1) % nl;
    }
    m.temporal_mut(src)[dim] /= p;
    m.temporal_mut(dst)[dim] *= p;
}

/// Swaps two positions in one level's loop order — *mutate-order*.
pub fn mutate_order<R: Rng + ?Sized>(m: &mut Mapping, rng: &mut R) {
    let d = m.num_dims();
    if d < 2 {
        return;
    }
    let nl = m.num_levels();
    let level = rng.gen_range(0..nl);
    let i = rng.gen_range(0..d);
    let mut j = rng.gen_range(0..d);
    if i == j {
        j = (j + 1) % d;
    }
    m.order_mut(level).swap(i, j);
}

/// Moves one prime factor between a level's temporal and spatial factors
/// for one dimension — *mutate-parallelism*. Promotion respects the level's
/// fanout.
pub fn mutate_parallelism<R: Rng + ?Sized>(m: &mut Mapping, space: &MapSpace, rng: &mut R) {
    let d = m.num_dims();
    let nl = m.num_levels();
    let is_boundary = |&l: &usize| space.arch().fanout_below(l) > 1;
    let n = (0..nl).filter(is_boundary).count();
    if n == 0 {
        return;
    }
    let level = (0..nl).filter(is_boundary).nth(rng.gen_range(0..n)).expect("n boundaries");
    let dim = rng.gen_range(0..d);
    let promote = rng.gen_bool(0.5);
    if promote {
        let t = m.temporal(level)[dim];
        if t <= 1 {
            return;
        }
        let primes = prime_factors(t);
        let p = primes[rng.gen_range(0..primes.len())];
        if m.spatial_product(level) * p <= space.arch().fanout_below(level) {
            m.temporal_mut(level)[dim] /= p;
            m.spatial_mut(level)[dim] *= p;
        }
    } else {
        let s = m.spatial(level)[dim];
        if s <= 1 {
            return;
        }
        let primes = prime_factors(s);
        let p = primes[rng.gen_range(0..primes.len())];
        m.spatial_mut(level)[dim] /= p;
        m.temporal_mut(level)[dim] *= p;
    }
}

/// Blends two mappings (Gamma's *crossover*, Fig. 6): the child inherits
/// each dimension's whole factor column (temporal + spatial across all
/// levels) from one parent or the other, and each level's loop order from
/// one parent or the other. Column inheritance preserves the factor-product
/// invariant; call [`repair`] afterwards for fanout/capacity.
pub fn crossover<R: Rng + ?Sized>(a: &Mapping, b: &Mapping, rng: &mut R) -> Mapping {
    debug_assert_eq!(a.num_dims(), b.num_dims());
    debug_assert_eq!(a.num_levels(), b.num_levels());
    let mut child = a.clone();
    let d = a.num_dims();
    let nl = a.num_levels();
    for dim in 0..d {
        if rng.gen_bool(0.5) {
            for l in 0..nl {
                child.temporal_mut(l)[dim] = b.temporal(l)[dim];
                child.spatial_mut(l)[dim] = b.spatial(l)[dim];
            }
        }
    }
    for l in 0..nl {
        if rng.gen_bool(0.5) {
            child.order_mut(l).copy_from_slice(b.order(l));
        }
    }
    child
}

/// Non-domain-aware mutation used by the standard GA baseline: resamples
/// one dimension's entire factorization uniformly at random (temporal
/// slots only; spatialization is lost for that dimension).
pub fn reset_dim<R: Rng + ?Sized>(m: &mut Mapping, space: &MapSpace, rng: &mut R) {
    let d = m.num_dims();
    let nl = m.num_levels();
    let dim = rng.gen_range(0..d);
    let mut split = [1u64; MAX_LEVELS];
    random_factorization(rng, space.problem().bound(dim), &mut split[..nl]);
    for (l, &f) in split[..nl].iter().enumerate() {
        m.temporal_mut(l)[dim] = f;
        m.spatial_mut(l)[dim] = 1;
    }
}

/// Non-domain-aware order mutation: replaces one level's order with a fresh
/// uniformly random permutation.
pub fn reset_order<R: Rng + ?Sized>(m: &mut Mapping, rng: &mut R) {
    let nl = m.num_levels();
    let level = rng.gen_range(0..nl);
    random_permutation(rng, m.order_mut(level));
}

/// Restores fanout and buffer-capacity legality after operators, by
/// demoting oversized spatial factors and migrating overflowing tile
/// factors outward. Returns `false` only for unmappable problems.
#[must_use]
pub fn repair(m: &mut Mapping, space: &MapSpace) -> bool {
    let fanout_ok = m.repair_fanout(space.arch());
    assert!(fanout_ok, "over fanout implies factor > 1");
    m.repair_capacity(space.problem(), space.arch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Arch;
    use problem::Problem;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn space() -> MapSpace {
        MapSpace::new(Problem::conv2d("t", 4, 16, 16, 14, 14, 3, 3), Arch::accel_b())
    }

    #[test]
    fn mutations_preserve_legality_after_repair() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut m = s.random(&mut rng);
        for i in 0..500 {
            match i % 3 {
                0 => mutate_tile(&mut m, &mut rng),
                1 => mutate_order(&mut m, &mut rng),
                _ => mutate_parallelism(&mut m, &s, &mut rng),
            }
            assert!(repair(&mut m, &s));
            m.validate(s.problem(), s.arch()).unwrap_or_else(|e| panic!("step {i}: {e}"));
        }
    }

    #[test]
    fn mutate_tile_changes_tiling_eventually() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(1);
        let m0 = s.random(&mut rng);
        let mut m = m0.clone();
        let mut changed = false;
        for _ in 0..20 {
            mutate_tile(&mut m, &mut rng);
            if m != m0 {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn crossover_produces_legal_children_after_repair() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            let a = s.random(&mut rng);
            let b = s.random(&mut rng);
            let mut c = crossover(&a, &b, &mut rng);
            assert!(repair(&mut c, &s));
            c.validate(s.problem(), s.arch()).unwrap();
        }
    }

    #[test]
    fn crossover_inherits_columns_from_parents() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(3);
        let a = s.random(&mut rng);
        let b = s.random(&mut rng);
        let c = crossover(&a, &b, &mut rng);
        for dim in 0..7 {
            let col = |m: &Mapping| -> Vec<(u64, u64)> {
                (0..m.num_levels()).map(|l| (m.temporal(l)[dim], m.spatial(l)[dim])).collect()
            };
            let cc = col(&c);
            assert!(cc == col(&a) || cc == col(&b), "dim {dim} column not from a parent");
        }
    }

    #[test]
    fn reset_operators_keep_factor_products() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut m = s.random(&mut rng);
        for _ in 0..100 {
            reset_dim(&mut m, &s, &mut rng);
            reset_order(&mut m, &mut rng);
            assert!(repair(&mut m, &s));
            m.validate(s.problem(), s.arch()).unwrap();
        }
    }

    #[test]
    fn mutate_order_is_still_permutation() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut m = s.random(&mut rng);
        for _ in 0..50 {
            mutate_order(&mut m, &mut rng);
        }
        m.validate(s.problem(), s.arch()).unwrap();
    }
}
