//! Integer factorization utilities underlying tile-size choices.
//!
//! Every legal tiling of a dimension with bound `n` across `k` slots (one
//! per storage level / spatial boundary) is an ordered factorization of `n`
//! into `k` factors. These helpers enumerate, count, and sample such
//! factorizations and provide the prime machinery used by the tile-mutation
//! operators and the map-space size computation (§4.2).

use arch::MAX_LEVELS;
use rand::Rng;

/// Prime factorization of `n` as `(prime, exponent)` pairs, ascending.
///
/// `factorize(1)` is empty. `n` must be ≥ 1.
pub fn factorize(mut n: u64) -> Vec<(u64, u32)> {
    assert!(n >= 1, "factorize(0) is undefined");
    let mut out = Vec::new();
    let mut p = 2u64;
    while p * p <= n {
        if n.is_multiple_of(p) {
            let mut e = 0;
            while n.is_multiple_of(p) {
                n /= p;
                e += 1;
            }
            out.push((p, e));
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push((n, 1));
    }
    out
}

/// Most prime factors (with multiplicity) a `u64` can have.
const MAX_PRIME_FACTORS: usize = u64::BITS as usize;

/// The prime factors of a number with multiplicity, ascending, stored
/// inline ([`prime_factors`]); dereferences to a slice.
#[derive(Clone, Copy)]
pub struct PrimeFactors {
    len: u8,
    primes: [u64; MAX_PRIME_FACTORS],
}

impl std::ops::Deref for PrimeFactors {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.primes[..self.len as usize]
    }
}

impl std::ops::DerefMut for PrimeFactors {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.primes[..self.len as usize]
    }
}

/// Flat list of prime factors of `n` with multiplicity (e.g. `12 → [2,2,3]`),
/// by the same trial division as [`factorize`], without touching the heap.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn prime_factors(mut n: u64) -> PrimeFactors {
    assert!(n >= 1, "prime_factors(0) is undefined");
    let mut out = PrimeFactors { len: 0, primes: [0; MAX_PRIME_FACTORS] };
    let mut push = |p: u64| {
        out.primes[out.len as usize] = p;
        out.len += 1;
    };
    let mut p = 2u64;
    while p * p <= n {
        while n.is_multiple_of(p) {
            n /= p;
            push(p);
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        push(n);
    }
    out
}

/// The smallest prime factor of `n` (`None` for 1): the first entry of
/// [`prime_factors`], found by the same trial division but stopping at the
/// first divisor.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn smallest_prime_factor(n: u64) -> Option<u64> {
    assert!(n >= 1, "smallest_prime_factor(0) is undefined");
    if n == 1 {
        return None;
    }
    let mut p = 2u64;
    while p <= n / p {
        if n.is_multiple_of(p) {
            return Some(p);
        }
        p += if p == 2 { 1 } else { 2 };
    }
    Some(n)
}

/// All divisors of `n`, ascending.
pub fn divisors(n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut i = 1u64;
    while i * i <= n {
        if n.is_multiple_of(i) {
            out.push(i);
            if i != n / i {
                out.push(n / i);
            }
        }
        i += 1;
    }
    out.sort_unstable();
    out
}

/// Number of ordered factorizations of `n` into exactly `k` factors
/// (factors of 1 allowed): `Π_p C(e_p + k - 1, k - 1)`.
pub fn count_ordered_factorizations(n: u64, k: u32) -> f64 {
    if k == 0 {
        return if n == 1 { 1.0 } else { 0.0 };
    }
    factorize(n)
        .into_iter()
        .map(|(_, e)| binomial(e + k - 1, k - 1))
        .product()
}

/// Binomial coefficient `C(n, k)` as `f64` (exact for the small inputs used
/// here).
pub fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc.round()
}

/// Uniformly samples an ordered factorization of `n` into
/// `slots.len()` factors, written to `slots`, by distributing each prime's
/// exponent over the slots uniformly at random (a uniform "stars and bars"
/// draw per prime).
///
/// # Panics
///
/// Panics if `slots` is empty.
pub fn random_factorization<R: Rng + ?Sized>(rng: &mut R, n: u64, slots: &mut [u64]) {
    let k = slots.len();
    assert!(k >= 1);
    slots.fill(1);
    for &p in prime_factors(n).iter() {
        slots[rng.gen_range(0..k)] *= p;
    }
}

/// Enumerates all ordered factorizations of `n` into `k` factors. Intended
/// for small `n`/`k` (tests and exhaustive sweeps); the count grows fast.
pub fn ordered_factorizations(n: u64, k: usize) -> Vec<Vec<u64>> {
    fn rec(n: u64, k: usize, acc: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
        if k == 1 {
            acc.push(n);
            out.push(acc.clone());
            acc.pop();
            return;
        }
        for d in divisors(n) {
            acc.push(d);
            rec(n / d, k - 1, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    rec(n, k, &mut Vec::new(), &mut out);
    out
}

/// Greedily builds an ordered factorization of `n` into `slots.len()`
/// factors, written to `slots`, whose log-sizes approximate `target_logs`
/// (one per slot, arbitrary nonnegative reals): each prime factor (largest
/// first) is assigned to the slot with the largest remaining log-deficit
/// `max(target, 0) - ln(slot)`; among equal deficits the *last* such slot
/// wins. Used to project continuous tile-size proposals (gradient search,
/// warm-start scaling) onto legal tilings.
///
/// Each slot's deficit is kept between primes and recomputed only for the
/// slot that just grew: the same `ln` of the same value, so the result is
/// bit-identical to recomputing every slot for every prime.
///
/// # Panics
///
/// Panics if `slots` is empty, its length differs from `target_logs`', or
/// it has more than `2 * MAX_LEVELS` slots (a temporal and a spatial one
/// per storage level).
pub fn factorization_from_target_logs(n: u64, target_logs: &[f64], slots: &mut [u64]) {
    let k = target_logs.len();
    assert!(k >= 1 && slots.len() == k && k <= 2 * MAX_LEVELS);
    slots.fill(1);
    let deficit_of = |i: usize, slot: u64| target_logs[i].max(0.0) - (slot as f64).ln();
    // An empty slot's deficit is its clamped target: `ln 1` is exactly 0,
    // and subtracting 0 leaves every non-NaN value's bits as they are.
    let mut deficits = [0f64; 2 * MAX_LEVELS];
    for (d, t) in deficits[..k].iter_mut().zip(target_logs) {
        *d = t.max(0.0);
    }
    let mut primes = prime_factors(n);
    primes.sort_unstable_by(|a, b| b.cmp(a));
    for &p in primes.iter() {
        // Slot with the largest deficit; ties → last (every recorded CEM
        // and DOSA trajectory depends on this rule).
        let mut best = 0;
        for i in 1..k {
            if deficits[i] >= deficits[best] {
                best = i;
            }
        }
        slots[best] *= p;
        deficits[best] = deficit_of(best, slots[best]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn factorize_known_values() {
        assert_eq!(factorize(1), vec![]);
        assert_eq!(factorize(12), vec![(2, 2), (3, 1)]);
        assert_eq!(factorize(97), vec![(97, 1)]);
        assert_eq!(factorize(1024), vec![(2, 10)]);
        assert_eq!(&*prime_factors(12), &[2, 2, 3]);
        assert_eq!(prime_factors(1 << 63).len(), 63);
        assert!(prime_factors(1).is_empty());
    }

    #[test]
    fn smallest_prime_factor_is_the_first_prime_factor() {
        for n in 1..=100_000u64 {
            assert_eq!(smallest_prime_factor(n), prime_factors(n).first().copied(), "n = {n}");
        }
        // Seeded products of small primes, up to ~2^60.
        let mut rng = SmallRng::seed_from_u64(29);
        for _ in 0..10_000 {
            let mut n = 1u64;
            for _ in 0..rng.gen_range(1..20) {
                let p = [2u64, 3, 5, 7, 11, 13, 17, 19, 23][rng.gen_range(0..9usize)];
                if n > (1 << 60) / p {
                    break;
                }
                n *= p;
            }
            assert_eq!(smallest_prime_factor(n), prime_factors(n).first().copied(), "n = {n}");
        }
        assert_eq!(smallest_prime_factor(u64::MAX), Some(3));
        assert_eq!(smallest_prime_factor(1_000_000_007), Some(1_000_000_007));
    }

    #[test]
    fn divisors_known_values() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(28), vec![1, 2, 4, 7, 14, 28]);
    }

    #[test]
    fn count_matches_enumeration() {
        for n in [1u64, 2, 12, 16, 28, 30] {
            for k in 1..=3usize {
                let c = count_ordered_factorizations(n, k as u32);
                let e = ordered_factorizations(n, k).len() as f64;
                assert_eq!(c, e, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn binomial_known() {
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(3, 0), 1.0);
        assert_eq!(binomial(2, 3), 0.0);
    }

    #[test]
    fn target_logs_projection_is_exact_factorization() {
        let mut f = [0u64; 3];
        factorization_from_target_logs(256, &[4.0f64.ln(), 8.0f64.ln(), 8.0f64.ln()], &mut f);
        assert_eq!(f.iter().product::<u64>(), 256);
        // Achievable targets are hit exactly.
        assert_eq!(f.iter().copied().max(), Some(8));
    }

    /// The per-prime formula the cached deficits replaced: every slot's
    /// `ln` recomputed for every prime, `Iterator::max_by` picking the slot.
    fn target_logs_oracle(n: u64, target_logs: &[f64], slots: &mut [u64]) {
        slots.fill(1);
        let mut primes = prime_factors(n);
        primes.sort_unstable_by(|a, b| b.cmp(a));
        for &p in primes.iter() {
            let (best, _) = (0..slots.len())
                .map(|i| (i, target_logs[i].max(0.0) - (slots[i] as f64).ln()))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN targets"))
                .expect("k >= 1");
            slots[best] *= p;
        }
    }

    #[test]
    fn target_logs_ties_go_to_the_last_slot() {
        let mut f = [0u64; 3];
        factorization_from_target_logs(2, &[1.0, 1.0, 0.5], &mut f);
        assert_eq!(f, [1, 2, 1]);
        // 3 → slot 2 (every deficit 0), then 2 → slot 1 (deficits 0, 0, -ln 3).
        factorization_from_target_logs(6, &[0.0; 3], &mut f);
        assert_eq!(f, [1, 2, 3]);
    }

    proptest! {
        #[test]
        fn cached_deficits_match_the_per_prime_formula(
            n in 1u64..2_000_000,
            k in 1usize..2 * MAX_LEVELS + 1,
            seed in any::<u64>(),
        ) {
            // Targets mix exact ties (0, ln 2, negatives clamp to 0) with
            // arbitrary reals.
            let mut rng = SmallRng::seed_from_u64(seed);
            let targets: Vec<f64> = (0..k)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => 2f64.ln(),
                    2 => -1.0,
                    _ => rng.gen_range(-3.0..16.0),
                })
                .collect();
            let (mut got, mut want) = (vec![0u64; k], vec![0u64; k]);
            factorization_from_target_logs(n, &targets, &mut got);
            target_logs_oracle(n, &targets, &mut want);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn random_factorization_products(n in 1u64..5000, k in 1usize..5, seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut f = vec![0u64; k];
            random_factorization(&mut rng, n, &mut f);
            prop_assert_eq!(f.iter().product::<u64>(), n);
        }

        #[test]
        fn prime_factors_multiply_back(n in 1u64..100_000) {
            prop_assert_eq!(prime_factors(n).iter().product::<u64>(), n);
        }

        #[test]
        fn prime_factors_flatten_factorize(n in 1u64..100_000) {
            let flat: Vec<u64> = factorize(n)
                .into_iter()
                .flat_map(|(p, e)| std::iter::repeat_n(p, e as usize))
                .collect();
            prop_assert_eq!(&*prime_factors(n), &flat[..]);
        }

        #[test]
        fn target_projection_products(n in 1u64..5000, k in 1usize..5) {
            let targets = vec![1.0; k];
            let mut f = vec![0u64; k];
            factorization_from_target_logs(n, &targets, &mut f);
            prop_assert_eq!(f.iter().product::<u64>(), n);
        }

        #[test]
        fn divisors_divide(n in 1u64..10_000) {
            for d in divisors(n) {
                prop_assert_eq!(n % d, 0);
            }
        }
    }
}
