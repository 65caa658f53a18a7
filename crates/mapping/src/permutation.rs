//! Permutation utilities for loop orders.

use rand::Rng;

/// `n!` as `u64`. Accurate for `n <= 20`.
pub fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

/// Writes a uniformly random permutation of `0..out.len()` to `out`
/// (Fisher-Yates over the identity).
pub fn random_permutation<R: Rng + ?Sized>(rng: &mut R, out: &mut [u8]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = i as u8;
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
}

/// The `index`-th permutation of `0..n` in lexicographic order (Lehmer
/// decoding). Used by the exhaustive order sweep of Fig. 7.
///
/// # Panics
///
/// Panics if `index >= n!`.
pub fn nth_permutation(n: usize, mut index: u64) -> Vec<usize> {
    assert!(index < factorial(n), "index {index} out of range for {n}!");
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    for i in (0..n).rev() {
        let f = factorial(i);
        let j = (index / f) as usize;
        index %= f;
        out.push(pool.remove(j));
    }
    out
}

/// Lexicographic rank of a permutation of `0..n` (Lehmer encoding); the
/// inverse of [`nth_permutation`].
pub fn permutation_rank(perm: &[usize]) -> u64 {
    let n = perm.len();
    let mut rank = 0u64;
    for i in 0..n {
        let smaller = perm[i + 1..].iter().filter(|&&x| x < perm[i]).count() as u64;
        rank += smaller * factorial(n - 1 - i);
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn factorial_values() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(7), 5040);
    }

    #[test]
    fn nth_permutation_endpoints() {
        assert_eq!(nth_permutation(3, 0), vec![0, 1, 2]);
        assert_eq!(nth_permutation(3, 5), vec![2, 1, 0]);
    }

    #[test]
    fn all_permutations_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..factorial(5) {
            assert!(seen.insert(nth_permutation(5, i)));
        }
        assert_eq!(seen.len(), 120);
    }

    #[test]
    fn random_permutation_is_permutation() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut p = [0u8; 9];
        random_permutation(&mut rng, &mut p);
        p.sort_unstable();
        assert_eq!(p, [0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    proptest! {
        #[test]
        fn rank_unrank_round_trip(n in 1usize..8, idx in any::<u64>()) {
            let idx = idx % factorial(n);
            let p = nth_permutation(n, idx);
            prop_assert_eq!(permutation_rank(&p), idx);
        }
    }
}
