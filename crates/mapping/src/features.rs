//! Continuous feature vectors for mappings.
//!
//! Used in two places in the paper's methodology:
//!
//! * **Fig. 4** — PCA projection of sampled mappings to visualize how each
//!   mapper navigates the space;
//! * **Mind Mappings** — the gradient-based mapper optimizes a continuous
//!   relaxation of the mapping through a differentiable surrogate, then
//!   projects back to the nearest legal mapping.
//!
//! Layout: for each storage level, for each dimension, three features:
//! `log2(temporal factor)`, `log2(spatial factor)`, and the dimension's
//! normalized position in that level's loop order (0 = outermost).

use crate::factorization::factorization_from_target_logs;
use crate::map::Mapping;
use arch::{Arch, MAX_LEVELS};
use problem::{Problem, MAX_DIMS};

/// Number of features for a problem with `num_dims` dims on `num_levels`
/// storage levels.
pub fn feature_len(num_dims: usize, num_levels: usize) -> usize {
    num_dims * num_levels * 3
}

/// Extracts the feature vector of a mapping. Inverse (up to projection):
/// [`mapping_from_features`].
pub fn features(mapping: &Mapping) -> Vec<f64> {
    let mut out = Vec::with_capacity(feature_len(mapping.num_dims(), mapping.num_levels()));
    features_into(mapping, &mut out);
    out
}

/// Appends the feature vector of a mapping to `out` (same layout as
/// [`features`]), so a caller-owned buffer can be reused across mappings.
pub fn features_into(mapping: &Mapping, out: &mut Vec<f64>) {
    let d = mapping.num_dims();
    let denom = (d.max(2) - 1) as f64;
    for l in 0..mapping.num_levels() {
        let mut pos = [0usize; MAX_DIMS];
        for (i, &dim) in mapping.order(l).iter().enumerate() {
            pos[dim as usize] = i;
        }
        let (temporal, spatial) = (mapping.temporal(l), mapping.spatial(l));
        for (dim, &p) in pos.iter().enumerate().take(d) {
            out.push(log2_factor(temporal[dim]));
            out.push(log2_factor(spatial[dim]));
            out.push(p as f64 / denom);
        }
    }
}

/// `(f as f64).log2()`, read off the bit position for a power of two (the
/// common tile factor); `log2` is exact there, so the bits are the same.
fn log2_factor(f: u64) -> f64 {
    if f.is_power_of_two() {
        f64::from(f.trailing_zeros())
    } else {
        (f as f64).log2()
    }
}

/// Projects a continuous feature vector to the nearest legal mapping:
///
/// 1. per dimension, the per-level `(temporal, spatial)` log2 targets are
///    realized by a greedy prime-assignment factorization of the bound;
/// 2. spatial factors exceeding a level's fanout are demoted to temporal;
/// 3. each level's order is the argsort of the position features;
/// 4. buffer-capacity violations are repaired by migrating factors outward.
///
/// Returns `None` if the problem cannot fit even unit tiles (never the case
/// for the paper's presets).
///
/// # Panics
///
/// Panics if `feats.len() != feature_len(problem.num_dims(), arch.num_levels())`.
pub fn mapping_from_features(problem: &Problem, arch: &Arch, feats: &[f64]) -> Option<Mapping> {
    let d = problem.num_dims();
    let nl = arch.num_levels();
    assert_eq!(feats.len(), feature_len(d, nl), "feature vector length mismatch");
    let at = |li: usize, dim: usize, k: usize| feats[(li * d + dim) * 3 + k];

    let mut m = Mapping::unit(nl, d);
    let ln2 = 2f64.ln();
    let (mut targets, mut split) = ([0f64; 2 * MAX_LEVELS], [1u64; 2 * MAX_LEVELS]);
    for dim in 0..d {
        for li in 0..nl {
            targets[2 * li] = at(li, dim, 0).max(0.0) * ln2;
            targets[2 * li + 1] = at(li, dim, 1).max(0.0) * ln2;
        }
        factorization_from_target_logs(problem.bound(dim), &targets[..2 * nl], &mut split[..2 * nl]);
        for li in 0..nl {
            m.temporal_mut(li)[dim] = split[2 * li];
            m.spatial_mut(li)[dim] = split[2 * li + 1];
        }
    }
    let fanout_ok = m.repair_fanout(arch);
    debug_assert!(fanout_ok, "over fanout implies a factor > 1");
    for li in 0..nl {
        let mut idx: [u8; MAX_DIMS] = std::array::from_fn(|i| i as u8);
        let idx = &mut idx[..d];
        idx.sort_by(|&a, &b| {
            at(li, a as usize, 2)
                .partial_cmp(&at(li, b as usize, 2))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        m.order_mut(li).copy_from_slice(idx);
    }
    if !m.repair_capacity(problem, arch) {
        return None;
    }
    debug_assert!(m.is_legal(problem, arch));
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::MapSpace;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn space() -> MapSpace {
        MapSpace::new(Problem::conv2d("t", 4, 16, 16, 14, 14, 3, 3), Arch::accel_b())
    }

    #[test]
    fn feature_length_matches() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(0);
        let m = s.random(&mut rng);
        assert_eq!(features(&m).len(), feature_len(7, 3));
    }

    #[test]
    fn features_round_trip_exactly_when_legal() {
        // A mapping whose own features decode back to itself (no repair
        // needed): extraction and projection are mutually consistent.
        let s = space();
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..50 {
            let m = s.random(&mut rng);
            let f = features(&m);
            let back = mapping_from_features(s.problem(), s.arch(), &f).unwrap();
            // Tile factors must round-trip exactly; order too.
            assert_eq!(m, back);
        }
    }

    #[test]
    fn log2_fast_path_is_bit_exact_at_every_power_of_two() {
        for k in 0..64 {
            let f = 1u64 << k;
            assert_eq!(log2_factor(f).to_bits(), (f as f64).log2().to_bits(), "2^{k}");
        }
        for f in [3u64, 6, 7, 12, 1000, u64::MAX] {
            assert_eq!(log2_factor(f).to_bits(), (f as f64).log2().to_bits(), "{f}");
        }
    }

    #[test]
    fn projection_of_noise_is_legal() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(3);
        use rand::Rng;
        for _ in 0..50 {
            let f: Vec<f64> = (0..feature_len(7, 3)).map(|_| rng.gen_range(-2.0..6.0)).collect();
            let m = mapping_from_features(s.problem(), s.arch(), &f).unwrap();
            m.validate(s.problem(), s.arch()).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn projection_always_legal(seed in any::<u64>()) {
            let s = space();
            let mut rng = SmallRng::seed_from_u64(seed);
            use rand::Rng;
            let f: Vec<f64> = (0..feature_len(7, 3)).map(|_| rng.gen_range(-4.0..8.0)).collect();
            let m = mapping_from_features(s.problem(), s.arch(), &f).unwrap();
            prop_assert!(m.is_legal(s.problem(), s.arch()));
        }
    }
}
