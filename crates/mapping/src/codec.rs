//! Compact text codec for mappings (persisting replay buffers / sharing
//! found mappings without a serialization-format dependency).
//!
//! Format (one string, levels outermost-first, `|`-separated):
//! `o:1,0,2;t:4,1,8;s:1,2,1|o:...` — order, temporal factors, spatial
//! factors per level.

use crate::map::Mapping;
use std::fmt;

/// Error parsing a mapping spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMappingError(String);

impl fmt::Display for ParseMappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid mapping spec: {}", self.0)
    }
}

impl std::error::Error for ParseMappingError {}

/// Serializes a mapping to its spec string.
pub fn to_spec(m: &Mapping) -> String {
    fn join<T: ToString>(v: &[T]) -> String {
        v.iter().map(T::to_string).collect::<Vec<_>>().join(",")
    }
    (0..m.num_levels())
        .map(|l| format!("o:{};t:{};s:{}", join(m.order(l)), join(m.temporal(l)), join(m.spatial(l))))
        .collect::<Vec<_>>()
        .join("|")
}

/// Parses a spec string back into a [`Mapping`]. Structural validation
/// against a problem/architecture is the caller's job
/// ([`Mapping::validate`]).
///
/// # Errors
///
/// Returns an error on malformed syntax, inconsistent vector lengths, an
/// order entry naming no dimension, or a shape no [`Mapping`] can hold
/// (more than [`arch::MAX_LEVELS`] levels or [`problem::MAX_DIMS`]
/// dimensions).
pub fn from_spec(spec: &str) -> Result<Mapping, ParseMappingError> {
    let err = |m: &str| ParseMappingError(format!("{m} in `{spec}`"));
    let mut levels = Vec::new();
    for level_str in spec.split('|') {
        let mut order = None;
        let mut temporal = None;
        let mut spatial = None;
        for field in level_str.split(';') {
            let (key, val) = field.split_once(':').ok_or_else(|| err("bad field"))?;
            match key {
                "o" => {
                    order = Some(
                        val.split(',')
                            .map(|x| x.trim().parse::<usize>())
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(|_| err("bad order"))?,
                    )
                }
                "t" | "s" => {
                    let v = val
                        .split(',')
                        .map(|x| x.trim().parse::<u64>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|_| err("bad factors"))?;
                    if v.contains(&0) {
                        return Err(err("zero factor"));
                    }
                    if key == "t" {
                        temporal = Some(v);
                    } else {
                        spatial = Some(v);
                    }
                }
                _ => return Err(err("unknown field")),
            }
        }
        let order = order.ok_or_else(|| err("missing order"))?;
        let temporal = temporal.ok_or_else(|| err("missing temporal"))?;
        let spatial = spatial.ok_or_else(|| err("missing spatial"))?;
        if order.len() != temporal.len() || temporal.len() != spatial.len() {
            return Err(err("inconsistent lengths"));
        }
        levels.push((order, temporal, spatial));
    }
    Mapping::from_levels(&levels).map_err(|e| err(&e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::MapSpace;
    use arch::Arch;
    use problem::Problem;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn round_trips_random_mappings() {
        let s = MapSpace::new(Problem::conv2d("t", 4, 16, 16, 14, 14, 3, 3), Arch::accel_b());
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..50 {
            let m = s.random(&mut rng);
            let spec = to_spec(&m);
            let back = from_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(m, back);
        }
    }

    #[test]
    fn spec_shape_is_stable() {
        let p = Problem::gemm("g", 2, 4, 4, 4);
        let m = Mapping::trivial(&p, &Arch::accel_b());
        assert_eq!(
            to_spec(&m),
            "o:0,1,2,3;t:2,4,4,4;s:1,1,1,1|o:0,1,2,3;t:1,1,1,1;s:1,1,1,1|o:0,1,2,3;t:1,1,1,1;s:1,1,1,1"
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "o:0;t:1",              // missing spatial
            "o:0;t:1;s:1,1",        // inconsistent lengths
            "o:0;t:0;s:1",          // zero factor
            "o:x;t:1;s:1",          // bad order
            "q:0;t:1;s:1",          // unknown field
            "o:1;t:1;s:1",          // order entry names no dimension
            "o:0;t:1;s:1|o:0,1;t:1,1;s:1,1", // levels disagree on dims
        ] {
            assert!(from_spec(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn rejects_shapes_no_mapping_holds() {
        let level = |d: usize| {
            let ones = vec!["1"; d].join(",");
            let order = (0..d).map(|i| i.to_string()).collect::<Vec<_>>().join(",");
            format!("o:{order};t:{ones};s:{ones}")
        };
        let nine_dims = [level(9), level(9), level(9)].join("|");
        let five_levels = vec![level(3); 5].join("|");
        for bad in [nine_dims, five_levels] {
            let e = from_spec(&bad).unwrap_err();
            assert!(e.to_string().contains("supported"), "{e}");
        }
        let widest = vec![level(8); 4].join("|");
        let m = from_spec(&widest).unwrap();
        assert_eq!((m.num_levels(), m.num_dims()), (4, 8));
        assert_eq!(to_spec(&m), widest);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Any shape and any order entries: an error or a mapping that
        // fits, never a panic.
        #[test]
        fn hostile_shapes_parse_or_error(levels in 0usize..7, dims in 0usize..11, seed in any::<u64>()) {
            use rand::Rng;
            let mut rng = SmallRng::seed_from_u64(seed);
            // Order entries sometimes name no dimension (up to `dims`).
            let row = |rng: &mut SmallRng| {
                let list = |rng: &mut SmallRng, lo: u64, hi: u64| {
                    (0..dims).map(|_| rng.gen_range(lo..hi).to_string()).collect::<Vec<_>>().join(",")
                };
                let order = list(rng, 0, dims as u64 + 1);
                format!("o:{order};t:{};s:{}", list(rng, 1, 64), list(rng, 1, 4))
            };
            let spec = (0..levels).map(|_| row(&mut rng)).collect::<Vec<_>>().join("|");
            if let Ok(m) = from_spec(&spec) {
                prop_assert!(m.num_levels() <= crate::MAX_LEVELS && m.num_dims() <= crate::MAX_DIMS);
                for l in 0..m.num_levels() {
                    prop_assert!(m.order(l).iter().all(|&o| (o as usize) < m.num_dims()));
                }
                prop_assert_eq!(to_spec(&m), spec);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn round_trip_property(seed in any::<u64>()) {
            let s = MapSpace::new(
                Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3),
                Arch::accel_a(),
            );
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = s.random(&mut rng);
            prop_assert_eq!(from_spec(&to_spec(&m)).unwrap(), m);
        }
    }
}
