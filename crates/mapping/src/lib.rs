//! Map-space representation for NPU map-space exploration (§2.3, §3.1).
//!
//! A [`Mapping`] fixes the paper's three mapping axes — tile sizes, loop
//! orders, and loop parallelization — for every storage level of an
//! accelerator. [`MapSpace`] binds a workload to an architecture and offers
//! legal-mapping sampling and size estimation; [`features`] provides the
//! continuous embedding used by PCA visualization and the gradient-based
//! mapper.
//!
//! # Example
//!
//! ```
//! use mapping::MapSpace;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let space = MapSpace::new(problem::zoo::resnet_conv4(), arch::Arch::accel_b());
//! let mut rng = SmallRng::seed_from_u64(0);
//! let m = space.random(&mut rng);
//! assert!(m.is_legal(space.problem(), space.arch()));
//! assert!(space.size_log10() > 18.0); // §4.2: ~O(10^21)
//! ```

pub mod codec;
mod constraints;
pub mod factorization;
pub mod features;
mod map;
pub mod permutation;
mod space;

pub use constraints::Constraints;
pub use arch::MAX_LEVELS;
pub use map::{Loop, Mapping, MappingError};
pub use problem::MAX_DIMS;
pub use space::MapSpace;
