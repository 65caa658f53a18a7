//! Map-space search algorithms (the paper's "Exploration Method", §3.3).
//!
//! Three mapper families are implemented, matching the paper's taxonomy:
//!
//! * **random-based** — [`RandomMapper`], [`RandomPruned`] (Timeloop-mapper
//!   default);
//! * **feedback-based** — [`Gamma`] (GA with per-axis domain operators),
//!   plus the non-domain [`StandardGa`] baseline and the single-trajectory
//!   [`SimulatedAnnealing`] / [`HillClimb`] extras;
//! * **gradient-based** — lives in the `surrogate` crate (it needs the
//!   neural-network substrate).
//!
//! All mappers implement [`Mapper`] and are driven by an [`Evaluator`]
//! (EDP over a cost model by default), a [`Budget`] (samples or wall
//! clock), and a seeded RNG for reproducibility.
//!
//! # Example
//!
//! ```
//! use mappers::{Budget, EdpEvaluator, Gamma, Mapper};
//! use costmodel::DenseModel;
//! use mapping::MapSpace;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let p = problem::Problem::conv2d("demo", 2, 16, 16, 14, 14, 3, 3);
//! let a = arch::Arch::accel_b();
//! let model = DenseModel::new(p.clone(), a.clone());
//! let space = MapSpace::new(p, a);
//! let mut rng = SmallRng::seed_from_u64(0);
//! let result = Gamma::new().search(&space, &EdpEvaluator::new(&model), Budget::samples(500), &mut rng);
//! assert!(result.best.is_some());
//! ```

mod annealing;
mod cem;
mod dosa;
mod exhaustive;
mod gamma;
mod hill_climb;
mod mapper;
pub mod nsga;
pub mod operators;
mod outcome;
mod random;
mod reinforce;
mod standard_ga;

pub use annealing::SimulatedAnnealing;
pub use cem::CrossEntropy;
pub use dosa::{Dosa, DosaConfig};
pub use exhaustive::{Exhaustive, OrderEnumeration};
pub use gamma::{Gamma, GammaConfig};
pub use hill_climb::HillClimb;
pub use mapper::{
    Budget, CacheStats, ConvergencePoint, EdpEvaluator, Evaluator, Mapper, Recorder, SearchResult,
};
pub use nsga::Selection;
pub use outcome::{score_cmp, AttemptRecord, RunError, RunOutcome, RunStatus};
pub use random::{canonicalize, RandomMapper, RandomPruned};
pub use reinforce::Reinforce;
pub use standard_ga::StandardGa;

/// Every name [`by_name`] resolves, in the order the front ends list them.
pub const NAMES: [&str; 11] = [
    "gamma",
    "random",
    "random-pruned",
    "standard-ga",
    "annealing",
    "hill-climb",
    "cem",
    "dosa",
    "reinforce",
    "exhaustive",
    "exhaustive-tiles",
];

/// A fresh mapper by the name the front ends accept (`mapex search
/// --mapper`, the service's `"mapper"` field), or `None` for a name not in
/// [`NAMES`].
pub fn by_name(name: &str) -> Option<Box<dyn Mapper>> {
    Some(match name {
        "gamma" => Box::new(Gamma::new()),
        "random" => Box::new(RandomMapper::new()),
        "random-pruned" => Box::new(RandomPruned::new()),
        "standard-ga" => Box::new(StandardGa::new()),
        "annealing" => Box::new(SimulatedAnnealing::new()),
        "hill-climb" => Box::new(HillClimb::new()),
        "cem" => Box::new(CrossEntropy::new()),
        "dosa" => Box::new(Dosa::new()),
        "reinforce" => Box::new(Reinforce::new()),
        "exhaustive" => Box::new(Exhaustive::new()),
        // Canonical order, tiles/parallelism only: crosses tilings (and
        // therefore lane counts) quickly, so bound pruning gets traction.
        "exhaustive-tiles" => Box::new(Exhaustive::tiles_only()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves() {
        for name in NAMES {
            assert!(by_name(name).is_some(), "{name}");
        }
        assert!(by_name("nope").is_none());
    }
}
