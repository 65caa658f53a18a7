//! Analytical NPU cost model (the paper's "Evaluation Method", §3.2).
//!
//! A from-scratch reimplementation of the class of models the paper uses:
//! Timeloop for dense workloads ([`DenseModel`]) and Sparseloop /
//! TimeloopV2 for sparse ones ([`SparseModel`]). Given a
//! [`problem::Problem`], an [`arch::Arch`], and a [`mapping::Mapping`], the
//! model returns latency, energy, and EDP in milliseconds of compute — fast
//! enough to sit inside a mapper's optimization loop.
//!
//! # Example
//!
//! ```
//! use costmodel::{CostModel, DenseModel};
//! use mapping::MapSpace;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let problem = problem::zoo::resnet_conv4();
//! let arch = arch::Arch::accel_b();
//! let model = DenseModel::new(problem.clone(), arch.clone());
//! let space = MapSpace::new(problem, arch);
//! let mut rng = SmallRng::seed_from_u64(0);
//! let cost = model.evaluate(&space.random(&mut rng))?;
//! assert!(cost.edp() > 0.0);
//! # Ok::<(), mapping::MappingError>(())
//! ```

mod analysis;
mod cost;
mod engine;
pub mod fault;
pub mod guard;
pub mod smooth;
pub mod style;

pub use analysis::{
    analyze, AnalysisContext, BoundReport, Breakdown, CapacityMode, LevelTraffic, PerLevel,
};
pub use cost::Cost;
pub use engine::{engine_context, guarded_engine, CostModel, DenseModel, SparseModel};
pub use fault::{FaultConfig, FaultyModel, InjectedFault};
pub use guard::{
    GuardAudit, GuardConfig, GuardPolicy, GuardReport, GuardedModel, Invariant,
    InvariantViolation,
};
pub use smooth::{SmoothContext, SmoothCost};
