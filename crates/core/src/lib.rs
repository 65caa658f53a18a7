//! Map-space exploration (MSE) for NPUs — the framework of the paper's
//! Fig. 2, plus its two proposed techniques: **warm-start** (§5.1) and
//! **sparsity-aware search** (§5.2).
//!
//! The [`Mse`] driver binds a cost model (dense or sparse), a mapper, and a
//! budget. [`warmstart`] provides the replay-buffer/similarity machinery to
//! carry optimized mappings across a network's layers; [`sparsity`]
//! provides the density-sweep objective that finds one mapping robust
//! across runtime activation sparsities.
//!
//! # Example
//!
//! ```
//! use mse::Mse;
//! use costmodel::DenseModel;
//! use mappers::{Budget, Gamma};
//!
//! let model = DenseModel::new(
//!     problem::Problem::conv2d("demo", 2, 16, 16, 14, 14, 3, 3),
//!     arch::Arch::accel_b(),
//! );
//! let result = Mse::new(&model).run(&Gamma::new(), Budget::samples(500), 0);
//! println!("best EDP: {:.3e} cycles*uJ", result.best_score);
//! ```

pub mod chaos;
mod driver;
pub mod eval;
pub mod fault;
pub mod fleet;
pub mod json;
pub mod runtime;
pub mod service;
pub mod sparsity;
pub mod store;
pub mod warmstart;

pub use chaos::{Bug, Campaign, CampaignReport, FaultPlan, Harness, Scenario};
pub use driver::{convergence_sample, samples_to_reach, Mse};
pub use eval::{CachedEvaluator, EvalCache, EvalConfig, EvalPool, PoolEvaluator};
pub use fault::{panic_message, quiet_sentinel_panics, WatchdogEvaluator, WatchdogStop};
pub use fleet::{FleetConfig, ServeRole};
pub use runtime::{
    run_network_checkpointed, CheckpointError, LayerCheckpoint, RunPolicy, SweepCheckpoint,
};
pub use service::{serve, ErrorKind, ServeConfig, ServeStats, ServerHandle};
pub use store::{CompactReport, StoreRecord, StoreStats, VerifyReport, WarmStore, BANDIT_ARMS};
pub use sparsity::{
    density_sweep, weight_density_sweep, SparsityAwareEvaluator, StaticDensityEvaluator,
    DEFAULT_SEARCH_DENSITIES,
};
pub use warmstart::{run_network, InitStrategy, LayerOutcome, ReplayBuffer};
