//! NPU hardware configuration (§2.2 of the paper).
//!
//! An accelerator is modeled as a hierarchy of storage levels — outermost
//! (DRAM) first — each with a capacity, a per-word access energy, a
//! per-instance bandwidth, and a *fanout*: how many instances of the next
//! level (or, at the innermost level, how many ALUs) one instance feeds.
//!
//! The paper's two configurations (Table 1) are provided as presets:
//!
//! * [`Arch::accel_a`] — 512 KB shared buffer, 64 KB private buffer per PE,
//!   256 PEs, 1 ALU per PE (the Mind Mappings configuration).
//! * [`Arch::accel_b`] — 64 KB shared buffer, 256 B private buffer per PE,
//!   256 PEs, 4 ALUs per PE.
//!
//! # Example
//!
//! ```
//! let arch = arch::Arch::accel_b();
//! assert_eq!(arch.num_levels(), 3);
//! assert_eq!(arch.total_spatial_lanes(), 256 * 4);
//! ```

mod config;
mod sparse;

pub use config::{Arch, ArchError, MemLevel, MAX_LEVELS};
pub use sparse::SparseCaps;
