//! DNN workload representation for map-space exploration.
//!
//! A *workload* (called a [`Problem`] following Timeloop's terminology) is a
//! perfectly-nested loop program: a list of iteration dimensions with bounds
//! (e.g. the seven CONV2D loops `B, K, C, Y, X, R, S`) plus a set of tensors,
//! each described by a *projection* from iteration space to data space.
//!
//! The cost model and the mappers never special-case CONV vs GEMM: everything
//! is driven by the dimension list and the projections, so adding a new
//! operator type only requires a new constructor.
//!
//! # Example
//!
//! ```
//! use problem::Problem;
//!
//! // Resnet Conv_4 from the paper: (B,K,C,Y,X,R,S) = (16,256,256,14,14,3,3)
//! let p = Problem::conv2d("resnet_conv4", 16, 256, 256, 14, 14, 3, 3);
//! assert_eq!(p.num_dims(), 7);
//! assert_eq!(p.total_macs(), 16 * 256 * 256 * 14 * 14 * 3 * 3);
//! ```

pub mod codec;
mod dims;
mod projection;
mod workload;
pub mod zoo;

pub use dims::{DimDef, DimName};
pub use projection::{ProjTerm, Projection};
pub use workload::{Density, OperatorKind, Problem, TensorDef, TensorKind, MAX_DIMS, MAX_TENSORS};
