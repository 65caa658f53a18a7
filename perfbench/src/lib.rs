//! Fixed-work benchmark of the mapex search stack and serving daemon.
//!
//! `perfbench --workload <search_mix|search_dosa|serve_mix> --seed N
//! --seconds S --trace 0|1` prints human-readable lines and, last, one
//! JSON result line. See `perfbench/README.md`.

pub mod data;
pub mod regen;
pub mod search;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
