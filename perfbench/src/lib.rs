//! # perfbench
//!
//! The repository's benchmark: seeded workloads over the analyzer, the
//! session caches, the summary store and the serve loop, with a correctness
//! oracle and a traced run that times each crate's public entry points from
//! outside. See `README.md` beside this crate for the workloads and metrics;
//! the `perfbench` binary runs one workload per invocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod stages;
pub mod stats;
