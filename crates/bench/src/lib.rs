//! # caz-bench
//!
//! Workloads, experiments, and the harness regenerating every validated
//! claim of the reproduction (see DESIGN.md §4 and EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod load;
pub mod persistence;
pub mod planner;
pub mod workloads;
