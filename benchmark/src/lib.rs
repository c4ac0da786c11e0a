//! Benchmark of the Bento reproduction: four workloads x four stacks.
//! See README.md for the workloads, the metric definitions and how to run.

pub mod affinity;
pub mod exec;
pub mod model;
pub mod probes;
pub mod report;
pub mod rng;
pub mod run;
pub mod spec;
pub mod stacks;
pub mod stats;
pub mod traced;
pub mod workloads;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;
