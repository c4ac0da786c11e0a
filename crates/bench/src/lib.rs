//! # bench — regenerating the paper's tables and figures
//!
//! One function per experiment in the paper's evaluation (§6), each running
//! seeded `loadgen` specs for a fixed op count over the four mounted stacks
//! and returning [`Row`]s that mirror the corresponding table/figure,
//! including the paper's published value where the paper gives one (so that
//! paper-vs-measured comparisons in EXPERIMENTS.md are regenerated by code).
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p bench --bin paper_experiments -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod experiments;
pub mod report;

pub use diff::{classify, diff_reports, DiffConfig, DiffReport, Finding, RowKind};
pub use experiments::{
    crash_experiment, fig2_read_4k, fig3_read_throughput, fig4_write_throughput, health_experiment,
    load_experiment, scaling_create, scaling_experiment, table1_bug_analysis,
    table2_mechanism_comparison, table4_create, table5_delete, table6_macrobenchmarks, BenchError,
    BenchResult, CreatePoint, ExperimentConfig, LOAD_STACKS, SCALING_NVME_THREADS, SCALING_THREADS,
};
pub use report::{
    print_rows, report_from_json, report_to_json, rows_to_json, BenchReport, Row, RunMeta,
};
