//! `cargo bench -p bench --bench paper_suite` — runs the full paper
//! experiment harness in quick mode and prints every table/figure.
//!
//! This is a plain binary (no Criterion harness): the paper's results are
//! throughput tables produced by the workload specs themselves, so the
//! "bench" is the harness run.  Use the `paper_experiments` binary for the
//! full-length version.

use bench::{
    fig2_read_4k, fig3_read_throughput, fig4_write_throughput, print_rows, table1_bug_analysis,
    table4_create, table5_delete, table6_macrobenchmarks, BenchResult, ExperimentConfig, Row,
};

type Experiment = (&'static str, fn(&ExperimentConfig) -> BenchResult<Vec<Row>>);

fn main() {
    // `cargo bench` passes flags like `--bench`; ignore them.
    let cfg = ExperimentConfig::quick();
    println!("paper_suite: quick-mode reproduction of every table and figure");
    print_rows("Table 1 (bug study)", &table1_bug_analysis());
    let experiments: [Experiment; 6] = [
        ("Figure 2 (4 KiB reads)", fig2_read_4k),
        ("Figure 3 (read throughput)", fig3_read_throughput),
        ("Figure 4 (write throughput)", fig4_write_throughput),
        ("Table 4 (creates)", table4_create),
        ("Table 5 (deletes)", table5_delete),
        ("Table 6 (macrobenchmarks)", table6_macrobenchmarks),
    ];
    for (title, experiment) in experiments {
        match experiment(&cfg) {
            Ok(rows) => print_rows(title, &rows),
            Err(e) => eprintln!("{title} failed: {e}"),
        }
    }
}
