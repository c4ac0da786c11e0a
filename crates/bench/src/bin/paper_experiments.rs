//! Regenerates the tables and figures of the Bento paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin paper_experiments -- all
//! cargo run --release -p bench --bin paper_experiments -- table4 table6 --quick
//! cargo run --release -p bench --bin paper_experiments -- all --json results.json
//! ```

use std::collections::BTreeSet;

use bench::{
    crash_experiment, fig2_read_4k, fig3_read_throughput, fig4_write_throughput, health_experiment,
    load_experiment, print_rows, report_to_json, scaling_experiment, table1_bug_analysis,
    table2_mechanism_comparison, table4_create, table5_delete, table6_macrobenchmarks, BenchResult,
    ExperimentConfig, Row, RunMeta,
};

/// What an experiment runs with and reports into.
struct Ctx {
    cfg: ExperimentConfig,
    /// Where `health` freezes its incident bundles: next to the BENCH
    /// report, or the working directory without `--json`.
    incident_dir: std::path::PathBuf,
    rows: Vec<Row>,
    failures: usize,
}

impl Ctx {
    /// Runs one experiment, appends an `elapsed` row recording how long it
    /// took (wall clock, whole experiment including mounts), and folds the
    /// rows into the report; a failure is printed with where it happened
    /// and counted, not fatal to other experiments.
    fn run(
        &mut self,
        name: &str,
        title: &str,
        experiment: impl FnOnce(&Ctx) -> BenchResult<Vec<Row>>,
    ) {
        let start = std::time::Instant::now();
        let result = experiment(self);
        let elapsed = start.elapsed().as_secs_f64();
        match result {
            Ok(mut rows) => {
                rows.push(Row::new(name, "elapsed", "-", elapsed, "seconds", None));
                print_rows(title, &rows);
                self.rows.extend(rows);
            }
            Err(e) => {
                eprintln!("{name} failed after {elapsed:.1}s: {e}");
                self.failures += 1;
            }
        }
    }
}

/// One selectable experiment: its command-line name and what it does
/// (handed its own name, which labels its `elapsed` row).
type Experiment = (&'static str, fn(&mut Ctx, &'static str));

/// Every experiment, in run order; `all` (or no selection) runs each.  The
/// command line is checked against this table and dispatched from it, so a
/// name is valid exactly when it runs something.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", |ctx, _| {
        let rows = table1_bug_analysis();
        print_rows("Table 1: bug study (counts and derived percentages)", &rows);
        ctx.rows.extend(rows);
    }),
    ("table2", |_, _| {
        println!("\n=== Table 2: extensibility mechanisms (safety / performance / generality / online upgrade) ===");
        for (mechanism, cells) in table2_mechanism_comparison() {
            println!(
                "{mechanism:<6} {:<6} {:<12} {:<11} {}",
                cells[0], cells[1], cells[2], cells[3]
            );
        }
    }),
    ("fig2", |ctx, name| {
        ctx.run(name, "Figure 2: 4 KiB read performance (ops/sec)", |c| fig2_read_4k(&c.cfg))
    }),
    ("fig3", |ctx, name| {
        ctx.run(name, "Figure 3: read throughput (MB/s)", |c| fig3_read_throughput(&c.cfg))
    }),
    ("fig4", |ctx, name| {
        ctx.run(name, "Figure 4: write throughput (MB/s)", |c| fig4_write_throughput(&c.cfg))
    }),
    ("table4", |ctx, name| {
        ctx.run(name, "Table 4: create microbenchmark (ops/sec)", |c| table4_create(&c.cfg))
    }),
    ("table5", |ctx, name| {
        ctx.run(name, "Table 5: delete microbenchmark (ops/sec)", |c| table5_delete(&c.cfg))
    }),
    ("table6", |ctx, name| {
        ctx.run(name, "Table 6: macrobenchmarks", |c| table6_macrobenchmarks(&c.cfg))
    }),
    ("scaling", |ctx, name| {
        ctx.run(name, "Scaling: 1-32 threads, zero-cost device, disjoint files (ops/sec + write-path batching)", |c| scaling_experiment(&c.cfg))
    }),
    // Crash-consistency: enumerate crash states of a seeded 200-op trace on
    // every stack; any fsck or fsync-durability violation fails the
    // experiment (and thus CI's crash-smoke gate).
    ("crash", |ctx, name| {
        ctx.run(name, "Crash: seeded crash-state enumeration, fsck + durability oracles", |c| {
            crash_experiment(&c.cfg)
        })
    }),
    // Workload modeling + load generation: five personalities × three
    // stacks, traced, with p50/p99/p99.9 and per-phase attribution; the
    // disabled-hook bound, span coverage, required phases and attribution
    // are gated on every run; then the upgrade-under-traffic scenario
    // (zero failed ops enforced).
    ("load", |ctx, name| {
        ctx.run(
            name,
            "Load: personalities × stacks, traced latency percentiles and phases, upgrade under load",
            |c| load_experiment(&c.cfg),
        )
    }),
    // Continuous health engine: disabled-path observe cost (gated),
    // clean-run false-positive gate, the EIO burn-rate fire/clear contract,
    // the upgrade pause as a commit-wait-attributed flagged window, and
    // schema-checked incident bundles.
    ("health", |ctx, name| {
        ctx.run(name, "Health: windowed SLO burn rates, stall flagging, incident bundles", |c| {
            health_experiment(&c.cfg, &c.incident_dir)
        })
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();
    let selected: BTreeSet<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--") && Some(*a) != json_path.as_deref())
        .collect();
    let unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|name| *name != "all" && !EXPERIMENTS.iter().any(|(known, ..)| known == name))
        .collect();
    if !unknown.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        eprintln!("unknown experiment(s): {}", unknown.join(" "));
        eprintln!("valid selections: all {}", names.join(" "));
        std::process::exit(2);
    }
    let everything = selected.is_empty() || selected.contains("all");
    let cfg = if quick { ExperimentConfig::quick() } else { ExperimentConfig::full() };
    println!(
        "Bento reproduction: paper experiments ({} mode, {} base ops per worker per configuration, {} high-thread count)",
        if quick { "quick" } else { "full" },
        cfg.ops,
        cfg.threads_high
    );

    let incident_dir = json_path
        .as_deref()
        .and_then(|p| std::path::Path::new(p).parent())
        .filter(|p| !p.as_os_str().is_empty())
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let mut ctx = Ctx { cfg, incident_dir, rows: Vec::new(), failures: 0 };
    for (name, experiment) in EXPERIMENTS {
        if everything || selected.contains(name) {
            experiment(&mut ctx, name);
        }
    }
    let Ctx { cfg, rows: all_rows, mut failures, .. } = ctx;

    if let Some(path) = json_path {
        // Every recorded result carries its environment: git rev, detected
        // CPU count, configured thread count.  A BENCH file from the 1-CPU
        // build container explains its own flat scaling curves.
        let meta = RunMeta::detect(cfg.threads_high, quick);
        match std::fs::write(&path, report_to_json(&meta, &all_rows)) {
            Ok(()) => println!("\nwrote {} rows to {path}", all_rows.len()),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        // CI gates on this: a failed experiment must fail the run.
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
