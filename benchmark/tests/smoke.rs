//! Runs the whole benchmark at smoke size, as `run --smoke` does.
//!
//! One test function on purpose: the runs enable the program's process-wide
//! tracing and pin their thread to a CPU, so they must not overlap.

use std::collections::BTreeMap;

use bento_benchmark::exec::Tally;
use bento_benchmark::run::{self, Metric};
use bento_benchmark::workloads::Workload;
use bento_benchmark::{report, spec, traced};

const SMOKE_SECONDS: f64 = 0.4;

/// Per-layer metrics that are single-client counts read from the program:
/// they must repeat exactly.  (Timings, and the two-client probes, do not.)
const EXACT_COUNTS: [&str; 16] = [
    "vfs.calls_per_op",
    "pagecache.read_fills_per_op",
    "pagecache.fill_ratio",
    "pagecache.writeback_batches_per_op",
    "pagecache.pages_per_writeback_batch",
    "bentofs.dispatches_per_op",
    "journal.commits_per_op",
    "journal.blocks_per_commit",
    "journal.barriers_per_commit",
    "journal.commits_per_op_ckernel",
    "dev.reads_per_op",
    "dev.writes_per_op",
    "dev.flushes_per_op",
    "dev.write_amplification",
    "fusesim.whole_file_syncs_per_op",
    "ext4sim.commits_per_op",
];

fn by_name(metrics: Vec<Metric>) -> BTreeMap<String, f64> {
    metrics.into_iter().map(|m| (m.name, m.value)).collect()
}

fn end_to_end(workload: Workload) -> BTreeMap<String, f64> {
    let mut tally = Tally::default();
    let measured = run::end_to_end(workload, 42, SMOKE_SECONDS, &mut tally).unwrap();
    assert_eq!(tally.failed, 0, "{workload:?}: {:?}", tally.messages);
    assert!(tally.attempted > 0);
    // Exactly the metrics BENCHMARK.json lists, with its units; none zero.
    let metrics = report::in_spec_order(measured.metrics(), &spec::spec().end_to_end).unwrap();
    for m in &metrics {
        assert!(m.value > 0.0, "{workload:?}: {} = {}", m.name, m.value);
    }
    by_name(metrics)
}

fn per_layer(workload: Workload) -> BTreeMap<String, f64> {
    let mut tally = Tally::default();
    let (metrics, spans) = traced::per_layer(workload, 42, SMOKE_SECONDS, &mut tally).unwrap();
    assert_eq!(tally.failed, 0, "{workload:?}: {:?}", tally.messages);
    assert!(std::fs::metadata(&spans).unwrap().len() > 0, "spans are written when the run ends");
    by_name(report::in_spec_order(metrics, &spec::spec().per_layer).unwrap())
}

#[test]
fn smoke() {
    let mut first = std::collections::HashMap::new();
    for workload in Workload::ALL {
        let e2e = end_to_end(workload);
        let layers = per_layer(workload);
        assert_eq!(layers["bentofs.upgrade_failed_ops"], 0.0);
        assert_eq!(layers["trace.dropped_spans"], 0.0);
        first.insert(workload, (e2e, layers));
    }

    // What each workload was chosen to stress, and to bypass.
    let layers = |w| &first[&w].1;
    assert_eq!(layers(Workload::ColdScan)["journal.commits_per_op"], 0.0);
    assert_eq!(layers(Workload::ColdScan)["dev.writes_per_op"], 0.0);
    assert!(layers(Workload::ColdScan)["pagecache.fill_ratio"] > 0.99);
    assert!(layers(Workload::DataCached)["pagecache.fill_ratio"] < 0.01);
    assert!(
        layers(Workload::MailSync)["dev.flushes_per_op"]
            > 3.0 * layers(Workload::DataCached)["dev.flushes_per_op"]
    );

    // A second run of the same seed: every single-client count is
    // bit-identical, the modelled device time included.
    let (e2e, layers) = &first[&Workload::MailSync];
    let again = end_to_end(Workload::MailSync);
    for name in ["bento_model_us_per_op", "ckernel_model_us_per_op"] {
        assert_eq!(e2e[name].to_bits(), again[name].to_bits(), "{name}");
    }
    let again = per_layer(Workload::MailSync);
    for name in EXACT_COUNTS {
        assert_eq!(layers[name].to_bits(), again[name].to_bits(), "{name}");
    }
}
