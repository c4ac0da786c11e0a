//! Unified metrics registry: one snapshot for every stats surface.
//!
//! The workspace grew four ad-hoc stats structs — the xv6 cores' `FsStats`,
//! the journals' `JournalStats`, the VFS-visible
//! [`WritePathStats`](crate::vfs::WritePathStats), and the cost model's
//! queue-depth gauges ([`crate::cost::CostCounters`]) — each with its own
//! accessor and its own consumer.  The [`MetricsRegistry`] absorbs them
//! all: producers publish **named counters** and **named latency
//! histograms** ([`crate::metrics::LatencyHistogram`]) under stable
//! dotted keys (`"Bento.journal.commits"`), and one
//! [`MetricsRegistry::snapshot`] call
//! returns everything, ready to be serialized into BENCH JSON rows by the
//! `bench` crate.
//!
//! Publishing is pull-shaped: the stats structs keep their lock-free
//! striped counters on the hot path, and a harness (the mounted-stack
//! helper in `workloads`, or an experiment) copies them into the registry
//! at snapshot points.  The registry itself is therefore never on an I/O
//! fast path and a pair of mutexed maps is plenty.
//!
//! # Duplicate names
//!
//! Keys are not pre-registered, so "duplicate registration" cannot fail —
//! it merges.  Two producers publishing the same counter key observe
//! last-write-wins under [`MetricsRegistry::set_counter`] and additive
//! merge under [`MetricsRegistry::add_counter`]; histogram keys merge
//! samples ([`MetricsRegistry::observe_ns`] /
//! [`MetricsRegistry::merge_histogram`]).  Producers that need isolation
//! must namespace their keys (the convention is a dotted
//! `"<stack>.<subsystem>.<metric>"` prefix).  This behavior is pinned by
//! the `duplicate_names_merge_not_error` test below.
//!
//! # Windowed consumption
//!
//! Time-series consumers (the `monitor` crate's health sampler) take a
//! snapshot per window and difference consecutive snapshots with
//! [`MetricsSnapshot::counter_deltas`] — the registry stays cumulative,
//! and windowing is entirely the consumer's business.
//!
//! # Example
//!
//! ```
//! use simkernel::registry::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! registry.set_counter("Bento.journal.commits", 17);
//! registry.add_counter("Bento.fs.creates", 3);
//! registry.observe_ns("Bento.fsync", 42_000);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("Bento.journal.commits"), Some(17));
//! assert_eq!(snap.histograms["Bento.fsync"].count, 1);
//! ```

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::metrics::LatencyHistogram;

/// The unified registry: named counters + named latency histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, LatencyHistogram>>,
}

/// Summary of one named histogram inside a [`MetricsSnapshot`] (values in
/// the unit the producer recorded, nanoseconds by convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// 50th percentile.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A point-in-time copy of everything in a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All named counters, sorted by key.
    pub counters: BTreeMap<String, u64>,
    /// All named histograms, summarized, sorted by key.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Looks up a counter by exact key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.get(key).copied()
    }

    /// Per-key counter increase since `earlier` (`self` is the later
    /// snapshot).  Keys absent from `earlier` count from zero; keys whose
    /// value went *down* (a producer republished after its own reset)
    /// saturate to zero rather than wrapping, and keys only present in
    /// `earlier` are omitted — a window delta is about what grew.
    pub fn counter_deltas(&self, earlier: &MetricsSnapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(key, &now)| {
                let before = earlier.counter(key).unwrap_or(0);
                (key.clone(), now.saturating_sub(before))
            })
            .collect()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Sets counter `key` to `value` (last write wins — the shape for
    /// publishing a snapshot of an external counter).
    pub fn set_counter(&self, key: &str, value: u64) {
        self.counters.lock().insert(key.to_string(), value);
    }

    /// Adds `delta` to counter `key` (creating it at zero).
    pub fn add_counter(&self, key: &str, delta: u64) {
        *self.counters.lock().entry(key.to_string()).or_insert(0) += delta;
    }

    /// Records one value into histogram `key` (creating it empty).
    pub fn observe_ns(&self, key: &str, value_ns: u64) {
        self.histograms.lock().entry(key.to_string()).or_default().record(value_ns);
    }

    /// Folds a whole histogram into histogram `key` — how per-run,
    /// per-thread histograms are absorbed without re-recording samples.
    pub fn merge_histogram(&self, key: &str, other: &LatencyHistogram) {
        self.histograms.lock().entry(key.to_string()).or_default().merge(other);
    }

    /// Copies the current state out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.lock().clone();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(key, h)| {
                let (p50, _, p99, p999) = h.quartet();
                (
                    key.clone(),
                    HistogramSummary {
                        count: h.count(),
                        mean: h.mean(),
                        min: h.min(),
                        max: h.max(),
                        p50,
                        p99,
                        p999,
                    },
                )
            })
            .collect();
        MetricsSnapshot { counters, histograms }
    }

    /// Clears every counter and histogram (a new measurement window).
    pub fn reset(&self) {
        self.counters.lock().clear();
        self.histograms.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_set_add_and_snapshot() {
        let r = MetricsRegistry::new();
        r.set_counter("a.commits", 5);
        r.set_counter("a.commits", 7);
        r.add_counter("a.creates", 2);
        r.add_counter("a.creates", 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.commits"), Some(7), "set is last-write-wins");
        assert_eq!(snap.counter("a.creates"), Some(5), "add accumulates");
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn histograms_merge_and_summarize() {
        let r = MetricsRegistry::new();
        for v in 1..=100u64 {
            r.observe_ns("lat", v * 1_000);
        }
        let mut extra = LatencyHistogram::new();
        extra.record(500_000);
        r.merge_histogram("lat", &extra);
        let snap = r.snapshot();
        let s = &snap.histograms["lat"];
        assert_eq!(s.count, 101);
        assert_eq!(s.min, 1_000);
        assert_eq!(s.max, 500_000);
        assert!(s.p99 >= s.p50);
        assert!(s.p999 >= s.p99);
    }

    #[test]
    fn counter_deltas_between_snapshots() {
        let r = MetricsRegistry::new();
        r.set_counter("a.ops", 100);
        r.set_counter("b.resets", 50);
        r.set_counter("c.gone", 7);
        let earlier = r.snapshot();
        r.set_counter("a.ops", 160);
        r.set_counter("b.resets", 10); // producer reset underneath us
        r.set_counter("d.new", 5);
        let later = r.snapshot();
        // `c.gone` unchanged -> delta 0 (still present; only keys missing
        // from the later snapshot are omitted).
        let deltas = later.counter_deltas(&earlier);
        assert_eq!(deltas.get("a.ops"), Some(&60));
        assert_eq!(deltas.get("b.resets"), Some(&0), "decreases saturate to zero");
        assert_eq!(deltas.get("c.gone"), Some(&0));
        assert_eq!(deltas.get("d.new"), Some(&5), "new keys count from zero");
    }

    #[test]
    fn duplicate_names_merge_not_error() {
        // Pin the documented duplicate-registration behavior: the registry
        // has no registration step, so the "same" key from two producers
        // merges — last-write-wins for set, additive for add, sample-merge
        // for histograms.  Nothing panics and nothing is rejected.
        let r = MetricsRegistry::new();
        r.set_counter("shared.counter", 3);
        r.set_counter("shared.counter", 9);
        assert_eq!(r.snapshot().counter("shared.counter"), Some(9));
        r.add_counter("shared.counter", 1);
        assert_eq!(r.snapshot().counter("shared.counter"), Some(10));
        r.observe_ns("shared.lat", 1_000);
        let mut other = LatencyHistogram::new();
        other.record(2_000);
        r.merge_histogram("shared.lat", &other);
        assert_eq!(r.snapshot().histograms["shared.lat"].count, 2);
    }

    #[test]
    fn concurrent_publish_from_eight_threads() {
        use std::sync::Arc;
        let r = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 250u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        // One shared additive counter (contended), one
                        // thread-owned set counter, one shared histogram.
                        r.add_counter("shared.adds", 1);
                        r.set_counter(&format!("thread.{t}.last"), i + 1);
                        r.observe_ns("shared.lat", (t as u64 + 1) * 1_000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("shared.adds"), Some(threads as u64 * per_thread));
        for t in 0..threads {
            assert_eq!(snap.counter(&format!("thread.{t}.last")), Some(per_thread));
        }
        let lat = &snap.histograms["shared.lat"];
        assert_eq!(lat.count, threads as u64 * per_thread);
        assert_eq!(lat.min, 1_000);
        assert!(lat.max >= 8_000);
    }

    #[test]
    fn reset_clears_everything_and_keys_are_sorted() {
        let r = MetricsRegistry::new();
        r.set_counter("z.last", 1);
        r.set_counter("a.first", 1);
        let keys: Vec<String> = r.snapshot().counters.keys().cloned().collect();
        assert_eq!(keys, vec!["a.first", "z.last"], "snapshot keys are sorted");
        r.reset();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
