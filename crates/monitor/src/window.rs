//! Per-window accumulation and the frozen window summaries.

use std::collections::BTreeMap;

use serde::Serialize;
use simkernel::metrics::LatencyHistogram;
use simkernel::trace::{self, Phase, SpanRecord};

use crate::slo::MonitorConfig;

/// A finished span, flattened for summaries and incident JSON.
#[derive(Debug, Clone, Serialize)]
pub struct SpanSummary {
    /// Process-unique operation id.
    pub op_id: u64,
    /// Op-class label.
    pub class: String,
    /// End-to-end latency, ns.
    pub total_ns: u64,
    /// Exclusive ns per phase, in [`Phase::ALL`] reporting order.
    pub phase_ns: Vec<u64>,
    /// Ns not attributed to any instrumented phase.
    pub other_ns: u64,
    /// Label of the phase holding the largest share of this span
    /// (`"other"` when un-instrumented time dominates).
    pub dominant_phase: String,
}

impl SpanSummary {
    /// Flattens a trace record.
    pub fn from_record(rec: &SpanRecord) -> Self {
        SpanSummary {
            op_id: rec.op_id,
            class: rec.class.to_string(),
            total_ns: rec.total_ns,
            phase_ns: rec.phase_ns.to_vec(),
            other_ns: rec.other_ns(),
            dominant_phase: dominant_phase(rec).to_string(),
        }
    }
}

/// The phase label (or `"other"`) holding the largest exclusive share of
/// `rec`.
pub fn dominant_phase(rec: &SpanRecord) -> &'static str {
    let mut best_label = "other";
    let mut best_ns = rec.other_ns();
    for p in Phase::ALL {
        if rec.phase_ns[p.index()] > best_ns {
            best_ns = rec.phase_ns[p.index()];
            best_label = p.label();
        }
    }
    best_label
}

/// Per-op-class slice of one closed window.
#[derive(Debug, Clone, Serialize)]
pub struct ClassWindowSummary {
    /// Completed ops of this class in the window.
    pub ops: u64,
    /// Failed ops of this class in the window.
    pub errors: u64,
    /// p99 latency of the class within the window, ns.
    pub p99_ns: u64,
}

/// One closed window, summarized for the ring and for incident bundles.
#[derive(Debug, Clone, Serialize)]
pub struct WindowSummary {
    /// Monotone window index (0 = first window of the run).
    pub index: u64,
    /// Completed ops in the window.
    pub ops: u64,
    /// Failed ops in the window.
    pub errors: u64,
    /// Window p50 latency, ns (completed ops).
    pub p50_ns: u64,
    /// Window p99 latency, ns.
    pub p99_ns: u64,
    /// Slowest completed op in the window, ns.
    pub max_ns: u64,
    /// Bad-op count per configured SLO, [`MonitorConfig::slos`] order.
    pub slo_bad: Vec<u64>,
    /// Matching-op count per configured SLO (the burn denominator).
    pub slo_ops: Vec<u64>,
    /// Exclusive ns summed over the window's observed spans, per phase in
    /// [`Phase::ALL`] order.
    pub phase_ns: Vec<u64>,
    /// Counter increases across this window (empty without a
    /// snapshot source).
    pub counter_deltas: BTreeMap<String, u64>,
    /// Per-class slice of the window.
    pub classes: BTreeMap<String, ClassWindowSummary>,
    /// The window's slowest spans, slowest first (needs tracing enabled).
    pub slowest: Vec<SpanSummary>,
}

/// The open window being accumulated (monitor-internal).
#[derive(Debug)]
pub(crate) struct WindowAccum {
    pub ops: u64,
    pub errors: u64,
    latency: LatencyHistogram,
    per_class: BTreeMap<&'static str, ClassAccum>,
    slo_bad: Vec<u64>,
    slo_ops: Vec<u64>,
    phase_ns: [u64; Phase::COUNT],
    slowest: Vec<SpanRecord>,
    /// Worst over-threshold span per configured phase-stall detector,
    /// [`MonitorConfig::phase_stalls`] order.
    phase_stall_worst: Vec<Option<SpanRecord>>,
}

#[derive(Debug, Default)]
struct ClassAccum {
    ops: u64,
    errors: u64,
    latency: LatencyHistogram,
}

impl WindowAccum {
    pub fn new(cfg: &MonitorConfig) -> Self {
        WindowAccum {
            ops: 0,
            errors: 0,
            latency: LatencyHistogram::new(),
            per_class: BTreeMap::new(),
            slo_bad: vec![0; cfg.slos.len()],
            slo_ops: vec![0; cfg.slos.len()],
            phase_ns: [0; Phase::COUNT],
            slowest: Vec::new(),
            phase_stall_worst: vec![None; cfg.phase_stalls.len()],
        }
    }

    /// Total observations (completed + failed) — the window-close trigger.
    pub fn observed(&self) -> u64 {
        self.ops + self.errors
    }

    pub fn record(
        &mut self,
        cfg: &MonitorConfig,
        class: &'static str,
        latency_ns: u64,
        error: bool,
        span: Option<&SpanRecord>,
    ) {
        let per_class = self.per_class.entry(class).or_default();
        if error {
            self.errors += 1;
            per_class.errors += 1;
        } else {
            self.ops += 1;
            self.latency.record(latency_ns);
            per_class.ops += 1;
            per_class.latency.record(latency_ns);
        }
        for (i, slo) in cfg.slos.iter().enumerate() {
            if slo.matches(class) {
                self.slo_ops[i] += 1;
                self.slo_bad[i] += u64::from(error);
            }
        }
        if let Some(rec) = span {
            for p in Phase::ALL {
                self.phase_ns[p.index()] += rec.phase_ns[p.index()];
            }
            for (i, spec) in cfg.phase_stalls.iter().enumerate() {
                if !spec.matches(class) {
                    continue;
                }
                let stalled_ns = rec.phase_ns[spec.phase.index()];
                let current_worst =
                    self.phase_stall_worst[i].map_or(0, |w| w.phase_ns[spec.phase.index()]);
                if stalled_ns >= spec.threshold_ns && stalled_ns > current_worst {
                    self.phase_stall_worst[i] = Some(*rec);
                }
            }
            trace::keep_slowest(&mut self.slowest, *rec, MonitorConfig::SLOWEST_PER_WINDOW);
        }
    }

    /// Worst over-threshold span per phase-stall detector this window
    /// (`None` where the detector did not trip).
    pub fn phase_stall_offenders(&self) -> &[Option<SpanRecord>] {
        &self.phase_stall_worst
    }

    /// Closes the window into a summary.
    pub fn summarize(self, index: u64, counter_deltas: BTreeMap<String, u64>) -> WindowSummary {
        WindowSummary {
            index,
            ops: self.ops,
            errors: self.errors,
            p50_ns: self.latency.percentile(50.0),
            p99_ns: self.latency.percentile(99.0),
            max_ns: self.latency.max(),
            slo_bad: self.slo_bad,
            slo_ops: self.slo_ops,
            phase_ns: self.phase_ns.to_vec(),
            counter_deltas,
            classes: self
                .per_class
                .into_iter()
                .map(|(class, acc)| {
                    (
                        class.to_string(),
                        ClassWindowSummary {
                            ops: acc.ops,
                            errors: acc.errors,
                            p99_ns: acc.latency.percentile(99.0),
                        },
                    )
                })
                .collect(),
            slowest: self.slowest.iter().map(SpanSummary::from_record).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloSpec;

    fn record(total_ns: u64, commit_wait_ns: u64) -> SpanRecord {
        let mut phase_ns = [0; Phase::COUNT];
        phase_ns[Phase::CommitWait.index()] = commit_wait_ns;
        SpanRecord {
            op_id: 1,
            class: "fsync",
            epoch: 0,
            total_ns,
            phase_ns,
            phase_counts: [0; Phase::COUNT],
        }
    }

    #[test]
    fn dominant_phase_picks_largest_share_or_other() {
        assert_eq!(dominant_phase(&record(1_000, 800)), "commit-wait");
        assert_eq!(dominant_phase(&record(1_000, 200)), "other");
    }

    #[test]
    fn accum_summarizes_classes_slos_and_slowest() {
        let cfg = MonitorConfig::new(8)
            .with_slo(SloSpec::error_budget("errs", "*", 0.1))
            .with_slo(SloSpec::error_budget("write-errors", "write", 0.1));
        let mut accum = WindowAccum::new(&cfg);
        accum.record(&cfg, "read", 500, false, None);
        accum.record(&cfg, "read", 5_000, false, Some(&record(5_000, 4_000)));
        accum.record(&cfg, "write", 2_000, true, None);
        assert_eq!(accum.observed(), 3);
        let summary = accum.summarize(7, BTreeMap::new());
        assert_eq!(summary.index, 7);
        assert_eq!((summary.ops, summary.errors), (2, 1));
        assert_eq!(summary.slo_ops, vec![3, 1], "per-SLO class filtering");
        assert_eq!(summary.slo_bad, vec![1, 1], "the failed write burns both");
        assert_eq!(summary.classes["read"].ops, 2);
        assert_eq!(summary.classes["write"].errors, 1);
        assert_eq!(summary.max_ns, 5_000);
        assert_eq!(summary.phase_ns[Phase::CommitWait.index()], 4_000);
        assert_eq!(summary.slowest.len(), 1);
        assert_eq!(summary.slowest[0].dominant_phase, "commit-wait");
    }

    #[test]
    fn phase_stall_tracking_filters_class_and_keeps_worst() {
        use crate::slo::PhaseStallSpec;
        let cfg = MonitorConfig::new(8).with_phase_stall(PhaseStallSpec::new(
            "rp",
            "fsync",
            Phase::CommitWait,
            1_000,
        ));
        let mut accum = WindowAccum::new(&cfg);
        // Below threshold: not an offender.
        accum.record(&cfg, "fsync", 500, false, Some(&record(500, 500)));
        assert!(accum.phase_stall_offenders()[0].is_none());
        // Matching class, over threshold.
        accum.record(&cfg, "fsync", 2_000, false, Some(&record(2_000, 1_500)));
        // Worse, but wrong class: ignored.  (The helper builds "fsync"
        // records; the class filter uses the observe() label.)
        accum.record(&cfg, "read", 9_000, false, Some(&record(9_000, 9_000)));
        // Matching and worse: replaces the earlier offender.
        accum.record(&cfg, "fsync", 5_000, false, Some(&record(5_000, 4_000)));
        let offender = accum.phase_stall_offenders()[0].expect("detector tripped");
        assert_eq!(offender.phase_ns[Phase::CommitWait.index()], 4_000);
    }
}
