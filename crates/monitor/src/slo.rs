//! Declarative objectives and monitor tuning.

use simkernel::trace::Phase;

/// One service-level objective over an op class (or all classes).
///
/// An observed operation is **bad** under this SLO when it failed; the SLO
/// grants a budget of [`SloSpec::error_budget`] bad operations as a
/// fraction of matching traffic.  The engine alerts on the budget's *burn
/// rate* (observed bad fraction ÷ budget), not on single bad ops — see
/// [`MonitorConfig::FAST_BURN_THRESHOLD`].  Latency is the stall detectors'
/// signal ([`MonitorConfig::stall_threshold_ns`], [`PhaseStallSpec`]).
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Objective name, used in events and incident bundles.
    pub name: String,
    /// Op-class label this objective covers (`"fsync"`), or `"*"` to
    /// aggregate every class.
    pub class: String,
    /// Allowed failed fraction of matching operations (e.g. `0.002`).
    pub error_budget: f64,
}

impl SloSpec {
    /// An objective whose budget any failed op of `class` burns.
    pub fn error_budget(name: &str, class: &str, budget: f64) -> Self {
        SloSpec { name: name.to_string(), class: class.to_string(), error_budget: budget }
    }

    /// Whether this objective covers ops of `class`.
    pub fn matches(&self, class: &str) -> bool {
        self.class == "*" || self.class == class
    }
}

/// A per-class, per-phase stall objective: flag any window in which an op
/// of `class` spent at least `threshold_ns` of exclusive time in `phase`.
///
/// This catches what the whole-window detector
/// ([`MonitorConfig::stall_threshold_ns`]) structurally cannot.  On a busy
/// single-CPU run the window latency *maximum* is dominated by scheduling
/// noise and by classes that legitimately wait (group commit holds create
/// and fsync ops for tens of milliseconds), so a sub-millisecond pause
/// hides far below any absolute whole-window threshold.  But a class that
/// never enters a phase on a clean run — reads and stats never wait on the
/// journal, so their commit-wait baseline is exactly zero — turns *any*
/// time in that phase into unambiguous evidence of cross-class blocking,
/// e.g. a live upgrade quiescing the filesystem.  The detector needs spans
/// ([`HealthMonitor::observe`](crate::HealthMonitor::observe) with
/// tracing enabled); span-less observations cannot trip it.
#[derive(Debug, Clone)]
pub struct PhaseStallSpec {
    /// Detector name, for events and incident bundles.
    pub name: String,
    /// Op-class label this detector watches, or `"*"` for every class.
    pub class: String,
    /// The phase whose exclusive time is the signal.
    pub phase: Phase,
    /// Minimum exclusive ns in [`PhaseStallSpec::phase`] that flags the
    /// window.  Calibrate against the clean-run per-class phase maximum
    /// (often zero) with headroom.
    pub threshold_ns: u64,
}

impl PhaseStallSpec {
    /// A new phase-stall detector.
    pub fn new(name: &str, class: &str, phase: Phase, threshold_ns: u64) -> Self {
        PhaseStallSpec {
            name: name.to_string(),
            class: class.to_string(),
            phase,
            threshold_ns: threshold_ns.max(1),
        }
    }

    /// Whether this detector watches ops of `class`.
    pub fn matches(&self, class: &str) -> bool {
        self.class == "*" || self.class == class
    }
}

/// Tuning for a [`HealthMonitor`](crate::HealthMonitor).
///
/// Windows are **op-indexed**: one window closes every
/// [`MonitorConfig::window_ops`] observed operations, so window boundaries
/// are a function of the op stream alone and a slow CI container sees the
/// same windowing as a fast workstation (only the per-window *latencies*
/// differ).  Wall-clock windows would make every burn-rate figure depend
/// on machine speed.  The burn-rate shape is fixed (the associated
/// constants); a caller chooses the window size, objectives and stall
/// detectors.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Observed operations (completed + failed) per window.
    pub window_ops: u64,
    /// Flag any window whose slowest op is at least this slow (an absolute
    /// stall detector for pause-style anomalies; `None` disables).
    /// Callers calibrate it against a clean run of the same workload.
    pub stall_threshold_ns: Option<u64>,
    /// The objectives to evaluate at every window close.
    pub slos: Vec<SloSpec>,
    /// Per-class phase-stall detectors evaluated at every window close.
    pub phase_stalls: Vec<PhaseStallSpec>,
}

impl MonitorConfig {
    /// Bound of the per-window summary ring (oldest evicted).
    pub const RING_WINDOWS: usize = 128;
    /// Fast burn-rate lookback, in windows (responsiveness).
    pub const FAST_WINDOWS: usize = 5;
    /// Slow burn-rate lookback, in windows (noise immunity).  When fewer
    /// windows exist yet, the available ones are used.
    pub const SLOW_WINDOWS: usize = 60;
    /// An alert fires when the fast burn is at least this multiple of
    /// budget-neutral consumption...
    pub const FAST_BURN_THRESHOLD: f64 = 4.0;
    /// ...and the slow burn is at least this multiple (both must hold).
    pub const SLOW_BURN_THRESHOLD: f64 = 0.5;
    /// An active alert clears when the fast burn drops below this.
    pub const CLEAR_BURN_THRESHOLD: f64 = 1.0;
    /// Slowest spans kept per window summary.
    pub const SLOWEST_PER_WINDOW: usize = 3;
    /// Window summaries frozen into each incident bundle.
    pub const FREEZE_WINDOWS: usize = 8;

    /// A config closing a window every `window_ops` operations, with no
    /// objectives or stall detectors.
    pub fn new(window_ops: u64) -> Self {
        MonitorConfig {
            window_ops: window_ops.max(1),
            stall_threshold_ns: None,
            slos: Vec::new(),
            phase_stalls: Vec::new(),
        }
    }

    /// Adds an objective.
    #[must_use]
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slos.push(slo);
        self
    }

    /// Sets the absolute stall threshold (see
    /// [`MonitorConfig::stall_threshold_ns`]).
    #[must_use]
    pub fn with_stall_threshold_ns(mut self, threshold_ns: u64) -> Self {
        self.stall_threshold_ns = Some(threshold_ns);
        self
    }

    /// Adds a per-class phase-stall detector.
    #[must_use]
    pub fn with_phase_stall(mut self, spec: PhaseStallSpec) -> Self {
        self.phase_stalls.push(spec);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_matching_and_badness() {
        use crate::window::WindowAccum;
        let slo = SloSpec::error_budget("fsync-errors", "fsync", 0.01);
        assert!(slo.matches("fsync"));
        assert!(!slo.matches("read"));
        assert!(SloSpec::error_budget("e", "*", 0.1).matches("read"));
        // Only a failed op is bad: a slow success burns no budget.
        let cfg = MonitorConfig::new(8).with_slo(slo);
        let mut accum = WindowAccum::new(&cfg);
        accum.record(&cfg, "fsync", u64::MAX - 1, false, None);
        accum.record(&cfg, "fsync", 0, true, None);
        accum.record(&cfg, "read", 0, true, None);
        let summary = accum.summarize(0, Default::default());
        assert_eq!((summary.slo_ops, summary.slo_bad), (vec![2], vec![1]));
    }

    #[test]
    fn phase_stall_spec_matches_classes() {
        let spec = PhaseStallSpec::new("upgrade-pause", "read", Phase::CommitWait, 50_000);
        assert!(spec.matches("read"));
        assert!(!spec.matches("create"));
        assert!(PhaseStallSpec::new("any", "*", Phase::DevIo, 1).matches("fsync"));
        assert_eq!(PhaseStallSpec::new("z", "*", Phase::DevIo, 0).threshold_ns, 1);
    }
}
