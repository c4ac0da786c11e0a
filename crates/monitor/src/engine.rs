//! The health monitor: sampler + SLO burn-rate engine + flight recorder.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Serialize, Value};
use simkernel::trace::{self, SpanRecord};

use crate::incident::IncidentBundle;
use crate::slo::MonitorConfig;
use crate::window::{SpanSummary, WindowAccum, WindowSummary};

/// A typed health decision emitted at a window close.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthEvent {
    /// An SLO's error budget is burning fast enough to alert: the fast
    /// *and* slow burn rates both crossed their thresholds.
    SloBurnFired {
        /// Objective name ([`crate::SloSpec::name`]).
        slo: String,
        /// Window index at which the alert fired.
        window: u64,
        /// Burn rate over the fast lookback (multiples of budget-neutral).
        fast_burn: f64,
        /// Burn rate over the slow lookback.
        slow_burn: f64,
    },
    /// A previously fired alert recovered (fast burn dropped below the
    /// clear threshold).
    SloBurnCleared {
        /// Objective name.
        slo: String,
        /// Window index at which the alert cleared.
        window: u64,
        /// Fast burn rate at clear time.
        fast_burn: f64,
    },
    /// A window's slowest op crossed the absolute stall threshold — the
    /// pause-style anomaly detector
    /// ([`MonitorConfig::stall_threshold_ns`]).
    LatencyWindowFlagged {
        /// The flagged window's index.
        window: u64,
        /// Slowest op in the window, ns.
        max_ns: u64,
        /// Window p99, ns.
        p99_ns: u64,
        /// Dominant phase of the window's slowest span (`"other"` when
        /// tracing was off or un-instrumented time dominated).
        dominant_phase: String,
    },
}

impl HealthEvent {
    /// Stable kind label (used in incident file names and BENCH rows).
    pub fn kind(&self) -> &'static str {
        match self {
            HealthEvent::SloBurnFired { .. } => "slo-burn-fired",
            HealthEvent::SloBurnCleared { .. } => "slo-burn-cleared",
            HealthEvent::LatencyWindowFlagged { .. } => "latency-window-flagged",
        }
    }

    /// The window index the event was emitted at.
    pub fn window(&self) -> u64 {
        match *self {
            HealthEvent::SloBurnFired { window, .. }
            | HealthEvent::SloBurnCleared { window, .. }
            | HealthEvent::LatencyWindowFlagged { window, .. } => window,
        }
    }

    /// Whether this event represents a new alert (the false-positive gate
    /// counts these; clears are recovery, not alerts).
    pub fn is_alert(&self) -> bool {
        !matches!(self, HealthEvent::SloBurnCleared { .. })
    }
}

impl Serialize for HealthEvent {
    fn to_value(&self) -> Value {
        let mut fields = vec![("kind".to_string(), Value::Str(self.kind().to_string()))];
        match self {
            HealthEvent::SloBurnFired { slo, window, fast_burn, slow_burn } => {
                fields.push(("slo".to_string(), Value::Str(slo.clone())));
                fields.push(("window".to_string(), Value::Int(*window as i128)));
                fields.push(("fast_burn".to_string(), Value::Float(*fast_burn)));
                fields.push(("slow_burn".to_string(), Value::Float(*slow_burn)));
            }
            HealthEvent::SloBurnCleared { slo, window, fast_burn } => {
                fields.push(("slo".to_string(), Value::Str(slo.clone())));
                fields.push(("window".to_string(), Value::Int(*window as i128)));
                fields.push(("fast_burn".to_string(), Value::Float(*fast_burn)));
            }
            HealthEvent::LatencyWindowFlagged { window, max_ns, p99_ns, dominant_phase } => {
                fields.push(("window".to_string(), Value::Int(*window as i128)));
                fields.push(("max_ns".to_string(), Value::Int(*max_ns as i128)));
                fields.push(("p99_ns".to_string(), Value::Int(*p99_ns as i128)));
                fields.push(("dominant_phase".to_string(), Value::Str(dominant_phase.clone())));
            }
        }
        Value::Object(fields)
    }
}

/// Pulls fresh cumulative counters, keyed by name, at each window close
/// (typically a closure over `MountedStack::counters`).
pub type SnapshotSource = Box<dyn FnMut() -> BTreeMap<String, u64> + Send>;

/// The continuous health engine.  See the crate docs for the three roles
/// (sampler, SLO engine, flight recorder); one instance watches one run.
///
/// Thread-safe: workers call [`HealthMonitor::observe`] concurrently; the
/// window close that lands on the crossing observation runs inline under
/// the monitor's lock (window closes are rare and cheap — summarizing a
/// few histograms).
pub struct HealthMonitor {
    enabled: AtomicBool,
    cfg: MonitorConfig,
    inner: Mutex<Inner>,
}

struct Inner {
    current: WindowAccum,
    next_index: u64,
    windows: VecDeque<WindowSummary>,
    last_snapshot: BTreeMap<String, u64>,
    snapshot_source: Option<SnapshotSource>,
    /// Per-SLO "alert currently firing" latch, [`MonitorConfig::slos`]
    /// order.
    alert_active: Vec<bool>,
    first_error_window: Option<u64>,
    events: Vec<HealthEvent>,
    incidents: Vec<IncidentBundle>,
    next_incident_id: u64,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("window_ops", &self.cfg.window_ops)
            .finish_non_exhaustive()
    }
}

impl HealthMonitor {
    /// Creates an enabled monitor (shared: the driver threads observe into
    /// it, the harness reads events/windows out of it).
    pub fn new(cfg: MonitorConfig) -> Arc<Self> {
        let slos = cfg.slos.len();
        Arc::new(HealthMonitor {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner {
                current: WindowAccum::new(&cfg),
                next_index: 0,
                windows: VecDeque::new(),
                last_snapshot: BTreeMap::new(),
                snapshot_source: None,
                alert_active: vec![false; slos],
                first_error_window: None,
                events: Vec::new(),
                incidents: Vec::new(),
                next_incident_id: 0,
            }),
            cfg,
        })
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Switches observation on/off.  Off, [`HealthMonitor::observe`] is a
    /// single `Relaxed` atomic load.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the monitor is observing.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Installs the counter source consulted at every window close;
    /// per-window [`WindowSummary::counter_deltas`] are differences of
    /// consecutive snapshots.  Also primes the baseline so the first
    /// window's deltas do not include pre-run history.
    pub fn set_snapshot_source(
        &self,
        mut source: impl FnMut() -> BTreeMap<String, u64> + Send + 'static,
    ) {
        let mut inner = self.inner.lock();
        inner.last_snapshot = source();
        inner.snapshot_source = Some(Box::new(source));
    }

    /// Feeds one observed operation: its class label, measured latency
    /// (ignored for failed ops), whether it failed, and optionally its
    /// finished trace span for phase attribution.  Closes the current
    /// window when it reaches [`MonitorConfig::window_ops`] observations.
    pub fn observe(
        &self,
        class: &'static str,
        latency_ns: u64,
        error: bool,
        span: Option<&SpanRecord>,
    ) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        inner.current.record(&self.cfg, class, latency_ns, error, span);
        if inner.current.observed() >= self.cfg.window_ops {
            self.close_window(&mut inner);
        }
    }

    /// Closes the in-progress window even if it is short (end of run); a
    /// no-op when nothing was observed since the last close.
    pub fn finish(&self) {
        let mut inner = self.inner.lock();
        if inner.current.observed() > 0 {
            self.close_window(&mut inner);
        }
    }

    /// Every event emitted so far, in emission order.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.inner.lock().events.clone()
    }

    /// Events that represent alerts (fired SLO burns and flagged windows).
    pub fn alerts(&self) -> Vec<HealthEvent> {
        self.inner.lock().events.iter().filter(|e| e.is_alert()).cloned().collect()
    }

    /// The ring of closed window summaries, oldest first.
    pub fn windows(&self) -> Vec<WindowSummary> {
        self.inner.lock().windows.iter().cloned().collect()
    }

    /// Windows closed so far, which is also the index of the window in
    /// progress.
    pub fn windows_closed(&self) -> u64 {
        self.inner.lock().next_index
    }

    /// Index of the first closed window containing a failed op, if any —
    /// tracked online, so it survives ring eviction.
    pub fn first_error_window(&self) -> Option<u64> {
        self.inner.lock().first_error_window
    }

    /// Takes the incident bundles frozen so far (the caller writes them to
    /// disk next to its BENCH report).
    pub fn take_incidents(&self) -> Vec<IncidentBundle> {
        std::mem::take(&mut self.inner.lock().incidents)
    }

    fn close_window(&self, inner: &mut Inner) {
        let index = inner.next_index;
        inner.next_index += 1;
        let deltas = match inner.snapshot_source.as_mut() {
            Some(source) => {
                let snap = source();
                let deltas = counter_deltas(&inner.last_snapshot, &snap);
                inner.last_snapshot = snap;
                deltas
            }
            None => BTreeMap::new(),
        };
        let accum = std::mem::replace(&mut inner.current, WindowAccum::new(&self.cfg));
        let phase_stall_offenders = accum.phase_stall_offenders().to_vec();
        let summary = accum.summarize(index, deltas);
        if summary.errors > 0 && inner.first_error_window.is_none() {
            inner.first_error_window = Some(index);
        }
        inner.windows.push_back(summary);
        while inner.windows.len() > MonitorConfig::RING_WINDOWS {
            inner.windows.pop_front();
        }
        self.evaluate_slos(inner, index);
        self.evaluate_stall(inner, index);
        self.evaluate_phase_stalls(inner, index, &phase_stall_offenders);
    }

    /// Burn rate of SLO `i` over the trailing `lookback` windows:
    /// (bad fraction) / budget, 0.0 with no matching traffic.
    fn burn_rate(&self, inner: &Inner, i: usize, lookback: usize) -> f64 {
        let tail = inner.windows.iter().rev().take(lookback.max(1));
        let (mut bad, mut ops) = (0u64, 0u64);
        for w in tail {
            bad += w.slo_bad[i];
            ops += w.slo_ops[i];
        }
        if ops == 0 {
            return 0.0;
        }
        let budget = self.cfg.slos[i].error_budget.max(f64::MIN_POSITIVE);
        (bad as f64 / ops as f64) / budget
    }

    fn evaluate_slos(&self, inner: &mut Inner, index: u64) {
        for i in 0..self.cfg.slos.len() {
            let fast = self.burn_rate(inner, i, MonitorConfig::FAST_WINDOWS);
            let slow = self.burn_rate(inner, i, MonitorConfig::SLOW_WINDOWS);
            if !inner.alert_active[i]
                && fast >= MonitorConfig::FAST_BURN_THRESHOLD
                && slow >= MonitorConfig::SLOW_BURN_THRESHOLD
            {
                inner.alert_active[i] = true;
                let event = HealthEvent::SloBurnFired {
                    slo: self.cfg.slos[i].name.clone(),
                    window: index,
                    fast_burn: fast,
                    slow_burn: slow,
                };
                inner.events.push(event.clone());
                self.freeze_incident(inner, event);
            } else if inner.alert_active[i] && fast < MonitorConfig::CLEAR_BURN_THRESHOLD {
                inner.alert_active[i] = false;
                inner.events.push(HealthEvent::SloBurnCleared {
                    slo: self.cfg.slos[i].name.clone(),
                    window: index,
                    fast_burn: fast,
                });
            }
        }
    }

    fn evaluate_stall(&self, inner: &mut Inner, index: u64) {
        let Some(threshold) = self.cfg.stall_threshold_ns else {
            return;
        };
        let window = inner.windows.back().expect("close_window just pushed");
        if window.max_ns < threshold {
            return;
        }
        let dominant = window
            .slowest
            .first()
            .map(|s| s.dominant_phase.clone())
            .unwrap_or_else(|| "other".to_string());
        let event = HealthEvent::LatencyWindowFlagged {
            window: index,
            max_ns: window.max_ns,
            p99_ns: window.p99_ns,
            dominant_phase: dominant,
        };
        inner.events.push(event.clone());
        self.freeze_incident(inner, event);
    }

    /// Per-class phase-stall detectors ([`MonitorConfig::phase_stalls`]):
    /// one flagged-window event per tripped detector, carrying the
    /// offending span's exclusive time in the watched phase as `max_ns`
    /// and that phase's label as `dominant_phase`.
    fn evaluate_phase_stalls(
        &self,
        inner: &mut Inner,
        index: u64,
        offenders: &[Option<SpanRecord>],
    ) {
        for (spec, offender) in self.cfg.phase_stalls.iter().zip(offenders) {
            let Some(rec) = offender else { continue };
            let p99_ns = inner.windows.back().map_or(0, |w| w.p99_ns);
            let event = HealthEvent::LatencyWindowFlagged {
                window: index,
                max_ns: rec.phase_ns[spec.phase.index()],
                p99_ns,
                dominant_phase: spec.phase.label().to_string(),
            };
            inner.events.push(event.clone());
            self.freeze_incident(inner, event);
        }
    }

    /// The flight recorder: freeze the trailing windows plus the slowest
    /// spans still in the trace rings into a self-contained bundle.
    fn freeze_incident(&self, inner: &mut Inner, trigger: HealthEvent) {
        let id = inner.next_incident_id;
        inner.next_incident_id += 1;
        let windows: Vec<WindowSummary> =
            inner.windows.iter().rev().take(MonitorConfig::FREEZE_WINDOWS).rev().cloned().collect();
        let slowest_spans: Vec<SpanSummary> =
            trace::drain_slowest(16).iter().map(SpanSummary::from_record).collect();
        inner.incidents.push(IncidentBundle { id, trigger, windows, slowest_spans });
    }
}

/// Per-key counter increase from `earlier` to `later`.  Keys absent from
/// `earlier` count from zero; keys whose value went *down* (a producer
/// reset underneath) saturate to zero rather than wrapping, and keys only
/// in `earlier` are omitted — a window delta is about what grew.
fn counter_deltas(
    earlier: &BTreeMap<String, u64>,
    later: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    later
        .iter()
        .map(|(key, &now)| {
            let before = earlier.get(key).copied().unwrap_or(0);
            (key.clone(), now.saturating_sub(before))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloSpec;

    fn error_budget_monitor(window_ops: u64, budget: f64) -> Arc<HealthMonitor> {
        HealthMonitor::new(
            MonitorConfig::new(window_ops).with_slo(SloSpec::error_budget("budget", "*", budget)),
        )
    }

    fn drive_clean(monitor: &HealthMonitor, ops: u64) {
        for _ in 0..ops {
            monitor.observe("read", 10_000, false, None);
        }
    }

    fn drive_errors(monitor: &HealthMonitor, ops: u64, every: u64) {
        for i in 0..ops {
            monitor.observe("write", 10_000, i % every == 0, None);
        }
    }

    #[test]
    fn clean_traffic_never_alerts() {
        let monitor = error_budget_monitor(16, 0.002);
        drive_clean(&monitor, 16 * 40);
        assert_eq!(monitor.windows().len(), 40);
        assert!(monitor.events().is_empty());
        assert_eq!(monitor.first_error_window(), None);
        assert!(monitor.take_incidents().is_empty());
    }

    #[test]
    fn burn_alert_fires_fast_and_clears_after_recovery() {
        let monitor = error_budget_monitor(16, 0.002);
        // Healthy warm-up, then a 10% error storm, then recovery.
        drive_clean(&monitor, 16 * 10);
        drive_errors(&monitor, 16 * 3, 10);
        drive_clean(&monitor, 16 * 10);
        let events = monitor.events();
        let fired = events
            .iter()
            .find_map(|e| match e {
                HealthEvent::SloBurnFired { window, fast_burn, slow_burn, .. } => {
                    Some((*window, *fast_burn, *slow_burn))
                }
                _ => None,
            })
            .expect("storm must fire the budget alert");
        let first_bad = monitor.first_error_window().expect("errors were observed");
        assert_eq!(first_bad, 10);
        assert!(
            fired.0 <= first_bad + 2,
            "alert fired at window {} but errors started at {first_bad}",
            fired.0
        );
        assert!(fired.1 >= 4.0 && fired.2 >= 0.5);
        let cleared = events
            .iter()
            .find_map(|e| match e {
                HealthEvent::SloBurnCleared { window, .. } => Some(*window),
                _ => None,
            })
            .expect("recovery must clear the alert");
        assert!(cleared > fired.0);
        // Exactly one alert (the latch holds while burning), one incident.
        assert_eq!(monitor.alerts().len(), 1);
        assert_eq!(monitor.take_incidents().len(), 1);
    }

    #[test]
    fn stall_detector_flags_the_window_and_freezes_an_incident() {
        let monitor = HealthMonitor::new(MonitorConfig::new(8).with_stall_threshold_ns(1_000_000));
        drive_clean(&monitor, 8 * 4);
        monitor.observe("fsync", 5_000_000, false, None); // the stall
        drive_clean(&monitor, 7 + 8 * 2);
        let flagged: Vec<_> = monitor
            .events()
            .iter()
            .filter_map(|e| match e {
                HealthEvent::LatencyWindowFlagged { window, max_ns, .. } => {
                    Some((*window, *max_ns))
                }
                _ => None,
            })
            .collect();
        assert_eq!(flagged, vec![(4, 5_000_000)], "exactly the stall window is flagged");
        let incidents = monitor.take_incidents();
        assert_eq!(incidents.len(), 1);
        assert!(incidents[0].windows.iter().any(|w| w.index == 4));
    }

    #[test]
    fn phase_stall_flags_cross_class_blocking_below_the_noise_floor() {
        use crate::slo::PhaseStallSpec;
        use simkernel::trace::Phase;
        let span = |class: &'static str, total_ns: u64, commit_wait_ns: u64| {
            let mut phase_ns = [0; Phase::COUNT];
            phase_ns[Phase::CommitWait.index()] = commit_wait_ns;
            SpanRecord {
                op_id: 0,
                class,
                epoch: 0,
                total_ns,
                phase_ns,
                phase_counts: [0; Phase::COUNT],
            }
        };
        let monitor = HealthMonitor::new(MonitorConfig::new(4).with_phase_stall(
            PhaseStallSpec::new("read-commit-wait", "read", Phase::CommitWait, 100_000),
        ));
        // Window 0: clean reads plus a create that waits 10 ms on group
        // commit — legitimate for its class, must not trip a read detector.
        monitor.observe("read", 10_000, false, Some(&span("read", 10_000, 0)));
        monitor.observe("read", 12_000, false, Some(&span("read", 12_000, 0)));
        monitor.observe("create", 10_000_000, false, Some(&span("create", 10_000_000, 9_900_000)));
        monitor.observe("read", 11_000, false, Some(&span("read", 11_000, 0)));
        // Window 1: one read blocked 400 us on a writer holding the FS lock
        // (an upgrade-style pause) — far below window 0's 10 ms maximum,
        // but commit-wait on a read is categorical evidence.
        monitor.observe("read", 410_000, false, Some(&span("read", 410_000, 400_000)));
        for _ in 0..3 {
            monitor.observe("read", 10_000, false, Some(&span("read", 10_000, 0)));
        }
        let flagged: Vec<_> = monitor
            .events()
            .iter()
            .filter_map(|e| match e {
                HealthEvent::LatencyWindowFlagged { window, max_ns, dominant_phase, .. } => {
                    Some((*window, *max_ns, dominant_phase.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            flagged,
            vec![(1, 400_000, "commit-wait".to_string())],
            "only the pause window, attributed to commit-wait"
        );
        assert_eq!(monitor.take_incidents().len(), 1);
    }

    #[test]
    fn window_close_differences_registry_snapshots() {
        let counters = Arc::new(Mutex::new(BTreeMap::from([("dev.writes".to_string(), 100u64)])));
        let set = |v: u64| {
            counters.lock().insert("dev.writes".to_string(), v);
        };
        let monitor = HealthMonitor::new(MonitorConfig::new(4));
        let source = Arc::clone(&counters);
        monitor.set_snapshot_source(move || source.lock().clone());
        set(140);
        drive_clean(&monitor, 4);
        set(150);
        drive_clean(&monitor, 4);
        let windows = monitor.windows();
        assert_eq!(windows[0].counter_deltas["dev.writes"], 40, "baseline primed at install");
        assert_eq!(windows[1].counter_deltas["dev.writes"], 10);
    }

    #[test]
    fn counter_deltas_between_snapshots() {
        let map = |pairs: &[(&str, u64)]| -> BTreeMap<String, u64> {
            pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
        };
        let earlier = map(&[("a.ops", 100), ("b.resets", 50), ("c.same", 7), ("e.gone", 3)]);
        // `b.resets`: the producer reset underneath us.
        let later = map(&[("a.ops", 160), ("b.resets", 10), ("c.same", 7), ("d.new", 5)]);
        let deltas = counter_deltas(&earlier, &later);
        assert_eq!(deltas.get("a.ops"), Some(&60));
        assert_eq!(deltas.get("b.resets"), Some(&0), "decreases saturate to zero");
        assert_eq!(deltas.get("c.same"), Some(&0), "unchanged keys stay, at zero");
        assert_eq!(deltas.get("d.new"), Some(&5), "new keys count from zero");
        assert_eq!(deltas.get("e.gone"), None, "keys missing from the later map are omitted");
    }

    #[test]
    fn finish_closes_a_partial_window() {
        let monitor = error_budget_monitor(100, 0.5);
        drive_clean(&monitor, 7);
        assert!(monitor.windows().is_empty());
        monitor.finish();
        let windows = monitor.windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].ops, 7);
        monitor.finish();
        assert_eq!(monitor.windows().len(), 1, "finish with nothing pending is a no-op");
    }

    #[test]
    fn ring_is_bounded() {
        const RING: usize = MonitorConfig::RING_WINDOWS;
        let monitor = HealthMonitor::new(MonitorConfig::new(1));
        drive_clean(&monitor, RING as u64 + 10);
        let windows = monitor.windows();
        assert_eq!(windows.len(), RING);
        assert_eq!(windows.first().map(|w| w.index), Some(10), "oldest evicted");
        assert_eq!(monitor.windows_closed(), RING as u64 + 10, "the count survives eviction");
    }
}
