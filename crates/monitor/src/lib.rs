//! # monitor — continuous health engine over the telemetry layer
//!
//! The workspace's point-in-time telemetry is phase-attributed spans
//! ([`simkernel::trace`]) and each mounted stack's typed counters, read
//! as one name-keyed map (`MountedStack::counters` in `workloads`).  This
//! crate turns that telemetry into *decisions* — the sensing half of the
//! ROADMAP's fleet rollout orchestrator:
//!
//! * **Sampler** ([`HealthMonitor`]): every observed operation feeds a
//!   current window; windows close every [`MonitorConfig::window_ops`]
//!   operations (**op-indexed**, not wall-clock, so a 1-CPU CI container
//!   and a fast workstation close windows at the same points in the op
//!   stream).  At each close the monitor reads the counters through an
//!   optional [snapshot source](HealthMonitor::set_snapshot_source),
//!   differences them against the previous window's (saturating at zero),
//!   and pushes a [`WindowSummary`] (rates, p50/p99/max, error counts,
//!   per-phase attribution, slowest spans) into a bounded ring.
//! * **SLO engine**: declarative per-op-class error budgets ([`SloSpec`])
//!   evaluated with multi-window **burn-rate** alerting — a fast window
//!   pair ([`MonitorConfig::FAST_WINDOWS`], 5 windows) for responsiveness
//!   and a slow pair ([`MonitorConfig::SLOW_WINDOWS`], 60) for noise
//!   immunity, the standard SRE shape.  Crossing both thresholds emits a
//!   typed [`HealthEvent::SloBurnFired`]; the alert clears when the fast
//!   burn drops under [`MonitorConfig::CLEAR_BURN_THRESHOLD`].
//! * **Stall detectors**: an absolute whole-window detector
//!   ([`MonitorConfig::stall_threshold_ns`]) for gross pauses, and
//!   per-class **phase-stall** detectors ([`PhaseStallSpec`]) that flag a
//!   window when an op class spent over-threshold exclusive time in a
//!   phase it never enters on clean runs — the detector that separates
//!   reads parked behind a live upgrade (commit-wait on reads) from
//!   multi-millisecond group-commit and scheduling noise.
//! * **Flight recorder**: every fired alert (and every stall-flagged
//!   window, see [`MonitorConfig::stall_threshold_ns`]) freezes the last
//!   [`MonitorConfig::FREEZE_WINDOWS`] window summaries plus the slowest
//!   spans drained from the trace rings into an [`IncidentBundle`] — a
//!   self-contained JSON postmortem written next to the BENCH report.
//!
//! Like the trace hooks, the monitor is nearly free when off: the
//! disabled path of [`HealthMonitor::observe`] is a single `Relaxed`
//! atomic load ([`disabled_observe_cost_ns`] measures it; the bound is
//! CI-gated by the `health` experiment).
//!
//! ## Example
//!
//! ```
//! use monitor::{HealthMonitor, MonitorConfig, SloSpec};
//!
//! let cfg = MonitorConfig::new(8) // close a window every 8 ops
//!     .with_slo(SloSpec::error_budget("errors", "*", 0.01));
//! let monitor = HealthMonitor::new(cfg);
//! for _ in 0..64 {
//!     monitor.observe("read", 5_000, false, None);
//! }
//! assert_eq!(monitor.windows().len(), 8);
//! assert!(monitor.events().is_empty(), "clean traffic must not alert");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod incident;
pub mod slo;
pub mod window;

pub use engine::{HealthEvent, HealthMonitor};
pub use incident::IncidentBundle;
pub use slo::{MonitorConfig, PhaseStallSpec, SloSpec};
pub use window::{ClassWindowSummary, SpanSummary, WindowSummary};

use std::time::Instant;

/// Measures the disabled-path cost of [`HealthMonitor::observe`]: mean
/// nanoseconds per call while the monitor is switched off, median of five
/// batches (one preempted batch on a small container must not pollute the
/// figure).  Mirrors [`simkernel::trace::disabled_hook_cost_ns`]; the
/// `health` experiment gates this bound in CI.
pub fn disabled_observe_cost_ns(monitor: &HealthMonitor, calls_per_batch: u32) -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls_per_batch.max(1) {
                monitor.observe("probe", 1, false, None);
            }
            start.elapsed().as_nanos() as f64 / f64::from(calls_per_batch.max(1))
        })
        .collect();
    batches.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    batches[batches.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observe_is_one_atomic_load_cheap() {
        let monitor = HealthMonitor::new(MonitorConfig::new(4));
        monitor.set_enabled(false);
        let ns = disabled_observe_cost_ns(&monitor, 200_000);
        // Same bound and headroom rationale as the disabled trace hook.
        assert!(ns < 500.0, "disabled monitor observe costs {ns:.1} ns/call");
        assert!(monitor.windows().is_empty(), "disabled observes must not accumulate");
    }
}
