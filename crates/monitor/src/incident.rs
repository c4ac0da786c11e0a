//! Incident bundles: the flight recorder's frozen evidence.

use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::engine::HealthEvent;
use crate::window::{SpanSummary, WindowSummary};

/// A frozen postmortem for one alert: the triggering event, the trailing
/// window summaries, and the slowest spans drained from the trace rings at
/// freeze time.  Serialized to `INCIDENT_*.json` next to the BENCH report
/// so a tripped CI gate ships its own evidence.
#[derive(Debug, Clone, Serialize)]
pub struct IncidentBundle {
    /// Monotone id within the monitor instance.
    pub id: u64,
    /// The event that froze this bundle.
    pub trigger: HealthEvent,
    /// The last [`MonitorConfig::FREEZE_WINDOWS`](crate::MonitorConfig::FREEZE_WINDOWS)
    /// window summaries, oldest first.
    pub windows: Vec<WindowSummary>,
    /// Slowest spans still in the trace rings at freeze time, slowest
    /// first (empty when tracing was off).
    pub slowest_spans: Vec<SpanSummary>,
}

/// The top-level keys every incident bundle must carry —
/// [`IncidentBundle::schema_check`] and the `health` experiment gate on
/// these.
pub const SCHEMA_KEYS: [&str; 4] = ["id", "trigger", "windows", "slowest_spans"];

impl IncidentBundle {
    /// Serializes the bundle to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// File name this bundle is written under (`INCIDENT_<id>_<kind>.json`).
    pub fn file_name(&self) -> String {
        format!("INCIDENT_{}_{}.json", self.id, self.trigger.kind())
    }

    /// Writes the bundle into `dir` and returns the file's path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Validates that `json` parses and carries the incident schema:
    /// every [`SCHEMA_KEYS`] top-level key, a `kind` inside the trigger,
    /// and per-window `index`/`ops`/`errors` fields.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn schema_check(json: &str) -> Result<(), String> {
        let value: serde::Value =
            serde_json::from_str(json).map_err(|e| format!("incident bundle is not JSON: {e}"))?;
        for key in SCHEMA_KEYS {
            if value.get(key).is_none() {
                return Err(format!("incident bundle missing top-level key {key:?}"));
            }
        }
        let trigger = value.get("trigger").expect("checked above");
        if trigger.get("kind").is_none() {
            return Err("incident trigger missing `kind`".to_string());
        }
        let Some(serde::Value::Array(windows)) = value.get("windows") else {
            return Err("incident `windows` is not an array".to_string());
        };
        for (i, window) in windows.iter().enumerate() {
            for key in ["index", "ops", "errors", "p99_ns", "max_ns", "counter_deltas"] {
                if window.get(key).is_none() {
                    return Err(format!("incident window {i} missing {key:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn bundle() -> IncidentBundle {
        IncidentBundle {
            id: 3,
            trigger: HealthEvent::SloBurnFired {
                slo: "budget".to_string(),
                window: 12,
                fast_burn: 9.5,
                slow_burn: 2.0,
            },
            windows: vec![WindowSummary {
                index: 12,
                ops: 250,
                errors: 6,
                p50_ns: 10_000,
                p99_ns: 90_000,
                max_ns: 200_000,
                slo_bad: vec![6],
                slo_ops: vec![256],
                phase_ns: vec![0; 5],
                counter_deltas: BTreeMap::from([("dev.writes".to_string(), 40u64)]),
                classes: BTreeMap::new(),
                slowest: Vec::new(),
            }],
            slowest_spans: Vec::new(),
        }
    }

    #[test]
    fn bundle_json_passes_its_own_schema_check() {
        let json = bundle().to_json();
        IncidentBundle::schema_check(&json).expect("self-produced bundle must validate");
        assert!(json.contains("slo-burn-fired"));
        assert!(json.contains("dev.writes"));
    }

    #[test]
    fn schema_check_rejects_garbage_and_missing_keys() {
        assert!(IncidentBundle::schema_check("not json").is_err());
        assert!(IncidentBundle::schema_check("{\"id\": 1}").is_err());
    }

    #[test]
    fn write_to_produces_the_named_file() {
        let dir =
            std::env::temp_dir().join(format!("monitor-incident-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = bundle().write_to(&dir).unwrap();
        assert!(path.ends_with("INCIDENT_3_slo-burn-fired.json"));
        let json = std::fs::read_to_string(&path).unwrap();
        IncidentBundle::schema_check(&json).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
