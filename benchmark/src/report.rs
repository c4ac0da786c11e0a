//! Result files and the `compare` subcommand.

use std::collections::{BTreeMap, BTreeSet};

use serde_json::Value;

use crate::exec::Tally;
use crate::run::Metric;
use crate::spec::{as_f64, Spec};
use crate::BenchResult;

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `{"name": {"value": v, "unit": u}, ...}` in the order given.
pub fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let value = object(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

/// The object the driver reads from the last line of standard output.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let line = object(vec![
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::Int(tally.attempted.max(1) as i128)),
        ("failed", Value::Int(tally.failed as i128)),
        ("metrics", metrics_value(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always serializes")
}

/// Puts `metrics` in the order BENCHMARK.json lists them, and insists that
/// exactly those were produced.
pub fn in_spec_order(
    metrics: Vec<Metric>,
    listed: &[crate::spec::MetricSpec],
) -> BenchResult<Vec<Metric>> {
    let mut by_name: BTreeMap<String, Metric> =
        metrics.into_iter().map(|m| (m.name.clone(), m)).collect();
    let mut ordered = Vec::new();
    for spec in listed {
        let m = by_name
            .remove(&spec.name)
            .ok_or_else(|| format!("metric `{}` of BENCHMARK.json was not measured", spec.name))?;
        if m.unit != spec.unit {
            return Err(format!(
                "metric `{}`: unit {} but BENCHMARK.json says {}",
                m.name, m.unit, spec.unit
            )
            .into());
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{}` is not a finite number", m.name).into());
        }
        ordered.push(m);
    }
    if let Some(extra) = by_name.keys().next() {
        return Err(format!("metric `{extra}` is not listed in BENCHMARK.json").into());
    }
    Ok(ordered)
}

/// What identifies a run, recorded in every result file so that a noisy or
/// mismatched run identifies itself.
pub fn run_meta(seed: u64, seconds: f64) -> Value {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(vec![
        ("git_rev", Value::Str(git_rev)),
        ("nproc", Value::Int(nproc as i128)),
        ("seed", Value::Int(seed as i128)),
        ("seconds", Value::Float(seconds)),
    ])
}

/// `results.<workload>.end_to_end.<metric>.value` of a result file.
fn end_to_end_values(file: &Value) -> BTreeMap<(String, String), f64> {
    let mut out = BTreeMap::new();
    let Some(Value::Object(workloads)) = file.get("results") else { return out };
    for (workload, result) in workloads {
        let Some(Value::Object(metrics)) = result.get("end_to_end") else { continue };
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(as_f64) {
                out.insert((workload.clone(), name.clone()), value);
            }
        }
    }
    out
}

fn failed_ops(file: &Value) -> f64 {
    let Some(Value::Object(workloads)) = file.get("results") else { return 0.0 };
    workloads.iter().filter_map(|(_, r)| r.get("failed").and_then(as_f64)).sum()
}

/// Prints, per workload and end-to-end metric, both values, the relative
/// difference and the bound, and returns how many pairs are `unresolved`:
/// further apart than the bound in either direction, or measured in only one
/// of the files.  Two runs of the same code must agree; so must a change
/// that claims to leave a metric alone.
pub fn compare(spec: &Spec, a: &str, b: &str) -> BenchResult<usize> {
    let a: Value = serde_json::from_str(a)?;
    let b: Value = serde_json::from_str(b)?;
    for (label, file) in [("A", &a), ("B", &b)] {
        let meta = file.get("meta").map(|m| serde_json::to_string(m).unwrap_or_default());
        println!("{label}: {}", meta.unwrap_or_else(|| "no meta".into()));
    }
    let (va, vb) = (end_to_end_values(&a), end_to_end_values(&b));
    let pairs: BTreeSet<&(String, String)> = va.keys().chain(vb.keys()).collect();
    if pairs.is_empty() {
        return Err("neither file holds an end-to-end metric".into());
    }
    let mut unresolved = 0;
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for pair in pairs {
        let (workload, name) = pair;
        let Some(m) = spec.end_to_end.iter().find(|m| &m.name == name) else { continue };
        let (Some(&x), Some(&y)) = (va.get(pair), vb.get(pair)) else {
            unresolved += 1;
            let only = if va.contains_key(pair) { "A" } else { "B" };
            println!("{workload:<12} {name:<26} measured in {only} only  unresolved");
            continue;
        };
        let bound = m.bound.unwrap_or(0.0);
        // A metric that was 0 and no longer is differs without limit.
        let diff = if x == y { 0.0 } else { (y - x) / x };
        let verdict = if diff.abs() > bound {
            unresolved += 1;
            "unresolved"
        } else {
            "ok"
        };
        println!(
            "{workload:<12} {name:<26} {x:>14.4} {y:>14.4} {:>+7.2}% {:>5.0}%  {verdict}",
            diff * 100.0,
            bound * 100.0
        );
    }
    for (label, file) in [("A", &a), ("B", &b)] {
        let failed = failed_ops(file);
        if failed > 0.0 {
            println!("{label}: {failed} failed operations");
            unresolved += 1;
        }
    }
    Ok(unresolved)
}

/// A whole result file: run metadata plus one entry per workload.
pub fn result_file(meta: Value, results: Vec<(String, Value)>) -> String {
    let file = object(vec![("meta", meta), ("results", Value::Object(results))]);
    serde_json::to_string_pretty(&file).expect("a value tree always serializes")
}

/// One workload's entry of a result file.
pub fn workload_entry(
    tally: &Tally,
    end_to_end: Option<&[Metric]>,
    per_layer: Option<&[Metric]>,
    extra: Vec<(&str, Value)>,
) -> Value {
    let mut fields = vec![
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::Int(tally.attempted as i128)),
        ("failed", Value::Int(tally.failed as i128)),
        ("failures", Value::Array(tally.messages.iter().cloned().map(Value::Str).collect())),
    ];
    if let Some(metrics) = end_to_end {
        fields.push(("end_to_end", metrics_value(metrics)));
    }
    if let Some(metrics) = per_layer {
        fields.push(("per_layer", metrics_value(metrics)));
    }
    fields.extend(extra);
    object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::metric;

    fn file_of(workload: &str, ops_per_s: f64) -> String {
        let tally = Tally { attempted: 10, ..Tally::default() };
        let metrics = [metric("bento_ops_per_s", ops_per_s, "ops/s")];
        let entry = workload_entry(&tally, Some(&metrics), None, Vec::new());
        result_file(run_meta(1, 1.0), vec![(workload.into(), entry)])
    }

    fn file(ops_per_s: f64) -> String {
        file_of("mail_sync", ops_per_s)
    }

    #[test]
    fn compare_flags_differences_beyond_the_bound_in_either_direction() {
        let spec = crate::spec::spec();
        let bound =
            spec.end_to_end.iter().find(|m| m.name == "bento_ops_per_s").unwrap().bound.unwrap();
        assert_eq!(compare(&spec, &file(1000.0), &file(1000.0 * (1.0 + bound / 2.0))).unwrap(), 0);
        assert_eq!(compare(&spec, &file(1000.0), &file(1000.0 * (1.0 + bound * 2.0))).unwrap(), 1);
        assert_eq!(compare(&spec, &file(1000.0), &file(1000.0 * (1.0 - bound * 2.0))).unwrap(), 1);
    }

    #[test]
    fn compare_does_not_pass_what_it_could_not_compare() {
        let spec = crate::spec::spec();
        // Disjoint workloads: each metric is measured in one file only.
        let other = file_of("cold_scan", 1000.0);
        assert_eq!(compare(&spec, &file(1000.0), &other).unwrap(), 2);
        // A metric that was 0 and no longer is.
        assert_eq!(compare(&spec, &file(0.0), &file(1000.0)).unwrap(), 1);
        assert_eq!(compare(&spec, &file(0.0), &file(0.0)).unwrap(), 0);
        assert!(compare(&spec, "{}", "{}").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally { attempted: 3, failed: 1, messages: vec![] };
        let line = result_line(&tally, &[metric("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":3,"failed":1,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
