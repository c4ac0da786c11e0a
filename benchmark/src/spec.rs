//! BENCHMARK.json, compiled in: the one place metric names, units,
//! directions and bounds are written down.  The run reports its metrics in
//! this order and `compare` judges differences by these bounds, so the file
//! the driver reads and the program cannot drift apart.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        _ => panic!("BENCHMARK.json: `{key}` must be an array"),
    }
}

fn string(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        _ => panic!("BENCHMARK.json: `{key}` must be a string"),
    }
}

/// A JSON number, integral or not.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn number(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(as_f64)
}

fn metrics(root: &Value, key: &str) -> Vec<MetricSpec> {
    array(root, key)
        .iter()
        .map(|m| MetricSpec {
            name: string(m, "name"),
            unit: string(m, "unit"),
            higher_is_better: string(m, "better") == "higher",
            bound: number(m, "bound"),
        })
        .collect()
}

/// The parsed BENCHMARK.json this binary was built with.
pub fn spec() -> Spec {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    Spec {
        run_seconds: number(&root, "run_seconds").expect("BENCHMARK.json: run_seconds"),
        workloads: array(&root, "workloads").iter().map(|w| string(w, "name")).collect(),
        end_to_end: metrics(&root, "end_to_end"),
        per_layer: metrics(&root, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn benchmark_json_matches_the_program() {
        let spec = spec();
        assert_eq!(spec.run_seconds, crate::run::REF_SECONDS);
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let max_bound = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max_bound), "setup_s carries the largest bound");
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
