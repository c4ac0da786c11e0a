//! `bento-benchmark run|compare` — see README.md.

use std::process::ExitCode;

use bento_benchmark::exec::Tally;
use bento_benchmark::run::{self, Metric};
use bento_benchmark::workloads::Workload;
use bento_benchmark::{probes, report, spec, traced, BenchResult};
use serde_json::Value;

const USAGE: &str = "usage:
  bento-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
  bento-benchmark compare A.json B.json

run      measures one workload (default: all four) on all four stacks.
         --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
         metrics; without --trace both runs are made.  The last line of
         standard output is one JSON object: correct, attempted, failed,
         metrics.  Exits nonzero if any operation or verification failed.
         --seconds scales the fixed op counts (20, the default, is the size
         they are given at); it is not a time limit.
         --smoke is a ~1/50-size run of everything (not for numbers).
compare  prints both files' end-to-end metrics side by side and exits
         nonzero if any pair differs by more than the metric's bound.";

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> BenchResult<RunArgs> {
    let spec = spec::spec();
    let mut parsed = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: spec.run_seconds,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.seconds = 0.4;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let workload = Workload::from_name(value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                parsed.workloads = vec![workload];
            }
            "--seed" => parsed.seed = value.parse()?,
            "--seconds" => {
                parsed.seconds = value.parse()?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown option `{flag}`").into()),
        }
    }
    Ok(parsed)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for m in metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &[String]) -> BenchResult<ExitCode> {
    let args = parse_run(args)?;
    let spec = spec::spec();
    let many = args.workloads.len() > 1;
    let mut total = Tally::default();
    let mut line_metrics = Vec::new();
    let mut entries = Vec::new();
    for &workload in &args.workloads {
        println!("== {} (seed {}, {} s)", workload.name(), args.seed, args.seconds);
        let mut tally = Tally::default();
        let mut extra = Vec::new();
        let mut end_to_end = None;
        let mut per_layer = None;
        if args.trace != Some(true) {
            let measured = run::end_to_end(workload, args.seed, args.seconds, &mut tally)?;
            print!("{}", measured.summary());
            extra.extend(measured.meta());
            extra.push(("delay_error_pct", Value::Float(probes::delay_error_pct())));
            let metrics = report::in_spec_order(measured.metrics(), &spec.end_to_end)?;
            print_metrics("end to end", &metrics);
            end_to_end = Some(metrics);
        }
        if args.trace != Some(false) {
            let (metrics, spans) =
                traced::per_layer(workload, args.seed, args.seconds, &mut tally)?;
            let metrics = report::in_spec_order(metrics, &spec.per_layer)?;
            print_metrics("per layer", &metrics);
            println!("spans written to {}", spans.display());
            per_layer = Some(metrics);
        }
        println!("{} operations and checks attempted, {} failed", tally.attempted, tally.failed);
        entries.push((
            workload.name().to_string(),
            report::workload_entry(&tally, end_to_end.as_deref(), per_layer.as_deref(), extra),
        ));
        for mut m in end_to_end.into_iter().chain(per_layer).flatten() {
            if many {
                m.name = format!("{}/{}", workload.name(), m.name);
            }
            line_metrics.push(m);
        }
        total.attempted += tally.attempted;
        total.failed += tally.failed;
    }
    if let Some(path) = &args.out {
        let meta = report::run_meta(args.seed, args.seconds);
        std::fs::write(path, report::result_file(meta, entries))?;
    }
    println!("{}", report::result_line(&total, &line_metrics));
    Ok(if total.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare(args: &[String]) -> BenchResult<ExitCode> {
    let [a, b] = args else { return Err(USAGE.into()) };
    let (a, b) = (std::fs::read_to_string(a)?, std::fs::read_to_string(b)?);
    let unresolved = report::compare(&spec::spec(), &a, &b)?;
    println!("{unresolved} unresolved");
    Ok(if unresolved == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => run(rest),
        Some((command, rest)) if command == "compare" => compare(rest),
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
