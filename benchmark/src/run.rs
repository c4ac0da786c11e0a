//! The untraced run: set-up, then per stack a software-only pass and a
//! wall-clock pass, producing the end-to-end metrics.

use std::time::Instant;

use serde_json::Value;
use simkernel::error::KernelResult;

use crate::exec::{self, Bed, Ending, PassResult, Segment, Tally, Unobserved};
use crate::model::Pool;
use crate::stacks::{self, Stack};
use crate::stats::{good_quartile, median, Better};
use crate::workloads::Workload;
use crate::BenchResult;

/// `run_seconds` of BENCHMARK.json: the length the plans below are sized for.
pub const REF_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Segments of a traced pass.
pub const SEGMENTS: u32 = 5;
/// Segments of a `sw` pass.
pub const SW_SEGMENTS: u32 = 8;

/// How one stack runs one workload: fixed op counts, never durations, so a
/// pass covers the same stretch of its op stream on every commit and every
/// machine.  `--seconds` only scales the units per segment ([`scaled`]).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Units per segment of the wall-clock (`timed`) pass at [`REF_SECONDS`].
    pub timed_units: u32,
    /// Segments of the `timed` pass.
    pub timed_segments: u32,
    /// Units per segment of the software-only (`sw`) pass at
    /// [`REF_SECONDS`]; the pass runs [`SW_SEGMENTS`] segments.
    pub sw_units: u32,
}

/// Segment sizes.  A unit is a 20-op deck (`mail_sync`), a 25-op deck
/// (`data_cached`) or one round (`tree_meta`: 1 662 ops, 24 on FUSE;
/// `cold_scan`: 256 ops, 96 on FUSE).  On the baseline a `timed` pass of
/// Bento, C-Kernel or FUSE takes 3.5-6.5 s of op time and one of ext4 about
/// 2 s, in segments of 0.25-0.8 s (FUSE, at >= 12 ms per log commit, 0.9-1.3 s);
/// a `sw` segment takes 0.15-0.25 s.
pub fn plan(workload: Workload, stack: Stack) -> Plan {
    use Stack::*;
    use Workload::*;
    let (timed_units, timed_segments, sw_units) = match (workload, stack) {
        (MailSync, Bento) => (60, 8, 300),
        (MailSync, CKernel) => (40, 8, 200),
        (MailSync, Fuse) => (1, 5, 100),
        (MailSync, Ext4) => (40, 8, 40),
        (DataCached, Bento) => (150, 8, 600),
        (DataCached, CKernel) => (32, 8, 400),
        (DataCached, Fuse) => (4, 5, 300),
        (DataCached, Ext4) => (140, 8, 1000),
        (TreeMeta, Bento) => (1, 7, 6),
        (TreeMeta, CKernel) => (1, 7, 5),
        (TreeMeta, Fuse) => (1, 5, 200),
        (TreeMeta, Ext4) => (6, 8, 25),
        (ColdScan, Bento | CKernel) => (1, 7, 5),
        (ColdScan, Fuse) => (3, 5, 8),
        (ColdScan, Ext4) => (1, 5, 16),
    };
    Plan { timed_units, timed_segments, sw_units }
}

/// Whether a run is too short to measure anything (`--smoke`): it still does
/// everything, once, on the small shape of every workload.
pub fn is_quick(seconds: f64) -> bool {
    seconds < 2.0
}

/// Scales a unit count sized for [`REF_SECONDS`] to `seconds`.
pub fn scaled(units: u32, seconds: f64) -> u32 {
    ((units as f64 * seconds / REF_SECONDS).round() as u32).max(1)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What one stack's two passes measured.
pub struct StackResult {
    pub stack: Stack,
    pub sw: PassResult,
    pub timed: PassResult,
}

impl StackResult {
    /// Ops per second of op time: the good quartile over `timed` segments.
    pub fn ops_per_s(&self) -> f64 {
        good_quartile(&self.timed.per_segment(|ops, ns| ops * 1e9 / ns), Better::Higher)
    }

    /// Software microseconds per op: the good quartile over `sw` segments.
    pub fn sw_us_per_op(&self) -> f64 {
        good_quartile(&self.sw.per_segment(|ops, ns| ns / 1e3 / ops), Better::Lower)
    }

    /// Modelled device (and, on FUSE, boundary) microseconds per op: a count.
    pub fn model_us_per_op(&self) -> f64 {
        self.sw.counters.model_ns as f64 / 1e3 / self.sw.ops as f64
    }

    /// `1e6 / ops_per_s - sw - model`, as a share of the op time: what
    /// neither the software nor the modelled hardware explains (lock waits,
    /// sleep overshoot, a noisy machine).
    pub fn residual(&self) -> f64 {
        let op_us = 1e6 / self.ops_per_s();
        (op_us - self.sw_us_per_op() - self.model_us_per_op()) / op_us
    }
}

/// Everything an untraced run produced.
pub struct EndToEnd {
    pub setup_s: f64,
    pub stacks: Vec<StackResult>,
}

/// mkfs + mount + populate + warm-up of all four stacks: what `setup_s`
/// times.  (The warm-up is a zero-unit segment: mount, warm up, verify,
/// unmount.)
fn set_up(
    workload: Workload,
    seed: u64,
    quick: bool,
    pool: &Pool,
    tally: &mut Tally,
) -> KernelResult<Vec<Bed>> {
    Stack::ALL
        .into_iter()
        .map(|stack| {
            let mut bed =
                exec::prepare(stack, workload, seed, stack.small() || quick, pool, tally)?;
            let warm_up = Segment {
                model: &stacks::nvme(true),
                traced: false,
                units: 0,
                ending: Ending::Clean,
                context: "set-up",
            };
            exec::run_segment(&mut bed, pool, warm_up, &mut Unobserved, tally)?;
            Ok(bed)
        })
        .collect()
}

/// Runs `workload` on all four stacks; `seconds` scales the op counts, which
/// are sized for [`REF_SECONDS`].
///
/// The set-up is done several times.  The first set of beds carries the
/// `sw` passes and the last the `timed` passes, so neither stream's state
/// depends on the other's.  The segments of all eight passes are then run
/// round-robin over the stacks — round `n` runs segment `n` of every pass
/// that has one: time on a shared machine drifts by several percent over
/// seconds, and a quartile over segments taken seconds apart, each on its
/// own mount, is far steadier than one over segments run back to back.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> BenchResult<EndToEnd> {
    let _one_cpu = crate::affinity::pin_to_one_cpu();
    let pool = Pool::new(seed);
    let quick = is_quick(seconds);
    let repeats = if quick { 2 } else { SETUP_REPEATS };
    let mut setup_times = Vec::new();
    let mut sets = Vec::new();
    for repeat in 0..repeats {
        let started = Instant::now();
        let beds = set_up(workload, seed, quick, &pool, tally)?;
        setup_times.push(started.elapsed().as_secs_f64());
        // Keep the first and the last; the ones between only time set-up.
        if repeat == 0 || repeat + 1 == repeats {
            sets.push(beds);
        }
    }
    let mut timed_beds = sets.pop().expect("set up at least twice");
    let mut sw_beds = sets.pop().expect("set up at least twice");

    let (sw_model, timed_model) = (stacks::nvme(false), stacks::nvme(true));
    let mut results: Vec<StackResult> = Stack::ALL
        .into_iter()
        .map(|stack| StackResult { stack, sw: PassResult::default(), timed: PassResult::default() })
        .collect();
    let sw_segments = if quick { 1 } else { SW_SEGMENTS };
    let timed_segments =
        |stack: Stack| if quick { 1 } else { plan(workload, stack).timed_segments };
    let rounds = Stack::ALL.into_iter().map(timed_segments).fold(sw_segments, u32::max);
    for round in 0..rounds {
        for (i, stack) in Stack::ALL.into_iter().enumerate() {
            if round >= sw_segments {
                continue;
            }
            // The cheap always-on durability check, on the last segment:
            // lose the mount, recover.
            let last = round + 1 == sw_segments;
            let crash = last && workload == Workload::MailSync && stack != Stack::Fuse;
            let segment = Segment {
                model: &sw_model,
                traced: false,
                units: scaled(plan(workload, stack).sw_units, seconds),
                ending: if crash { Ending::Crash } else { Ending::Clean },
                context: &format!("{} sw", stack.key()),
            };
            let part = exec::run_segment(&mut sw_beds[i], &pool, segment, &mut Unobserved, tally)?;
            results[i].sw.absorb(part);
        }
        // The `sw` segments of all stacks ran back to back (the CPU stays
        // busy and warm between them); now the `timed` ones.
        for (i, stack) in Stack::ALL.into_iter().enumerate() {
            if round >= timed_segments(stack) {
                continue;
            }
            let segment = Segment {
                model: &timed_model,
                traced: false,
                units: scaled(plan(workload, stack).timed_units, seconds),
                ending: Ending::Clean,
                context: &format!("{} timed", stack.key()),
            };
            let part =
                exec::run_segment(&mut timed_beds[i], &pool, segment, &mut Unobserved, tally)?;
            results[i].timed.absorb(part);
        }
    }
    Ok(EndToEnd { setup_s: median(&setup_times), stacks: results })
}

impl EndToEnd {
    /// One line per stack: what ran, and how op time splits into software,
    /// modelled hardware and an unexplained residual.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for r in &self.stacks {
            out += &format!(
                "{:<8} timed {:>6} ops in {:>2} segments {:>10.1} ops/s | sw {:>6} ops {:>8.2} us/op | model {:>9.2} us/op | residual {:>+5.1}%\n",
                r.stack.key(),
                r.timed.ops,
                r.timed.segments.len(),
                r.ops_per_s(),
                r.sw.ops,
                r.sw_us_per_op(),
                r.model_us_per_op(),
                r.residual() * 100.0,
            );
        }
        out
    }

    /// Run metadata for the result file: op counts per stack and pass, and
    /// the residual of `1e6 / ops_per_s - sw - model` per stack, so a noisy
    /// run identifies itself.
    pub fn meta(&self) -> Vec<(&'static str, Value)> {
        let per_stack = |f: &dyn Fn(&StackResult) -> Value| {
            Value::Object(self.stacks.iter().map(|r| (r.stack.key().to_string(), f(r))).collect())
        };
        vec![
            ("timed_ops", per_stack(&|r| Value::Int(r.timed.ops as i128))),
            ("sw_ops", per_stack(&|r| Value::Int(r.sw.ops as i128))),
            ("residual", per_stack(&|r| Value::Float(r.residual()))),
        ]
    }

    fn stack(&self, stack: Stack) -> &StackResult {
        self.stacks.iter().find(|r| r.stack == stack).expect("all four stacks ran")
    }

    /// The end-to-end metrics, in BENCHMARK.json order.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = vec![metric("setup_s", self.setup_s, "s")];
        for r in &self.stacks {
            out.push(metric(format!("{}_ops_per_s", r.stack.key()), r.ops_per_s(), "ops/s"));
        }
        let pct = |stack: Stack, p: f64| {
            good_quartile(&self.stack(stack).timed.segment_percentiles_us(p), Better::Lower)
        };
        out.push(metric("bento_p50_us", pct(Stack::Bento, 50.0), "us"));
        out.push(metric("bento_p95_us", pct(Stack::Bento, 95.0), "us"));
        out.push(metric("ckernel_p95_us", pct(Stack::CKernel, 95.0), "us"));
        for r in &self.stacks {
            out.push(metric(format!("{}_sw_us_per_op", r.stack.key()), r.sw_us_per_op(), "us/op"));
        }
        for stack in [Stack::Bento, Stack::CKernel] {
            let r = self.stack(stack);
            out.push(metric(
                format!("{}_model_us_per_op", stack.key()),
                r.model_us_per_op(),
                "us/op",
            ));
        }
        out
    }
}
