//! The untraced run at a size that is not a smoke run: every pass runs
//! exactly the segments its plan owes, however fast the machine and the code
//! under test are, and the durability check on the last `sw` segment is
//! therefore always reached.

use bento_benchmark::exec::Tally;
use bento_benchmark::run::{self, plan, scaled, SW_SEGMENTS};
use bento_benchmark::stacks::Stack;
use bento_benchmark::workloads::Workload;

/// The shortest run that is not a smoke run: a tenth of the reference size.
const SECONDS: f64 = 2.0;

#[test]
fn every_pass_runs_its_fixed_segments_and_the_durability_check() {
    let workload = Workload::MailSync;
    let mut tally = Tally::default();
    let measured = run::end_to_end(workload, 42, SECONDS, &mut tally).unwrap();
    assert_eq!(tally.failed, 0, "{:?}", tally.messages);
    for r in &measured.stacks {
        let plan = plan(workload, r.stack);
        let unit_ops = workload.unit_ops(r.stack.small()) as u64;
        assert_eq!(r.sw.segments.len() as u32, SW_SEGMENTS, "{:?}", r.stack);
        assert_eq!(r.timed.segments.len() as u32, plan.timed_segments, "{:?}", r.stack);
        let sw_units = (SW_SEGMENTS * scaled(plan.sw_units, SECONDS)) as u64;
        let timed_units = (plan.timed_segments * scaled(plan.timed_units, SECONDS)) as u64;
        assert_eq!(r.sw.ops, sw_units * unit_ops, "{:?}", r.stack);
        assert_eq!(r.timed.ops, timed_units * unit_ops, "{:?}", r.stack);
        // The last `sw` segment drops the mount and recovers (not on FUSE).
        assert_eq!(r.sw.recoveries, (r.stack != Stack::Fuse) as u32, "{:?}", r.stack);
        assert_eq!(r.timed.recoveries, 0);
    }
}
