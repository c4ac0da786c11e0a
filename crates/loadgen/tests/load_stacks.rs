//! Integration: the load drivers and scenarios against real mounted stacks.

use loadgen::{
    prepare, run_eio_under_load, run_load, run_upgrade_under_load, ErrorPolicy, Layout, LoadConfig,
    OpKind, WorkloadSpec,
};
use simkernel::cost::CostModel;
use workloads::{mount_stack, FsStack};

const DISK_BLOCKS: u64 = 24 * 1024;

fn quick(spec: WorkloadSpec) -> WorkloadSpec {
    spec.with_files(40)
}

#[test]
fn closed_loop_personalities_run_clean_on_every_stack() {
    // CI-sized sweep: every mix personality on the three journalling
    // stacks, no op may fail, histograms must be populated.
    for stack in [FsStack::BentoXv6, FsStack::VfsXv6, FsStack::Ext4] {
        for spec in [WorkloadSpec::varmail(), WorkloadSpec::fileserver(), WorkloadSpec::webserver()]
        {
            let spec = quick(spec);
            let mounted = mount_stack(stack, CostModel::zero(), DISK_BLOCKS)
                .unwrap_or_else(|e| panic!("mount {stack:?}: {e}"));
            let cfg = LoadConfig::closed(2, 150);
            prepare(&mounted.vfs, &spec, &cfg).unwrap();
            let result = run_load(&mounted.vfs, &spec, &cfg)
                .unwrap_or_else(|e| panic!("{} on {stack:?}: {e}", spec.name));
            assert!(result.is_clean(), "{} on {stack:?} must be clean", spec.name);
            assert_eq!(result.operations, 2 * 150, "every worker runs its whole script");
            assert!(result.overall.count() == result.operations);
            assert!(result.p_us(50.0) <= result.p_us(99.0));
            assert!(
                result.timeline.iter().sum::<u64>() == result.operations,
                "timeline must account for every completed op"
            );
            mounted.unmount().unwrap();
        }
    }
}

#[test]
fn per_class_stats_cover_the_mix() {
    let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), DISK_BLOCKS).unwrap();
    let spec = quick(WorkloadSpec::varmail());
    let cfg = LoadConfig::closed(2, 300);
    prepare(&mounted.vfs, &spec, &cfg).unwrap();
    let result = run_load(&mounted.vfs, &spec, &cfg).unwrap();
    // Every class the mix weights must see traffic in 600 ops.
    for (kind, _) in spec.mix.entries() {
        let class =
            result.class(*kind).unwrap_or_else(|| panic!("{} saw no traffic", kind.label()));
        assert!(class.completed > 0, "{} completed nothing", kind.label());
        assert_eq!(class.latency.count(), class.completed);
        assert_eq!(class.errors, 0);
    }
    mounted.unmount().unwrap();
}

#[test]
fn traced_run_attributes_phases_per_class() {
    use simkernel::trace::{self, Phase};

    let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), DISK_BLOCKS).unwrap();
    let spec = quick(WorkloadSpec::varmail());
    let cfg = LoadConfig::closed(2, 300);
    prepare(&mounted.vfs, &spec, &cfg).unwrap();
    let _tracing = trace::enable();
    let result = run_load(&mounted.vfs, &spec, &cfg).unwrap();
    assert!(result.is_clean());
    assert!(!result.traces.is_empty(), "tracing was on: traces must be captured");
    for class in &result.traces {
        let stats = result.class(class.kind).expect("traced class saw traffic");
        assert_eq!(
            class.spans,
            stats.completed,
            "{}: every completed op spans",
            class.kind.label()
        );
        assert_eq!(class.total.count(), class.spans);
        // Exclusive attribution never exceeds the measured total.
        assert!(class.attributed_ns() <= class.total_sum_ns, "{}", class.kind.label());
        assert!(!class.slowest.is_empty() && class.slowest.len() <= loadgen::SLOWEST_K);
        assert!(
            class.slowest.windows(2).all(|w| w[0].total_ns >= w[1].total_ns),
            "slowest spans are kept sorted, slowest first"
        );
    }
    // The durability class on a journalling stack must have passed through
    // the journal commit and touched the device.
    let fsync = result.trace_class(OpKind::Fsync).expect("varmail fsyncs");
    assert!(fsync.per_phase[Phase::CommitWait.index()].count() > 0, "fsync saw no commit-wait");
    assert!(fsync.per_phase[Phase::DevIo.index()].count() > 0, "fsync saw no device I/O");
    mounted.unmount().unwrap();

    // Without tracing the same run keeps traces empty (the disabled path).
    drop(_tracing);
    let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), DISK_BLOCKS).unwrap();
    prepare(&mounted.vfs, &spec, &cfg).unwrap();
    let result = run_load(&mounted.vfs, &spec, &cfg).unwrap();
    assert!(result.traces.is_empty(), "tracing off: no spans may be captured");
    mounted.unmount().unwrap();
}

#[test]
fn untar_replay_extracts_the_manifest_with_latency() {
    let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), DISK_BLOCKS).unwrap();
    let spec = WorkloadSpec::untar_replay(60, 7);
    let Layout::Replay(manifest) = spec.layout.clone() else { panic!("a replay spec") };
    let cfg = LoadConfig::closed(2, 0); // a replay runs its whole manifest
    let result = run_load(&mounted.vfs, &spec, &cfg).unwrap();
    assert!(result.is_clean());
    let entries = manifest.ops.len() as u64;
    assert_eq!(result.operations, entries, "every manifest entry replays exactly once");
    assert_eq!(result.bytes, manifest.total_bytes());
    assert!(result.class(OpKind::Mkdir).unwrap().completed >= 8);
    assert!(result.class(OpKind::Create).unwrap().completed as usize == manifest.file_count());
    for op in &manifest.ops {
        if let workloads::Op::Create { path, len, .. } = op {
            assert_eq!(mounted.vfs.stat(path).unwrap().size, *len, "{path}");
        }
    }
    mounted.unmount().unwrap();
}

#[test]
fn upgrade_under_load_pauses_briefly_and_fails_nothing() {
    let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), DISK_BLOCKS).unwrap();
    let spec = quick(WorkloadSpec::varmail());
    let cfg = LoadConfig::closed(2, 500);
    prepare(&mounted.vfs, &spec, &cfg).unwrap();
    let (result, outcome) = run_upgrade_under_load(&mounted, &spec, &cfg, None).unwrap();
    // The paper's bar: traffic keeps flowing (FailFast would have errored),
    // nothing fails, and the pause is bounded and measured.
    assert!(result.is_clean(), "zero failed ops across the live upgrade");
    assert!(result.operations > 0);
    assert!(outcome.report.pause_ns > 0, "pause must be measured");
    assert!(
        outcome.report.pause_ns < 1_000_000_000,
        "upgrade paused {} ms",
        outcome.report.pause_ns / 1_000_000
    );
    assert!(outcome.report.drain_ns + outcome.report.transfer_ns <= outcome.report.pause_ns);
    assert_eq!(outcome.report.generation, 1);
    assert_eq!(result.operations, 2 * 500, "the run keeps going across the swap");
    assert!(outcome.fired_at < result.elapsed, "fired mid-run");
    // The swapped-in instance keeps serving: ops completed in windows after
    // the upgrade fired.
    let fired_window = (outcome.fired_at.as_nanos() / cfg.window.as_nanos()) as usize;
    let after: u64 = result.timeline[fired_window.min(result.timeline.len() - 1)..].iter().sum();
    assert!(after > 0, "no completions observed after the upgrade fired");
    mounted.unmount().unwrap();

    // On a non-Bento stack the scenario refuses cleanly.
    let vfs_stack = mount_stack(FsStack::VfsXv6, CostModel::zero(), DISK_BLOCKS).unwrap();
    assert!(run_upgrade_under_load(&vfs_stack, &spec, &cfg, None).is_err());
    vfs_stack.unmount().unwrap();
}

#[test]
fn transient_eio_under_load_is_counted_and_survived() {
    let spec = quick(WorkloadSpec::varmail());
    let cfg = LoadConfig { error_policy: ErrorPolicy::Count, ..LoadConfig::closed(2, 600) };
    let (result, outcome) =
        run_eio_under_load(FsStack::BentoXv6, CostModel::zero(), DISK_BLOCKS, &spec, &cfg, 0.02)
            .unwrap();
    assert!(result.operations > 0, "traffic must flow around the fault window");
    assert!(outcome.recovered, "stack must serve durable writes after the fault clears");
    let injected = outcome.fault_stats.read_errors + outcome.fault_stats.write_errors;
    if injected > 0 {
        assert!(
            result.errors > 0,
            "{injected} injected device EIOs must surface as counted op failures"
        );
    }
}
