//! Acceptance tests: crash enumeration over a seeded 200-op randomized
//! trace reports zero oracle violations (fsck clean + fsync durability) on
//! all three crash-tested stacks.

use crashsim::{
    run_crash_test, run_crash_test_inspected, CrashMode, CrashReport, CrashStack, CrashState,
    CrashTestConfig,
};
use journal::record::{parse_head, payload_digest, BSIZE};
use journal::PlantedFault;
use simkernel::dev::BlockDevice;

fn assert_clean(stack: CrashStack, cfg: &CrashTestConfig) {
    let report = run_crash_test(stack, cfg).unwrap_or_else(|e| panic!("{stack:?}: {e}"));
    assert_clean_report(stack, cfg, &report);
}

fn assert_clean_report(stack: CrashStack, cfg: &CrashTestConfig, report: &CrashReport) {
    assert_eq!(report.ops_run, cfg.ops);
    assert!(report.fsync_points > 0, "{stack:?}: workload must hit durability points");
    assert!(report.trace_writes > 0 && report.trace_epochs > 1, "{stack:?}: trace too small");
    assert!(report.states_checked > 0);
    assert!(
        report.is_clean(),
        "{stack:?}: {} violations, e.g. {:#?}",
        report.violations_found,
        report.violations.iter().take(5).collect::<Vec<_>>()
    );
}

#[test]
fn bento_xv6_survives_sampled_crash_states_over_200_ops() {
    assert_clean(CrashStack::BentoXv6, &CrashTestConfig::standard(0xB3_2021));
}

#[test]
fn vfs_xv6_survives_sampled_crash_states_over_200_ops() {
    assert_clean(CrashStack::VfsXv6, &CrashTestConfig::standard(0xC6_2021));
}

/// ext4sim commits data and the metadata mapping it in one journal group:
/// the enumeration must recover clean *and* visit states whose medium
/// holds a valid commit record naming both kinds of home (an inode-table
/// block and a data-area block).
#[test]
fn ext4sim_survives_sampled_crash_states_over_200_ops() {
    let cfg = CrashTestConfig::standard(0xE4_2021);
    let mut mixed_records = 0usize;
    let report =
        run_crash_test_inspected(CrashStack::Ext4, &cfg, PlantedFault::None, &mut |state| {
            mixed_records += usize::from(holds_a_data_and_metadata_record(state, cfg.disk_blocks));
        })
        .unwrap();
    assert_clean_report(CrashStack::Ext4, &cfg, &report);
    assert!(mixed_records > 0, "no crash state held a record naming data and metadata homes");
}

/// Whether one of ext4sim's region headers on `state`'s medium is a valid
/// commit record (sealed over the payload behind it) naming both an
/// inode-table home and a data-area home.
fn holds_a_data_and_metadata_record(state: &CrashState, disk_blocks: u64) -> bool {
    let config = ext4sim::journal_config(disk_blocks);
    let read = |blockno: u64| {
        let mut block = vec![0u8; BSIZE];
        state.disk.read_block(blockno, &mut block).unwrap();
        block
    };
    (0..2u64).any(|region| {
        let head = config.start + region * config.region_size as u64;
        let Some(record) = parse_head(&read(head), config.capacity) else { return false };
        let payload: Vec<Vec<u8>> =
            (1..=record.homes.len() as u64).map(|i| read(head + i)).collect();
        payload_digest(payload.iter().map(Vec::as_slice)) == record.payload_digest
            && record.homes.iter().any(|&home| home < ext4sim::DATA_START)
            && record.homes.iter().any(|&home| home >= ext4sim::DATA_START)
    })
}

#[test]
fn exhaustive_prefix_enumeration_is_clean_on_a_short_trace() {
    // Every in-order write-stream prefix of a smaller workload, on the
    // stack with the most complex commit pipeline.
    let cfg = CrashTestConfig {
        seed: 0x9E37,
        ops: 30,
        disk_blocks: 4096,
        mode: CrashMode::Prefixes,
        max_violations: 16,
        queue_depth: 0,
    };
    let report = run_crash_test(CrashStack::BentoXv6, &cfg).unwrap();
    assert!(report.states_checked > report.trace_writes, "one state per event boundary");
    assert!(
        report.is_clean(),
        "{} violations, e.g. {:#?}",
        report.violations_found,
        report.violations.iter().take(5).collect::<Vec<_>>()
    );
}

#[test]
fn different_seeds_produce_different_traces_but_stay_clean() {
    for seed in [1u64, 2, 3] {
        let cfg = CrashTestConfig {
            ops: 60,
            mode: CrashMode::Sampled { states: 48 },
            ..CrashTestConfig::standard(seed)
        };
        for stack in CrashStack::all() {
            let report = run_crash_test(stack, &cfg).unwrap();
            assert!(
                report.is_clean(),
                "{stack:?} seed {seed}: {:#?}",
                report.violations.iter().take(3).collect::<Vec<_>>()
            );
        }
    }
}
