//! Crash-consistency coverage for the per-directory namespace locks.
//!
//! PR 8 replaced the per-mount namespace mutex in both xv6 stacks with a
//! per-directory lock table (`simkernel::nslock`) and moved the lifecycle
//! `RwLock` to an `Arc`-clone read.  The locking change must not alter
//! what reaches the disk: transactions still open after the directory
//! locks are taken and commit after they drop, so every crash state that
//! was recoverable before must still be recoverable.
//!
//! The harness workload mixes creates, cross-directory renames, unlinks
//! and rmdirs, so a sampled enumeration run here drives crash/recovery
//! straight through the new lock paths.  Fresh seeds (distinct from
//! `stacks_recover.rs`) buy different traces rather than re-checking the
//! same ones, and one run goes through the queued device at depth 8 so the
//! overlapped-commit pipeline is exercised under the new locking too.

use crashsim::{run_crash_test, CrashStack, CrashTestConfig};

fn assert_clean(stack: CrashStack, cfg: &CrashTestConfig) {
    let report = run_crash_test(stack, cfg).unwrap_or_else(|e| panic!("{stack:?}: {e}"));
    assert_eq!(report.ops_run, cfg.ops);
    assert!(report.states_checked > 0);
    assert!(
        report.is_clean(),
        "{stack:?}: {} violations, e.g. {:#?}",
        report.violations_found,
        report.violations.iter().take(5).collect::<Vec<_>>()
    );
}

#[test]
fn bento_xv6_with_per_directory_locks_survives_sampled_crashes() {
    assert_clean(CrashStack::BentoXv6, &CrashTestConfig::standard(0xD1_5108));
}

#[test]
fn vfs_xv6_with_per_directory_locks_survives_sampled_crashes() {
    assert_clean(CrashStack::VfsXv6, &CrashTestConfig::standard(0xD1_5109));
}

#[test]
fn bento_xv6_per_directory_locks_stay_clean_at_queue_depth_8() {
    // The batched commit epochs interleave with namespace traffic;
    // the directory locks drop before end_op, so commits from different
    // directories pipeline — crash states must still all recover.
    assert_clean(CrashStack::BentoXv6, &CrashTestConfig::standard(0xD1_510A).with_queue_depth(8));
}

#[test]
fn vfs_xv6_per_directory_locks_stay_clean_at_queue_depth_8() {
    assert_clean(CrashStack::VfsXv6, &CrashTestConfig::standard(0xD1_510B).with_queue_depth(8));
}
