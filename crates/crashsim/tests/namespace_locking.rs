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
//! same ones; two per stack, because the directory locks drop before
//! `end_op`, so commits from different directories pipeline and each seed
//! interleaves them with namespace traffic differently.  The second seed of
//! each stack keeps the test name it had when it ran through the queued
//! device at depth 8; that device is gone, and the seed now runs on the
//! synchronous recorder like the first.

use crashsim::{run_crash_test, CrashTestConfig};
use workloads::FsStack;

fn assert_clean(stack: FsStack, cfg: &CrashTestConfig) {
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
    assert_clean(FsStack::BentoXv6, &CrashTestConfig::standard(0xD1_5108));
}

#[test]
fn vfs_xv6_with_per_directory_locks_survives_sampled_crashes() {
    assert_clean(FsStack::VfsXv6, &CrashTestConfig::standard(0xD1_5109));
}

#[test]
fn bento_xv6_per_directory_locks_stay_clean_at_queue_depth_8() {
    assert_clean(FsStack::BentoXv6, &CrashTestConfig::standard(0xD1_510A));
}

#[test]
fn vfs_xv6_per_directory_locks_stay_clean_at_queue_depth_8() {
    assert_clean(FsStack::VfsXv6, &CrashTestConfig::standard(0xD1_510B));
}
