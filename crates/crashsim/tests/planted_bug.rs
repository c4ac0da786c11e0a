//! Proof that the checker has teeth: each protocol violation the journal
//! can be made to commit ([`PlantedFault`]) must be caught by the full
//! stack's oracles — fsck and fsync durability over enumerated crash
//! states of Bento xv6 and of ext4sim on the synchronous device — while
//! the identical run with nothing planted is clean.  The queued-device
//! twin is `queued_planted_bug.rs`.
//!
//! The one-barrier commit lets the commit record share a barrier epoch
//! with its payload, so what used to be planted *orderings* (record ahead
//! of payload) are now legal; the rules that carry the safety instead are
//! the payload digest at recovery, installs strictly after the commit
//! barrier, and the barrier ahead of a checkpoint's final header clear.

mod common;

use crashsim::{run_crash_test, CrashStack, CrashTestConfig};
use journal::PlantedFault;

use common::assert_caught;

fn config() -> CrashTestConfig {
    common::config(0xBAD_C0DE, 0)
}

#[test]
fn the_same_run_with_nothing_planted_is_clean() {
    let clean = run_crash_test(CrashStack::BentoXv6, &config()).unwrap();
    assert!(clean.is_clean(), "{:#?}", clean.violations.iter().take(3).collect::<Vec<_>>());
    assert!(
        common::clean_unmount_violations(CrashStack::BentoXv6, 0, PlantedFault::None).is_empty()
    );
}

/// (a) A record persisted ahead of its payload — or outliving it — is
/// replayed: recovery installs stale log-region bytes over live metadata.
#[test]
fn recovery_that_skips_the_payload_digest_is_caught() {
    assert_caught(CrashStack::BentoXv6, &config(), PlantedFault::TrustHeaderChecksum);
}

/// (b) A group half installed with no durable record to finish it from.
#[test]
fn installs_before_the_commit_barrier_are_caught() {
    assert_caught(CrashStack::BentoXv6, &config(), PlantedFault::InstallBeforeBarrier);
}

/// (c) An fsync-acknowledged file lost when the unmount's final header
/// clear overtakes the installs it presupposes.
#[test]
fn checkpoint_clear_without_barrier_is_caught() {
    let violations = common::clean_unmount_violations(
        CrashStack::BentoXv6,
        0,
        PlantedFault::CheckpointWithoutBarrier,
    );
    assert!(violations.iter().any(|v| v.contains("acknowledged")), "undetected: {violations:#?}");
}

/// ext4sim commits on the same journal, so it inherits the same rules and
/// the same teeth: the identical runs are clean with nothing planted, and
/// each planted fault is caught by ext4sim's consistency checker or the
/// durability oracle.
#[test]
fn ext4_the_same_run_with_nothing_planted_is_clean() {
    let clean = run_crash_test(CrashStack::Ext4, &config()).unwrap();
    assert!(clean.is_clean(), "{:#?}", clean.violations.iter().take(3).collect::<Vec<_>>());
    assert!(common::clean_unmount_violations(CrashStack::Ext4, 0, PlantedFault::None).is_empty());
}

#[test]
fn ext4_recovery_that_skips_the_payload_digest_is_caught() {
    assert_caught(CrashStack::Ext4, &config(), PlantedFault::TrustHeaderChecksum);
}

#[test]
fn ext4_installs_before_the_commit_barrier_are_caught() {
    assert_caught(CrashStack::Ext4, &config(), PlantedFault::InstallBeforeBarrier);
}

#[test]
fn ext4_checkpoint_clear_without_barrier_is_caught() {
    let violations = common::clean_unmount_violations(
        CrashStack::Ext4,
        0,
        PlantedFault::CheckpointWithoutBarrier,
    );
    assert!(violations.iter().any(|v| v.contains("acknowledged")), "undetected: {violations:#?}");
}
