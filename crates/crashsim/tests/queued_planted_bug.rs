//! Proof that the queued-device crash checker has teeth: the planted
//! protocol violations of `planted_bug.rs`, committed through the
//! multi-queue device (queue depth 8) — batched submissions of due
//! installs and payload, and the record, all reordering freely inside
//! their barrier epoch.

mod common;

use crashsim::{run_crash_test, CrashTestConfig};
use journal::PlantedFault;
use workloads::FsStack;

use common::assert_caught;

fn config() -> CrashTestConfig {
    common::config(0xBAD_0B10, 8)
}

#[test]
fn the_same_queued_run_with_nothing_planted_is_clean() {
    let clean = run_crash_test(FsStack::BentoXv6, &config()).unwrap();
    assert!(clean.is_clean(), "{:#?}", clean.violations.iter().take(3).collect::<Vec<_>>());
    assert!(common::clean_unmount_violations(FsStack::BentoXv6, 8, PlantedFault::None).is_empty());
}

/// (a) The one-barrier commit *is* a record without a payload barrier;
/// what makes it safe is the payload digest.  With recovery not verifying
/// it, some crash states persist a valid, checksummed commit record whose
/// log-region payload never made it, and recovery installs stale region
/// bytes over live metadata.
#[test]
fn record_without_payload_barrier_is_caught_on_the_queued_device() {
    assert_caught(FsStack::BentoXv6, &config(), PlantedFault::TrustHeaderChecksum);
}

/// (b) Installs submitted ahead of the commit barrier.
#[test]
fn installs_before_the_commit_barrier_are_caught_on_the_queued_device() {
    assert_caught(FsStack::BentoXv6, &config(), PlantedFault::InstallBeforeBarrier);
}

/// (c) The unmount's final header clear overtaking its installs.
#[test]
fn checkpoint_clear_without_barrier_is_caught_on_the_queued_device() {
    let violations = common::clean_unmount_violations(
        FsStack::BentoXv6,
        8,
        PlantedFault::CheckpointWithoutBarrier,
    );
    assert!(violations.iter().any(|v| v.contains("acknowledged")), "undetected: {violations:#?}");
}
