//! Planted-fault tests for the journal-level crash oracles, queued path:
//! the chain workload runs through the multi-queue device (each commit's
//! installs and payload batch-submitted as one epoch), and sampled
//! within-epoch reorder enumeration must
//! catch each [`PlantedFault`] exactly as on the synchronous device
//! (`planted_bug.rs`) — while the identical run with nothing planted shows
//! no violation (`crash_contract.rs`).

mod common;

use journal::PlantedFault;

use common::{is_atomicity, sampled_chain_violations, CHAIN_PERIOD};

fn sampled_violations(fault: PlantedFault) -> Vec<String> {
    sampled_chain_violations(true, fault, 0x0B10_5EED)
}

/// (a) With the payload digest unverified the one-barrier commit is the
/// bare record-without-payload-barrier ordering: batched payload
/// submissions and the record share an epoch, the device persists the
/// record first, and recovery installs stale region bytes.
#[test]
fn sampled_reorder_oracle_catches_record_without_payload_barrier() {
    let violations = sampled_violations(PlantedFault::TrustHeaderChecksum);
    assert!(violations.iter().any(|v| is_atomicity(v)), "undetected: {violations:#?}");
}

/// (b) Installs submitted before the commit barrier.
#[test]
fn atomicity_oracle_catches_installs_before_the_commit_barrier() {
    let violations = sampled_violations(PlantedFault::InstallBeforeBarrier);
    assert!(violations.iter().any(|v| is_atomicity(v)), "undetected: {violations:#?}");
}

/// (c) The checkpoint's newest clear sharing an epoch with its installs.
#[test]
fn durability_oracle_catches_checkpoint_clear_without_barrier() {
    let violations = sampled_violations(PlantedFault::CheckpointWithoutBarrier);
    assert!(violations.iter().any(|v| v.contains("acknowledged")), "undetected: {violations:#?}");
}

/// (d) Commits that never install: a reused region takes the only copy of
/// a block with it.
#[test]
fn sampled_oracle_catches_a_region_reused_before_its_installs() {
    let violations = sampled_violations(PlantedFault::ReuseBeforeInstall);
    assert!(!violations.is_empty(), "undetected");
}

/// (e) The reusing group absorbing the record it overwrites.
#[test]
fn sampled_oracle_catches_a_reusing_group_absorbing_the_record_it_overwrites() {
    let lost = format!("block {CHAIN_PERIOD} holds 0x0");
    let violations = sampled_violations(PlantedFault::AbsorbIntoReusingGroup);
    assert!(violations.iter().any(|v| v.contains(&lost)), "undetected: {violations:#?}");
}
