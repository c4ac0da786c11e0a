//! Planted-fault tests for the journal-level crash oracles, queued path:
//! the chain workload runs through the multi-queue device (batched
//! stage-1 payload, prefetch of the next group's payload behind the
//! commit barrier), and sampled within-epoch reorder enumeration must
//! catch each [`PlantedFault`] exactly as on the synchronous device
//! (`planted_bug.rs`) — while the identical run with nothing planted shows
//! no violation (`crash_contract.rs`).

mod common;

use journal::PlantedFault;

use common::{is_atomicity, sampled_chain_violations};

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
