//! # crashsim — fault injection, crash-state enumeration, and recovery oracles
//!
//! The paper's thesis is that safe Rust eliminates the low-level bug
//! classes of its Table 1 study — but crash-consistency bugs are exactly
//! the class the type system cannot catch.  This crate turns "the log looks
//! right" into a machine-checked invariant for every storage stack in the
//! workspace:
//!
//! * [`device`] — [`device::FaultDevice`], a recording wrapper
//!   over any block device that partitions the write stream into barrier
//!   epochs and can inject torn writes, write-cache reordering, dropped
//!   writes, transient `EIO`, and a hard disconnect — all driven by a
//!   seeded RNG so every failure replays from its seed;
//! * [`enumerate`] — materializes crash images consistent with the device
//!   contract (epochs before the crash durable; any subset / order / tear
//!   within the crash epoch), exhaustively over write-stream prefixes or by
//!   seeded random sampling;
//! * [`model`] — the workload-side mirror and the logical durability
//!   oracle: everything fsync'd before the crash must survive remount
//!   byte-for-byte;
//! * [`harness`] — [`harness::run_crash_test`] wires it all
//!   together for each of the four stacks of [`workloads::FsStack`] —
//!   Bento xv6, VFS xv6, FUSE xv6 and ext4sim — formatted and mounted
//!   through [`workloads::stacks`] and checked structurally by
//!   [`workloads::MountedStack::check`] (`xv6fs::fsck` for the xv6
//!   stacks, `Ext4Sim::check_consistency` for ext4sim).
//!
//! ## Replaying a failure
//!
//! Every report names the crash state that failed (`sample 17 (seed 42):
//! crash in epoch 9/31, ...`).  Re-running `run_crash_test` with the same
//! `(stack, seed, ops, mode)` regenerates the identical workload, trace,
//! and crash states — no stored artifacts needed.
//!
//! ```
//! use crashsim::{run_crash_test, CrashMode, CrashTestConfig};
//! use workloads::FsStack;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = CrashTestConfig {
//!     seed: 7,
//!     ops: 40,
//!     disk_blocks: 4096,
//!     mode: CrashMode::Sampled { states: 16 },
//!     max_violations: 8,
//! };
//! let report = run_crash_test(FsStack::FuseXv6, &cfg)?;
//! assert!(report.is_clean(), "{:?}", report.violations);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod enumerate;
pub mod harness;
pub mod logharness;
pub mod model;

pub use device::{
    DiskImage, Event, FaultConfig, FaultDevice, FaultStats, SnapshotDisk, WriteTrace,
};
pub use enumerate::{prefix_states, sampled_states, CrashState};
pub use harness::{
    run_crash_test, run_crash_test_inspected, run_crash_test_planted, CrashMode, CrashReport,
    CrashTestConfig,
};
pub use model::{StableSnapshot, Violation, WorkloadModel};
