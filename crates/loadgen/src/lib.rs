//! # loadgen — the load driver: seeded op scripts, a closed loop,
//! tail-latency instrumentation
//!
//! The paper evaluates its file systems with filebench microbenchmarks and
//! personalities and demonstrates live upgrade *under sustained load*
//! (§6.2, §6.4).  Every measured run in this repository, from the Figure 2
//! read loop to the load experiment's varmail, goes through this crate:
//!
//! * **Declarative workload models** ([`WorkloadSpec`]): a file-set shape
//!   (directory width/depth, file count, size distribution), a weighted op
//!   mix over create / read / write / append / fsync / stat / delete /
//!   rename, seeded Zipfian file popularity ([`zipf::Zipfian`]), and a
//!   [`Layout`] saying how workers address the files (shared, partitioned
//!   per worker, through a held descriptor, or replaying a manifest).
//!   Personalities: [`WorkloadSpec::varmail`], [`WorkloadSpec::fileserver`],
//!   [`WorkloadSpec::webserver`], [`WorkloadSpec::untar_replay`] (the
//!   `workloads::untar` manifest with per-op latency) and
//!   [`WorkloadSpec::namespace_churn`] (rename-heavy, cross-directory);
//!   microbenchmarks: [`WorkloadSpec::io`], [`WorkloadSpec::createfiles`],
//!   [`WorkloadSpec::create_crossdir`], [`WorkloadSpec::deletefiles`].
//!   A spec becomes per-worker scripts of `workloads::op` ops.
//! * **A closed-loop driver** ([`driver::run_load`]), bounded by op
//!   count: N workers each run a fixed-length script back to back, as
//!   filebench runs the paper's personalities.  A run that would create
//!   more files than the mount has free inodes or blocks fails before its
//!   first op, so no stack can run out of them mid-run however fast it
//!   is.
//! * **Measurement**: per-op-class log-bucketed latency histograms
//!   (p50/p90/p99/p99.9 via [`simkernel::metrics::LatencyHistogram`]),
//!   emitted as BENCH rows by the `bench` crate's experiments, and a
//!   windowed throughput timeline, which shows when in a run the work
//!   completed (the upgrade-under-load test reads it for completions after
//!   the swap).  A failed op is a [`LoadError`] naming the worker, op
//!   index, op and seed.
//! * **Scenario hooks** ([`scenario`]): [`BentoFs::upgrade`] fired at the
//!   run's middle op under traffic (zero failed ops, measured pause — the
//!   paper's upgrade-under-load experiment; optionally held until callers
//!   park behind it, for detector tests) and crashsim `FaultDevice`
//!   transient-EIO injection for the middle half of the ops (failed ops
//!   counted per class, liveness re-probed after the fault clears).
//!
//! [`BentoFs::upgrade`]: bento::bentofs::BentoFs::upgrade
//!
//! ## Example
//!
//! ```
//! use loadgen::{run_load, prepare, LoadConfig, WorkloadSpec};
//! use simkernel::cost::CostModel;
//! use workloads::{mount_stack, FsStack};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), 16_384)?;
//! let spec = WorkloadSpec::varmail().with_files(40);
//! let cfg = LoadConfig::closed(2, 200);
//! prepare(&mounted.vfs, &spec, &cfg)?;
//! let result = run_load(&mounted.vfs, &spec, &cfg)?;
//! assert!(result.is_clean());
//! assert_eq!(result.operations, 2 * 200);
//! println!("{} ops/s, p99 {:.0}µs", result.ops_per_sec() as u64, result.p_us(99.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod scenario;
pub mod spec;
pub mod zipf;

pub use driver::{
    prepare, run_load, ClassPhaseTrace, ErrorPolicy, LoadConfig, LoadError, LoadResult,
    OpClassStats, SLOWEST_K,
};
pub use scenario::{run_eio_under_load, run_upgrade_under_load, EioOutcome, UpgradeOutcome};
pub use spec::{AccessPattern, FileSetSpec, Layout, OpKind, OpMix, SizeDist, WorkloadSpec};
pub use zipf::Zipfian;
