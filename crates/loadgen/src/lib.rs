//! # loadgen — workload modeling + load generation with tail-latency
//! instrumentation
//!
//! The paper evaluates its file systems with filebench application
//! personalities and demonstrates live upgrade *under sustained load*
//! (§6.2, §6.4).  The `workloads` crate reimplements the personalities as
//! fixed loops; this crate adds the missing evaluation machinery around
//! them:
//!
//! * **Declarative workload models** ([`WorkloadSpec`]): a file-set shape
//!   (directory width/depth, file count, size distribution), a weighted op
//!   mix over create / read / write / append / fsync / stat / delete /
//!   rename, and seeded Zipfian file popularity ([`zipf::Zipfian`]).  Five
//!   personalities ship: [`WorkloadSpec::varmail`],
//!   [`WorkloadSpec::fileserver`], [`WorkloadSpec::webserver`],
//!   [`WorkloadSpec::untar_replay`] (which replays the
//!   `workloads::untar` manifest with per-op latency), and
//!   [`WorkloadSpec::namespace_churn`] (rename-heavy, cross-directory —
//!   the mix that leans on the per-directory namespace locks).
//! * **Closed- and open-loop drivers** ([`driver::run_load`]): closed loop
//!   = N workers + think time (peak throughput); open loop = a target
//!   arrival rate on a virtual clock, where overload shows up as measured
//!   backlog and growing latency instead of silently throttled offered
//!   load.
//! * **Measurement**: per-op-class log-bucketed latency histograms
//!   (p50/p90/p99/p99.9 via [`simkernel::metrics::LatencyHistogram`]) and
//!   a windowed throughput timeline, emitted as BENCH rows by the `bench`
//!   crate's `load` experiment.
//! * **Scenario hooks** ([`scenario`]): [`BentoFs::upgrade`] fired mid-run
//!   under traffic (zero failed ops, measured pause — the paper's
//!   upgrade-under-load experiment; optionally held until callers park
//!   behind it, for detector tests) and crashsim `FaultDevice`
//!   transient-EIO injection under load (failed ops counted per class,
//!   liveness re-probed after the fault clears).
//!
//! [`BentoFs::upgrade`]: bento::bentofs::BentoFs::upgrade
//!
//! ## Example
//!
//! ```
//! use std::time::Duration;
//! use loadgen::{run_load, prepare, LoadConfig, WorkloadSpec};
//! use simkernel::cost::CostModel;
//! use workloads::{mount_stack, FsStack};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mounted = mount_stack(FsStack::BentoXv6, CostModel::zero(), 16_384)?;
//! let spec = WorkloadSpec::varmail().with_files(40);
//! let cfg = LoadConfig::closed(2, Duration::from_millis(60));
//! prepare(&mounted.vfs, &spec, &cfg)?;
//! let result = run_load(&mounted.vfs, &spec, &cfg)?;
//! assert!(result.is_clean());
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
    prepare, run_load, ClassPhaseTrace, Driver, ErrorPolicy, LoadConfig, LoadResult, OpClassStats,
    SLOWEST_K,
};
pub use scenario::{run_eio_under_load, run_upgrade_under_load, EioOutcome, UpgradeOutcome};
pub use spec::{FileSetSpec, OpKind, OpMix, SizeDist, WorkloadSpec};
pub use zipf::Zipfian;
