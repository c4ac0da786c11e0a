//! Mid-run scenario hooks: events fired against a stack *while the load
//! driver keeps traffic flowing*.
//!
//! The paper's flagship demo (§6.2) is upgrading a live file system under
//! sustained traffic: applications observe a pause of milliseconds, not an
//! unmount window.  [`run_upgrade_under_load`] reproduces that experiment —
//! traffic from any personality, an upgrade fired when half the run's ops
//! have been issued (optionally held until callers park behind it), the
//! pause measured and zero failed operations asserted by the caller via
//! [`LoadResult::is_clean`].
//!
//! [`run_eio_under_load`] drives the same traffic over a crashsim
//! [`FaultDevice`] and switches transient-EIO injection on for the middle
//! half of the run's ops: the stack is allowed to fail individual
//! operations (they are counted per op class), but must keep serving once
//! the fault clears.  Both fire at an op index, not after a sleep, so the
//! event lands at the same point of the script on any machine.

use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bento::upgrade::UpgradeReport;
use crashsim::{FaultConfig, FaultDevice, FaultStats};
use journal::PlantedFault;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, SsdDevice};
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::OpenFlags;
use workloads::stacks::XV6_INODES;
use workloads::{format, mount_stack_on, FsStack, MountedStack, StackHandle};

use crate::driver::{run_hooked, ErrorPolicy, LoadConfig, LoadError, LoadResult};
use crate::spec::WorkloadSpec;

/// What the upgrade scenario observed.
#[derive(Debug, Clone)]
pub struct UpgradeOutcome {
    /// The framework's report (generation, state transfer, pause).
    pub report: UpgradeReport,
    /// When the upgrade fired: the issue of op `half`, on the run's clock
    /// (so always inside [`LoadResult::elapsed`]).
    pub fired_at: Duration,
    /// The health monitor's window in progress when the upgrade fired
    /// (`None` when the run has no monitor).
    pub fired_window: Option<u64>,
}

/// How long a held upgrade waits for the first caller to park before the
/// scenario gives up.
const PARK_WAIT: Duration = Duration::from_secs(2);

/// Runs `spec` against a mounted **Bento** stack and upgrades it
/// (swapping in a fresh [`xv6fs::Xv6FileSystem`]) once half of the run's
/// ops have been issued, while the workers keep issuing operations.
///
/// With `hold: None` the upgrade is
/// [`BentoFs::upgrade`](bento::bentofs::BentoFs::upgrade), whose pause is
/// the drain plus the state transfer.  With `Some(hold)` the scenario owns
/// the contention: it keeps the gate from
/// [`BentoFs::begin_upgrade`](bento::bentofs::BentoFs::begin_upgrade) until
/// a caller has parked behind it, then for `hold` more, so every parked
/// caller observes the pause — what a detector test needs.
///
/// The upgrade goes through the mount's typed handle
/// ([`StackHandle::Bento`]), so the scenario works on a stack mounted
/// through the ordinary [`workloads::mount_stack`] path — no bespoke test
/// mount.
///
/// # Errors
///
/// Fails if `mounted` is not the Bento stack, if the run ends before
/// half its ops are issued, if the upgrade itself fails, if a held upgrade
/// sees no caller park within 2 s (the upgrade is then aborted), or (under
/// [`ErrorPolicy::FailFast`]) if any operation fails — the paper's bar is
/// zero failed ops across the swap.
pub fn run_upgrade_under_load(
    mounted: &MountedStack,
    spec: &WorkloadSpec,
    cfg: &LoadConfig,
    hold: Option<Duration>,
) -> Result<(LoadResult, UpgradeOutcome), LoadError> {
    let fail = |e| LoadError::new(spec, cfg, None, e);
    let StackHandle::Bento(bento) = &mounted.handle else {
        return Err(fail(KernelError::with_context(
            Errno::Inval,
            "upgrade-under-load requires a BentoFS mount at /",
        )));
    };
    let half = cfg.ops * cfg.threads() as u64 / 2;
    // The hook stamps the firing time on the run's clock as op `half` is
    // issued, so it lies inside the run however late this thread wakes.
    let (fire, fired) = sync_channel::<Duration>(1);
    std::thread::scope(|scope| {
        let scenario = scope.spawn(move || -> KernelResult<UpgradeOutcome> {
            let fired_at = fired.recv().map_err(|_| {
                KernelError::with_context(Errno::Io, "the run ended before the upgrade fired")
            })?;
            let fired_window = cfg.monitor.as_ref().map(|m| m.windows_closed());
            let gate = bento.begin_upgrade();
            if let Some(hold) = hold {
                let deadline = Instant::now() + PARK_WAIT;
                while gate.parked() == 0 {
                    if Instant::now() >= deadline {
                        return Err(KernelError::with_context(
                            Errno::Io,
                            "held upgrade: no caller parked behind the gate",
                        ));
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                std::thread::sleep(hold);
            }
            let report = gate.complete(Box::new(xv6fs::Xv6FileSystem::with_label("loadgen-v2")))?;
            Ok(UpgradeOutcome { report, fired_at, fired_window })
        });
        let hook = move |k: u64, at: Duration| {
            if k == half {
                let _ = fire.send(at);
            }
        };
        let result = run_hooked(&mounted.vfs, spec, cfg, Some(&hook));
        // Dropping the sender wakes a scenario still waiting for op `half`.
        drop(hook);
        let outcome = scenario.join().map_err(|_| {
            fail(KernelError::with_context(Errno::Io, "upgrade scenario thread panicked"))
        })?;
        Ok((result?, outcome.map_err(fail)?))
    })
}

/// What the transient-EIO scenario observed.
#[derive(Debug, Clone)]
pub struct EioOutcome {
    /// Injection counters from the fault device (how many faults actually
    /// fired at the device layer).
    pub fault_stats: FaultStats,
    /// Whether the stack still served a create+fsync+stat round-trip after
    /// injection was switched off.
    pub recovered: bool,
    /// Whether the final unmount succeeded.  An op that took a device EIO
    /// mid-transaction may leave the mount degraded (orphaned in-memory
    /// state) even though it keeps serving — real kernels behave the same
    /// way — so this is reported, not required.
    pub clean_unmount: bool,
}

/// Mounts `stack` over a crashsim [`FaultDevice`] (wrapping the usual
/// latency-modelled [`SsdDevice`]), runs `spec` under [`ErrorPolicy::Count`],
/// and injects transient EIO with probability `eio_p` on writes (and
/// `eio_p / 4` on reads) from the op a quarter into the run to the op
/// three quarters in.  Returns the load
/// result (failed ops counted per class) and the injection outcome,
/// including a post-fault liveness probe.
///
/// # Errors
///
/// Propagates mount/teardown errors and driver failures other than the
/// injected (counted) op errors.
pub fn run_eio_under_load(
    stack: FsStack,
    model: CostModel,
    disk_blocks: u64,
    spec: &WorkloadSpec,
    cfg: &LoadConfig,
    eio_p: f64,
) -> Result<(LoadResult, EioOutcome), LoadError> {
    let cfg = LoadConfig { error_policy: ErrorPolicy::Count, ..cfg.clone() };
    let fail = |e| LoadError::new(spec, &cfg, None, e);
    let ssd = Arc::new(SsdDevice::ram_backed(disk_blocks, model.clone()));
    let fault =
        Arc::new(FaultDevice::new(ssd as Arc<dyn BlockDevice>, FaultConfig::recorder(cfg.seed)));
    fault.set_trace_enabled(false); // live injection only; no crash replay
    let device = Arc::clone(&fault) as Arc<dyn BlockDevice>;
    format(stack, &device, XV6_INODES).map_err(fail)?;
    let mounted = mount_stack_on(stack, device, model, PlantedFault::None).map_err(fail)?;
    let vfs = &mounted.vfs;
    crate::driver::prepare(vfs, spec, &cfg).map_err(fail)?;

    // A health monitor attached to the run gets per-window counter deltas
    // of this mount.
    if let Some(mon) = &cfg.monitor {
        let source = mounted.clone();
        mon.set_snapshot_source(move || source.counters());
    }
    let total = cfg.ops * cfg.threads() as u64;
    let hook = |k: u64, _: Duration| {
        if k == total / 4 {
            fault.set_transient_eio(eio_p / 4.0, eio_p);
        } else if k == total * 3 / 4 {
            fault.set_transient_eio(0.0, 0.0);
        }
    };
    let result = run_hooked(vfs, spec, &cfg, Some(&hook));
    // Make sure injection is off even if the run ended early.
    fault.set_transient_eio(0.0, 0.0);
    let result = result?;

    // Liveness probe: with the fault cleared, the stack must still serve a
    // full durable round-trip.
    let recovered = (|| -> KernelResult<()> {
        let fd = vfs.open("/eio-probe", OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
        vfs.write(fd, b"still alive")?;
        vfs.fsync(fd)?;
        vfs.close(fd)?;
        if vfs.stat("/eio-probe")?.size != 11 {
            return Err(KernelError::with_context(Errno::Io, "probe size mismatch"));
        }
        Ok(())
    })()
    .is_ok();
    let clean_unmount = vfs.unmount("/").is_ok();
    let outcome = EioOutcome { fault_stats: fault.fault_stats(), recovered, clean_unmount };
    Ok((result, outcome))
}
