//! Mid-run scenario hooks: events fired against a stack *while the load
//! drivers keep traffic flowing*.
//!
//! The paper's flagship demo (§6.2) is upgrading a live file system under
//! sustained traffic: applications observe a pause of milliseconds, not an
//! unmount window.  [`run_upgrade_under_load`] reproduces that experiment —
//! traffic from any personality, a [`BentoFs::upgrade`] fired halfway
//! through, the pause measured and zero failed operations asserted by the
//! caller via [`LoadResult::is_clean`].
//!
//! [`run_eio_under_load`] drives the same traffic over a crashsim
//! [`FaultDevice`] and flips transient-EIO injection on for a window
//! mid-run: the stack is allowed to fail individual operations (they are
//! counted per op class), but must keep serving once the fault clears.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bento::bentofs::BentoFs;
use bento::upgrade::UpgradeReport;
use crashsim::{FaultConfig, FaultDevice, FaultStats};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, SsdDevice};
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{OpenFlags, Vfs};
use workloads::{mount_stack_on_device, FsStack, MountedStack};

use crate::driver::{run_load, ErrorPolicy, LoadConfig, LoadResult};
use crate::spec::WorkloadSpec;

/// What the upgrade scenario observed.
#[derive(Debug, Clone)]
pub struct UpgradeOutcome {
    /// The framework's report (generation, state transfer, pause).
    pub report: UpgradeReport,
    /// When the upgrade fired, relative to run start.
    pub fired_at: Duration,
}

/// Runs `spec` against an already-mounted **Bento** stack and fires
/// [`BentoFs::upgrade`] (swapping in a fresh [`xv6fs::Xv6FileSystem`])
/// halfway through the run, while the drivers keep issuing operations.
///
/// The upgrade handle is recovered from the VFS mount table through the
/// [`VfsFs::as_any`](simkernel::vfs::VfsFs::as_any) downcast hook, so the
/// scenario works on a stack mounted through the ordinary
/// [`workloads::mount_stack`] path — no bespoke test mount.
///
/// # Errors
///
/// Fails if `vfs`'s root mount is not a BentoFS mount, if the upgrade
/// itself fails, or (under [`ErrorPolicy::FailFast`]) if any operation
/// fails — the paper's bar is zero failed ops across the swap.
pub fn run_upgrade_under_load(
    vfs: &Arc<Vfs>,
    spec: &WorkloadSpec,
    cfg: &LoadConfig,
) -> KernelResult<(LoadResult, UpgradeOutcome)> {
    let mounted = vfs.mounted_fs("/")?;
    // Hold the Arc for the scenario thread; the downcast is re-done there
    // because `Any` borrows cannot cross the thread spawn.
    if mounted.as_any().and_then(|a| a.downcast_ref::<BentoFs>()).is_none() {
        return Err(KernelError::with_context(
            Errno::Inval,
            "upgrade-under-load requires a BentoFS mount at /",
        ));
    }
    let fire_after = cfg.duration / 2;
    let started = Instant::now();
    let scenario = std::thread::spawn(move || -> KernelResult<UpgradeOutcome> {
        std::thread::sleep(fire_after);
        let bento = mounted
            .as_any()
            .and_then(|a| a.downcast_ref::<BentoFs>())
            .expect("checked before spawn");
        let fired_at = started.elapsed();
        let report = bento.upgrade(Box::new(xv6fs::Xv6FileSystem::with_label("loadgen-v2")))?;
        Ok(UpgradeOutcome { report, fired_at })
    });
    let result = run_load(vfs, spec, cfg)?;
    let outcome = scenario
        .join()
        .map_err(|_| KernelError::with_context(Errno::Io, "upgrade scenario thread panicked"))??;
    Ok((result, outcome))
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
/// `eio_p / 4` on reads) for the middle half of the run.  Returns the load
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
) -> KernelResult<(LoadResult, EioOutcome)> {
    let ssd = Arc::new(SsdDevice::ram_backed(disk_blocks, model.clone()));
    let fault =
        Arc::new(FaultDevice::new(ssd as Arc<dyn BlockDevice>, FaultConfig::recorder(cfg.seed)));
    fault.set_trace_enabled(false); // live injection only; no crash replay
    let vfs = mount_stack_on_device(stack, model, Arc::clone(&fault) as Arc<dyn BlockDevice>)?;
    crate::driver::prepare(&vfs, spec, cfg)?;

    let cfg = LoadConfig { error_policy: ErrorPolicy::Count, ..cfg.clone() };
    // A health monitor attached to the run gets per-window registry counter
    // deltas: publish this mount's counters into a private registry at
    // every window close.
    if let Some(mon) = &cfg.monitor {
        let mounted = MountedStack {
            vfs: Arc::clone(&vfs),
            stack,
            device: Arc::clone(&fault) as Arc<dyn BlockDevice>,
        };
        let registry = simkernel::registry::MetricsRegistry::new();
        mon.set_snapshot_source(move || {
            mounted.publish_metrics(&registry);
            registry.snapshot()
        });
    }
    let quarter = cfg.duration / 4;
    let toggle_device = Arc::clone(&fault);
    let toggler = std::thread::spawn(move || {
        std::thread::sleep(quarter);
        toggle_device.set_transient_eio(eio_p / 4.0, eio_p);
        std::thread::sleep(quarter * 2);
        toggle_device.set_transient_eio(0.0, 0.0);
    });
    let result = run_load(&vfs, spec, &cfg);
    toggler
        .join()
        .map_err(|_| KernelError::with_context(Errno::Io, "EIO toggle thread panicked"))?;
    // Make sure injection is off even if the run errored out early.
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
