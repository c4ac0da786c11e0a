//! The end-to-end crash-consistency harness.
//!
//! [`run_crash_test`] formats a disk, mounts one of the evaluated stacks on
//! a recording [`crate::device::FaultDevice`], drives a seeded
//! randomized workload (creates, page writes, truncates, renames, unlinks,
//! directory ops, fsyncs) while mirroring it in a
//! [`crate::model::WorkloadModel`], then "crashes" by
//! dropping the mount, enumerates crash states from the recorded trace, and
//! for every state remounts (running the stack's recovery) and applies two
//! oracles:
//!
//! * **fsck** — structural consistency: [`xv6fs::fsck`] for both xv6
//!   stacks (they share one on-disk format), and
//!   [`Ext4Sim::check_consistency`] for the ext4 comparator;
//! * **durability** — everything fsync'd before the crash survives
//!   byte-for-byte ([`WorkloadModel::verify`]).
//!
//! Everything — the workload, the sampled crash states, any live
//! injections — derives from the seed in [`CrashTestConfig`], so a failing
//! run replays exactly from `(stack, seed, ops)`.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::error::{Errno, KernelResult};
use simkernel::queue::{MultiQueueDevice, QueueConfig};
use simkernel::vfs::{FileMode, VfsFs, PAGE_SIZE};

use bento::bentofs::{BentoFs, DEFAULT_BUFFER_CACHE_BLOCKS};
use ext4sim::Ext4Sim;
use journal::PlantedFault;
use xv6fs::Xv6FileSystem;
use xv6fs_vfs::Xv6VfsFilesystem;

use crate::device::{DiskImage, FaultConfig, FaultDevice};
use crate::enumerate::{prefix_states, sampled_states, CrashState};
use crate::model::{resolve, Violation, WorkloadModel};

/// Block size used throughout the storage stack.
const BSIZE: usize = PAGE_SIZE;

/// The stacks the harness can put under crash test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashStack {
    /// xv6 in Rust on Bento (the paper's main subject).
    BentoXv6,
    /// xv6 directly against the VFS layer (the C baseline).
    VfsXv6,
    /// The ext4-like comparator.
    Ext4,
}

impl CrashStack {
    /// All crash-tested stacks.  (The FUSE stack shares `xv6fs` — and
    /// therefore its log and recovery — with the Bento stack; its extra
    /// layer adds boundary-crossing cost, not new on-disk states.)
    pub fn all() -> [CrashStack; 3] {
        [CrashStack::BentoXv6, CrashStack::VfsXv6, CrashStack::Ext4]
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            CrashStack::BentoXv6 => "Bento",
            CrashStack::VfsXv6 => "C-Kernel",
            CrashStack::Ext4 => "Ext4",
        }
    }
}

/// How crash states are drawn from the trace.
#[derive(Debug, Clone, Copy)]
pub enum CrashMode {
    /// Every in-order prefix of the write stream (exhaustive; cost scales
    /// with trace length squared in materialized block references, so use
    /// on short traces).
    Prefixes,
    /// `states` randomized subset/reorder/tear states seeded from the run
    /// seed.
    Sampled {
        /// Number of crash states to draw.
        states: usize,
    },
}

/// Knobs for one harness run.
#[derive(Debug, Clone)]
pub struct CrashTestConfig {
    /// Master seed: workload, fsync placement, and sampled crash states all
    /// derive from it.
    pub seed: u64,
    /// Number of workload operations to run before the crash.
    pub ops: usize,
    /// Disk size in 4 KiB blocks.
    pub disk_blocks: u64,
    /// Crash-state generation mode.
    pub mode: CrashMode,
    /// Cap on *recorded* violations (the total found is always counted).
    pub max_violations: usize,
    /// When nonzero, mount through the NVMe-style multi-queue device
    /// ([`MultiQueueDevice`]) with this per-queue depth, layered *over* the
    /// recording fault device — so every queued submission is recorded in
    /// the barrier epoch it was submitted in, and crash enumeration
    /// reorders it only within that epoch.  Zero (the default) mounts the
    /// recorder directly (the synchronous device path).
    pub queue_depth: usize,
}

impl CrashTestConfig {
    /// The acceptance configuration: a 200-op randomized trace, sampled
    /// crash states.
    pub fn standard(seed: u64) -> Self {
        CrashTestConfig {
            seed,
            ops: 200,
            disk_blocks: 8192,
            mode: CrashMode::Sampled { states: 160 },
            max_violations: 32,
            queue_depth: 0,
        }
    }

    /// Same run, mounted through the queued device model at `depth`.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }
}

/// The outcome of one [`run_crash_test`].
#[derive(Debug)]
pub struct CrashReport {
    /// Which stack was tested.
    pub stack: &'static str,
    /// Workload operations completed before the crash.
    pub ops_run: usize,
    /// fsync durability points recorded.
    pub fsync_points: usize,
    /// Block writes in the recorded trace.
    pub trace_writes: usize,
    /// Barrier epochs in the recorded trace.
    pub trace_epochs: usize,
    /// Crash states materialized and checked.
    pub states_checked: usize,
    /// Total oracle violations found.
    pub violations_found: usize,
    /// Recorded violation details (capped at `max_violations`).
    pub violations: Vec<Violation>,
}

impl CrashReport {
    /// Whether every crash state recovered cleanly.
    pub fn is_clean(&self) -> bool {
        self.violations_found == 0
    }
}

/// Formats the base disk for `stack` and returns it.
fn format_base(stack: CrashStack, disk_blocks: u64) -> KernelResult<Arc<dyn BlockDevice>> {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, disk_blocks));
    match stack {
        CrashStack::BentoXv6 | CrashStack::VfsXv6 => {
            xv6fs::mkfs::mkfs_on_device(&base, 256)?;
        }
        CrashStack::Ext4 => {
            // format_and_mount commits the root directory and leaves the
            // log clean; the instance is dropped clean.
            Ext4Sim::format_and_mount(Arc::clone(&base))?;
        }
    }
    Ok(base)
}

/// A mounted stack: the generic handle, or (for ext4) the concrete handle
/// the consistency checker needs.
enum MountedState {
    Generic(Arc<dyn VfsFs>),
    Ext4(Arc<Ext4Sim>),
}

impl MountedState {
    fn vfs(&self) -> &dyn VfsFs {
        match self {
            MountedState::Generic(fs) => fs.as_ref(),
            MountedState::Ext4(fs) => fs.as_ref() as &dyn VfsFs,
        }
    }
}

/// Mounts `stack` on `device` (for crash images this runs recovery).
/// `planted` goes into the journal of the Bento stack and of ext4sim; the
/// C-Kernel stack runs the same xv6 core as Bento and ignores it.
fn mount_stack_on(
    stack: CrashStack,
    device: Arc<dyn BlockDevice>,
    planted: PlantedFault,
) -> KernelResult<MountedState> {
    Ok(match stack {
        CrashStack::BentoXv6 => {
            let fs = Xv6FileSystem::new().with_planted_log_fault(planted);
            let mounted = BentoFs::mount(
                xv6fs::BENTO_XV6_NAME,
                device,
                DEFAULT_BUFFER_CACHE_BLOCKS,
                Box::new(fs),
            )?;
            MountedState::Generic(mounted as Arc<dyn VfsFs>)
        }
        CrashStack::VfsXv6 => {
            MountedState::Generic(Xv6VfsFilesystem::mount(device)? as Arc<dyn VfsFs>)
        }
        CrashStack::Ext4 => MountedState::Ext4(Ext4Sim::mount_planted(device, planted)?),
    })
}

/// Runs the full harness for one stack.
///
/// # Errors
///
/// Propagates unexpected I/O errors (oracle violations are *reported*, not
/// returned as errors).
pub fn run_crash_test(stack: CrashStack, cfg: &CrashTestConfig) -> KernelResult<CrashReport> {
    run_crash_test_planted(stack, cfg, PlantedFault::None)
}

/// [`run_crash_test`] with a protocol violation planted in the journal of
/// the workload mount and of every recovery mount ([`CrashStack::BentoXv6`]
/// and [`CrashStack::Ext4`]): the proof that the oracles above have teeth.
///
/// # Errors
///
/// As [`run_crash_test`].
#[doc(hidden)]
pub fn run_crash_test_planted(
    stack: CrashStack,
    cfg: &CrashTestConfig,
    planted: PlantedFault,
) -> KernelResult<CrashReport> {
    run_crash_test_inspected(stack, cfg, planted, &mut |_| {})
}

/// [`run_crash_test_planted`] that also hands every crash state to
/// `inspect` before remounting it, so a test can take a census of what
/// the enumeration put on the medium.
///
/// # Errors
///
/// As [`run_crash_test`].
#[doc(hidden)]
pub fn run_crash_test_inspected(
    stack: CrashStack,
    cfg: &CrashTestConfig,
    planted: PlantedFault,
    inspect: &mut dyn FnMut(&CrashState),
) -> KernelResult<CrashReport> {
    // 1. Format, snapshot the base image, wrap the recorder.
    let base = format_base(stack, cfg.disk_blocks)?;
    let image = Arc::new(DiskImage::capture(&base)?);
    let fault = Arc::new(FaultDevice::new(base, FaultConfig::recorder(cfg.seed)));
    let fault_dyn: Arc<dyn BlockDevice> = Arc::clone(&fault) as Arc<dyn BlockDevice>;
    // With a queue depth, the stack sees the multi-queue device and the
    // recorder sits underneath it: queued writes reach the recorder at
    // submission time and the queued device's flush drains its queues
    // before forwarding, so epoch boundaries in the trace are exactly the
    // stack's barriers.
    let mount_dev: Arc<dyn BlockDevice> = if cfg.queue_depth > 0 {
        Arc::new(MultiQueueDevice::new(
            Arc::clone(&fault_dyn),
            CostModel::zero(),
            QueueConfig::new(4, cfg.queue_depth),
        ))
    } else {
        Arc::clone(&fault_dyn)
    };

    // 2. Mount and run the modelled workload, then crash (drop, no sync).
    let mut model = WorkloadModel::new();
    let ops_run = {
        let fs = mount_stack_on(stack, mount_dev, planted)?;
        run_workload(fs.vfs(), &fault, &mut model, cfg)?
    };
    let trace = fault.trace();
    let epochs = trace.epochs().len();

    // 3. Enumerate crash states and run both oracles on each.
    let states = match cfg.mode {
        CrashMode::Prefixes => prefix_states(&trace, &image),
        CrashMode::Sampled { states } => sampled_states(&trace, &image, cfg.seed, states),
    };
    let mut violations: Vec<Violation> = Vec::new();
    let mut violations_found = 0usize;
    let record = |violations: &mut Vec<Violation>, found: &mut usize, list: Vec<Violation>| {
        for violation in list {
            *found += 1;
            if violations.len() < cfg.max_violations {
                violations.push(violation);
            }
        }
    };
    for state in &states {
        inspect(state);
        let disk_dyn: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let mounted = match mount_stack_on(stack, Arc::clone(&disk_dyn), planted) {
            Ok(mounted) => mounted,
            Err(e) => {
                record(
                    &mut violations,
                    &mut violations_found,
                    vec![Violation {
                        state: state.description.clone(),
                        detail: format!("remount failed: {e}"),
                    }],
                );
                continue;
            }
        };
        // Structural oracle (after recovery ran during mount).
        let mut structural = Vec::new();
        match &mounted {
            MountedState::Ext4(fs) => {
                let report = fs.check_consistency();
                for error in report.errors {
                    structural.push(Violation {
                        state: state.description.clone(),
                        detail: format!("fsck: {error}"),
                    });
                }
            }
            MountedState::Generic(_) => match xv6fs::fsck::fsck_device(&disk_dyn) {
                Ok(report) => {
                    for error in report.errors {
                        structural.push(Violation {
                            state: state.description.clone(),
                            detail: format!("fsck: {error}"),
                        });
                    }
                }
                Err(e) => structural.push(Violation {
                    state: state.description.clone(),
                    detail: format!("fsck aborted with I/O error: {e}"),
                }),
            },
        }
        record(&mut violations, &mut violations_found, structural);
        // Durability oracle.  An *error* while evaluating it (e.g. the
        // root inode vanished, a directory walk hit garbage) means the
        // recovered image is broken — report it as a violation of this
        // state rather than aborting the whole run.
        let durability = match model.verify(mounted.vfs(), &state.description, state.durable_events)
        {
            Ok(list) => list,
            Err(e) => vec![Violation {
                state: state.description.clone(),
                detail: format!("durability oracle aborted: {e}"),
            }],
        };
        record(&mut violations, &mut violations_found, durability);
    }

    Ok(CrashReport {
        stack: stack.label(),
        ops_run,
        fsync_points: model.snapshot_count(),
        trace_writes: trace.write_count(),
        trace_epochs: epochs,
        states_checked: states.len(),
        violations_found,
        violations,
    })
}

// ---------------------------------------------------------------------------
// The randomized workload
// ---------------------------------------------------------------------------

/// Upper bound on simultaneously live files (keeps traces bounded).
const MAX_FILES: usize = 48;
/// Upper bound on directories under the root.
const MAX_DIRS: usize = 6;
/// Highest page a write may start at; files reach at most four pages
/// past it (sizes stay page-aligned so the model's byte-for-byte
/// comparison is exact across all three stacks' partial-page semantics).
const MAX_FILE_PAGES: u64 = 4;

/// Drives `ops` randomized operations against `fs`, mirroring each into
/// `model` and recording fsync durability points against `fault`'s durable
/// event count.  Returns the number of operations completed.
fn run_workload(
    fs: &dyn VfsFs,
    fault: &FaultDevice,
    model: &mut WorkloadModel,
    cfg: &CrashTestConfig,
) -> KernelResult<usize> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut name_counter = 0usize;
    for op in 0..cfg.ops {
        model.next_op();
        let roll: f64 = rng.gen();
        // Force an early durability point so every run exercises the
        // fsync'd-data-must-survive oracle.
        let force_fsync = model.snapshot_count() == 0 && op == cfg.ops / 4;
        if force_fsync || roll < 0.12 {
            fs.fsync(fs.root_ino(), false)?;
            model.note_fsync(fault.durable_event_count());
        } else if roll < 0.24 && model.tree.dirs.len() < MAX_DIRS {
            name_counter += 1;
            let name = format!("d{name_counter}");
            fs.mkdir(fs.root_ino(), &name, FileMode::directory())?;
            model.mkdir(&name);
        } else if roll < 0.50 || model.tree.files.is_empty() {
            if model.tree.files.len() >= MAX_FILES {
                continue;
            }
            name_counter += 1;
            let dir = pick_dir(&mut rng, model);
            let name = format!("f{name_counter}");
            let path = join(&dir, &name);
            let parent = dir_ino(fs, &dir)?;
            fs.create(parent, &name, FileMode::regular())?;
            model.create(&path);
        } else if roll < 0.74 {
            let path = pick_file(&mut rng, model);
            write_file(fs, model, &mut rng, &path)?;
        } else if roll < 0.80 {
            let path = pick_file(&mut rng, model);
            truncate_file(fs, model, &mut rng, &path)?;
        } else if roll < 0.88 {
            let path = pick_file(&mut rng, model);
            let (dir, name) = split(&path);
            let parent = dir_ino(fs, &dir)?;
            fs.unlink(parent, &name)?;
            model.unlink(&path);
        } else if roll < 0.96 {
            let path = pick_file(&mut rng, model);
            let (old_dir, old_name) = split(&path);
            name_counter += 1;
            let new_dir = pick_dir(&mut rng, model);
            let new_name = format!("r{name_counter}");
            let old_parent = dir_ino(fs, &old_dir)?;
            let new_parent = dir_ino(fs, &new_dir)?;
            fs.rename(old_parent, &old_name, new_parent, &new_name)?;
            model.rename(&path, &join(&new_dir, &new_name));
        } else {
            // rmdir an empty directory, if any.
            let empty: Vec<String> = model
                .tree
                .dirs
                .iter()
                .filter(|d| !model.tree.files.keys().any(|f| f.starts_with(&format!("{d}/"))))
                .cloned()
                .collect();
            if let Some(dir) = pick(&mut rng, &empty) {
                fs.rmdir(fs.root_ino(), dir)?;
                model.rmdir(dir);
            }
        }
    }
    Ok(cfg.ops)
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(0..items.len())])
    }
}

fn pick_dir(rng: &mut SmallRng, model: &WorkloadModel) -> String {
    let dirs: Vec<String> = model.tree.dirs.iter().cloned().collect();
    if dirs.is_empty() || rng.gen::<bool>() {
        String::new() // the root
    } else {
        dirs[rng.gen_range(0..dirs.len())].clone()
    }
}

fn pick_file(rng: &mut SmallRng, model: &WorkloadModel) -> String {
    let files: Vec<String> = model.tree.files.keys().cloned().collect();
    files[rng.gen_range(0..files.len())].clone()
}

fn join(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_string()
    } else {
        format!("{dir}/{name}")
    }
}

fn split(path: &str) -> (String, String) {
    match path.rsplit_once('/') {
        Some((dir, name)) => (dir.to_string(), name.to_string()),
        None => (String::new(), path.to_string()),
    }
}

fn dir_ino(fs: &dyn VfsFs, dir: &str) -> KernelResult<u64> {
    if dir.is_empty() {
        return Ok(fs.root_ino());
    }
    match resolve(fs, dir)? {
        Some(attr) => Ok(attr.ino),
        None => Err(simkernel::error::KernelError::with_context(
            Errno::NoEnt,
            "crashsim: workload lost a directory",
        )),
    }
}

/// Writes back a two-run set of full pages — 1–2 pages at a random page
/// offset, then one more page beyond a one-page gap — extending the file
/// as needed (page-aligned sizes; gaps become holes that read as zeros for
/// both the model and every stack).  The set goes to `write_pages`, the
/// way a page cache hands a pass over: a stack that batches gets one call
/// — so the enumeration sees its multi-page write-back transactions — and
/// the others get the trait's default, a `write_page` per page.
fn write_file(
    fs: &dyn VfsFs,
    model: &mut WorkloadModel,
    rng: &mut SmallRng,
    path: &str,
) -> KernelResult<()> {
    let Some(attr) = resolve(fs, path)? else { return Ok(()) };
    let mut content = model.tree.files.get(path).cloned().unwrap_or_default();
    let start_page: u64 = rng.gen_range(0..MAX_FILE_PAGES);
    let run: u64 = rng.gen_range(1..=2);
    let indexes: Vec<u64> = (start_page..start_page + run).chain([start_page + run + 1]).collect();
    let end = (start_page + run + 2) as usize * PAGE_SIZE;
    content.resize(content.len().max(end), 0);
    let pattern: u64 = rng.gen();
    for &page_index in &indexes {
        let lo = page_index as usize * PAGE_SIZE;
        for (i, byte) in content[lo..lo + PAGE_SIZE].iter_mut().enumerate() {
            *byte = (pattern.wrapping_add(page_index.wrapping_mul(0x9E37)).wrapping_add(i as u64))
                as u8;
        }
    }
    let set: Vec<(u64, &[u8])> = indexes
        .iter()
        .map(|&index| (index, &content[index as usize * PAGE_SIZE..][..PAGE_SIZE]))
        .collect();
    fs.write_pages(&[(attr.ino, &set, content.len() as u64)])?;
    model.set_content(path, content);
    Ok(())
}

/// Truncates to a smaller page-aligned size (growth happens via writes).
fn truncate_file(
    fs: &dyn VfsFs,
    model: &mut WorkloadModel,
    rng: &mut SmallRng,
    path: &str,
) -> KernelResult<()> {
    let Some(attr) = resolve(fs, path)? else { return Ok(()) };
    let old_pages = model.tree.files.get(path).map(|c| c.len() / PAGE_SIZE).unwrap_or(0);
    if old_pages == 0 {
        return Ok(());
    }
    let new_pages = rng.gen_range(0..old_pages);
    let new_size = new_pages * PAGE_SIZE;
    fs.setattr(attr.ino, &simkernel::vfs::SetAttr::truncate(new_size as u64))?;
    model.truncate(path, new_size);
    Ok(())
}
