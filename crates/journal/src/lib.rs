//! # journal — one pipelined group-commit WAL for every storage stack
//!
//! This crate is the single write-ahead log of the workspace: `xv6fs::log`
//! (mounted by both xv6 stacks, which share one file system core) is an
//! adapter over it, and ext4sim logs its data and metadata blocks through
//! it directly.  [`Journal`] owns the entire commit pipeline and is
//! parameterized over the block-IO trait [`io::JournalIo`], so the same
//! code runs against the Bento `SuperBlock` capability (kernel buffer
//! cache or userspace disk file underneath), a bare
//! `SsdDevice`/`MultiQueueDevice`, or crashsim's fault device — and the
//! crash-contract tests enumerate crash states against the journal with no
//! file system on top.
//!
//! Every operation that modifies the file system wraps its block writes in
//! a transaction: [`Journal::begin_op`] … stage frozen snapshots via
//! [`Journal::log_write`] … [`Journal::end_op`].  The commit protocol for
//! group *N* is hardened for devices with a reordering volatile write
//! cache and trimmed to the one barrier that buys durability:
//!
//! 1. copy each modified block into group *N*'s on-disk log region **and**
//!    write the log header naming them — the commit record, which carries
//!    a digest of those log blocks under a self-checksum (see [`record`]).
//!    Payload and record share one barrier epoch: the write cache may
//!    persist them in any order, but a record whose payload is not wholly
//!    on the medium does not validate, so no barrier has to keep the
//!    record behind the payload;
//! 2. issue the **commit barrier**.  The group is committed the instant it
//!    returns; the same barrier makes group *N − 1*'s installs durable;
//! 3. install the blocks to their home locations.  No barrier follows:
//!    recovery replays a committed record idempotently, so the installs
//!    ride to durability on group *N + 1*'s barrier, or on
//!    [`Journal::checkpoint`].
//!
//! That is the **barrier budget**: exactly one barrier per commit, and
//! none at all for an `fsync` that finds the journal idle.  A committed
//! record stays on the medium until the group two commits later
//! overwrites its region, so after a crash up to two consecutive records
//! validate (*N − 1* and *N*); [`Journal::recover`] replays them in
//! sequence order.  A valid record *K* on the medium implies no install of
//! any group later than *K + 1* has started.  Nothing clears a header in
//! steady state.  What a **clean unmount** owes is [`Journal::checkpoint`]
//! (clear the older header → barrier → clear the newest → barrier), so the
//! next mount replays nothing; **recovery** leaves every header it found
//! non-clean — replayed, digest-rejected, torn or foreign — clean the same
//! way, so a stale record can never be re-validated by a later session
//! that happens to log identical bytes into its region; a **failed
//! commit** leaves the journal owing that checkpoint before the next
//! commit may reuse a region; a **live upgrade** carries the
//! [`JournalTail`] into the new instance, which keeps numbering commits
//! where the old one stopped and knows which headers are live.  What
//! differs from the teaching implementation is *where the waiting
//! happens*:
//!
//! * **Reservation, not serialization.**  [`Journal::begin_op`] reserves
//!   [`MAX_OP_BLOCKS`] slots from an atomic reservation counter and only
//!   sleeps when the forming group is genuinely out of space — never
//!   merely because a commit is in flight.
//! * **Per-transaction staging.**  [`Journal::log_write`] records the
//!   block and a *frozen copy* of its bytes (taken while the caller still
//!   holds the buffer lock, so the snapshot is exactly the state this
//!   operation produced) in thread-local state.  The hot path takes no
//!   lock at all.
//! * **Group merge at `end_op`.**  When an operation ends, its staged
//!   blocks merge into the forming group (absorption dedups by block
//!   number, keeping the newest snapshot by modification version).  When
//!   the group *closes* is the one thing a binding chooses, in code, by
//!   [`GroupClose`]:
//!   - [`GroupClose::EveryOp`] (xv6): the group closes at the next
//!     *quiescent* instant — no operation outstanding — so it can never
//!     commit snapshots entangled with a still-running operation's cache
//!     modifications (jbd2 drains handles the same way); while a commit is
//!     in flight, closing defers to the committer's handoff;
//!   - [`GroupClose::OnFlush`] (ext4sim): operations keep merging into the
//!     running group, which closes only in [`Journal::flush`] — one group
//!     is one ext4 transaction.  The binding flushes on fsync, sync,
//!     unmount and its own size threshold, which must keep the group
//!     below [`Journal::region_capacity`]: `begin_op` waits for that flush
//!     when the group is full.
//! * **Double-buffered commit.**  Commits alternate between two on-disk
//!   log regions and run entirely outside the group mutex: while group *N*
//!   writes its epoch into one region, group *N + 1* forms, absorbs
//!   operations, and copies nothing until its own turn.  Commits install
//!   in formation order (a sequence number in each region header keeps
//!   [`Journal::recover`] correct for either region).  The **region reuse
//!   rule**: group *N + 1* overwrites the region of group *N − 1* — header
//!   and log blocks, in one epoch — which is legal because group *N*'s
//!   barrier made the installs of *N − 1* durable before *N + 1* writes a
//!   byte into it.  A crash inside that epoch leaves the region holding
//!   the old record over a partly overwritten payload (digest mismatch:
//!   rejected, harmless since its installs are durable), the new record
//!   over a partial payload (rejected: never acknowledged), or the new
//!   record over its whole payload (committed).
//! * **Two-stage overlapped commit (queued devices).**  When the device
//!   exposes a multi-queue face ([`simkernel::queue::QueuedBlockDevice`],
//!   via [`io::JournalIo::queued`]), stage 1 — the log-region payload
//!   copies — is *batch-submitted* instead of written serially, and the
//!   committer prefetches: right after group *N*'s barrier it closes group
//!   *N + 1* if one is ready and submits its stage-1 payload, so those
//!   copies are serviced by the device *while group N's installs are still
//!   completing*.  The barrier count per commit is unchanged and the
//!   ordering contract {payload, record}→FLUSH→install is intact: a
//!   prefetched group's payload lands in the same barrier epoch as the
//!   previous group's installs (disjoint blocks — different log region,
//!   and installs target home locations) and as its own record.
//!
//! Because commits write the *frozen* bytes — both into the log region
//! and, on conflict, directly to the home location via
//! [`io::JournalIo::write_raw`] — an operation that modifies a block while
//! an earlier group holding that block is mid-commit can never leak its
//! uncommitted bytes into the earlier group's transaction.
//!
//! [`Journal::recover`] replays the committed transactions still on the
//! medium from both regions (in sequence order) after a crash, rejecting
//! torn commit records (checksum mismatch), records whose payload is not
//! the one they were sealed over (digest mismatch) and foreign or corrupt
//! headers (home blocks outside the configured valid range).
//!
//! The sibling module [`record`] owns the on-disk format of the
//! checksummed commit record every stack writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
pub mod record;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::shard::StripedCounter;

use crate::io::JournalIo;
use crate::record::{BSIZE, LOG_HEAD_MAX_ENTRIES};

/// Maximum number of blocks one transaction may modify (callers chunk
/// larger writes).  Also the reservation granularity of
/// [`Journal::begin_op`].
pub const MAX_OP_BLOCKS: usize = 64;

/// A deliberately planted protocol violation ([`Journal::plant_fault`]):
/// each one removes a rule the one-barrier commit's safety rests on, so the
/// crash suites can prove their oracles catch its absence.  A field of one
/// journal, never of the process — a planted journal shares a test binary
/// with correct ones.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlantedFault {
    /// The protocol as documented.
    #[default]
    None,
    /// Recovery trusts a record's self-checksum and replays it without
    /// verifying the payload digest, so a record the write cache persisted
    /// ahead of its payload installs whatever the region held before.
    TrustHeaderChecksum,
    /// Installs are issued before the commit barrier instead of after it,
    /// so a crash can leave a group half installed with no record to
    /// finish it from.
    InstallBeforeBarrier,
    /// The checkpoint clears the newest header without the barrier that
    /// makes its installs durable first, so a crash can lose an
    /// acknowledged group.
    CheckpointWithoutBarrier,
}

/// One logged block: home address, modification version (orders snapshots
/// of the same block), and the frozen bytes.
#[derive(Debug)]
struct LoggedBlock {
    home: u64,
    version: u64,
    data: Vec<u8>,
}

/// The forming transaction group: completed operations merge here at
/// `end_op` until the group closes and commits.
#[derive(Debug, Default)]
struct FormingGroup {
    blocks: Vec<LoggedBlock>,
    index: HashMap<u64, usize>,
    ops: u64,
}

/// Per-thread, per-journal transaction staging (no lock on the log_write
/// path).
#[derive(Debug, Default)]
struct TxLocal {
    depth: u32,
    blocks: Vec<LoggedBlock>,
    index: HashMap<u64, usize>,
}

thread_local! {
    /// Keyed by [`Journal::id`] so independent mounts never mix staging
    /// state.
    static TX: RefCell<HashMap<u64, TxLocal>> = RefCell::new(HashMap::new());
}

/// Process-wide source of journal instance ids (thread-local staging
/// keys).
static JOURNAL_IDS: AtomicU64 = AtomicU64::new(1);

/// Process-wide modification version; ticked while the caller holds the
/// buffer across [`Journal::log_write`], so snapshots of the same block
/// are totally ordered by content age.
static SNAPSHOT_VERSION: AtomicU64 = AtomicU64::new(1);

/// Cumulative journal statistics (exposed for experiments and upgrade
/// state-transfer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Number of committed transaction groups.
    pub commits: u64,
    /// Total blocks written through the journal (logged + installed).
    pub blocks_logged: u64,
    /// Transactions recovered at mount time.
    pub recoveries: u64,
    /// Operations absorbed into committed groups (`ops / commits` is the
    /// group-commit batching factor).
    pub ops_committed: u64,
    /// Device barriers issued by commits, checkpoints and recovery.
    pub barriers: u64,
    /// Commits whose stage-1 payload was prefetch-submitted while the
    /// previous group's installs were still completing (two-stage overlap
    /// on a queued device).  Always 0 on a synchronous device.
    pub overlapped_commits: u64,
}

/// Striped hot-path counters behind [`JournalStats`].
#[derive(Debug, Default)]
struct JournalCounters {
    commits: StripedCounter,
    blocks_logged: StripedCounter,
    recoveries: StripedCounter,
    ops_committed: StripedCounter,
    barriers: StripedCounter,
    overlapped_commits: StripedCounter,
}

impl JournalCounters {
    fn snapshot(&self) -> JournalStats {
        JournalStats {
            commits: self.commits.get(),
            blocks_logged: self.blocks_logged.get(),
            recoveries: self.recoveries.get(),
            ops_committed: self.ops_committed.get(),
            barriers: self.barriers.get(),
            overlapped_commits: self.overlapped_commits.get(),
        }
    }

    fn restore(&self, stats: JournalStats) {
        self.commits.reset(stats.commits);
        self.blocks_logged.reset(stats.blocks_logged);
        self.recoveries.reset(stats.recoveries);
        self.ops_committed.reset(stats.ops_committed);
        self.barriers.reset(stats.barriers);
        self.overlapped_commits.reset(stats.overlapped_commits);
    }
}

/// Next group sequence number allowed to run its commit I/O.
#[derive(Debug, Default)]
struct CommitTurn {
    next: u64,
}

/// A committed record recovery found on the medium, with the payload it
/// verified against the record's digest.
struct Committed {
    record: record::ParsedHead,
    payload: Vec<u8>,
}

/// The journal's knowledge of the two region headers on the medium (the
/// mutable part of a [`JournalTail`]).
#[derive(Debug, Default)]
struct Medium {
    live: [Option<u64>; 2],
    owes_checkpoint: bool,
}

/// Where a running journal stands on the medium: what a successor instance
/// attaching to the same device *without* running recovery (a live upgrade)
/// must know to keep honoring the protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalTail {
    /// Sequence number the next closed group takes (and thus its region).
    pub next_seq: u64,
    /// Per region, the sequence of the record its header may hold (`None`
    /// = known clean): what [`Journal::checkpoint`] still has to clear,
    /// newest last.
    pub live: [Option<u64>; 2],
    /// A commit's I/O failed: the checkpoint is owed before the next
    /// commit, not just at unmount.
    pub owes_checkpoint: bool,
}

/// When the forming group closes and commits (see the crate docs).  Fixed
/// by each binding in code, never a mount option.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GroupClose {
    /// At the next quiescent `end_op` (xv6: one commit per outermost
    /// operation, batched only by concurrency).
    #[default]
    EveryOp,
    /// Only in [`Journal::flush`] (ext4: operations join the running
    /// transaction until fsync, sync, unmount or the binding's size
    /// threshold).
    OnFlush,
}

/// On-disk geometry of one journal: where the two commit regions live and
/// which home blocks a recovered header may legally name.
///
/// Built through [`JournalConfig::from_geometry`] by every adapter, so two
/// stacks mounting the same superblock get byte-for-byte identical region
/// layout, capacity, and corrupt-header defenses *by construction*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// First block of the log area (region 0's header block).
    pub start: u64,
    /// Blocks per region (header + data); two regions fit in the log area.
    pub region_size: usize,
    /// Data blocks per region — the most one group may hold.
    pub capacity: usize,
    /// Valid home-block range `[lo, hi)`; recovery rejects headers naming
    /// blocks outside it, so a corrupt (or foreign-format) header is
    /// treated as clean rather than installed over arbitrary blocks.
    pub home_range: (u64, u64),
    /// When the forming group closes.
    pub close: GroupClose,
}

impl JournalConfig {
    /// Derives the double-buffered region geometry from a superblock's log
    /// area: `logstart` is the first log block, `nlog` the on-disk log
    /// size (clamped to `max_log_blocks`, the compile-time layout bound),
    /// and `home_range` the `[lo, hi)` range of legal home blocks.  Groups
    /// close at every operation; a binding that commits on flush overrides
    /// [`JournalConfig::close`].
    pub fn from_geometry(
        logstart: u64,
        nlog: usize,
        max_log_blocks: usize,
        home_range: (u64, u64),
    ) -> Self {
        let size = nlog.min(max_log_blocks);
        let region_size = (size / 2).max(2);
        let capacity = (region_size - 1).min(LOG_HEAD_MAX_ENTRIES);
        JournalConfig {
            start: logstart,
            region_size,
            capacity,
            home_range,
            close: GroupClose::EveryOp,
        }
    }
}

/// One mounted write-ahead log (see the crate docs for the protocol).
/// All I/O goes through the [`JournalIo`] passed to each call, so one
/// `Journal` serves every backend.
#[derive(Debug)]
pub struct Journal {
    id: u64,
    start: u64,
    region_size: usize,
    capacity: usize,
    home_range: (u64, u64),
    close: GroupClose,
    inner: Mutex<FormingGroup>,
    space_cond: Condvar,
    outstanding: AtomicU32,
    /// Forming-group slots spoken for: merged blocks plus a worst-case
    /// [`MAX_OP_BLOCKS`] per operation still inside `begin_op`/`end_op`.
    reserved: AtomicUsize,
    next_seq: AtomicU64,
    /// Commits whose I/O has finished; `next_seq > commits_done` means a
    /// commit is in flight (or queued), so group closing is deferred to
    /// the committer's handoff — that deferral is what lets a group
    /// *absorb* operations while the commit I/O runs.
    commits_done: AtomicU64,
    /// Active [`Journal::flush`] calls; while nonzero, `begin_op` admits
    /// no new operations so the drain is bounded.
    flushing: AtomicU32,
    commit_turn: Mutex<CommitTurn>,
    commit_cond: Condvar,
    /// What the region headers on the medium may hold.  Held for the
    /// whole of a commit's I/O and of a checkpoint's, so the two never
    /// interleave (commits are already serialized by `commit_turn`).
    medium: Mutex<Medium>,
    fault: PlantedFault,
    counters: JournalCounters,
}

impl Journal {
    /// Creates the in-memory journal state for the geometry in `config`.
    pub fn new(config: JournalConfig) -> Self {
        Journal {
            id: JOURNAL_IDS.fetch_add(1, Ordering::Relaxed),
            start: config.start,
            region_size: config.region_size,
            capacity: config.capacity,
            home_range: config.home_range,
            close: config.close,
            inner: Mutex::new(FormingGroup::default()),
            space_cond: Condvar::new(),
            outstanding: AtomicU32::new(0),
            reserved: AtomicUsize::new(0),
            next_seq: AtomicU64::new(0),
            commits_done: AtomicU64::new(0),
            flushing: AtomicU32::new(0),
            commit_turn: Mutex::new(CommitTurn::default()),
            commit_cond: Condvar::new(),
            medium: Mutex::new(Medium::default()),
            fault: PlantedFault::None,
            counters: JournalCounters::default(),
        }
    }

    /// Test-only crash-safety hook: makes this journal break one rule of
    /// the protocol (see [`PlantedFault`]).  Never call outside tests.
    #[doc(hidden)]
    pub fn plant_fault(&mut self, fault: PlantedFault) {
        self.fault = fault;
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> JournalStats {
        self.counters.snapshot()
    }

    /// Overrides statistics (used when restoring state across an online
    /// upgrade; the mount is quiescent during the swap).
    pub fn restore_stats(&self, stats: JournalStats) {
        self.counters.restore(stats);
    }

    /// Where this journal stands on the medium, for a live upgrade's
    /// state transfer.  Only meaningful while the journal is quiescent (no
    /// operation outstanding, no commit in flight).
    pub fn tail(&self) -> JournalTail {
        let medium = self.medium.lock();
        JournalTail {
            next_seq: self.next_seq.load(Ordering::SeqCst),
            live: medium.live,
            owes_checkpoint: medium.owes_checkpoint,
        }
    }

    /// Adopts the tail of the journal instance this one replaces on the
    /// same device, *instead of* running [`Journal::recover`]: numbering
    /// continues where the predecessor stopped (so regions keep
    /// alternating) and this journal's checkpoint clears the headers the
    /// predecessor left live.  Call before the first operation.
    pub fn restore_tail(&self, tail: JournalTail) {
        self.next_seq.store(tail.next_seq, Ordering::SeqCst);
        self.commits_done.store(tail.next_seq, Ordering::SeqCst);
        self.commit_turn.lock().next = tail.next_seq;
        *self.medium.lock() = Medium { live: tail.live, owes_checkpoint: tail.owes_checkpoint };
    }

    /// Data blocks one commit region can hold (one group's maximum size).
    pub fn region_capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum number of data blocks a single operation may safely modify
    /// (callers chunk larger writes).
    pub fn max_op_blocks() -> usize {
        MAX_OP_BLOCKS
    }

    fn try_reserve(&self) -> bool {
        let mut cur = self.reserved.load(Ordering::SeqCst);
        loop {
            if cur + MAX_OP_BLOCKS > self.capacity {
                return false;
            }
            match self.reserved.compare_exchange(
                cur,
                cur + MAX_OP_BLOCKS,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Begins an operation that will modify at most [`MAX_OP_BLOCKS`]
    /// blocks.  Reserves that worst case from the forming group's space
    /// via an atomic counter; it only blocks when the group cannot fit
    /// another operation (never merely because a commit is in flight —
    /// that is the pipelining) or while a [`Journal::flush`] is draining
    /// (so fsync cannot be starved by a steady stream of new operations).
    pub fn begin_op(&self) {
        let _reserve = simkernel::trace::phase(simkernel::trace::Phase::LogReserve);
        let nested = TX.with(|cell| {
            let mut map = cell.borrow_mut();
            let tx = map.entry(self.id).or_default();
            tx.depth += 1;
            tx.depth > 1
        });
        if nested {
            // A nested begin_op joins the outer operation: it already holds
            // a reservation.
            return;
        }
        if self.flushing.load(Ordering::SeqCst) != 0 || !self.try_reserve() {
            // Slow path: waiters pair with the group mutex so a release
            // (end_op absorption, a finished commit, or a flush ending)
            // cannot slip between the failed check and the wait.
            let mut inner = self.inner.lock();
            while self.flushing.load(Ordering::SeqCst) != 0 || !self.try_reserve() {
                self.space_cond.wait(&mut inner);
            }
        }
        self.outstanding.fetch_add(1, Ordering::SeqCst);
    }

    /// Records that home block `home` was modified by the current
    /// operation, freezing a snapshot of `data`.  Call this while still
    /// holding the block's buffer (immediately after modifying it): the
    /// snapshot must be exactly the state this operation produced.  The
    /// staging is thread-local — no journal lock is taken.
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`] outside a transaction; [`Errno::NoSpc`] if the
    /// operation exceeds [`MAX_OP_BLOCKS`] distinct blocks (a chunking bug
    /// in the caller).
    pub fn log_write(&self, home: u64, data: &[u8]) -> KernelResult<()> {
        let _stage = simkernel::trace::phase(simkernel::trace::Phase::LogStage);
        let version = SNAPSHOT_VERSION.fetch_add(1, Ordering::SeqCst);
        TX.with(|cell| {
            let mut map = cell.borrow_mut();
            let tx = match map.get_mut(&self.id) {
                Some(tx) if tx.depth > 0 => tx,
                _ => {
                    return Err(KernelError::with_context(
                        Errno::Inval,
                        "journal: log_write outside transaction",
                    ));
                }
            };
            if let Some(&i) = tx.index.get(&home) {
                // Absorption: a block modified twice in one operation is
                // logged once, with the newest snapshot.
                tx.blocks[i].version = version;
                tx.blocks[i].data.clear();
                tx.blocks[i].data.extend_from_slice(data);
            } else {
                if tx.blocks.len() >= MAX_OP_BLOCKS {
                    return Err(KernelError::with_context(
                        Errno::NoSpc,
                        "journal: transaction too large for log",
                    ));
                }
                tx.index.insert(home, tx.blocks.len());
                tx.blocks.push(LoggedBlock { home, version, data: data.to_vec() });
            }
            Ok(())
        })
    }

    /// Distinct blocks the calling thread's open operation has staged so
    /// far (0 outside a transaction).  [`Journal::log_write`] refuses the
    /// block that would make this exceed [`MAX_OP_BLOCKS`], so a caller
    /// packing work into one operation ends it while the worst case of
    /// its next step still fits.
    pub fn staged_blocks(&self) -> usize {
        TX.with(|cell| cell.borrow().get(&self.id).map_or(0, |tx| tx.blocks.len()))
    }

    /// Ends the current operation, merging its staged blocks into the
    /// forming group.  Under [`GroupClose::EveryOp`], if the group is ready
    /// (quiescent, no commit in flight), this thread closes it and runs
    /// the commit — outside the group mutex, so new operations keep
    /// forming the next group while the commit I/O runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the commit.
    pub fn end_op(&self, io: &dyn JournalIo) -> KernelResult<()> {
        let staged = TX.with(|cell| {
            let mut map = cell.borrow_mut();
            let tx = map.get_mut(&self.id).expect("end_op without begin_op");
            debug_assert!(tx.depth > 0, "end_op without begin_op");
            tx.depth -= 1;
            if tx.depth == 0 {
                // Keep the (empty) staging entry so the next operation on
                // this thread reuses its index allocation; prune stale
                // entries of long-dead journal instances once in a while.
                tx.index.clear();
                let blocks = std::mem::take(&mut tx.blocks);
                if map.len() > 16 {
                    map.retain(|_, t| t.depth > 0);
                }
                Some(blocks)
            } else {
                None
            }
        });
        let Some(staged) = staged else { return Ok(()) };

        let to_commit = {
            let mut inner = self.inner.lock();
            let did_write = !staged.is_empty();
            let mut added = 0usize;
            for block in staged {
                if let Some(&i) = inner.index.get(&block.home) {
                    if inner.blocks[i].version < block.version {
                        inner.blocks[i] = block;
                    }
                } else {
                    let slot = inner.blocks.len();
                    inner.index.insert(block.home, slot);
                    inner.blocks.push(block);
                    added += 1;
                }
            }
            if did_write {
                // Read-only (or failed-before-writing) operations do not
                // count toward the ops-per-commit batching metric.
                inner.ops += 1;
            }
            // Release the unused part of this operation's worst-case
            // reservation; merged blocks keep their slots until commit.
            let release = MAX_OP_BLOCKS - added;
            if release > 0 {
                self.reserved.fetch_sub(release, Ordering::SeqCst);
                self.space_cond.notify_all();
            }
            let remaining = self.outstanding.fetch_sub(1, Ordering::SeqCst) - 1;
            if remaining == 0 {
                // Wake a flush() waiting for operations to drain.
                self.space_cond.notify_all();
            }
            self.take_group_if_ready(&mut inner)
        };
        if let Some((seq, blocks, ops)) = to_commit {
            // This thread became the committer: the whole group's commit I/O
            // runs on its clock, so attribute it as commit wait.
            let _commit = simkernel::trace::phase(simkernel::trace::Phase::CommitWait);
            self.commit_group(io, seq, blocks, ops)?;
        }
        Ok(())
    }

    /// Forces everything durable-in-progress to commit (the fsync and
    /// sync paths; unmount goes on to [`Journal::checkpoint`]).  When it
    /// returns, every operation that had ended is durable — its group's
    /// commit barrier has completed — with no further device barrier
    /// needed, and a journal with nothing in progress does no I/O at all.
    /// Waits for outstanding operations to merge, closes and commits the
    /// forming group, then waits out any commit another thread still has
    /// in flight.  Must not be called from inside a `begin_op`/`end_op`
    /// transaction (it would wait on itself).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the commit.
    pub fn flush(&self, io: &dyn JournalIo) -> KernelResult<()> {
        // Everything here — draining operations, committing the sealed
        // group, waiting out an in-flight commit — is time an fsync spends
        // waiting on group commit.
        let _commit = simkernel::trace::phase(simkernel::trace::Phase::CommitWait);
        // Seal admissions so the drain is bounded: begin_op blocks while a
        // flush is in progress (jbd2 seals its transaction the same way).
        self.flushing.fetch_add(1, Ordering::SeqCst);
        let to_commit = {
            let mut inner = self.inner.lock();
            while self.outstanding.load(Ordering::SeqCst) != 0 {
                self.space_cond.wait(&mut inner);
            }
            let group = self.take_group(&mut inner);
            self.flushing.fetch_sub(1, Ordering::SeqCst);
            self.space_cond.notify_all();
            group
        };
        let result = match to_commit {
            Some((seq, blocks, ops)) => self.commit_group(io, seq, blocks, ops),
            None => Ok(()),
        };
        // Data merged into a group another thread adopted is only durable
        // once that commit's I/O has finished — wait it out.
        let target = self.next_seq.load(Ordering::SeqCst);
        let mut turn = self.commit_turn.lock();
        while turn.next < target {
            self.commit_cond.wait(&mut turn);
        }
        result
    }

    /// Closes the forming group when it is ready: quiescent (every
    /// operation has merged — a group never commits snapshots entangled
    /// with a still-running operation's cache modifications; jbd2 drains
    /// handles the same way) and no commit in flight.  While a commit *is*
    /// in flight the group keeps absorbing operations — the committer
    /// adopts it on completion — which is where group-commit batching
    /// comes from.  Never under [`GroupClose::OnFlush`], where only
    /// [`Journal::flush`] closes the group.
    fn take_group_if_ready(
        &self,
        inner: &mut FormingGroup,
    ) -> Option<(u64, Vec<LoggedBlock>, u64)> {
        if self.close == GroupClose::OnFlush {
            return None;
        }
        let quiescent = self.outstanding.load(Ordering::SeqCst) == 0;
        let in_flight =
            self.next_seq.load(Ordering::SeqCst) > self.commits_done.load(Ordering::SeqCst);
        if quiescent && !in_flight {
            self.take_group(inner)
        } else {
            None
        }
    }

    /// Closes the forming group for the committer's *prefetch*: called by
    /// the thread that is itself mid-commit, right after its commit
    /// barrier, to start the next group's stage-1 payload early.  Requires
    /// quiescence (same entanglement argument as
    /// [`Journal::take_group_if_ready`]) but deliberately ignores the
    /// in-flight check — the caller *is* the in-flight commit, and the
    /// turn ticket it already holds orders the adopted group right behind
    /// it.  Never under [`GroupClose::OnFlush`].
    fn take_group_for_overlap(
        &self,
        inner: &mut FormingGroup,
    ) -> Option<(u64, Vec<LoggedBlock>, u64)> {
        if self.close == GroupClose::EveryOp && self.outstanding.load(Ordering::SeqCst) == 0 {
            self.take_group(inner)
        } else {
            None
        }
    }

    /// Closes the forming group, assigning its commit sequence (and thus
    /// its region).  The group's slots are released immediately: a closed
    /// group owns its own on-disk region, so only the *forming* group
    /// counts against the reservation budget — operations keep flowing
    /// while the closed group's commit I/O runs.
    fn take_group(&self, inner: &mut FormingGroup) -> Option<(u64, Vec<LoggedBlock>, u64)> {
        if inner.blocks.is_empty() {
            return None;
        }
        let blocks = std::mem::take(&mut inner.blocks);
        inner.index.clear();
        let ops = std::mem::take(&mut inner.ops);
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        self.reserved.fetch_sub(blocks.len(), Ordering::SeqCst);
        // Callers hold `inner`, which is what space waiters pair with.
        self.space_cond.notify_all();
        Some((seq, blocks, ops))
    }

    /// Commits closed groups in formation order, then adopts the next
    /// group if it became ready while this one was committing (the
    /// pipelined handoff) — or the group [`Journal::commit_io`] already
    /// prefetch-staged on a queued device (the two-stage overlap).
    fn commit_group(
        &self,
        io: &dyn JournalIo,
        mut seq: u64,
        mut blocks: Vec<LoggedBlock>,
        mut ops: u64,
    ) -> KernelResult<()> {
        // Whether `blocks`' stage-1 payload was already submitted to the
        // queued device by the previous iteration's prefetch.
        let mut staged = false;
        // A prefetch-adopted group must still be committed even if an
        // earlier iteration's I/O failed: its sequence is assigned, and
        // abandoning it would strand every flush() waiting on the turn.
        // The first error is remembered and returned at the end.
        let mut first_err: Option<KernelError> = None;
        loop {
            {
                let mut turn = self.commit_turn.lock();
                while turn.next != seq {
                    self.commit_cond.wait(&mut turn);
                }
            }
            let mut prefetched = None;
            let result = self.commit_io(io, seq, &blocks, staged, &mut prefetched);
            // Advance the pipeline even if the commit I/O failed, so
            // waiters are never stranded.  The completion count rises
            // *before* the handoff check below, so an end_op that observed
            // this commit in flight either sees the updated count or
            // merges before the handoff sees the group.
            self.commits_done.fetch_add(1, Ordering::SeqCst);
            {
                let mut turn = self.commit_turn.lock();
                turn.next = seq + 1;
                self.commit_cond.notify_all();
            }
            match result {
                Ok(()) => {
                    self.counters.commits.inc();
                    self.counters.blocks_logged.add(blocks.len() as u64);
                    self.counters.ops_committed.add(ops);
                    if staged {
                        self.counters.overlapped_commits.inc();
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
            let next = match prefetched {
                // The prefetched group is committed regardless of errors
                // (its seq is assigned); `staged` may be false if its
                // payload submission failed — commit_io then rewrites the
                // payload, which is idempotent.
                Some(group) => Some(group),
                None => {
                    let mut inner = self.inner.lock();
                    if first_err.is_some() {
                        None
                    } else {
                        self.take_group_if_ready(&mut inner).map(|(s, b, o)| (s, b, o, false))
                    }
                }
            };
            match next {
                Some((next_seq, next_blocks, next_ops, next_staged)) => {
                    seq = next_seq;
                    blocks = next_blocks;
                    ops = next_ops;
                    staged = next_staged;
                }
                None => {
                    return match first_err {
                        Some(e) => Err(e),
                        None => Ok(()),
                    };
                }
            }
        }
    }

    /// The commit I/O: frozen blocks and the commit record into this
    /// group's region, one barrier, install.
    ///
    /// On a queued device the payload copies are batch-submitted (stage
    /// 1), and right after the barrier the committer tries to *prefetch*
    /// the next group: close it and submit its stage-1 payload, handing it
    /// back via `prefetched` so its copies are serviced while this group's
    /// installs run.  `staged` marks a group whose payload was already
    /// submitted that way.
    fn commit_io(
        &self,
        io: &dyn JournalIo,
        seq: u64,
        blocks: &[LoggedBlock],
        staged: bool,
        prefetched: &mut Option<(u64, Vec<LoggedBlock>, u64, bool)>,
    ) -> KernelResult<()> {
        debug_assert!(blocks.len() <= self.capacity);
        let head_block = self.region_head(seq);
        // Held across all of this commit's I/O: a checkpoint must never
        // interleave with it (uncontended otherwise — the turn ticket
        // already serializes commits).
        let mut medium = self.medium.lock();
        // Owed until this commit's I/O has wholly succeeded.  After a
        // failed commit neither region obeys the reuse rule (a record
        // that was never installed from may sit in one, the other's
        // installs never got their barrier), so that debt is paid first.
        if medium.owes_checkpoint {
            self.settle(io, &mut medium)?;
        }
        medium.owes_checkpoint = true;
        // 1. Frozen copies into the region's data blocks, and the commit
        // record over the header of the group two commits back.  The
        // payload is written raw: log data blocks are only ever read back
        // by recovery (on a fresh cache), so going through a buffer cache
        // would just evict useful blocks once per commit.  On a queued
        // device the copies are batch-submitted; a prefetch-staged group
        // submitted them during the previous commit already.  Nothing
        // orders the record behind the payload: it carries the payload's
        // digest, so however the write cache reorders this epoch, a record
        // without its whole payload is rejected by recovery.
        if !staged {
            self.submit_payload(io, head_block, blocks)?;
        }
        // Marked live before the write is attempted: even a failed header
        // write may have reached the medium.
        medium.live[(seq % 2) as usize] = Some(seq);
        let mut head = [0u8; BSIZE];
        record::encode_head(
            &mut head,
            seq,
            blocks.iter().map(|b| b.home),
            record::payload_digest(blocks.iter().map(|b| b.data.as_slice())),
        );
        io.write_block(head_block, &head)?;
        let install_early = self.fault == PlantedFault::InstallBeforeBarrier;
        if install_early {
            self.install(io, blocks)?;
        }
        // 2. The commit barrier: this group is durable, and so are the
        // previous group's installs — which is what frees that group's
        // region for the next commit.  (On the queued device the barrier
        // also drains the submission queues, so it covers batched payload
        // writes exactly as it covers synchronous ones.)
        self.barrier(io)?;
        // Two-stage overlap: the next group (if one is ready) may start
        // its stage-1 payload copies now, overlapping them with this
        // group's installs below.  This is the earliest safe point — the
        // next group reuses the region of group `seq - 1`, whose installs
        // the barrier just made durable.
        if io.queued().is_some() {
            let adopted = {
                let mut inner = self.inner.lock();
                self.take_group_for_overlap(&mut inner)
            };
            if let Some((next_seq, next_blocks, next_ops)) = adopted {
                let next_head = self.region_head(next_seq);
                debug_assert_ne!(next_head, head_block, "consecutive groups alternate regions");
                let submitted = self.submit_payload(io, next_head, &next_blocks).is_ok();
                // On a failed submission the group is still adopted (its
                // seq is assigned) but unstaged: the next commit_io
                // rewrites the payload from scratch, which is idempotent.
                *prefetched = Some((next_seq, next_blocks, next_ops, submitted));
            }
        }
        // 3. Install to home locations.  Deliberately *not* followed by a
        // barrier: until the next commit's barrier (or a checkpoint) makes
        // the installs durable, this group's record stays valid and a
        // crash merely re-replays it idempotently.
        if !install_early {
            self.install(io, blocks)?;
        }
        medium.owes_checkpoint = false;
        Ok(())
    }

    /// Step 3 of the commit.  `flush_cached_if_eq` writes the cached copy
    /// when it still equals the committed snapshot; when a later operation
    /// already modified the cache, the frozen snapshot goes straight to
    /// the device so uncommitted bytes never reach the home location (the
    /// newer bytes stay dirty for their own group).
    fn install(&self, io: &dyn JournalIo, blocks: &[LoggedBlock]) -> KernelResult<()> {
        for block in blocks {
            if !io.flush_cached_if_eq(block.home, &block.data)? {
                io.write_raw(block.home, &block.data)?;
            }
        }
        Ok(())
    }

    /// Brings the on-disk log to its clean state — the unmount path.
    /// Commits everything in progress ([`Journal::flush`]), then clears
    /// the live headers so the next mount finds nothing to replay.  A
    /// no-op (no I/O at all) when no header is live.  Like `flush`, it
    /// must not be called from inside a transaction.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the headers then stay live and the
    /// checkpoint owed.
    pub fn checkpoint(&self, io: &dyn JournalIo) -> KernelResult<()> {
        self.flush(io)?;
        let _commit = simkernel::trace::phase(simkernel::trace::Phase::CommitWait);
        self.settle(io, &mut self.medium.lock())
    }

    /// Clears every live header, oldest first, each in its own epoch: a
    /// crash that kept an older record while losing the newest would
    /// replay the older one alone, over home blocks the newest had already
    /// rewritten.  The barrier ahead of a clear is also what makes the
    /// installs of the record being cleared durable; an older record's
    /// already are, by the newest's commit barrier — unless that commit
    /// failed (`owes_checkpoint`).
    fn settle(&self, io: &dyn JournalIo, medium: &mut Medium) -> KernelResult<()> {
        let mut live: Vec<(u64, u64)> =
            (0..2).filter_map(|region| Some((medium.live[region as usize]?, region))).collect();
        live.sort_unstable();
        for (i, &(_, region)) in live.iter().enumerate() {
            let newest = i + 1 == live.len();
            let installs_durable = !newest && !medium.owes_checkpoint;
            let planted = newest && self.fault == PlantedFault::CheckpointWithoutBarrier;
            if !installs_durable && !planted {
                self.barrier(io)?;
            }
            self.write_clean_head(io, self.region_head(region))?;
        }
        if !live.is_empty() {
            self.barrier(io)?;
        }
        *medium = Medium::default();
        Ok(())
    }

    /// Stage 1: writes the group's frozen blocks into its log region —
    /// batch-submitted without waiting on a queued device (the following
    /// barrier, or any earlier one, completes them), serial raw writes
    /// otherwise.
    fn submit_payload(
        &self,
        io: &dyn JournalIo,
        head_block: u64,
        blocks: &[LoggedBlock],
    ) -> KernelResult<()> {
        match io.queued() {
            Some(q) => {
                let queue = q.preferred_queue();
                let writes: Vec<(u64, &[u8])> = blocks
                    .iter()
                    .enumerate()
                    .map(|(i, block)| (head_block + 1 + i as u64, block.data.as_slice()))
                    .collect();
                q.submit_write_batch(queue, &writes)?;
            }
            None => {
                for (i, block) in blocks.iter().enumerate() {
                    io.write_raw(head_block + 1 + i as u64, &block.data)?;
                }
            }
        }
        Ok(())
    }

    fn barrier(&self, io: &dyn JournalIo) -> KernelResult<()> {
        io.barrier()?;
        self.counters.barriers.inc();
        Ok(())
    }

    /// Header block of the region group `seq` commits into.
    fn region_head(&self, seq: u64) -> u64 {
        self.start + (seq % 2) * self.region_size as u64
    }

    /// Rewrites the header at `head_block` clean, keeping its sequence
    /// field readable.
    fn write_clean_head(&self, io: &dyn JournalIo, head_block: u64) -> KernelResult<()> {
        let mut head = vec![0u8; BSIZE];
        io.read_block(head_block, &mut head)?;
        let seq = record::get_u64(&head, record::LOG_HEAD_SEQ_OFF);
        record::encode_clear(&mut head, seq);
        io.write_block(head_block, &head)
    }

    /// Recovers from the on-disk log at mount time: committed transactions
    /// found in either region are installed in sequence order, and every
    /// header that was not clean is left clean.  Returns the number of
    /// blocks replayed.
    ///
    /// A record is replayed only if its self-checksum holds, its home
    /// blocks are in range, *and* the log blocks behind it hash to the
    /// digest it was sealed over.  After a crash the newest committed
    /// record always validates, and so may the one before it; replaying
    /// either is idempotent, since no group after them had started
    /// installing.  Headers that do not validate are cleared too: a
    /// rejected record left in place could be re-validated by a later
    /// session that logs identical bytes into its region and crashes
    /// before its own record lands.  A cleanly unmounted image
    /// ([`Journal::checkpoint`]) has both headers clear, replays nothing
    /// and writes nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn recover(&self, io: &dyn JournalIo) -> KernelResult<usize> {
        // Recovery is its own traced operation (mount path, not a syscall);
        // replay I/O inside it still shows up under dev-io via the device.
        let _span = simkernel::trace::op_span("journal-recovery");
        let _commit = simkernel::trace::phase(simkernel::trace::Phase::CommitWait);
        let mut medium = self.medium.lock();
        let mut committed: Vec<Committed> = Vec::new();
        let mut head = vec![0u8; BSIZE];
        for region in 0..2u64 {
            let head_block = self.region_head(region);
            io.read_block(head_block, &mut head)?;
            if record::get_u32(&head, record::LOG_HEAD_COUNT_OFF) == 0 {
                continue;
            }
            // A header that does not validate is live all the same; its
            // place in the clearing order does not matter.
            let found = self.read_committed(io, head_block, &head)?;
            medium.live[region as usize] = Some(found.as_ref().map_or(0, |c| c.record.seq));
            committed.extend(found);
        }
        committed.sort_by_key(|found| found.record.seq);
        let mut replayed = 0usize;
        for Committed { record, payload } in &committed {
            for (&home, copy) in record.homes.iter().zip(payload.chunks_exact(BSIZE)) {
                io.write_block(home, copy)?;
            }
            replayed += record.homes.len();
        }
        // The replayed installs become durable before any header is
        // cleared, so a crash during recovery re-runs it rather than
        // losing a transaction; a clean log is left untouched.
        medium.owes_checkpoint = true;
        self.settle(io, &mut medium)?;
        if replayed > 0 {
            self.counters.recoveries.inc();
            self.counters.blocks_logged.add(replayed as u64);
        }
        Ok(replayed)
    }

    /// Decides whether the non-clean header `head` at `head_block` is a
    /// committed record, returning it with its verified payload; `None`
    /// for anything recovery must not replay.
    fn read_committed(
        &self,
        io: &dyn JournalIo,
        head_block: u64,
        head: &[u8],
    ) -> KernelResult<Option<Committed>> {
        // parse_head rejects over-capacity counts and torn commit-record
        // writes (checksum mismatch: only some of the header's sectors
        // reached the device — the transaction never committed).
        let Some(record) = record::parse_head(head, self.capacity) else {
            return Ok(None);
        };
        if record.homes.iter().any(|&h| h < self.home_range.0 || h >= self.home_range.1) {
            // Not a header this format wrote (corruption, or an image
            // from before the double-buffered layout): treating it as
            // clean beats installing over arbitrary blocks.
            return Ok(None);
        }
        let mut payload = vec![0u8; record.homes.len() * BSIZE];
        for (i, copy) in payload.chunks_exact_mut(BSIZE).enumerate() {
            io.read_block(head_block + 1 + i as u64, copy)?;
        }
        // The record may have reached the medium ahead of (or without)
        // part of its payload, or outlived it: the region's blocks must be
        // the ones it was sealed over.
        let intact = record::payload_digest(payload.chunks_exact(BSIZE)) == record.payload_digest;
        if !intact && self.fault != PlantedFault::TrustHeaderChecksum {
            return Ok(None);
        }
        Ok(Some(Committed { record, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::DeviceIo;
    use crate::record::{
        encode_head, get_u32, get_u64, payload_digest, put_u32, LOG_HEAD_BLOCKS_OFF,
        LOG_HEAD_COUNT_OFF, LOG_HEAD_SEQ_OFF,
    };
    use simkernel::dev::{BlockDevice, FaultInjectingDevice, FaultMode, RamDisk};
    use std::sync::Arc;

    /// The same log geometry the xv6 stacks use: log at block 2, two
    /// regions, homes legal from the end of the log area to disk size.
    const LOG_BLOCKS: usize = 2 * (4 * MAX_OP_BLOCKS + 1);
    const HALF: u64 = (LOG_BLOCKS / 2) as u64;

    fn test_config(disk_blocks: u64) -> JournalConfig {
        JournalConfig::from_geometry(
            2,
            LOG_BLOCKS,
            LOG_BLOCKS,
            (2 + LOG_BLOCKS as u64, disk_blocks),
        )
    }

    fn setup() -> (DeviceIo, Journal) {
        let io = DeviceIo::new(Arc::new(RamDisk::new(BSIZE as u32, 1024)));
        (io, Journal::new(test_config(1024)))
    }

    fn block_fill(io: &DeviceIo, blockno: u64) -> u8 {
        let mut buf = vec![0u8; BSIZE];
        io.read_block(blockno, &mut buf).unwrap();
        buf[0]
    }

    fn write_block(io: &DeviceIo, journal: &Journal, blockno: u64, fill: u8) {
        journal.begin_op();
        journal.log_write(blockno, &[fill; BSIZE]).unwrap();
        journal.end_op(io).unwrap();
    }

    /// A sealed commit record for `seq` naming `homes`, whose payload is
    /// one block of each of `fills`.
    fn sealed_head(seq: u64, homes: &[u64], fills: &[u8]) -> Vec<u8> {
        let payload: Vec<[u8; BSIZE]> = fills.iter().map(|&fill| [fill; BSIZE]).collect();
        let mut head = vec![0u8; BSIZE];
        let digest = payload_digest(payload.iter().map(|block| &block[..]));
        encode_head(&mut head, seq, homes.iter().copied(), digest);
        head
    }

    /// Plants a committed-but-not-installed group by hand, as a crash
    /// right after the commit barrier leaves it: block `i` of `region`
    /// holds `fills[i]`, the header names `homes`.
    fn plant_record(io: &DeviceIo, region: u64, seq: u64, homes: &[u64], fills: &[u8]) {
        let head_block = 2 + region * HALF;
        for (i, &fill) in fills.iter().enumerate() {
            io.write_block(head_block + 1 + i as u64, &[fill; BSIZE]).unwrap();
        }
        io.write_block(head_block, &sealed_head(seq, homes, fills)).unwrap();
    }

    /// `(count, seq)` of the header in `region`.
    fn region_header(io: &DeviceIo, region: u64) -> (u32, u64) {
        let mut head = vec![0u8; BSIZE];
        io.read_block(2 + region * HALF, &mut head).unwrap();
        (get_u32(&head, LOG_HEAD_COUNT_OFF), get_u64(&head, LOG_HEAD_SEQ_OFF))
    }

    /// Remounts: a fresh journal recovers `io`.  Asserts that whatever it
    /// found, both headers are clean afterwards and a further mount writes
    /// nothing.  Returns the blocks replayed.
    fn remount(io: &DeviceIo) -> usize {
        let replayed = Journal::new(test_config(1024)).recover(io).unwrap();
        for region in 0..2 {
            assert_eq!(region_header(io, region).0, 0, "region {region} left non-clean");
        }
        let writes = io.device().stats().writes;
        assert_eq!(Journal::new(test_config(1024)).recover(io).unwrap(), 0);
        assert_eq!(io.device().stats().writes, writes, "a clean log is mounted without a write");
        replayed
    }

    #[test]
    fn commit_installs_blocks_to_home_locations() {
        let (io, journal) = setup();
        write_block(&io, &journal, 600, 0xAB);
        write_block(&io, &journal, 601, 0xCD);
        assert_eq!(block_fill(&io, 600), 0xAB);
        assert_eq!(block_fill(&io, 601), 0xCD);
        let stats = journal.stats();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.blocks_logged, 2);
        assert_eq!(stats.ops_committed, 2);
        assert_eq!(stats.barriers, 2, "one barrier per commit");
    }

    #[test]
    fn consecutive_commits_alternate_log_regions() {
        let (io, journal) = setup();
        write_block(&io, &journal, 600, 0x11);
        assert_eq!(region_header(&io, 0), (1, 0));
        assert_eq!(journal.tail().live, [Some(0), None]);
        write_block(&io, &journal, 601, 0x22);
        // Region 0 logged block 600, region 1 logged block 601; nothing
        // clears a header in steady state.
        assert_eq!(region_header(&io, 0), (1, 0));
        assert_eq!(region_header(&io, 1), (1, 1));
        assert_eq!(block_fill(&io, 2 + 1), 0x11);
        assert_eq!(block_fill(&io, 2 + HALF + 1), 0x22);
        // The third commit overwrites the first one's region, record and
        // payload alike.
        write_block(&io, &journal, 602, 0x33);
        assert_eq!(region_header(&io, 0), (1, 2));
        assert_eq!(block_fill(&io, 2 + 1), 0x33);
        assert_eq!(
            journal.tail(),
            JournalTail { next_seq: 3, live: [Some(2), Some(1)], owes_checkpoint: false }
        );
    }

    #[test]
    fn checkpoint_clears_the_pending_header_and_is_free_when_idle() {
        let (io, journal) = setup();
        journal.checkpoint(&io).unwrap();
        assert_eq!(journal.stats().barriers, 0, "nothing live: no I/O");
        write_block(&io, &journal, 600, 0x11);
        journal.checkpoint(&io).unwrap();
        assert_eq!(region_header(&io, 0), (0, 0));
        assert_eq!(journal.stats().barriers, 1 + 2, "commit + checkpoint");
        assert_eq!(journal.tail(), JournalTail { next_seq: 1, ..JournalTail::default() });
        journal.checkpoint(&io).unwrap();
        assert_eq!(journal.stats().barriers, 3, "second checkpoint is a no-op");
        // A clean image replays nothing on the next mount.
        assert_eq!(remount(&io), 0);
        // Commits after a checkpoint keep alternating regions, and with
        // both headers live the checkpoint still costs two barriers.
        write_block(&io, &journal, 601, 0x22);
        write_block(&io, &journal, 602, 0x33);
        assert_eq!((region_header(&io, 1), region_header(&io, 0)), ((1, 1), (1, 2)));
        journal.checkpoint(&io).unwrap();
        assert_eq!(journal.stats().barriers, 3 + 2 + 2);
        assert_eq!(remount(&io), 0);
    }

    #[test]
    fn restored_tail_continues_the_sequence_and_pays_the_owed_clear() {
        let (io, old) = setup();
        write_block(&io, &old, 600, 0x11);
        let tail = old.tail();
        drop(old);
        // The successor attaches without recovery (live upgrade).
        let new = Journal::new(test_config(1024));
        new.restore_tail(tail);
        write_block(&io, &new, 601, 0x22);
        assert_eq!(region_header(&io, 0), (1, 0), "predecessor's record untouched");
        assert_eq!(region_header(&io, 1), (1, 1), "successor took the other region");
        assert_eq!(new.stats().recoveries, 0);
        // Its checkpoint clears the predecessor's header along with its own.
        new.checkpoint(&io).unwrap();
        assert_eq!(remount(&io), 0);
    }

    #[test]
    fn a_commit_after_a_failed_commit_pays_the_owed_checkpoint_before_reusing_a_region() {
        let ram = Arc::new(RamDisk::new(BSIZE as u32, 1024));
        let faulty = Arc::new(FaultInjectingDevice::new(
            Arc::clone(&ram) as Arc<dyn BlockDevice>,
            FaultMode::FailIo,
            u64::MAX,
        ));
        let io = DeviceIo::new(Arc::clone(&faulty) as Arc<dyn BlockDevice>);
        let journal = Journal::new(test_config(1024));
        write_block(&io, &journal, 600, 0x11);
        // Commit 1 meets a transient EIO window: nothing of it is
        // acknowledged, and the journal does not know what reached the
        // medium.
        faulty.trip_now();
        journal.begin_op();
        journal.log_write(601, &[0x22; BSIZE]).unwrap();
        assert_eq!(journal.end_op(&io).unwrap_err().errno(), Errno::Io);
        assert!(journal.tail().owes_checkpoint);
        faulty.clear();
        // Commit 2 would overwrite commit 0's region on the strength of a
        // barrier commit 1 never completed.  It settles first: barrier,
        // commit 0's header cleared, barrier — and only then its own epoch.
        let before = (journal.stats().barriers, ram.stats().writes);
        write_block(&io, &journal, 602, 0x33);
        assert_eq!(journal.stats().barriers - before.0, 2 + 1, "checkpoint, then the commit");
        assert_eq!(ram.stats().writes - before.1, 1 + 3, "one clear; payload, record, install");
        assert_eq!(region_header(&io, 0), (1, 2), "its own record is not the one cleared");
        assert_eq!(
            journal.tail(),
            JournalTail { next_seq: 3, live: [Some(2), None], owes_checkpoint: false }
        );
        assert_eq!(remount(&io), 1);
        assert_eq!((block_fill(&io, 600), block_fill(&io, 602)), (0x11, 0x33));
    }

    #[test]
    fn on_flush_operations_join_the_running_group_until_a_flush() {
        let io = DeviceIo::new(Arc::new(RamDisk::new(BSIZE as u32, 1024)));
        let journal =
            Journal::new(JournalConfig { close: GroupClose::OnFlush, ..test_config(1024) });
        for (block, fill) in [(600, 1), (601, 2), (600, 3)] {
            write_block(&io, &journal, block, fill);
        }
        assert_eq!(journal.stats(), JournalStats::default(), "no group closed yet");
        assert_eq!(io.device().stats().writes, 0);
        journal.flush(&io).unwrap();
        let stats = journal.stats();
        assert_eq!((stats.commits, stats.blocks_logged, stats.ops_committed), (1, 2, 3));
        assert_eq!(stats.barriers, 1, "one group, one barrier");
        assert_eq!((block_fill(&io, 600), block_fill(&io, 601)), (3, 2));
        let writes = io.device().stats().writes;
        journal.flush(&io).unwrap();
        assert_eq!((journal.stats(), io.device().stats().writes), (stats, writes), "idle flush");
    }

    #[test]
    fn absorption_logs_block_once() {
        let (io, journal) = setup();
        journal.begin_op();
        for fill in [1u8, 2, 3] {
            journal.log_write(700, &[fill; BSIZE]).unwrap();
        }
        journal.end_op(&io).unwrap();
        assert_eq!(journal.stats().blocks_logged, 1);
        assert_eq!(block_fill(&io, 700), 3);
    }

    #[test]
    fn log_write_outside_transaction_is_rejected() {
        let (_io, journal) = setup();
        assert_eq!(journal.log_write(5, &[0u8; BSIZE]).unwrap_err().errno(), Errno::Inval);
    }

    #[test]
    fn oversized_transaction_is_rejected() {
        let (io, journal) = setup();
        assert_eq!(journal.staged_blocks(), 0, "nothing staged outside an operation");
        journal.begin_op();
        for i in 0..MAX_OP_BLOCKS as u64 {
            journal.log_write(600 + i, &[1u8; BSIZE]).unwrap();
            assert_eq!(journal.staged_blocks(), i as usize + 1);
        }
        journal.log_write(600, &[2u8; BSIZE]).unwrap();
        assert_eq!(journal.staged_blocks(), MAX_OP_BLOCKS, "a re-logged block is staged once");
        assert_eq!(
            journal.log_write(600 + MAX_OP_BLOCKS as u64, &[1u8; BSIZE]).unwrap_err().errno(),
            Errno::NoSpc
        );
        journal.end_op(&io).unwrap();
        assert_eq!(journal.staged_blocks(), 0);
    }

    #[test]
    fn group_commit_combines_concurrent_ops() {
        use std::thread;
        let io = DeviceIo::new(Arc::new(RamDisk::new(BSIZE as u32, 2048)));
        let io = Arc::new(io);
        let journal = Arc::new(Journal::new(test_config(2048)));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let journal = Arc::clone(&journal);
            let io = Arc::clone(&io);
            handles.push(thread::spawn(move || {
                for i in 0..20u64 {
                    write_block(&io, &journal, 1200 + t * 20 + i, (t + 1) as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every block made it to its home location.
        for t in 0..8u64 {
            for i in 0..20u64 {
                assert_eq!(block_fill(&io, 1200 + t * 20 + i), (t + 1) as u8);
            }
        }
        // Group commit means commits <= operations.
        let stats = journal.stats();
        assert!(stats.commits <= 160);
        assert_eq!(stats.blocks_logged, 160);
        assert_eq!(stats.ops_committed, 160);
        assert_eq!(stats.barriers, stats.commits);
    }

    #[test]
    fn snapshot_versions_keep_newest_content_on_merge() {
        // Two operations in one group modify the same block, and the
        // *older* snapshot merges last (the out-of-order case): the
        // committed bytes must still be the newest snapshot.
        let (io, journal) = setup();
        let io = Arc::new(io);
        let journal = Arc::new(journal);
        journal.begin_op(); // op A holds the group open
        journal.log_write(800, &[0x01; BSIZE]).unwrap(); // older snapshot
        {
            // Op B on another thread modifies the same block afterwards
            // and merges first (op A is still outstanding, so no commit
            // yet).
            let journal = Arc::clone(&journal);
            let io = Arc::clone(&io);
            std::thread::spawn(move || {
                write_block(&io, &journal, 800, 0x02);
            })
            .join()
            .unwrap();
        }
        // Op A merges its older snapshot last, closes the group, commits.
        journal.end_op(&*io).unwrap();
        assert_eq!(block_fill(&io, 800), 0x02, "newest snapshot must win");
        let stats = journal.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.blocks_logged, 1, "absorbed across ops in one group");
        assert_eq!(stats.ops_committed, 2);
    }

    #[test]
    fn recover_replays_committed_transaction_from_either_region() {
        for region in 0..2u64 {
            let (io, _) = setup();
            // Simulate a crash after the commit barrier but before
            // install: the home block still has its old (zero) contents.
            plant_record(&io, region, region, &[800], &[0x5E]);
            assert_eq!(remount(&io), 1, "region {region}");
            assert_eq!(block_fill(&io, 800), 0x5E, "region {region}");
        }
    }

    #[test]
    fn recover_replays_both_regions_in_sequence_order() {
        let (io, _) = setup();
        // Both regions hold a committed transaction for the same home
        // block: region 1 carries seq 1, region 0 carries seq 2 (newest).
        // Recovery must install in sequence order so the seq-2 bytes win.
        plant_record(&io, 1, 1, &[810], &[0xAA]);
        plant_record(&io, 0, 2, &[810], &[0xBB]);
        let journal = Journal::new(test_config(1024));
        assert_eq!(journal.recover(&io).unwrap(), 2);
        assert_eq!(block_fill(&io, 810), 0xBB);
        assert_eq!(journal.stats().barriers, 3, "installs, older header, newest header");
        assert_eq!(remount(&io), 0);
    }

    #[test]
    fn recover_rejects_torn_commit_record() {
        // A header whose checksum does not cover its contents (a torn
        // commit-record write) must be treated as clean, not installed.
        let (io, _) = setup();
        io.write_block(3, &[0x99; BSIZE]).unwrap();
        let mut head = sealed_head(0, &[800], &[0x99]);
        // Corrupt one home entry after sealing: simulates a tear where
        // the checksum sector and the block-list sector disagree.
        put_u32(&mut head, LOG_HEAD_BLOCKS_OFF, 801);
        io.write_block(2, &head).unwrap();
        assert_eq!(remount(&io), 0);
        assert_eq!(block_fill(&io, 800), 0, "nothing installed");
        assert_eq!(block_fill(&io, 801), 0, "nothing installed");
    }

    #[test]
    fn recover_rejects_out_of_range_home_blocks() {
        // A structurally valid, correctly sealed header naming a home
        // block outside the configured range (here: block 1, inside the
        // superblock/log area) is foreign or corrupt — recovery must treat
        // the region as clean rather than install over arbitrary blocks.
        let (io, _) = setup();
        plant_record(&io, 0, 0, &[1], &[0x42]);
        assert_eq!(remount(&io), 0);
        assert_eq!(block_fill(&io, 1), 0, "nothing installed over the superblock");
    }

    #[test]
    fn recover_rejects_a_record_whose_payload_is_not_the_one_it_sealed() {
        // The record is whole, but one byte of one log block differs: the
        // write cache persisted the record ahead of that block (or the
        // block was since overwritten).  Not committed, not replayed.
        let (io, _) = setup();
        plant_record(&io, 0, 0, &[800, 801], &[0x5E, 0x5F]);
        let mut copy = vec![0x5F; BSIZE];
        copy[BSIZE - 1] ^= 1;
        io.write_block(2 + 2, &copy).unwrap();
        let journal = Journal::new(test_config(1024));
        assert_eq!(journal.recover(&io).unwrap(), 0);
        assert_eq!((block_fill(&io, 800), block_fill(&io, 801)), (0, 0));
        assert_eq!(journal.stats().recoveries, 0);
        assert_eq!(remount(&io), 0);
    }

    #[test]
    fn a_rejected_record_cannot_be_revalidated_by_a_later_session() {
        let (io, _) = setup();
        io.write_block(700, &[0x77; BSIZE]).unwrap();
        io.write_block(701, &[0x77; BSIZE]).unwrap();
        // Session 1 crashed mid-epoch: record X (two zero-filled blocks
        // for homes 700 and 701) is durable, its payload only in part.
        plant_record(&io, 0, 0, &[700, 701], &[0, 0]);
        io.write_block(2 + 2, &[0xEE; BSIZE]).unwrap();
        // Session 2 mounts (X is rejected), then commits a *different*
        // group of two zero-filled blocks into the same region and crashes
        // mid-epoch with its payload complete and its record not written.
        assert_eq!(remount(&io), 0);
        io.write_block(2 + 1, &[0; BSIZE]).unwrap();
        io.write_block(2 + 2, &[0; BSIZE]).unwrap();
        // Had X's header survived session 2's mount, it would validate now
        // and zero homes it was never installed to.
        assert_eq!(remount(&io), 0);
        assert_eq!((block_fill(&io, 700), block_fill(&io, 701)), (0x77, 0x77));
    }
}
