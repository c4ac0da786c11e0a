//! # journal — one pipelined group-commit WAL for every storage stack
//!
//! This crate is the single write-ahead log of the workspace: `xv6fs::log`
//! (mounted by both xv6 stacks, which share one file system core) is an
//! adapter over it, and ext4sim logs its data and metadata blocks through
//! it directly.  [`Journal`] owns the entire commit pipeline and is
//! parameterized over the block-IO trait [`io::JournalIo`], so the same
//! code runs against the Bento `SuperBlock` capability (kernel buffer
//! cache or userspace disk file underneath), a bare `SsdDevice`, or
//! crashsim's fault device — and the crash-contract tests enumerate crash
//! states against the journal with no file system on top.
//!
//! Every operation that modifies the file system wraps its block writes in
//! a transaction: [`Journal::begin_op`] … stage frozen snapshots via
//! [`Journal::log_write`] (or [`Journal::log_fresh`] for the first
//! contents of a block the operation allocated) … [`Journal::end_op`].
//! The log area is a ring of [`REGIONS`] commit regions, and group *N*
//! commits into region *N* mod [`REGIONS`].  The commit protocol for group
//! *N* is hardened for devices with a reordering volatile write cache and
//! trimmed to the one barrier that buys durability:
//!
//! 1. one epoch: write each **fresh** block — one the group allocated,
//!    which every state recovery can produce still holds free — straight
//!    to its home (a **direct** block), copy every other modified block
//!    into group *N*'s log region, write the log header naming both — the
//!    commit record, which carries a digest of the log blocks and a
//!    checksum of each direct block under a self-checksum (see [`record`])
//!    — and issue the **due installs**: the blocks group *N − 3* committed
//!    that no later group — *N − 2*, *N − 1* or *N* itself — logged again,
//!    written to their homes.  The write cache may persist the epoch in
//!    any order: a record whose payload is not wholly on the medium, or
//!    one of whose direct blocks is not at home, does not validate, and
//!    group *N − 3*'s record stays valid until group *N + 1* reuses its
//!    region;
//! 2. the **commit barrier**.  Group *N* is committed the instant it
//!    returns, group *N − 3*'s installs are durable, and group *N*'s
//!    direct blocks are clean in the backend's cache;
//! 3. group *N*'s logged blocks become the newest committed copies of
//!    their homes, pending install in group *N + 3*'s epoch.  A copy an
//!    older group still had pending is **superseded**: it is never
//!    installed, because the home takes group *N*'s bytes (or a newer
//!    group's) instead — a hot inode, bitmap or directory block re-logged
//!    by every commit is written once per commit, to the log, until it
//!    cools down.  A direct block is done with: written once, never
//!    logged, never installed.
//!
//! That is the **barrier budget**: exactly one barrier per commit, which
//! the direct blocks share, and none at all for an `fsync` that finds the
//! journal idle.  **Which fresh blocks go home** the journal decides per
//! block, at commit, from what it can observe: a fresh block is logged
//! like any other when a record recovery could still replay names its
//! home as a direct home (the record's check would fail, and an
//! acknowledged group be rejected), when a copy of it is pending (the
//! install, or recovery's replay, would write older bytes over it — every
//! logged home of a record that survives the epoch is pending or
//! superseded by a pending copy), when its own group freed it too
//! ([`Journal::note_free`]: a crash before the barrier leaves the state
//! before the group, which may hold the block as another file's), and
//! when a failed commit's settle is owed.  Overwrites are always logged:
//! their old bytes are committed state.  The **region reuse rule**: group
//! *N + 1* overwrites the region of group *N − 3* only after group *N*'s
//! barrier, by which time every block whose newest committed copy lived
//! there is durable at home (installed in *N*'s epoch) or held by a newer
//! valid record (superseded by a group *N − 2* … *N*, all of whose
//! barriers have returned).  A failed commit supersedes nothing: the
//! copies it skipped are still pending, and the settle it leaves owed
//! installs them before any region is reused.  A crash inside a reuse
//! epoch leaves the region holding the old record over a partly
//! overwritten payload (digest mismatch: rejected, harmless since
//! everything it held is installed or superseded), the new record over a
//! partial payload (rejected: never acknowledged), or the new record over
//! its whole payload (committed).  So after a crash **up to
//! four** records validate (*N − 3* … *N*), and [`Journal::recover`]
//! replays them in sequence order: the newest copy of each home lands
//! last.  It checks them newest first: a record's direct home must hold
//! the bytes it sealed, or be named by a newer valid record — the home of
//! a direct block a later group logged again takes that group's install
//! (due, or a checkpoint's while both records are live) and a crashed
//! recovery's replay.  Nothing clears a header in steady state.
//!
//! A home whose install is pending is stale on the medium.  A backend with
//! a cache holds the committed bytes in a dirty buffer, which the cache
//! never evicts, until the install; a backend without one reads homes
//! through [`Journal::read_home`].
//!
//! What a **clean unmount** owes is [`Journal::checkpoint`]: install every
//! pending copy, one barrier, then clear the live headers oldest first,
//! each followed by its own barrier — a crash partway through leaves a
//! suffix of the records, which replays over the installed homes without
//! rolling any of them back — so the next mount replays nothing.
//! **Recovery** leaves every header it found non-clean — replayed,
//! digest-rejected, torn or foreign — clean the same way, so a stale record
//! can never be re-validated by a later session that happens to log
//! identical bytes into its region; a **failed commit** leaves the journal
//! owing that checkpoint before the next commit may reuse a region; a
//! **live upgrade** carries the [`JournalTail`] — the sequence, the live
//! headers and their direct homes, and the pending copies — into the new
//! instance without a device
//! access, and the new instance keeps numbering commits where the old one
//! stopped.  What differs from the teaching implementation is *where the
//! waiting happens*:
//!
//! * **Reservation, not serialization.**  [`Journal::begin_op`] reserves
//!   [`MAX_OP_BLOCKS`] slots from an atomic reservation counter and only
//!   sleeps when the forming group is genuinely out of space — never
//!   merely because a commit is in flight.
//! * **Per-transaction staging.**  [`Journal::log_write`] records the
//!   block and a *frozen* [`Block`] of its bytes (taken while the caller
//!   still holds the buffer lock, so the snapshot is exactly the state this
//!   operation produced) in thread-local state.  A buffer cache shares the
//!   buffer's own bytes, which are copied only if the buffer changes while
//!   the journal still holds them (copy on write); a cacheless binding
//!   wraps a copy once.  The hot path takes no lock at all.
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
//! * **Pipelined commit.**  Commits run entirely outside the group mutex:
//!   while group *N* writes its epoch, group *N + 1* forms, absorbs
//!   operations, and copies nothing until its own turn.  Commits run in
//!   formation order (a sequence number in each region header keeps
//!   [`Journal::recover`] correct for any region).
//! * **One batched epoch.**  A commit hands its due installs, its direct
//!   blocks and its payload to the device as one batch
//!   ([`io::JournalIo::write_raw`], a
//!   [`simkernel::dev::BlockDevice::write_blocks`] call), then its commit
//!   record, raw as well.  No log block passes through a buffer cache.
//!
//! Because commits write *frozen* bytes — into the log region and, at the
//! install, to the home location via [`io::JournalIo::write_raw`] — an
//! operation that modifies a block while an earlier group holding that
//! block is still pending can never leak its uncommitted bytes into the
//! earlier group's transaction.
//!
//! [`Journal::recover`] replays the committed transactions still on the
//! medium from every region (in sequence order) after a crash, rejecting
//! torn commit records (checksum mismatch), records whose payload is not
//! the one they were sealed over (digest mismatch), records whose direct
//! blocks are not at home (checksum mismatch, with no newer valid record
//! naming the home) and foreign or corrupt headers (home blocks outside
//! the configured valid range).
//!
//! The sibling module [`record`] owns the on-disk format of the
//! checksummed commit record every stack writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
pub mod record;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use simkernel::buffer::Block;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::hash::{FxHashMap, FxHashSet};
use simkernel::shard::StripedCounter;
use simkernel::vfs::WritePathStats;

use crate::io::JournalIo;
use crate::record::{BSIZE, LOG_HEAD_MAX_ENTRIES};

/// Maximum number of blocks one transaction may modify (callers chunk
/// larger writes).  Also the reservation granularity of
/// [`Journal::begin_op`].
pub const MAX_OP_BLOCKS: usize = 64;

/// Commit regions in the log ring.  Group *N* commits into region
/// *N* mod `REGIONS`, and the blocks it holds that no later group
/// supersedes are installed in group *N + REGIONS − 1*'s epoch — the last
/// one before its region is reused.
pub const REGIONS: usize = 4;

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
    /// A group's own blocks are installed in its own epoch, before its
    /// commit barrier, so a crash can leave a group half installed with no
    /// record to finish it from.
    InstallBeforeBarrier,
    /// The checkpoint issues its installs and every header clear in one
    /// epoch, without the barriers that make the installs durable and
    /// order the clears, so a crash can lose an acknowledged group.
    CheckpointWithoutBarrier,
    /// Commits never issue their due installs, so a region is reused —
    /// and the group that committed there forgotten — while a block whose
    /// newest committed copy lives there is uninstalled.
    ReuseBeforeInstall,
    /// A group's installs are issued by the group that reuses its region,
    /// one commit late: that group counts itself as superseding the blocks
    /// it logs again, though its record is not durable while its epoch
    /// overwrites the old one, and issues the rest in that same epoch.
    AbsorbIntoReusingGroup,
    /// A cached binding's install writes its buffer's current bytes to the
    /// home instead of the frozen block the journal committed, so an
    /// operation still running — or never committed — reaches the home
    /// while the record holding the committed copy can be lost.  The
    /// journal itself ignores it; the xv6 binding acts on it.
    InstallLiveBuffer,
    /// The xv6 allocator hands out a data block without its zero fill when
    /// the first write into it covers only part of it, so the bytes the
    /// block held before it was freed reappear around that write.  The
    /// journal itself ignores it; the xv6 allocator acts on it.
    PartialWriteSkipsZeroFill,
    /// The xv6 binding skips logging an inode whose size is unchanged, as
    /// if nothing else in it could change, so a write that fills a hole
    /// inside the file maps its block only in memory and a crash loses
    /// the data an fsync acknowledged.  The journal itself ignores it; the
    /// xv6 `update_inode` acts on it.
    SizeOnlyInodeCompare,
    /// Recovery accepts a record without checking its direct homes, so a
    /// record the write cache persisted ahead of a direct block commits a
    /// group whose new block holds whatever the home held before.
    UncheckedDirectHome,
    /// A fresh block goes home even when a replayable record or a pending
    /// copy names its home, so recovery's replay or a later install writes
    /// an older group's bytes over it — or its direct write makes an older
    /// record fail its check and an acknowledged group is rejected.
    FreshIgnoresLiveCopies,
    /// A fresh block goes home even when its own group freed it, so the
    /// epoch overwrites a block that the state before the group — all a
    /// crash before the barrier leaves — still holds as another file's.
    FreshIgnoresOwnFrees,
}

/// One staged block: home address, modification version (orders snapshots
/// of the same block), the frozen bytes, and whether the group that holds
/// it allocated it ([`Journal::log_fresh`]).
#[derive(Debug)]
struct LoggedBlock {
    home: u64,
    version: u64,
    data: Block,
    fresh: bool,
}

/// The forming transaction group: completed operations merge here at
/// `end_op` until the group closes and commits.
#[derive(Debug, Default)]
struct FormingGroup {
    blocks: Vec<LoggedBlock>,
    index: FxHashMap<u64, usize>,
    /// Blocks the group's operations freed ([`Journal::note_free`]).
    freed: FxHashSet<u64>,
    ops: u64,
}

/// Per-thread, per-journal transaction staging (no lock on the log_write
/// path).
#[derive(Debug, Default)]
struct TxLocal {
    depth: u32,
    blocks: Vec<LoggedBlock>,
    index: FxHashMap<u64, usize>,
    freed: Vec<u64>,
}

thread_local! {
    /// Keyed by [`Journal::id`] so independent mounts never mix staging
    /// state.
    static TX: RefCell<FxHashMap<u64, TxLocal>> = RefCell::new(FxHashMap::default());
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
    /// Blocks the committed groups logged (a block once per group that
    /// holds it), plus the blocks recovery replayed.
    pub blocks_logged: u64,
    /// Transactions recovered at mount time.
    pub recoveries: u64,
    /// Operations absorbed into committed groups (`ops / commits` is the
    /// group-commit batching factor).
    pub ops_committed: u64,
    /// Device barriers issued by commits, checkpoints and recovery.
    pub barriers: u64,
    /// Home-block writes issued by commits (their due installs), settles
    /// and checkpoints.  `blocks_logged − installs` is what superseding
    /// saved, give or take the copies still pending.
    pub installs: u64,
    /// Fresh blocks the committed groups wrote straight to their homes:
    /// never logged, never installed.
    pub direct_blocks: u64,
    /// Fresh blocks a committed group logged instead of writing them
    /// home, because a live record or a pending copy named the home, the
    /// group freed it, or a failed commit's settle was owed.
    pub demoted: u64,
}

impl JournalStats {
    /// The log figures in the VFS-neutral [`WritePathStats`] shape, with no
    /// allocation-group spread (a binding that allocates by group adds it).
    pub fn write_path_stats(&self) -> WritePathStats {
        WritePathStats {
            log_commits: self.commits,
            log_ops: self.ops_committed,
            log_blocks: self.blocks_logged,
            log_installs: self.installs,
            log_barriers: self.barriers,
            direct_blocks: self.direct_blocks,
            alloc_per_group: Vec::new(),
        }
    }
}

/// Striped hot-path counters behind [`JournalStats`].
#[derive(Debug, Default)]
struct JournalCounters {
    commits: StripedCounter,
    blocks_logged: StripedCounter,
    recoveries: StripedCounter,
    ops_committed: StripedCounter,
    barriers: StripedCounter,
    installs: StripedCounter,
    direct_blocks: StripedCounter,
    demoted: StripedCounter,
}

impl JournalCounters {
    fn snapshot(&self) -> JournalStats {
        JournalStats {
            commits: self.commits.get(),
            blocks_logged: self.blocks_logged.get(),
            recoveries: self.recoveries.get(),
            ops_committed: self.ops_committed.get(),
            barriers: self.barriers.get(),
            installs: self.installs.get(),
            direct_blocks: self.direct_blocks.get(),
            demoted: self.demoted.get(),
        }
    }

    fn restore(&self, stats: JournalStats) {
        self.commits.reset(stats.commits);
        self.blocks_logged.reset(stats.blocks_logged);
        self.recoveries.reset(stats.recoveries);
        self.ops_committed.reset(stats.ops_committed);
        self.barriers.reset(stats.barriers);
        self.installs.reset(stats.installs);
        self.direct_blocks.reset(stats.direct_blocks);
        self.demoted.reset(stats.demoted);
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

/// The journal's knowledge of the region headers on the medium (the
/// mutable part of a [`JournalTail`]).
#[derive(Debug, Default)]
struct Medium {
    live: [Option<u64>; REGIONS],
    /// Per region, the direct homes of the record its header holds.
    direct: [FxHashSet<u64>; REGIONS],
    owes_checkpoint: bool,
}

impl Medium {
    /// Whether a record recovery could still replay names `home` as a
    /// direct home.
    fn names_direct(&self, home: u64) -> bool {
        self.direct.iter().any(|homes| homes.contains(&home))
    }
}

/// A committed group whose region has not been reused yet: the blocks it
/// logged, some of them still the newest committed copy of their home.
#[derive(Debug)]
struct CommittedGroup {
    seq: u64,
    blocks: Arc<Vec<LoggedBlock>>,
}

/// The committed copies whose install is pending.
#[derive(Debug, Default)]
struct Pending {
    /// Per home block whose install is pending, the group holding its
    /// newest committed copy and the copy's slot there.
    newest: FxHashMap<u64, (u64, usize)>,
    /// Per region, the group that last committed there, until it falls
    /// due.
    groups: [Option<CommittedGroup>; REGIONS],
}

/// One install of an epoch: a pending copy, by group sequence, the
/// group's blocks and the copy's slot there.
type Install = (u64, Arc<Vec<LoggedBlock>>, usize);

/// Where a committed group's blocks went: into its log region, or straight
/// home; and how many of its fresh blocks were logged anyway.
struct Placed {
    logged: u64,
    direct: u64,
    demoted: u64,
}

impl Pending {
    /// Group `seq`, while it is held.
    fn group(&self, seq: u64) -> Option<&CommittedGroup> {
        self.groups[(seq % REGIONS as u64) as usize].as_ref().filter(|group| group.seq == seq)
    }

    /// The newest committed copy of `home`, if its install is pending.
    fn copy(&self, home: u64) -> Option<&LoggedBlock> {
        let &(seq, slot) = self.newest.get(&home)?;
        Some(&self.group(seq)?.blocks[slot])
    }

    /// Every pending copy, in home order.
    fn sorted(&self) -> Vec<Install> {
        let mut homes: Vec<(u64, u64, usize)> =
            self.newest.iter().map(|(&home, &(seq, slot))| (home, seq, slot)).collect();
        homes.sort_unstable();
        homes
            .into_iter()
            .filter_map(|(_, seq, slot)| Some((seq, Arc::clone(&self.group(seq)?.blocks), slot)))
            .collect()
    }
}

/// Where a running journal stands on the medium: what a successor instance
/// attaching to the same device *without* running recovery (a live upgrade)
/// must know to keep honoring the protocol.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalTail {
    /// Sequence number the next closed group takes (and thus its region).
    pub next_seq: u64,
    /// Per region, the sequence of the record its header may hold (`None`
    /// = known clean): what [`Journal::checkpoint`] still has to clear.
    pub live: [Option<u64>; REGIONS],
    /// Per region, the direct homes that record names, in ascending
    /// order: no fresh block may go home over one of them while the
    /// record can still be replayed.
    pub direct: [Vec<u64>; REGIONS],
    /// A commit's I/O failed: the checkpoint is owed before the next
    /// commit, not just at unmount.
    pub owes_checkpoint: bool,
    /// The committed copies whose install is pending, in home order: the
    /// successor installs them when they fall due, or at its checkpoint.
    pub pending: Vec<PendingInstall>,
}

/// A committed copy whose install is pending, as a [`JournalTail`] carries
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingInstall {
    /// The group that logged it.
    pub seq: u64,
    /// Its home block.
    pub home: u64,
    /// The committed bytes, shared with the journal (and with the cached
    /// buffer while it has not changed since).
    pub data: Block,
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

/// On-disk geometry of one journal: where the [`REGIONS`] commit regions
/// live and which home blocks a recovered header may legally name.
///
/// Built through [`JournalConfig::from_geometry`] by every adapter, so two
/// stacks mounting the same superblock get byte-for-byte identical region
/// layout, capacity, and corrupt-header defenses *by construction*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// First block of the log area (region 0's header block).
    pub start: u64,
    /// Blocks per region (header + data); [`REGIONS`] of them fit in the
    /// log area.
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
    /// Derives the region ring's geometry from a superblock's log area:
    /// `logstart` is the first log block, `nlog` the on-disk log size
    /// (clamped to `max_log_blocks`, the compile-time layout bound), and
    /// `home_range` the `[lo, hi)` range of legal home blocks.  Groups
    /// close at every operation; a binding that commits on flush overrides
    /// [`JournalConfig::close`].
    pub fn from_geometry(
        logstart: u64,
        nlog: usize,
        max_log_blocks: usize,
        home_range: (u64, u64),
    ) -> Self {
        let size = nlog.min(max_log_blocks);
        let region_size = (size / REGIONS).max(2);
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
    /// The committed copies not yet installed.  Changed only by a holder
    /// of `medium`; locked briefly, never across I/O, so
    /// [`Journal::read_home`] does not wait for a commit.
    pending: Mutex<Pending>,
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
            pending: Mutex::new(Pending::default()),
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
    /// state transfer: the pending copies are references to the journal's
    /// blocks, not copies.  Only meaningful while the journal is quiescent
    /// (no operation outstanding, no commit in flight).
    pub fn tail(&self) -> JournalTail {
        let medium = self.medium.lock();
        JournalTail {
            next_seq: self.next_seq.load(Ordering::SeqCst),
            live: medium.live,
            direct: std::array::from_fn(|region| {
                let mut homes: Vec<u64> = medium.direct[region].iter().copied().collect();
                homes.sort_unstable();
                homes
            }),
            owes_checkpoint: medium.owes_checkpoint,
            pending: (self.pending.lock().sorted().into_iter())
                .map(|(seq, blocks, slot)| {
                    let LoggedBlock { home, ref data, .. } = blocks[slot];
                    PendingInstall { seq, home, data: data.clone() }
                })
                .collect(),
        }
    }

    /// Adopts the tail of the journal instance this one replaces on the
    /// same device, *instead of* running [`Journal::recover`]: numbering
    /// continues where the predecessor stopped (so the ring keeps turning),
    /// the pending copies are installed when they fall due, no fresh block
    /// goes home over a direct home of a live record, and this journal's
    /// checkpoint clears the headers the predecessor left live.  Call
    /// before the first operation.
    pub fn restore_tail(&self, tail: JournalTail) {
        self.next_seq.store(tail.next_seq, Ordering::SeqCst);
        self.commits_done.store(tail.next_seq, Ordering::SeqCst);
        self.commit_turn.lock().next = tail.next_seq;
        let mut medium = self.medium.lock();
        *medium = Medium {
            live: tail.live,
            direct: tail.direct.map(|homes| homes.into_iter().collect()),
            owes_checkpoint: tail.owes_checkpoint,
        };
        // Every pending copy in a region belongs to the group that last
        // committed there.
        let mut pending = Pending::default();
        let mut groups: [Option<(u64, Vec<LoggedBlock>)>; REGIONS] = Default::default();
        for PendingInstall { seq, home, data } in tail.pending {
            let region = (seq % REGIONS as u64) as usize;
            let (_, blocks) = groups[region].get_or_insert_with(|| (seq, Vec::new()));
            pending.newest.insert(home, (seq, blocks.len()));
            blocks.push(LoggedBlock { home, version: 0, data, fresh: false });
        }
        for (slot, group) in pending.groups.iter_mut().zip(groups) {
            *slot = group.map(|(seq, blocks)| CommittedGroup { seq, blocks: Arc::new(blocks) });
        }
        *self.pending.lock() = pending;
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

    /// Reads home block `blockno` as committed: the newest committed copy
    /// while its install is pending, the medium otherwise.  A backend with
    /// no cache must read homes through this — between a commit and the
    /// install three commits later the medium holds older bytes.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_home(&self, io: &dyn JournalIo, blockno: u64, out: &mut [u8]) -> KernelResult<()> {
        if let Some(copy) = self.pending.lock().copy(blockno) {
            out.copy_from_slice(&copy.data);
            return Ok(());
        }
        io.read_block(blockno, out)
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
    /// snapshot must be exactly the state this operation produced.  A
    /// [`Block`] is kept as is — a buffer's shared bytes, which never
    /// change — and plain bytes are wrapped in one once.  The staging is
    /// thread-local — no journal lock is taken.
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`] outside a transaction; [`Errno::NoSpc`] if the
    /// operation exceeds [`MAX_OP_BLOCKS`] distinct blocks (a chunking bug
    /// in the caller).
    pub fn log_write(&self, home: u64, data: impl Into<Block>) -> KernelResult<()> {
        self.stage(home, data.into(), false)
    }

    /// [`Journal::log_write`] of a *fresh* block's first contents: a block
    /// the current operation allocated, which every state recovery can
    /// produce holds free.  Unless the commit finds a reason not to (a
    /// record it could replay or a pending copy names the home, the group
    /// freed it too, or a failed commit's settle is owed), the group's
    /// epoch writes it straight to its home, checked by the commit record
    /// instead of copied into the log and installed later.  Later writes
    /// to the block in the same group may use plain `log_write`: the group
    /// allocated it either way.
    ///
    /// # Errors
    ///
    /// As for [`Journal::log_write`].
    pub fn log_fresh(&self, home: u64, data: impl Into<Block>) -> KernelResult<()> {
        self.stage(home, data.into(), true)
    }

    fn stage(&self, home: u64, data: Block, fresh: bool) -> KernelResult<()> {
        let _stage = simkernel::trace::phase(simkernel::trace::Phase::LogStage);
        let version = SNAPSHOT_VERSION.fetch_add(1, Ordering::SeqCst);
        self.with_tx(|tx| {
            if let Some(&i) = tx.index.get(&home) {
                // Absorption: a block modified twice in one operation is
                // logged once, with the newest snapshot.
                let block = &mut tx.blocks[i];
                (block.version, block.data) = (version, data);
                block.fresh |= fresh;
            } else {
                if tx.blocks.len() >= MAX_OP_BLOCKS {
                    return Err(KernelError::with_context(
                        Errno::NoSpc,
                        "journal: transaction too large for log",
                    ));
                }
                tx.index.insert(home, tx.blocks.len());
                tx.blocks.push(LoggedBlock { home, version, data, fresh });
            }
            Ok(())
        })
    }

    /// Records that the current operation freed block `home`, so its
    /// group never writes `home` straight home as a fresh block: the state
    /// before the group, all that a crash ahead of its barrier leaves, may
    /// still hold it as another file's.
    ///
    /// # Errors
    ///
    /// [`Errno::Inval`] outside a transaction.
    pub fn note_free(&self, home: u64) -> KernelResult<()> {
        self.with_tx(|tx| {
            tx.freed.push(home);
            Ok(())
        })
    }

    /// Runs `f` on the calling thread's open operation.
    fn with_tx(&self, f: impl FnOnce(&mut TxLocal) -> KernelResult<()>) -> KernelResult<()> {
        TX.with(|cell| match cell.borrow_mut().get_mut(&self.id) {
            Some(tx) if tx.depth > 0 => f(tx),
            _ => Err(KernelError::with_context(
                Errno::Inval,
                "journal: staging outside a transaction",
            )),
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
                let staged = (std::mem::take(&mut tx.blocks), std::mem::take(&mut tx.freed));
                if map.len() > 16 {
                    map.retain(|_, t| t.depth > 0);
                }
                Some(staged)
            } else {
                None
            }
        });
        let Some((staged, freed)) = staged else { return Ok(()) };

        let to_commit = {
            let mut inner = self.inner.lock();
            let did_write = !staged.is_empty();
            let mut added = 0usize;
            inner.freed.extend(freed);
            for block in staged {
                if let Some(&i) = inner.index.get(&block.home) {
                    // The group allocated the block if any of its
                    // operations did.
                    let merged = &mut inner.blocks[i];
                    merged.fresh |= block.fresh;
                    if merged.version < block.version {
                        (merged.version, merged.data) = (block.version, block.data);
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
        if let Some((seq, group)) = to_commit {
            // This thread became the committer: the whole group's commit I/O
            // runs on its clock, so attribute it as commit wait.
            let _commit = simkernel::trace::phase(simkernel::trace::Phase::CommitWait);
            self.commit_group(io, seq, group)?;
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
            Some((seq, group)) => self.commit_group(io, seq, group),
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
    fn take_group_if_ready(&self, inner: &mut FormingGroup) -> Option<(u64, FormingGroup)> {
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

    /// Closes the forming group, assigning its commit sequence (and thus
    /// its region).  The group's slots are released immediately: a closed
    /// group owns its own on-disk region, so only the *forming* group
    /// counts against the reservation budget — operations keep flowing
    /// while the closed group's commit I/O runs.
    fn take_group(&self, inner: &mut FormingGroup) -> Option<(u64, FormingGroup)> {
        if inner.blocks.is_empty() {
            return None;
        }
        let group = std::mem::take(inner);
        // The next group's index starts where this one's ended, so forming
        // it does not regrow the table block by block.
        inner.index.reserve(group.index.capacity());
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        self.reserved.fetch_sub(group.blocks.len(), Ordering::SeqCst);
        // Callers hold `inner`, which is what space waiters pair with.
        self.space_cond.notify_all();
        Some((seq, group))
    }

    /// Commits closed groups in formation order, then adopts the next
    /// group if it became ready while this one was committing (the
    /// pipelined handoff).
    fn commit_group(
        &self,
        io: &dyn JournalIo,
        mut seq: u64,
        mut group: FormingGroup,
    ) -> KernelResult<()> {
        loop {
            {
                let mut turn = self.commit_turn.lock();
                while turn.next != seq {
                    self.commit_cond.wait(&mut turn);
                }
            }
            let ops = group.ops;
            let result = self.commit_io(io, seq, group);
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
            let placed = result?;
            self.counters.commits.inc();
            self.counters.blocks_logged.add(placed.logged);
            self.counters.direct_blocks.add(placed.direct);
            self.counters.demoted.add(placed.demoted);
            self.counters.ops_committed.add(ops);
            let next = self.take_group_if_ready(&mut self.inner.lock());
            let Some(next) = next else { return Ok(()) };
            (seq, group) = next;
        }
    }

    /// The commit I/O of group `seq`: one epoch of due installs, direct
    /// writes, payload and commit record; one barrier; then the group's
    /// logged blocks become the newest pending copies of their homes, and
    /// its direct blocks are clean.
    fn commit_io(&self, io: &dyn JournalIo, seq: u64, group: FormingGroup) -> KernelResult<Placed> {
        debug_assert!(group.blocks.len() <= self.capacity);
        let head_block = self.region_head(seq);
        let region = (seq % REGIONS as u64) as usize;
        // Held across all of this commit's I/O: a checkpoint must never
        // interleave with it (uncontended otherwise — the turn ticket
        // already serializes commits).
        let mut medium = self.medium.lock();
        // Owed until this commit's I/O has wholly succeeded.  After a
        // failed commit the ring does not obey the reuse rule (that
        // epoch's due installs never got their barrier), so the debt is
        // paid first — and this group sends no block straight home.
        let settle_owed = medium.owes_checkpoint;
        if settle_owed {
            self.settle(io, &mut medium)?;
        }
        medium.owes_checkpoint = true;
        let mut blocks = group.blocks;
        let direct = self.send_home(&mut blocks, &group.freed, &medium, settle_owed);
        let placed = Placed {
            logged: blocks.len() as u64,
            direct: direct.len() as u64,
            demoted: (blocks.iter().filter(|block| block.fresh).count()) as u64,
        };
        // 1. The epoch: the due installs and the direct blocks to their
        // homes, and the frozen copies into the region's data blocks, all
        // raw — log blocks are only ever read back by recovery, straight
        // from the device, so going through a buffer cache would just
        // evict useful blocks once per commit.  Then the commit record,
        // raw too, over the header of the group four commits back.
        // Nothing orders the record behind the rest: it carries the
        // payload's digest and each direct block's checksum, so however
        // the write cache reorders this epoch, a record without all of
        // them is rejected by recovery.
        let blocks = Arc::new(blocks);
        let due = self.due(seq);
        let mut installs = due.map_or_else(Vec::new, |due| self.due_installs(due, &group.index));
        if self.fault == PlantedFault::InstallBeforeBarrier {
            installs.extend((0..blocks.len()).map(|slot| (seq, Arc::clone(&blocks), slot)));
        }
        let writes: Vec<(u64, &[u8])> = (direct.iter().map(|block| (block.home, &block.data[..])))
            .chain(
                blocks
                    .iter()
                    .enumerate()
                    .map(|(i, block)| (head_block + 1 + i as u64, &block.data[..])),
            )
            .collect();
        self.write_epoch(io, &installs, &writes)?;
        // Marked live before the write is attempted: even a failed header
        // write may have reached the medium.  The record is its own
        // `write_raw` call, after the batch: a failed batch cannot tell how
        // far it got, and one that never reached the record must leave the
        // region as it was (the settle that follows clears only live
        // headers).
        medium.live[region] = Some(seq);
        let mut head = [0u8; BSIZE];
        let checks: Vec<(u64, u64)> =
            direct.iter().map(|block| (block.home, record::direct_checksum(&block.data))).collect();
        record::encode_head(
            &mut head,
            seq,
            blocks.iter().map(|b| b.home),
            record::payload_digest(blocks.iter().map(|b| &b.data[..])),
            &checks,
        );
        io.write_raw(&[(head_block, &head)])?;
        // 2. The commit barrier: this group is durable, and so are the due
        // installs — which is what frees their group's region for the next
        // commit — and the direct blocks, whose buffers are clean now.
        self.barrier(io)?;
        for block in &direct {
            io.installed(block.home, &block.data)?;
        }
        // 3. The newest committed copies: whatever these replace is
        // superseded and never installed.
        // The group that fell due in this epoch is done with: what it held
        // is installed or superseded now.
        let mut pending = self.pending.lock();
        for (slot, block) in blocks.iter().enumerate() {
            pending.newest.insert(block.home, (seq, slot));
        }
        if let Some(due) = due {
            pending.groups[(due % REGIONS as u64) as usize] = None;
        }
        pending.groups[region] = Some(CommittedGroup { seq, blocks });
        medium.direct[region] = direct.iter().map(|block| block.home).collect();
        medium.owes_checkpoint = false;
        Ok(placed)
    }

    /// Takes out of a closing group's `blocks` the fresh blocks its epoch
    /// writes straight home; the rest its region logs.  A fresh block goes
    /// home only if every state recovery can produce, whether or not this
    /// group's record lands, holds it free and no later write can land
    /// over it: no record recovery could still replay names it as a
    /// direct home (its check would fail, and an acknowledged group be
    /// rejected), no pending copy of it exists (replay and the install
    /// would write older bytes over it — every logged home of a record
    /// that survives this epoch is pending or superseded by a pending
    /// copy), the group did not free it too, and no failed commit's
    /// settle was owed.  Blocks beyond what the record has room for are
    /// logged as well.
    fn send_home(
        &self,
        blocks: &mut Vec<LoggedBlock>,
        freed: &FxHashSet<u64>,
        medium: &Medium,
        settle_owed: bool,
    ) -> Vec<LoggedBlock> {
        let pending = self.pending.lock();
        let room = record::max_direct(blocks.len());
        let goes_home = |home: u64| {
            let live = pending.newest.contains_key(&home) || medium.names_direct(home);
            !settle_owed
                && (self.fault == PlantedFault::FreshIgnoresOwnFrees || !freed.contains(&home))
                && (self.fault == PlantedFault::FreshIgnoresLiveCopies || !live)
        };
        let mut sent = 0;
        blocks
            .extract_if(.., |block| {
                let home = block.fresh && sent < room && goes_home(block.home);
                sent += usize::from(home);
                home
            })
            .collect()
    }

    /// The group whose installs fall due in group `seq`'s epoch: group
    /// `seq − (REGIONS − 1)`, whose region group `seq + 1` reuses.
    fn due(&self, seq: u64) -> Option<u64> {
        let lag = match self.fault {
            PlantedFault::ReuseBeforeInstall => return None,
            PlantedFault::AbsorbIntoReusingGroup => REGIONS,
            _ => REGIONS - 1,
        };
        seq.checked_sub(lag as u64)
    }

    /// The copies of group `due` its epoch installs: those no later group
    /// re-logged.  Groups in between did so by becoming the newest copy
    /// when their barrier returned; the group committing now (`relogged`,
    /// its index) does so because its record is durable before the next
    /// group may reuse the region — and if its commit fails, the skipped
    /// copy is still pending for the settle that must come first.
    fn due_installs(&self, due: u64, relogged: &FxHashMap<u64, usize>) -> Vec<Install> {
        let pending = self.pending.lock();
        let Some(group) = pending.group(due) else { return Vec::new() };
        (group.blocks.iter().enumerate())
            .filter(|&(slot, block)| {
                pending.newest.get(&block.home) == Some(&(due, slot))
                    && !relogged.contains_key(&block.home)
            })
            .map(|(slot, _)| (due, Arc::clone(&group.blocks), slot))
            .collect()
    }

    /// Issues one epoch's writes raw, as one batch — `installs` to their
    /// homes, then `rest` (a commit's direct blocks and log payload).
    /// Then each installed copy is clean in the backend's cache and leaves
    /// the pending set, unless a newer copy replaced it meanwhile.
    fn write_epoch(
        &self,
        io: &dyn JournalIo,
        installs: &[Install],
        rest: &[(u64, &[u8])],
    ) -> KernelResult<()> {
        let writes: Vec<(u64, &[u8])> = installs
            .iter()
            .map(|(_, blocks, slot)| (blocks[*slot].home, &blocks[*slot].data[..]))
            .chain(rest.iter().copied())
            .collect();
        io.write_raw(&writes)?;
        for (_, blocks, slot) in installs {
            let block = &blocks[*slot];
            io.installed(block.home, &block.data)?;
        }
        self.counters.installs.add(installs.len() as u64);
        let newest = &mut self.pending.lock().newest;
        for (seq, blocks, slot) in installs {
            let home = blocks[*slot].home;
            if newest.get(&home).is_some_and(|&(newest, _)| newest == *seq) {
                newest.remove(&home);
            }
        }
        Ok(())
    }

    /// Brings the on-disk log to its clean state — the unmount path.
    /// Commits everything in progress ([`Journal::flush`]), installs every
    /// pending copy, then clears the live headers so the next mount finds
    /// nothing to replay.  A no-op (no I/O at all) when no header is live.
    /// Like `flush`, it must not be called from inside a transaction.
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

    /// Installs every pending copy, then clears every live header, oldest
    /// first, each in its own epoch behind a barrier: the first barrier
    /// makes the installs durable, and each later one keeps a clear from
    /// persisting ahead of an older record's — a crash that kept an older
    /// record while losing a newer one would replay the older one alone,
    /// over homes that already hold the newer bytes.  After a failed
    /// commit (`owes_checkpoint`) nothing issued so far is known durable,
    /// so even a journal with nothing pending starts with a barrier.
    fn settle(&self, io: &dyn JournalIo, medium: &mut Medium) -> KernelResult<()> {
        let installs = self.pending.lock().sorted();
        self.write_epoch(io, &installs, &[])?;
        *self.pending.lock() = Pending::default();
        let mut live: Vec<(u64, u64)> =
            (0..REGIONS).filter_map(|region| Some((medium.live[region]?, region as u64))).collect();
        if installs.is_empty() && live.is_empty() {
            // Nothing on the medium depends on what a failed commit left
            // unflushed: no barrier needed.
            *medium = Medium::default();
            return Ok(());
        }
        live.sort_unstable();
        let ordered = self.fault != PlantedFault::CheckpointWithoutBarrier;
        let mut unflushed = !installs.is_empty() || medium.owes_checkpoint;
        for &(seq, region) in &live {
            if unflushed && ordered {
                self.barrier(io)?;
            }
            self.write_clean_head(io, region, seq)?;
            unflushed = true;
        }
        self.barrier(io)?;
        *medium = Medium::default();
        Ok(())
    }

    fn barrier(&self, io: &dyn JournalIo) -> KernelResult<()> {
        io.barrier()?;
        self.counters.barriers.inc();
        Ok(())
    }

    /// Header block of the region group `seq` commits into.
    fn region_head(&self, seq: u64) -> u64 {
        self.start + (seq % REGIONS as u64) * self.region_size as u64
    }

    /// Writes `region`'s header clean, raw, carrying `seq`, the sequence
    /// number [`Medium::live`] holds for it (0 for a header recovery
    /// rejected).  Nothing reads a clean header's other bytes, so they
    /// are zero.
    fn write_clean_head(&self, io: &dyn JournalIo, region: u64, seq: u64) -> KernelResult<()> {
        let mut head = vec![0u8; BSIZE];
        record::encode_clear(&mut head, seq);
        io.write_raw(&[(self.region_head(region), &head)])
    }

    /// Recovers from the on-disk log at mount time: committed transactions
    /// found in any region are installed in sequence order, and every
    /// header that was not clean is left clean.  Returns the number of
    /// blocks replayed.
    ///
    /// A record is replayed only if its self-checksum holds, its home
    /// blocks are in range, the log blocks behind it hash to the digest it
    /// was sealed over, *and* each of its direct homes holds the bytes it
    /// sealed or is named by a newer record that passed these checks —
    /// records are checked newest first.  A later group may have written a
    /// direct home since (an install of its newer copy, which a
    /// checkpoint issues while the older record is still live, or a
    /// replay of that copy by a recovery that crashed), but only while
    /// its own record names it; no older record names a direct home, and
    /// nothing else writes one while a record naming it can be replayed.
    /// After a crash the newest committed record always validates, and so
    /// may the three before it; replaying them oldest first is idempotent
    /// and lands each home's newest copy last, since every block an older
    /// record holds is either installed already or held again by a newer
    /// valid record.  A direct home is never written by recovery: it was
    /// durable at home when its record was.  Headers that do not
    /// validate are cleared too: a rejected record left in place could be
    /// re-validated by a later session that logs identical bytes into its
    /// region and crashes before its own record lands.  A cleanly
    /// unmounted image ([`Journal::checkpoint`]) has every header clear,
    /// replays nothing and writes nothing.
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
        for region in 0..REGIONS as u64 {
            let head_block = self.region_head(region);
            io.read_block(head_block, &mut head)?;
            if record::is_clean(&head) {
                continue;
            }
            // A header that does not validate is live all the same; its
            // place in the clearing order does not matter.
            let found = self.read_committed(io, head_block, &head)?;
            medium.live[region as usize] = Some(found.as_ref().map_or(0, |c| c.record.seq));
            committed.extend(found);
        }
        let committed = self.check_direct_homes(io, committed)?;
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
        let mut homes = record.homes.iter().chain(record.direct.iter().map(|(home, _)| home));
        if homes.any(|&h| h < self.home_range.0 || h >= self.home_range.1) {
            // Not a header this format wrote (corruption, or an image
            // from another log layout): treating it as clean beats
            // installing over arbitrary blocks.
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

    /// Keeps, of the records whose payload verified, those whose direct
    /// homes hold what they sealed or are named by a newer kept record,
    /// checking newest first; returns them oldest first.
    fn check_direct_homes(
        &self,
        io: &dyn JournalIo,
        mut found: Vec<Committed>,
    ) -> KernelResult<Vec<Committed>> {
        found.sort_by_key(|found| std::cmp::Reverse(found.record.seq));
        let mut named: FxHashSet<u64> = FxHashSet::default();
        let mut kept = Vec::with_capacity(found.len());
        let mut block = vec![0u8; BSIZE];
        for committed in found {
            let mut holds = true;
            for &(home, checksum) in &committed.record.direct {
                if self.fault == PlantedFault::UncheckedDirectHome || named.contains(&home) {
                    continue;
                }
                io.read_block(home, &mut block)?;
                if record::direct_checksum(&block) != checksum {
                    holds = false;
                    break;
                }
            }
            if holds {
                let record = &committed.record;
                named.extend(record.homes.iter().chain(record.direct.iter().map(|(home, _)| home)));
                kept.push(committed);
            }
        }
        kept.reverse();
        Ok(kept)
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
    use crashsim::{prefix_states, DiskImage, Event, FaultConfig, FaultDevice};
    use simkernel::dev::{BlockDevice, RamDisk};

    /// The same log geometry the xv6 stacks use: log at block 2, a ring of
    /// four regions, homes legal from the end of the log area to disk size.
    const LOG_BLOCKS: usize = REGIONS * (4 * MAX_OP_BLOCKS + 1);
    const REGION: u64 = (LOG_BLOCKS / REGIONS) as u64;
    const DISK: u64 = 2048;
    /// A home block past the log area.
    const HOME: u64 = 1600;

    fn test_config(disk_blocks: u64) -> JournalConfig {
        JournalConfig::from_geometry(
            2,
            LOG_BLOCKS,
            LOG_BLOCKS,
            (2 + LOG_BLOCKS as u64, disk_blocks),
        )
    }

    fn setup() -> (DeviceIo, Journal) {
        let io = DeviceIo::new(Arc::new(RamDisk::new(BSIZE as u32, DISK)));
        (io, Journal::new(test_config(DISK)))
    }

    /// A RAM disk behind crashsim's fault device, whose transient-EIO
    /// probabilities the caller raises to 1 to open an EIO window.
    fn eio_window_disk() -> (Arc<RamDisk>, Arc<FaultDevice>, DeviceIo) {
        let ram = Arc::new(RamDisk::new(BSIZE as u32, DISK));
        let faulty = Arc::new(FaultDevice::new(
            Arc::clone(&ram) as Arc<dyn BlockDevice>,
            FaultConfig::recorder(0),
        ));
        faulty.set_trace_enabled(false);
        let io = DeviceIo::new(Arc::clone(&faulty) as Arc<dyn BlockDevice>);
        (ram, faulty, io)
    }

    /// First byte of `blockno` as the medium holds it.
    fn block_fill(io: &DeviceIo, blockno: u64) -> u8 {
        let mut buf = vec![0u8; BSIZE];
        io.read_block(blockno, &mut buf).unwrap();
        buf[0]
    }

    /// First byte of home `blockno` as committed (pending copy or medium).
    fn home_fill(io: &DeviceIo, journal: &Journal, blockno: u64) -> u8 {
        let mut buf = vec![0u8; BSIZE];
        journal.read_home(io, blockno, &mut buf).unwrap();
        buf[0]
    }

    fn write_block(io: &DeviceIo, journal: &Journal, blockno: u64, fill: u8) {
        journal.begin_op();
        journal.log_write(blockno, &[fill; BSIZE]).unwrap();
        journal.end_op(io).unwrap();
    }

    /// One operation that allocates `blockno` and fills it with `fill`.
    fn write_fresh(io: &DeviceIo, journal: &Journal, blockno: u64, fill: u8) {
        journal.begin_op();
        journal.log_fresh(blockno, &[fill; BSIZE]).unwrap();
        journal.end_op(io).unwrap();
    }

    /// `(logged homes, direct homes)` of the record in `region`.
    fn region_record(io: &DeviceIo, region: u64) -> (Vec<u64>, Vec<u64>) {
        let mut head = vec![0u8; BSIZE];
        io.read_block(2 + region * REGION, &mut head).unwrap();
        let record = record::parse_head(&head, LOG_BLOCKS).expect("a sealed record");
        (record.homes, record.direct.iter().map(|&(home, _)| home).collect())
    }

    /// A sealed commit record for `seq` naming `homes`, whose payload is
    /// one block of each of `fills`, and direct homes `(home, fill)`.
    fn sealed_head(seq: u64, homes: &[u64], fills: &[u8], direct: &[(u64, u8)]) -> Vec<u8> {
        let payload: Vec<[u8; BSIZE]> = fills.iter().map(|&fill| [fill; BSIZE]).collect();
        let mut head = vec![0u8; BSIZE];
        let digest = payload_digest(payload.iter().map(|block| &block[..]));
        let direct: Vec<(u64, u64)> = (direct.iter())
            .map(|&(home, fill)| (home, record::direct_checksum(&[fill; BSIZE])))
            .collect();
        encode_head(&mut head, seq, homes.iter().copied(), digest, &direct);
        head
    }

    /// Plants a committed-but-not-installed group by hand, as a crash
    /// right after the commit barrier leaves it: block `i` of `region`
    /// holds `fills[i]`, the header names `homes`.
    fn plant_record(io: &DeviceIo, region: u64, seq: u64, homes: &[u64], fills: &[u8]) {
        plant_direct_record(io, region, seq, homes, fills, &[]);
    }

    /// [`plant_record`] whose record also names direct homes `(home,
    /// fill)`; the homes themselves are left as they are.
    fn plant_direct_record(
        io: &DeviceIo,
        region: u64,
        seq: u64,
        homes: &[u64],
        fills: &[u8],
        direct: &[(u64, u8)],
    ) {
        let head_block = 2 + region * REGION;
        for (i, &fill) in fills.iter().enumerate() {
            io.write_block(head_block + 1 + i as u64, &[fill; BSIZE]).unwrap();
        }
        io.write_block(head_block, &sealed_head(seq, homes, fills, direct)).unwrap();
    }

    /// `(count, seq)` of the header in `region`.
    fn region_header(io: &DeviceIo, region: u64) -> (u32, u64) {
        let mut head = vec![0u8; BSIZE];
        io.read_block(2 + region * REGION, &mut head).unwrap();
        (get_u32(&head, LOG_HEAD_COUNT_OFF), get_u64(&head, LOG_HEAD_SEQ_OFF))
    }

    /// Remounts: a fresh journal recovers `io`.  Asserts that whatever it
    /// found, every header is clean afterwards and a further mount writes
    /// nothing.  Returns the blocks replayed.
    fn remount(io: &DeviceIo) -> usize {
        let replayed = Journal::new(test_config(DISK)).recover(io).unwrap();
        let mut head = vec![0u8; BSIZE];
        for region in 0..REGIONS as u64 {
            io.read_block(2 + region * REGION, &mut head).unwrap();
            assert!(record::is_clean(&head), "region {region} left non-clean");
        }
        let writes = io.device().stats().writes;
        assert_eq!(Journal::new(test_config(DISK)).recover(io).unwrap(), 0);
        assert_eq!(io.device().stats().writes, writes, "a clean log is mounted without a write");
        replayed
    }

    #[test]
    fn commit_installs_blocks_to_home_locations() {
        // A commit's blocks reach their homes in the epoch of the commit
        // three later (or at the checkpoint); until then the medium holds
        // the old bytes and read_home serves the committed copy.
        let (io, journal) = setup();
        for i in 0..3u8 {
            write_block(&io, &journal, HOME + u64::from(i), 0xA0 + i);
        }
        assert_eq!(block_fill(&io, HOME), 0, "not installed yet");
        assert_eq!(home_fill(&io, &journal, HOME), 0xA0);
        assert_eq!(journal.stats().installs, 0);
        write_block(&io, &journal, HOME + 3, 0xA3);
        assert_eq!(block_fill(&io, HOME), 0xA0, "due in the fourth commit's epoch");
        assert_eq!(block_fill(&io, HOME + 1), 0, "due in the fifth");
        let stats = journal.stats();
        assert_eq!((stats.commits, stats.blocks_logged, stats.ops_committed), (4, 4, 4));
        assert_eq!((stats.barriers, stats.installs), (4, 1), "one barrier per commit");
        journal.checkpoint(&io).unwrap();
        for i in 0..4u8 {
            assert_eq!(block_fill(&io, HOME + u64::from(i)), 0xA0 + i);
        }
        assert_eq!(journal.stats().installs, 4);
    }

    #[test]
    fn consecutive_commits_walk_the_region_ring() {
        let (io, journal) = setup();
        for i in 0..REGIONS as u64 {
            write_block(&io, &journal, HOME + i, 0x11 * (i as u8 + 1));
            assert_eq!(region_header(&io, i), (1, i));
            assert_eq!(block_fill(&io, 2 + i * REGION + 1), 0x11 * (i as u8 + 1));
        }
        // Nothing clears a header in steady state: four records are live.
        let live: Vec<Option<u64>> = (0..REGIONS as u64).map(Some).collect();
        assert_eq!(journal.tail().live[..], live[..]);
        // The fifth commit overwrites the first one's region, record and
        // payload alike, after the fourth commit's epoch installed it.
        write_block(&io, &journal, HOME + 4, 0x55);
        assert_eq!(region_header(&io, 0), (1, 4));
        assert_eq!(block_fill(&io, 2 + 1), 0x55);
        assert_eq!(block_fill(&io, HOME), 0x11);
        let tail = journal.tail();
        assert_eq!(
            (tail.next_seq, tail.live, tail.owes_checkpoint),
            (5, [Some(4), Some(1), Some(2), Some(3)], false)
        );
        let pending: Vec<(u64, u64)> = tail.pending.iter().map(|p| (p.seq, p.home)).collect();
        assert_eq!(
            pending,
            [(2, HOME + 2), (3, HOME + 3), (4, HOME + 4)],
            "seq 1 installed in seq 4's epoch"
        );
    }

    #[test]
    fn a_block_relogged_by_every_commit_is_installed_once_at_checkpoint() {
        // REGIONS + 1 commits each log home HOME: every copy but the last
        // is superseded before it falls due, so the home is written once,
        // by the checkpoint — and a crash before it recovers the last
        // commit's bytes from the record.
        let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK));
        let image = Arc::new(DiskImage::capture(&base).unwrap());
        let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
        let io = DeviceIo::new(Arc::clone(&recorder) as Arc<dyn BlockDevice>);
        let journal = Journal::new(test_config(DISK));
        let last = REGIONS as u8 + 1;
        for fill in 1..=last {
            write_block(&io, &journal, HOME, fill);
            assert_eq!(home_fill(&io, &journal, HOME), fill);
        }
        let before_checkpoint = recorder.event_count();
        journal.checkpoint(&io).unwrap();
        let trace = recorder.trace();
        let home_writes: Vec<usize> = (0..trace.events.len())
            .filter(|&i| matches!(trace.events[i], Event::Write { blockno: HOME, .. }))
            .collect();
        assert_eq!(home_writes.len(), 1, "the home is written once");
        assert!(home_writes[0] >= before_checkpoint, "by the checkpoint");
        assert_eq!(block_fill(&io, HOME), last);
        assert_eq!(journal.stats().installs, 1);

        let state = prefix_states(&trace, &image).swap_remove(before_checkpoint);
        let crashed = DeviceIo::new(Arc::clone(&state.disk) as Arc<dyn BlockDevice>);
        assert_eq!(block_fill(&crashed, HOME), 0, "never installed before the checkpoint");
        assert_eq!(remount(&crashed), REGIONS, "the four live records replay");
        assert_eq!(block_fill(&crashed, HOME), last);
    }

    #[test]
    fn checkpoint_clears_the_pending_header_and_is_free_when_idle() {
        let (io, journal) = setup();
        journal.checkpoint(&io).unwrap();
        assert_eq!(journal.stats().barriers, 0, "nothing live: no I/O");
        write_block(&io, &journal, HOME, 0x11);
        journal.checkpoint(&io).unwrap();
        assert_eq!(region_header(&io, 0), (0, 0));
        assert_eq!(block_fill(&io, HOME), 0x11);
        assert_eq!(journal.stats().barriers, 1 + 2, "commit + checkpoint");
        assert_eq!(journal.tail(), JournalTail { next_seq: 1, ..JournalTail::default() });
        journal.checkpoint(&io).unwrap();
        assert_eq!(journal.stats().barriers, 3, "second checkpoint is a no-op");
        // A clean image replays nothing on the next mount.
        assert_eq!(remount(&io), 0);
        // Commits after a checkpoint keep walking the ring, and with two
        // headers live the checkpoint costs the installs' barrier and one
        // per clear.
        write_block(&io, &journal, HOME + 1, 0x22);
        write_block(&io, &journal, HOME + 2, 0x33);
        assert_eq!((region_header(&io, 1), region_header(&io, 2)), ((1, 1), (1, 2)));
        journal.checkpoint(&io).unwrap();
        assert_eq!(journal.stats().barriers, 3 + 2 + 3);
        assert_eq!((block_fill(&io, HOME + 1), block_fill(&io, HOME + 2)), (0x22, 0x33));
        assert_eq!(remount(&io), 0);
    }

    #[test]
    fn restored_tail_continues_the_sequence_and_pays_the_owed_clear() {
        let (io, old) = setup();
        write_block(&io, &old, HOME, 0x11);
        let tail = old.tail();
        let pending = PendingInstall { seq: 0, home: HOME, data: Block::from(&[0x11; BSIZE]) };
        assert_eq!(tail.pending, [pending]);
        drop(old);
        // The successor attaches without recovery (live upgrade) and
        // without a device access.
        let writes = io.device().stats();
        let new = Journal::new(test_config(DISK));
        new.restore_tail(tail);
        assert_eq!(io.device().stats(), writes);
        assert_eq!(home_fill(&io, &new, HOME), 0x11, "the pending copy came along");
        write_block(&io, &new, HOME + 1, 0x22);
        assert_eq!(region_header(&io, 0), (1, 0), "predecessor's record untouched");
        assert_eq!(region_header(&io, 1), (1, 1), "successor took the next region");
        assert_eq!(new.stats().recoveries, 0);
        // It installs the predecessor's copy when it falls due...
        write_block(&io, &new, HOME + 2, 0x33);
        assert_eq!(block_fill(&io, HOME), 0);
        write_block(&io, &new, HOME + 3, 0x44);
        assert_eq!(block_fill(&io, HOME), 0x11);
        // ...and its checkpoint clears the predecessor's header along with
        // its own.
        new.checkpoint(&io).unwrap();
        assert_eq!(remount(&io), 0);
    }

    #[test]
    fn a_commit_after_a_failed_commit_pays_the_owed_checkpoint_before_reusing_a_region() {
        let (ram, faulty, io) = eio_window_disk();
        let journal = Journal::new(test_config(DISK));
        write_block(&io, &journal, HOME, 0x11);
        // Commit 1 meets a transient EIO window: nothing of it is
        // acknowledged, and the journal does not know what reached the
        // medium.
        faulty.set_transient_eio(1.0, 1.0);
        journal.begin_op();
        journal.log_write(HOME + 1, &[0x22; BSIZE]).unwrap();
        assert_eq!(journal.end_op(&io).unwrap_err().errno(), Errno::Io);
        assert!(journal.tail().owes_checkpoint);
        faulty.set_transient_eio(0.0, 0.0);
        // Commit 2 settles first — commit 0's install, barrier, its header
        // cleared, barrier — and only then writes its own epoch.
        let before = (journal.stats().barriers, ram.stats().writes);
        write_block(&io, &journal, HOME + 2, 0x33);
        assert_eq!(journal.stats().barriers - before.0, 2 + 1, "checkpoint, then the commit");
        assert_eq!(ram.stats().writes - before.1, 2 + 2, "install and clear; payload, record");
        assert_eq!(region_header(&io, 2), (1, 2), "its own record is not the one cleared");
        let tail = journal.tail();
        assert_eq!(
            (tail.next_seq, tail.live, tail.owes_checkpoint),
            (3, [None, None, Some(2), None], false)
        );
        assert_eq!(remount(&io), 1);
        assert_eq!(
            (block_fill(&io, HOME), block_fill(&io, HOME + 1), block_fill(&io, HOME + 2)),
            (0x11, 0, 0x33)
        );
    }

    #[test]
    fn a_failed_commit_supersedes_nothing() {
        // Commit 3 logs HOME again, so its epoch skips commit 0's due
        // install of HOME — then fails.  The skipped copy is still
        // pending: the next commit's settle installs it, and commit 3's
        // bytes, never acknowledged, never reach the home.
        let (_, faulty, io) = eio_window_disk();
        let journal = Journal::new(test_config(DISK));
        for (i, fill) in [0x10u8, 0x11, 0x12].into_iter().enumerate() {
            write_block(&io, &journal, HOME + i as u64, fill);
        }
        faulty.set_transient_eio(1.0, 1.0);
        journal.begin_op();
        journal.log_write(HOME, &[0x13; BSIZE]).unwrap();
        assert_eq!(journal.end_op(&io).unwrap_err().errno(), Errno::Io);
        faulty.set_transient_eio(0.0, 0.0);
        assert_eq!(home_fill(&io, &journal, HOME), 0x10, "the failed commit replaced nothing");
        write_block(&io, &journal, HOME + 4, 0x14);
        assert_eq!(block_fill(&io, HOME), 0x10, "installed by the settle");
        assert_eq!(remount(&io), 1);
        assert_eq!(block_fill(&io, HOME), 0x10);
    }

    #[test]
    fn on_flush_operations_join_the_running_group_until_a_flush() {
        let io = DeviceIo::new(Arc::new(RamDisk::new(BSIZE as u32, DISK)));
        let journal =
            Journal::new(JournalConfig { close: GroupClose::OnFlush, ..test_config(DISK) });
        for (block, fill) in [(HOME, 1), (HOME + 1, 2), (HOME, 3)] {
            write_block(&io, &journal, block, fill);
        }
        assert_eq!(journal.stats(), JournalStats::default(), "no group closed yet");
        assert_eq!(io.device().stats().writes, 0);
        journal.flush(&io).unwrap();
        let stats = journal.stats();
        assert_eq!((stats.commits, stats.blocks_logged, stats.ops_committed), (1, 2, 3));
        assert_eq!(stats.barriers, 1, "one group, one barrier");
        assert_eq!((home_fill(&io, &journal, HOME), home_fill(&io, &journal, HOME + 1)), (3, 2));
        let writes = io.device().stats().writes;
        journal.flush(&io).unwrap();
        assert_eq!((journal.stats(), io.device().stats().writes), (stats, writes), "idle flush");
    }

    #[test]
    fn absorption_logs_block_once() {
        let (io, journal) = setup();
        journal.begin_op();
        for fill in [1u8, 2, 3] {
            journal.log_write(HOME, &[fill; BSIZE]).unwrap();
        }
        journal.end_op(&io).unwrap();
        assert_eq!(journal.stats().blocks_logged, 1);
        assert_eq!(home_fill(&io, &journal, HOME), 3);
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
            journal.log_write(HOME + i, &[1u8; BSIZE]).unwrap();
            assert_eq!(journal.staged_blocks(), i as usize + 1);
        }
        journal.log_write(HOME, &[2u8; BSIZE]).unwrap();
        assert_eq!(journal.staged_blocks(), MAX_OP_BLOCKS, "a re-logged block is staged once");
        assert_eq!(
            journal.log_write(HOME + MAX_OP_BLOCKS as u64, &[1u8; BSIZE]).unwrap_err().errno(),
            Errno::NoSpc
        );
        journal.end_op(&io).unwrap();
        assert_eq!(journal.staged_blocks(), 0);
    }

    #[test]
    fn group_commit_combines_concurrent_ops() {
        use std::thread;
        let io = Arc::new(DeviceIo::new(Arc::new(RamDisk::new(BSIZE as u32, DISK))));
        let journal = Arc::new(Journal::new(test_config(DISK)));
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
        // Every block is committed, and after the checkpoint at home.
        for t in 0..8u64 {
            for i in 0..20u64 {
                assert_eq!(home_fill(&io, &journal, 1200 + t * 20 + i), (t + 1) as u8);
            }
        }
        // Group commit means commits <= operations.
        let stats = journal.stats();
        assert!(stats.commits <= 160);
        assert_eq!(stats.blocks_logged, 160);
        assert_eq!(stats.ops_committed, 160);
        assert_eq!(stats.barriers, stats.commits);
        journal.checkpoint(&*io).unwrap();
        assert_eq!(journal.stats().installs, 160, "no block was logged twice");
        for t in 0..8u64 {
            for i in 0..20u64 {
                assert_eq!(block_fill(&io, 1200 + t * 20 + i), (t + 1) as u8);
            }
        }
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
        journal.log_write(HOME, &[0x01; BSIZE]).unwrap(); // older snapshot
        {
            // Op B on another thread modifies the same block afterwards
            // and merges first (op A is still outstanding, so no commit
            // yet).
            let journal = Arc::clone(&journal);
            let io = Arc::clone(&io);
            std::thread::spawn(move || {
                write_block(&io, &journal, HOME, 0x02);
            })
            .join()
            .unwrap();
        }
        // Op A merges its older snapshot last, closes the group, commits.
        journal.end_op(&*io).unwrap();
        assert_eq!(home_fill(&io, &journal, HOME), 0x02, "newest snapshot must win");
        let stats = journal.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.blocks_logged, 1, "absorbed across ops in one group");
        assert_eq!(stats.ops_committed, 2);
    }

    #[test]
    fn recover_replays_committed_transaction_from_either_region() {
        for region in 0..REGIONS as u64 {
            let (io, _) = setup();
            // Simulate a crash after the commit barrier but before
            // install: the home block still has its old (zero) contents.
            plant_record(&io, region, region, &[HOME], &[0x5E]);
            assert_eq!(remount(&io), 1, "region {region}");
            assert_eq!(block_fill(&io, HOME), 0x5E, "region {region}");
        }
    }

    #[test]
    fn recover_replays_every_valid_region_in_sequence_order() {
        let (io, _) = setup();
        // Four regions hold committed transactions for the same home
        // block, seqs 5..=8 around the ring (region 0 holds the newest);
        // the oldest also holds a block nothing later logged.  Recovery
        // must install in sequence order so the seq-8 bytes win.
        plant_record(&io, 1, 5, &[HOME, HOME + 1], &[0xA5, 0x15]);
        plant_record(&io, 2, 6, &[HOME], &[0xA6]);
        plant_record(&io, 3, 7, &[HOME], &[0xA7]);
        plant_record(&io, 0, 8, &[HOME], &[0xA8]);
        let journal = Journal::new(test_config(DISK));
        assert_eq!(journal.recover(&io).unwrap(), 5);
        assert_eq!((block_fill(&io, HOME), block_fill(&io, HOME + 1)), (0xA8, 0x15));
        assert_eq!(journal.stats().barriers, 1 + REGIONS as u64, "installs, then one per clear");
        assert_eq!(remount(&io), 0);
    }

    #[test]
    fn recover_rejects_torn_commit_record() {
        // A header whose checksum does not cover its contents (a torn
        // commit-record write) must be treated as clean, not installed.
        let (io, _) = setup();
        io.write_block(3, &[0x99; BSIZE]).unwrap();
        let mut head = sealed_head(0, &[HOME], &[0x99], &[]);
        // Corrupt one home entry after sealing: simulates a tear where
        // the checksum sector and the block-list sector disagree.
        put_u32(&mut head, LOG_HEAD_BLOCKS_OFF, HOME as u32 + 1);
        io.write_block(2, &head).unwrap();
        assert_eq!(remount(&io), 0);
        assert_eq!(block_fill(&io, HOME), 0, "nothing installed");
        assert_eq!(block_fill(&io, HOME + 1), 0, "nothing installed");
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
        plant_record(&io, 0, 0, &[HOME, HOME + 1], &[0x5E, 0x5F]);
        let mut copy = vec![0x5F; BSIZE];
        copy[BSIZE - 1] ^= 1;
        io.write_block(2 + 2, &copy).unwrap();
        let journal = Journal::new(test_config(DISK));
        assert_eq!(journal.recover(&io).unwrap(), 0);
        assert_eq!((block_fill(&io, HOME), block_fill(&io, HOME + 1)), (0, 0));
        assert_eq!(journal.stats().recoveries, 0);
        assert_eq!(remount(&io), 0);
    }

    #[test]
    fn a_rejected_record_cannot_be_revalidated_by_a_later_session() {
        let (io, _) = setup();
        io.write_block(HOME, &[0x77; BSIZE]).unwrap();
        io.write_block(HOME + 1, &[0x77; BSIZE]).unwrap();
        // Session 1 crashed mid-epoch: record X (two zero-filled blocks
        // for homes HOME and HOME + 1) is durable, its payload only in
        // part.
        plant_record(&io, 0, 0, &[HOME, HOME + 1], &[0, 0]);
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
        assert_eq!((block_fill(&io, HOME), block_fill(&io, HOME + 1)), (0x77, 0x77));
    }

    #[test]
    fn a_fresh_block_goes_home_in_its_own_epoch_and_is_never_installed() {
        let (io, journal) = setup();
        journal.begin_op();
        journal.log_fresh(HOME, &[0xF0; BSIZE]).unwrap();
        journal.log_write(HOME + 1, &[0x01; BSIZE]).unwrap();
        journal.end_op(&io).unwrap();
        // The fresh block is at home the moment its commit returns; the
        // other is a pending copy, installed three commits later.
        assert_eq!((block_fill(&io, HOME), block_fill(&io, HOME + 1)), (0xF0, 0));
        assert_eq!(region_record(&io, 0), (vec![HOME + 1], vec![HOME]));
        let stats = journal.stats();
        assert_eq!((stats.blocks_logged, stats.direct_blocks, stats.demoted), (1, 1, 0));
        assert_eq!(stats.barriers, 1, "the direct write shares the commit's one barrier");
        let pending: Vec<u64> = journal.tail().pending.iter().map(|p| p.home).collect();
        assert_eq!(pending, [HOME + 1], "a direct block never joins the pending set");
        assert_eq!(journal.tail().direct, [vec![HOME], vec![], vec![], vec![]]);
        journal.checkpoint(&io).unwrap();
        assert_eq!(journal.stats().installs, 1, "only the logged block is installed");
        assert_eq!(journal.tail(), JournalTail { next_seq: 1, ..JournalTail::default() });
        assert_eq!(remount(&io), 0);
        assert_eq!((block_fill(&io, HOME), block_fill(&io, HOME + 1)), (0xF0, 0x01));
    }

    #[test]
    fn a_fresh_block_is_logged_while_a_live_record_or_pending_copy_names_it_or_its_group_freed_it()
    {
        let (io, journal) = setup();
        // A pending copy of HOME: the fresh block would be overwritten by
        // its install (and by recovery's replay of the record).
        write_block(&io, &journal, HOME, 0x10);
        write_fresh(&io, &journal, HOME, 0x11);
        assert_eq!(region_record(&io, 1), (vec![HOME], vec![]));
        // A live record names HOME + 1 as a direct home: writing it home
        // again would make that record fail its check.
        write_fresh(&io, &journal, HOME + 1, 0x20);
        write_fresh(&io, &journal, HOME + 1, 0x21);
        assert_eq!(region_record(&io, 3), (vec![HOME + 1], vec![]));
        // The group frees the block it allocates: the state before it may
        // still hold the block as someone else's.
        journal.begin_op();
        journal.note_free(HOME + 2).unwrap();
        journal.log_fresh(HOME + 2, &[0x30; BSIZE]).unwrap();
        journal.end_op(&io).unwrap();
        assert_eq!(region_record(&io, 0), (vec![HOME + 2], vec![]));
        let stats = journal.stats();
        assert_eq!((stats.direct_blocks, stats.demoted), (1, 3));
        // Once no live record names it and no copy is pending, a fresh
        // block goes home again.
        for fill in 0..REGIONS as u8 {
            write_block(&io, &journal, HOME + 10, fill);
        }
        write_fresh(&io, &journal, HOME + 1, 0x22);
        assert_eq!(journal.stats().direct_blocks, 2);
        assert_eq!(journal.stats().demoted, 3);
        journal.checkpoint(&io).unwrap();
        assert_eq!(remount(&io), 0);
        let fills = [HOME, HOME + 1, HOME + 2].map(|home| block_fill(&io, home));
        assert_eq!(fills, [0x11, 0x22, 0x30]);
    }

    #[test]
    fn a_block_allocated_by_one_operation_and_rewritten_by_another_in_its_group_goes_home() {
        let (io, journal) = setup();
        let io = Arc::new(io);
        let journal = Arc::new(journal);
        journal.begin_op(); // holds the group open
        journal.log_fresh(HOME, &[0x01; BSIZE]).unwrap();
        {
            let (io, journal) = (Arc::clone(&io), Arc::clone(&journal));
            std::thread::spawn(move || write_block(&io, &journal, HOME, 0x02)).join().unwrap();
        }
        journal.end_op(&*io).unwrap();
        assert_eq!(journal.stats().direct_blocks, 1, "the group allocated it");
        assert_eq!(block_fill(&io, HOME), 0x02, "with the newest snapshot");
    }

    #[test]
    fn a_fresh_block_is_logged_by_the_commit_that_pays_a_failed_commit_s_settle() {
        let (_, faulty, io) = eio_window_disk();
        let journal = Journal::new(test_config(DISK));
        faulty.set_transient_eio(1.0, 1.0);
        journal.begin_op();
        journal.log_fresh(HOME, &[0x11; BSIZE]).unwrap();
        assert_eq!(journal.end_op(&io).unwrap_err().errno(), Errno::Io);
        faulty.set_transient_eio(0.0, 0.0);
        write_fresh(&io, &journal, HOME + 1, 0x22);
        let stats = journal.stats();
        assert_eq!((stats.commits, stats.direct_blocks, stats.demoted), (1, 0, 1));
        write_fresh(&io, &journal, HOME + 2, 0x33);
        assert_eq!(journal.stats().direct_blocks, 1, "the debt is paid");
        assert_eq!(remount(&io), 1);
        assert_eq!((block_fill(&io, HOME + 1), block_fill(&io, HOME + 2)), (0x22, 0x33));
    }

    #[test]
    fn a_restored_tail_carries_the_live_records_direct_homes() {
        let (io, old) = setup();
        write_fresh(&io, &old, HOME, 0x11);
        let tail = old.tail();
        assert_eq!(tail.direct[0], [HOME]);
        let new = Journal::new(test_config(DISK));
        new.restore_tail(tail);
        // Freed and allocated again while the predecessor's record lives.
        write_fresh(&io, &new, HOME, 0x12);
        assert_eq!((new.stats().direct_blocks, new.stats().demoted), (0, 1));
        new.checkpoint(&io).unwrap();
        assert_eq!(remount(&io), 0);
        assert_eq!(block_fill(&io, HOME), 0x12);
    }

    #[test]
    fn recovery_rejects_a_record_whose_direct_home_lacks_its_bytes() {
        let (io, _) = setup();
        // The record and its payload are whole, the direct block never
        // reached its home: the group did not commit.
        plant_direct_record(&io, 0, 0, &[HOME], &[0x5E], &[(HOME + 1, 0xD1)]);
        assert_eq!(remount(&io), 0);
        assert_eq!((block_fill(&io, HOME), block_fill(&io, HOME + 1)), (0, 0));
        // With the direct block at home, it did.
        plant_direct_record(&io, 0, 4, &[HOME], &[0x5E], &[(HOME + 1, 0xD1)]);
        io.write_block(HOME + 1, &[0xD1; BSIZE]).unwrap();
        assert_eq!(remount(&io), 1);
        assert_eq!(block_fill(&io, HOME), 0x5E);
    }

    #[test]
    fn recovery_accepts_a_direct_home_a_newer_valid_record_names_again() {
        let (io, _) = setup();
        // Seq 1 allocated HOME + 1; seq 2 rewrote it (logged), and that
        // copy was installed over the direct bytes — a checkpoint's
        // install while both records are live.  Seq 1 still commits: its
        // logged block lands, then seq 2's copy.
        plant_direct_record(&io, 1, 1, &[HOME], &[0x51], &[(HOME + 1, 0xD1)]);
        plant_record(&io, 2, 2, &[HOME + 1], &[0xD2]);
        io.write_block(HOME + 1, &[0xD2; BSIZE]).unwrap();
        assert_eq!(remount(&io), 2);
        assert_eq!((block_fill(&io, HOME), block_fill(&io, HOME + 1)), (0x51, 0xD2));
        // Had seq 2 not validated, seq 1 would be rejected too.
        plant_direct_record(&io, 1, 5, &[HOME], &[0x61], &[(HOME + 1, 0xD1)]);
        plant_record(&io, 2, 6, &[HOME + 1], &[0xD2]);
        io.write_block(2 + 2 * REGION + 1, &[0xEE; BSIZE]).unwrap();
        assert_eq!(remount(&io), 0);
        assert_eq!(block_fill(&io, HOME), 0x51);
    }
}
