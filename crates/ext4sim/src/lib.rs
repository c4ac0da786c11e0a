//! # ext4sim — the "commercial-grade" comparator
//!
//! The paper compares its xv6 implementations against ext4 mounted with
//! `data=journal` "to understand ballpark performance differences" (§6).
//! Real ext4 is far outside the scope of a reproduction, so this crate
//! provides a deliberately simplified journaling file system that captures
//! the properties responsible for ext4 beating xv6 in the paper's
//! macrobenchmarks:
//!
//! * a **JBD2-style journal with group commit**: operations join a running
//!   transaction; the transaction commits when it grows past a threshold,
//!   when an `fsync` demands durability, or at `sync`/unmount — instead of
//!   xv6's commit-per-operation;
//! * **`data=journal`** semantics: file data is journaled (written twice),
//!   like the paper's ext4 configuration and like xv6's log;
//! * **scoped fsync**: `fsync` forces one journal commit (one device
//!   flush), never a whole-file-system scan;
//! * a batched `write_pages` writeback path.
//!
//! Simplifications relative to real ext4 (documented in EXPERIMENTS.md):
//! directory and inode metadata are kept in memory and checkpointed to a
//! reserved metadata area at commit time rather than stored in block groups
//! with extent trees and htree directories.  The data path (allocation,
//! journaling, writeback, flushes) is fully device-backed, which is what the
//! macrobenchmarks measure.
//!
//! ## Crash consistency
//!
//! The checkpoint is what recovery reads, so it is written crash-safely:
//! two checkpoint *slots* alternate, each carrying a sequence number,
//! length, and a digest of the serialized body, with the header block
//! written after the body.  Mount picks the highest-sequence slot
//! whose checksum verifies, so a crash that tears the in-progress
//! checkpoint falls back to the previous one.  To make that fallback safe,
//! freed blocks are *quarantined* until the checkpoint recording the free
//! is durable — a reused block can therefore never be referenced by any
//! checkpoint a crash might fall back to.  The quarantine is in-memory
//! only, so a crash can leak the quarantined blocks; the consistency
//! checker reports those as warnings (real e2fsck reclaims leaked blocks
//! the same way).
//!
//! ## Namespace locking (audit note)
//!
//! The two xv6 stacks use per-directory namespace locks
//! ([`simkernel::nslock`]) because their namespace operations do block I/O
//! (directory-entry reads/writes through the buffer cache) inside the
//! critical section, so a global lock would serialize device time across
//! unrelated directories.  ext4sim deliberately does **not** adopt them:
//! every namespace operation here (`create`, `mkdir`, `unlink`, `rmdir`,
//! `rename`, `link`) is a pure in-memory mutation of the single `Metadata`
//! map behind one `RwLock`, and all device I/O — `note_metadata_change`
//! journaling and quarantined frees — happens strictly *after* the metadata
//! guard is dropped.  The critical sections are a few `HashMap` operations
//! long; splitting them per directory would require sharding the one
//! `inodes` map (every inode lives behind the same `&mut Metadata`) for no
//! measurable win, and cross-directory rename would then need its own
//! ordering discipline.  If directory metadata ever moves onto the device
//! (block-group layout, htree directories), this decision must be
//! revisited.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use journal::checkpoint::DualSlotCheckpoint;
use simkernel::dev::BlockDevice;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{
    DirEntry, FileMode, FileType, FilesystemType, InodeAttr, MountOptions, OpenFlags, SetAttr,
    StatFs, VfsFs, PAGE_SIZE,
};

/// Registered name of the simulated ext4.
pub const EXT4_NAME: &str = "ext4sim";

/// Journal area: blocks 1..=JOURNAL_BLOCKS hold journaled data, block 0 the
/// metadata checkpoint header.
const JOURNAL_START: u64 = 8;
/// Number of journal blocks (16 MiB).
const JOURNAL_BLOCKS: u64 = 4096;
/// Transaction commits automatically once it holds this many blocks.
const COMMIT_THRESHOLD_BLOCKS: usize = 2048;
/// Blocks reserved at the front of the device for the metadata checkpoints.
const METADATA_BLOCKS: u64 = 2048;
/// Each of the two alternating checkpoint slots owns half the area.
const CHECKPOINT_SLOT_BLOCKS: u64 = METADATA_BLOCKS / 2;
/// Identifies a checkpoint slot header.
const CHECKPOINT_MAGIC: u64 = 0x6578_7434_7369_6d21;

/// The dual-slot checkpoint layout, shared with the other stacks' journal
/// crate: slot geometry, header byte layout, and torn-slot rejection live
/// in [`DualSlotCheckpoint`]; ext4sim keeps the body serialization and the
/// sequence management.  The on-disk format is unchanged.
const CHECKPOINT: DualSlotCheckpoint = DualSlotCheckpoint {
    area_start: JOURNAL_START + JOURNAL_BLOCKS,
    slot_blocks: CHECKPOINT_SLOT_BLOCKS,
    block_size: PAGE_SIZE,
    magic: CHECKPOINT_MAGIC,
};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Ext4Inode {
    kind: u8, // 0 = file, 1 = directory
    size: u64,
    nlink: u32,
    /// file page index -> disk block
    blocks: BTreeMap<u64, u64>,
    /// directory entries (directories only)
    entries: BTreeMap<String, u64>,
}

impl Ext4Inode {
    fn new_file() -> Self {
        Ext4Inode { kind: 0, size: 0, nlink: 1, blocks: BTreeMap::new(), entries: BTreeMap::new() }
    }
    fn new_dir() -> Self {
        Ext4Inode { kind: 1, size: 0, nlink: 2, blocks: BTreeMap::new(), entries: BTreeMap::new() }
    }
    fn is_dir(&self) -> bool {
        self.kind == 1
    }
    fn attr(&self, ino: u64) -> InodeAttr {
        InodeAttr {
            ino,
            kind: if self.is_dir() { FileType::Directory } else { FileType::Regular },
            size: self.size,
            nlink: self.nlink,
            blocks: (self.blocks.len() as u64) * (PAGE_SIZE as u64 / 512),
            perm: if self.is_dir() { 0o755 } else { 0o644 },
        }
    }
}

#[derive(Debug, Default, Serialize, Deserialize)]
struct Metadata {
    inodes: HashMap<u64, Ext4Inode>,
    next_ino: u64,
    next_block: u64,
    free_blocks: Vec<u64>,
}

/// A running (uncommitted) journal transaction.
#[derive(Debug, Default)]
struct Transaction {
    /// (home block, contents) pairs queued for the next commit.
    blocks: Vec<(u64, Vec<u8>)>,
    /// Whether metadata changed since the last commit.
    metadata_dirty: bool,
}

/// Journal statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Committed transactions.
    pub commits: u64,
    /// Blocks written through the journal.
    pub blocks_journaled: u64,
}

/// Outcome of [`Ext4Sim::check_consistency`].
#[derive(Debug, Default)]
pub struct ConsistencyReport {
    /// Structural invariant violations.
    pub errors: Vec<String>,
    /// Blocks neither claimed by an inode nor on the free list (legal
    /// residue of a crash while frees were quarantined).
    pub leaked_blocks: u64,
}

impl ConsistencyReport {
    /// Whether the metadata satisfied every checked invariant (leaks are
    /// tolerated).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The simplified ext4-like file system.
pub struct Ext4Sim {
    dev: Arc<dyn BlockDevice>,
    /// All metadata (inodes, directories, free list) behind one lock.  This
    /// is intentionally *not* per-directory: critical sections are pure
    /// in-memory map mutations with device I/O done after the guard drops —
    /// see the "Namespace locking" module docs before changing this.
    meta: RwLock<Metadata>,
    txn: Mutex<Transaction>,
    stats: Mutex<JournalStats>,
    data_start: u64,
    /// Serializes commits (the two checkpoint slots alternate).
    commit_lock: Mutex<()>,
    /// Sequence number of the most recent durable checkpoint.
    checkpoint_seq: AtomicU64,
    /// Blocks freed since the last durable checkpoint: they only return to
    /// the allocatable free list once the checkpoint recording their
    /// release is on disk, so a crash-time fallback to an older checkpoint
    /// never finds its referenced blocks overwritten by a reuse.
    pending_free: Mutex<Vec<u64>>,
    /// Set while the in-memory free list holds releases that no checkpoint
    /// on disk records yet (a commit returns its drained quarantine to the
    /// free list only *after* serializing its own checkpoint).  Unmount
    /// must write one more checkpoint then, or the next mount never sees
    /// those blocks again.  Guarded by `commit_lock`.
    unrecorded_frees: AtomicBool,
}

impl std::fmt::Debug for Ext4Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ext4Sim").field("stats", &*self.stats.lock()).finish_non_exhaustive()
    }
}

impl Ext4Sim {
    /// Formats `device` with an empty file system (root directory only) and
    /// mounts it.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] for devices too small to hold the journal
    /// and metadata areas.
    pub fn format_and_mount(device: Arc<dyn BlockDevice>) -> KernelResult<Arc<Self>> {
        let data_start = JOURNAL_START + JOURNAL_BLOCKS + METADATA_BLOCKS;
        if device.num_blocks() <= data_start + 16 {
            return Err(KernelError::with_context(Errno::Inval, "ext4sim: device too small"));
        }
        let mut meta = Metadata { next_ino: 2, next_block: data_start, ..Metadata::default() };
        meta.inodes.insert(1, Ext4Inode::new_dir());
        let fs = Arc::new(Ext4Sim {
            dev: device,
            meta: RwLock::new(meta),
            txn: Mutex::new(Transaction::default()),
            stats: Mutex::new(JournalStats::default()),
            data_start,
            commit_lock: Mutex::new(()),
            checkpoint_seq: AtomicU64::new(0),
            pending_free: Mutex::new(Vec::new()),
            unrecorded_frees: AtomicBool::new(false),
        });
        fs.checkpoint_metadata()?;
        fs.dev.flush()?;
        Ok(fs)
    }

    /// Mounts a previously formatted device (reads the newest valid
    /// metadata checkpoint, falling back across a torn one).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] if neither checkpoint slot is valid.
    pub fn mount(device: Arc<dyn BlockDevice>) -> KernelResult<Arc<Self>> {
        let data_start = JOURNAL_START + JOURNAL_BLOCKS + METADATA_BLOCKS;
        let (seq, meta) = Self::load_metadata(&device)?;
        Ok(Arc::new(Ext4Sim {
            dev: device,
            meta: RwLock::new(meta),
            txn: Mutex::new(Transaction::default()),
            stats: Mutex::new(JournalStats::default()),
            data_start,
            commit_lock: Mutex::new(()),
            checkpoint_seq: AtomicU64::new(seq),
            pending_free: Mutex::new(Vec::new()),
            unrecorded_frees: AtomicBool::new(false),
        }))
    }

    /// Journal statistics (for the experiment harness).
    pub fn journal_stats(&self) -> JournalStats {
        *self.stats.lock()
    }

    /// Reads one checkpoint slot; `None` if it is absent, torn, or
    /// unparsable.
    fn load_slot(
        device: &Arc<dyn BlockDevice>,
        slot: u64,
    ) -> KernelResult<Option<(u64, Metadata)>> {
        // Slot geometry and torn-slot rejection (checksum mismatch: the
        // header persisted but part of the body did not, or vice versa —
        // the other slot is authoritative) live in the shared layout.
        let Some((seq, raw)) = CHECKPOINT.load_slot(&**device, slot)? else {
            return Ok(None);
        };
        match serde_json::from_slice(&raw) {
            Ok(meta) => Ok(Some((seq, meta))),
            Err(_) => Ok(None),
        }
    }

    fn load_metadata(device: &Arc<dyn BlockDevice>) -> KernelResult<(u64, Metadata)> {
        let mut best: Option<(u64, Metadata)> = None;
        for slot in 0..2 {
            if let Some((seq, meta)) = Self::load_slot(device, slot)? {
                if best.as_ref().is_none_or(|(best_seq, _)| seq > *best_seq) {
                    best = Some((seq, meta));
                }
            }
        }
        best.ok_or_else(|| {
            KernelError::with_context(Errno::Inval, "ext4sim: no valid metadata checkpoint")
        })
    }

    /// Writes the next checkpoint into the slot *not* holding the current
    /// one: body blocks first, header (magic, seq, length, body checksum)
    /// last, so recovery can always tell a complete checkpoint from a torn
    /// one and fall back.  The caller is responsible for the surrounding
    /// barrier; this function does not flush.
    fn checkpoint_metadata(&self) -> KernelResult<()> {
        let raw = serde_json::to_vec(&*self.meta.read())
            .map_err(|_| KernelError::with_context(Errno::Io, "ext4sim: metadata serialization"))?;
        if raw.len() > CHECKPOINT.max_body_len() {
            return Err(KernelError::with_context(Errno::NoSpc, "ext4sim: metadata area full"));
        }
        let seq = self.checkpoint_seq.load(Ordering::Relaxed) + 1;
        CHECKPOINT.write(&*self.dev, seq, &raw)?;
        self.checkpoint_seq.store(seq, Ordering::Relaxed);
        self.unrecorded_frees.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// Quarantines freed blocks until the next checkpoint is durable.
    fn quarantine_free(&self, blocks: impl IntoIterator<Item = u64>) {
        self.pending_free.lock().extend(blocks);
    }

    fn alloc_block(&self, meta: &mut Metadata) -> KernelResult<u64> {
        if let Some(b) = meta.free_blocks.pop() {
            return Ok(b);
        }
        if meta.next_block >= self.dev.num_blocks() {
            return Err(KernelError::with_context(Errno::NoSpc, "ext4sim: out of space"));
        }
        let b = meta.next_block;
        meta.next_block += 1;
        Ok(b)
    }

    fn inode_attr(&self, ino: u64) -> KernelResult<InodeAttr> {
        let meta = self.meta.read();
        let inode = meta.inodes.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
        Ok(inode.attr(ino))
    }

    /// Queues a data block write into the running transaction, committing
    /// when the transaction is large enough.
    fn journal_block(&self, home: u64, data: Vec<u8>) -> KernelResult<()> {
        let should_commit = {
            let _stage = simkernel::trace::phase(simkernel::trace::Phase::LogStage);
            let mut txn = self.txn.lock();
            txn.blocks.push((home, data));
            txn.blocks.len() >= COMMIT_THRESHOLD_BLOCKS
        };
        if should_commit {
            self.commit()?;
        }
        Ok(())
    }

    fn note_metadata_change(&self) {
        self.txn.lock().metadata_dirty = true;
    }

    /// Commits the running transaction: journal writes, flush (commit
    /// record), install to home locations, metadata checkpoint, flush.
    /// Once the final barrier lands, the quarantined frees of earlier
    /// transactions become allocatable again.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn commit(&self) -> KernelResult<()> {
        // The committer's clock carries the whole transaction: waiting for
        // the commit lock and writing the journal/install/checkpoint
        // barriers are all commit wait (device time nests under dev-io).
        let _commit = simkernel::trace::phase(simkernel::trace::Phase::CommitWait);
        // One commit at a time: interleaved checkpoints would race on the
        // alternating slots.
        let _serial = self.commit_lock.lock();
        let (blocks, metadata_dirty) = {
            let mut txn = self.txn.lock();
            if txn.blocks.is_empty() && !txn.metadata_dirty {
                return Ok(());
            }
            (std::mem::take(&mut txn.blocks), std::mem::take(&mut txn.metadata_dirty))
        };
        // 1. Journal the data (data=journal: every block is written to the
        //    journal area first).
        for (i, (_, data)) in blocks.iter().enumerate() {
            let slot = JOURNAL_START + (i as u64 % JOURNAL_BLOCKS);
            self.dev.write_block(slot, data)?;
        }
        // 2. Commit record / barrier.
        self.dev.flush()?;
        // 3. Install to home locations.
        for (home, data) in &blocks {
            self.dev.write_block(*home, data)?;
        }
        // 4. Checkpoint metadata if it changed, then barrier.  Drain the
        //    quarantine *before* serializing: a block in the quarantine now
        //    had its metadata removal completed earlier, so the checkpoint
        //    we are about to write records it as gone; blocks freed by
        //    concurrent operations after this point stay quarantined for
        //    the next checkpoint (the checkpoint being written might not
        //    record their removal yet).
        let released = if metadata_dirty {
            std::mem::take(&mut *self.pending_free.lock())
        } else {
            Vec::new()
        };
        if metadata_dirty {
            self.checkpoint_metadata()?;
        }
        self.dev.flush()?;
        // 5. The checkpoint recording the drained frees is durable: they
        //    are safe to reallocate.
        if !released.is_empty() {
            self.meta.write().free_blocks.extend(released);
            self.unrecorded_frees.store(true, Ordering::Relaxed);
        }
        let mut stats = self.stats.lock();
        stats.commits += 1;
        stats.blocks_journaled += blocks.len() as u64;
        Ok(())
    }

    /// Verifies the structural invariants of the in-memory metadata (after
    /// a crash-image mount, this is the recovered checkpoint): directory
    /// tree connectivity, reference/link-count agreement, and block
    /// ownership (no double claims, no free-list overlap, no out-of-range
    /// blocks).  Blocks that are neither claimed nor free are *leaked* —
    /// the legal residue of the free-quarantine dying in a crash — and are
    /// counted, not treated as errors.
    pub fn check_consistency(&self) -> ConsistencyReport {
        let meta = self.meta.read();
        let pending: HashSet<u64> = self.pending_free.lock().iter().copied().collect();
        let mut report = ConsistencyReport::default();
        if !meta.inodes.get(&1).is_some_and(|i| i.is_dir()) {
            report.errors.push("root inode missing or not a directory".to_string());
            return report;
        }
        // Walk the tree: reference counts and reachability.
        let mut refs: HashMap<u64, u64> = HashMap::new();
        let mut reached: HashSet<u64> = HashSet::new();
        let mut queue = vec![1u64];
        while let Some(ino) = queue.pop() {
            if !reached.insert(ino) {
                report.errors.push(format!("directory {ino} reached twice (cycle or double link)"));
                continue;
            }
            let Some(dir) = meta.inodes.get(&ino) else { continue };
            for (name, child) in &dir.entries {
                match meta.inodes.get(child) {
                    None => report.errors.push(format!(
                        "dir {ino}: entry '{name}' references missing inode {child}"
                    )),
                    Some(target) => {
                        *refs.entry(*child).or_default() += 1;
                        if target.is_dir() {
                            queue.push(*child);
                        }
                    }
                }
            }
        }
        // Link counts and block claims.
        let mut claims: HashMap<u64, u64> = HashMap::new();
        for (&ino, inode) in &meta.inodes {
            let r = refs.get(&ino).copied().unwrap_or(0);
            if ino != 1 && r == 0 {
                report.errors.push(format!("inode {ino} is unreachable from the root"));
            }
            if inode.is_dir() {
                if r > 1 {
                    report.errors.push(format!("directory {ino} referenced {r} times"));
                }
                let subdirs = inode
                    .entries
                    .values()
                    .filter(|c| meta.inodes.get(c).is_some_and(|i| i.is_dir()))
                    .count() as u32;
                if inode.nlink != 2 + subdirs {
                    report.errors.push(format!(
                        "directory {ino}: nlink {} != 2 + {subdirs} subdirs",
                        inode.nlink
                    ));
                }
            } else if inode.nlink as u64 != r {
                report
                    .errors
                    .push(format!("file {ino}: nlink {} != {r} referencing entries", inode.nlink));
            }
            let size_pages = inode.size.div_ceil(PAGE_SIZE as u64);
            for (&page, &block) in &inode.blocks {
                if block < self.data_start || block >= meta.next_block {
                    report.errors.push(format!("inode {ino} maps out-of-range block {block}"));
                }
                if page >= size_pages {
                    report
                        .errors
                        .push(format!("inode {ino} maps page {page} past its size {}", inode.size));
                }
                if let Some(prev) = claims.insert(block, ino) {
                    report
                        .errors
                        .push(format!("block {block} doubly claimed by inodes {prev} and {ino}"));
                }
            }
        }
        // Free list vs claims, then the leak census.
        let mut free: HashSet<u64> = HashSet::new();
        for &b in &meta.free_blocks {
            if b < self.data_start || b >= meta.next_block {
                report.errors.push(format!("free list holds out-of-range block {b}"));
            }
            if !free.insert(b) {
                report.errors.push(format!("block {b} appears twice in the free list"));
            }
            if let Some(owner) = claims.get(&b) {
                report.errors.push(format!("block {b} is both free and claimed by inode {owner}"));
            }
        }
        for b in self.data_start..meta.next_block {
            if !claims.contains_key(&b) && !free.contains(&b) && !pending.contains(&b) {
                report.leaked_blocks += 1;
            }
        }
        report
    }

    fn lookup_in(&self, dir: u64, name: &str) -> KernelResult<u64> {
        let meta = self.meta.read();
        let parent = meta.inodes.get(&dir).ok_or(KernelError::new(Errno::NoEnt))?;
        if !parent.is_dir() {
            return Err(KernelError::new(Errno::NotDir));
        }
        parent.entries.get(name).copied().ok_or(KernelError::new(Errno::NoEnt))
    }
}

impl VfsFs for Ext4Sim {
    fn fs_name(&self) -> &str {
        EXT4_NAME
    }

    fn root_ino(&self) -> u64 {
        1
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Lets the metrics-publishing harness recover the concrete handle
        // and absorb [`Ext4Sim::journal_stats`] into the unified registry.
        Some(self)
    }

    fn lookup(&self, dir: u64, name: &str) -> KernelResult<InodeAttr> {
        let ino = self.lookup_in(dir, name)?;
        self.inode_attr(ino)
    }

    fn getattr(&self, ino: u64) -> KernelResult<InodeAttr> {
        self.inode_attr(ino)
    }

    fn setattr(&self, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr> {
        if let Some(size) = set.size {
            let mut meta = self.meta.write();
            let inode = meta.inodes.get_mut(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            if inode.is_dir() {
                return Err(KernelError::new(Errno::IsDir));
            }
            let mut freed = Vec::new();
            if size < inode.size {
                let first_invalid = size.div_ceil(PAGE_SIZE as u64);
                freed.extend(inode.blocks.range(first_invalid..).map(|(_, b)| *b));
                inode.blocks.retain(|page, _| *page < first_invalid);
            }
            inode.size = size;
            drop(meta);
            self.quarantine_free(freed);
            self.note_metadata_change();
        }
        self.inode_attr(ino)
    }

    fn create(&self, dir: u64, name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
        let mut meta = self.meta.write();
        let ino = meta.next_ino;
        {
            let parent = meta.inodes.get_mut(&dir).ok_or(KernelError::new(Errno::NoEnt))?;
            if !parent.is_dir() {
                return Err(KernelError::new(Errno::NotDir));
            }
            if parent.entries.contains_key(name) {
                return Err(KernelError::new(Errno::Exist));
            }
            parent.entries.insert(name.to_string(), ino);
        }
        meta.next_ino += 1;
        meta.inodes.insert(ino, Ext4Inode::new_file());
        drop(meta);
        self.note_metadata_change();
        self.inode_attr(ino)
    }

    fn mkdir(&self, dir: u64, name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
        let mut meta = self.meta.write();
        let ino = meta.next_ino;
        {
            let parent = meta.inodes.get_mut(&dir).ok_or(KernelError::new(Errno::NoEnt))?;
            if !parent.is_dir() {
                return Err(KernelError::new(Errno::NotDir));
            }
            if parent.entries.contains_key(name) {
                return Err(KernelError::new(Errno::Exist));
            }
            parent.entries.insert(name.to_string(), ino);
            parent.nlink += 1;
        }
        meta.next_ino += 1;
        meta.inodes.insert(ino, Ext4Inode::new_dir());
        drop(meta);
        self.note_metadata_change();
        self.inode_attr(ino)
    }

    fn unlink(&self, dir: u64, name: &str) -> KernelResult<()> {
        let mut meta = self.meta.write();
        let ino = {
            let parent = meta.inodes.get_mut(&dir).ok_or(KernelError::new(Errno::NoEnt))?;
            let ino = *parent.entries.get(name).ok_or(KernelError::new(Errno::NoEnt))?;
            if meta.inodes.get(&ino).is_some_and(|i| i.is_dir()) {
                return Err(KernelError::new(Errno::IsDir));
            }
            meta.inodes.get_mut(&dir).expect("parent exists").entries.remove(name);
            ino
        };
        let remove = {
            let inode = meta.inodes.get_mut(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            inode.nlink = inode.nlink.saturating_sub(1);
            inode.nlink == 0
        };
        let mut freed = Vec::new();
        if remove {
            if let Some(inode) = meta.inodes.remove(&ino) {
                freed.extend(inode.blocks.values().copied());
            }
        }
        drop(meta);
        self.quarantine_free(freed);
        self.note_metadata_change();
        Ok(())
    }

    fn rmdir(&self, dir: u64, name: &str) -> KernelResult<()> {
        let mut meta = self.meta.write();
        let ino = {
            let parent = meta.inodes.get(&dir).ok_or(KernelError::new(Errno::NoEnt))?;
            *parent.entries.get(name).ok_or(KernelError::new(Errno::NoEnt))?
        };
        {
            let target = meta.inodes.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            if !target.is_dir() {
                return Err(KernelError::new(Errno::NotDir));
            }
            if !target.entries.is_empty() {
                return Err(KernelError::new(Errno::NotEmpty));
            }
        }
        meta.inodes.remove(&ino);
        let parent = meta.inodes.get_mut(&dir).expect("parent exists");
        parent.entries.remove(name);
        parent.nlink = parent.nlink.saturating_sub(1);
        drop(meta);
        self.note_metadata_change();
        Ok(())
    }

    fn rename(&self, olddir: u64, oldname: &str, newdir: u64, newname: &str) -> KernelResult<()> {
        let mut meta = self.meta.write();
        let src = {
            let parent = meta.inodes.get(&olddir).ok_or(KernelError::new(Errno::NoEnt))?;
            *parent.entries.get(oldname).ok_or(KernelError::new(Errno::NoEnt))?
        };
        // Replace target if present.
        let mut freed = Vec::new();
        if let Some(target) = meta.inodes.get(&newdir).and_then(|p| p.entries.get(newname)).copied()
        {
            if target != src {
                let target_inode =
                    meta.inodes.get(&target).ok_or(KernelError::new(Errno::NoEnt))?;
                if target_inode.is_dir() && !target_inode.entries.is_empty() {
                    return Err(KernelError::new(Errno::NotEmpty));
                }
                if let Some(removed) = meta.inodes.remove(&target) {
                    if removed.is_dir() {
                        if let Some(parent) = meta.inodes.get_mut(&newdir) {
                            parent.nlink = parent.nlink.saturating_sub(1);
                        }
                    }
                    freed.extend(removed.blocks.values().copied());
                }
            }
        }
        // A directory moved across parents takes its back-reference along.
        if olddir != newdir && meta.inodes.get(&src).is_some_and(|i| i.is_dir()) {
            if let Some(old_parent) = meta.inodes.get_mut(&olddir) {
                old_parent.nlink = old_parent.nlink.saturating_sub(1);
            }
            if let Some(new_parent) = meta.inodes.get_mut(&newdir) {
                new_parent.nlink += 1;
            }
        }
        meta.inodes.get_mut(&olddir).ok_or(KernelError::new(Errno::NoEnt))?.entries.remove(oldname);
        meta.inodes
            .get_mut(&newdir)
            .ok_or(KernelError::new(Errno::NoEnt))?
            .entries
            .insert(newname.to_string(), src);
        drop(meta);
        self.quarantine_free(freed);
        self.note_metadata_change();
        Ok(())
    }

    fn link(&self, ino: u64, newdir: u64, newname: &str) -> KernelResult<InodeAttr> {
        let mut meta = self.meta.write();
        match meta.inodes.get(&ino) {
            None => return Err(KernelError::new(Errno::NoEnt)),
            Some(inode) if inode.is_dir() => return Err(KernelError::new(Errno::Perm)),
            Some(_) => {}
        }
        {
            let parent = meta.inodes.get_mut(&newdir).ok_or(KernelError::new(Errno::NoEnt))?;
            if parent.entries.contains_key(newname) {
                return Err(KernelError::new(Errno::Exist));
            }
            parent.entries.insert(newname.to_string(), ino);
        }
        let inode = meta.inodes.get_mut(&ino).expect("checked above");
        inode.nlink += 1;
        let attr = inode.attr(ino);
        drop(meta);
        self.note_metadata_change();
        Ok(attr)
    }

    fn open(&self, ino: u64, _flags: OpenFlags) -> KernelResult<u64> {
        self.inode_attr(ino)?;
        Ok(ino)
    }

    fn release(&self, _ino: u64, _fh: u64) -> KernelResult<()> {
        Ok(())
    }

    fn readdir(&self, ino: u64) -> KernelResult<Vec<DirEntry>> {
        let meta = self.meta.read();
        let dir = meta.inodes.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
        if !dir.is_dir() {
            return Err(KernelError::new(Errno::NotDir));
        }
        let mut out = vec![
            DirEntry { ino, name: ".".to_string(), kind: FileType::Directory },
            DirEntry { ino: 1, name: "..".to_string(), kind: FileType::Directory },
        ];
        for (name, child) in &dir.entries {
            let kind = if meta.inodes.get(child).is_some_and(|i| i.is_dir()) {
                FileType::Directory
            } else {
                FileType::Regular
            };
            out.push(DirEntry { ino: *child, name: name.clone(), kind });
        }
        Ok(out)
    }

    fn read_page(&self, ino: u64, page_index: u64, buf: &mut [u8]) -> KernelResult<usize> {
        let (block, size) = {
            let meta = self.meta.read();
            let inode = meta.inodes.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            (inode.blocks.get(&page_index).copied(), inode.size)
        };
        let offset = page_index * PAGE_SIZE as u64;
        if offset >= size {
            return Ok(0);
        }
        let valid = ((size - offset) as usize).min(PAGE_SIZE).min(buf.len());
        match block {
            Some(b) => {
                let mut page = vec![0u8; PAGE_SIZE];
                self.dev.read_block(b, &mut page)?;
                buf[..valid].copy_from_slice(&page[..valid]);
            }
            None => buf[..valid].fill(0),
        }
        Ok(valid)
    }

    fn write_page(
        &self,
        ino: u64,
        page_index: u64,
        data: &[u8],
        file_size: u64,
    ) -> KernelResult<()> {
        self.write_pages(ino, &[(page_index, data)], file_size)
    }

    fn write_pages(&self, ino: u64, pages: &[(u64, &[u8])], file_size: u64) -> KernelResult<()> {
        // Allocate (or reuse) a block per page, queue the data into the
        // running journal transaction (data=journal).
        let mut queued = Vec::with_capacity(pages.len());
        {
            let mut meta = self.meta.write();
            for &(page_index, page) in pages {
                if page_index * PAGE_SIZE as u64 >= file_size {
                    continue;
                }
                let block = match meta
                    .inodes
                    .get(&ino)
                    .ok_or(KernelError::new(Errno::NoEnt))?
                    .blocks
                    .get(&page_index)
                {
                    Some(b) => *b,
                    None => {
                        let b = self.alloc_block(&mut meta)?;
                        meta.inodes.get_mut(&ino).expect("exists").blocks.insert(page_index, b);
                        b
                    }
                };
                let mut full = vec![0u8; PAGE_SIZE];
                full[..page.len().min(PAGE_SIZE)]
                    .copy_from_slice(&page[..page.len().min(PAGE_SIZE)]);
                queued.push((block, full));
            }
            let inode = meta.inodes.get_mut(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            inode.size = inode.size.max(file_size);
        }
        self.note_metadata_change();
        for (block, data) in queued {
            self.journal_block(block, data)?;
        }
        Ok(())
    }

    fn supports_writepages(&self) -> bool {
        true
    }

    fn fsync(&self, _ino: u64, _datasync: bool) -> KernelResult<()> {
        // Scoped durability: force one commit of the running transaction.
        self.commit()
    }

    fn statfs(&self) -> KernelResult<StatFs> {
        let meta = self.meta.read();
        let total = self.dev.num_blocks() - self.data_start;
        let used =
            (meta.next_block - self.data_start).saturating_sub(meta.free_blocks.len() as u64);
        Ok(StatFs {
            total_blocks: total,
            free_blocks: total.saturating_sub(used),
            block_size: PAGE_SIZE as u32,
            total_inodes: u32::MAX as u64,
            free_inodes: u32::MAX as u64 - meta.inodes.len() as u64,
            name_max: 255,
        })
    }

    fn sync_fs(&self) -> KernelResult<()> {
        self.commit()
    }

    fn destroy(&self) -> KernelResult<()> {
        self.commit()?;
        // The commit's checkpoint was serialized before its drained
        // quarantine rejoined the free list.  That checkpoint is durable
        // now, so recording the blocks as free is safe — and nothing after
        // unmount would ever do it.
        let _serial = self.commit_lock.lock();
        if self.unrecorded_frees.load(Ordering::Relaxed) {
            self.checkpoint_metadata()?;
            self.dev.flush()?;
        }
        Ok(())
    }
}

/// Mountable type for [`Ext4Sim`].  Mount formats the device if it does not
/// contain a valid metadata checkpoint (convenient for benchmarks), unless
/// the `"format"` option is explicitly `"never"`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ext4FilesystemType;

impl FilesystemType for Ext4FilesystemType {
    fn fs_name(&self) -> &str {
        EXT4_NAME
    }

    fn mount(
        &self,
        device: Arc<dyn BlockDevice>,
        options: &MountOptions,
    ) -> KernelResult<Arc<dyn VfsFs>> {
        match Ext4Sim::mount(Arc::clone(&device)) {
            Ok(fs) => Ok(fs as Arc<dyn VfsFs>),
            Err(_) if options.get("format") != Some("never") => {
                Ok(Ext4Sim::format_and_mount(device)? as Arc<dyn VfsFs>)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;
    use simkernel::vfs::{OpenFlags, Vfs};

    fn fresh() -> Arc<Ext4Sim> {
        Ext4Sim::format_and_mount(Arc::new(RamDisk::new(4096, 32_768))).unwrap()
    }

    #[test]
    fn create_write_read_and_group_commit() {
        let fs = fresh();
        let f = fs.create(1, "a", FileMode::regular()).unwrap();
        let page = vec![0x21u8; PAGE_SIZE];
        fs.write_page(f.ino, 0, &page, 500).unwrap();
        // No fsync yet: nothing committed.
        assert_eq!(fs.journal_stats().commits, 0);
        fs.fsync(f.ino, false).unwrap();
        assert_eq!(fs.journal_stats().commits, 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        assert_eq!(fs.read_page(f.ino, 0, &mut buf).unwrap(), 500);
        assert!(buf[..500].iter().all(|&b| b == 0x21));
    }

    #[test]
    fn many_ops_batch_into_few_commits() {
        let fs = fresh();
        for i in 0..200 {
            let f = fs.create(1, &format!("f{i}"), FileMode::regular()).unwrap();
            fs.write_page(f.ino, 0, &vec![1u8; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        }
        fs.sync_fs().unwrap();
        // Group commit: 200 creates+writes collapse into very few commits.
        assert!(fs.journal_stats().commits <= 2, "commits: {}", fs.journal_stats().commits);
    }

    #[test]
    fn data_survives_remount_after_sync() {
        let dev = Arc::new(RamDisk::new(4096, 32_768));
        {
            let fs = Ext4Sim::format_and_mount(Arc::clone(&dev) as Arc<dyn BlockDevice>).unwrap();
            let f = fs.create(1, "persist", FileMode::regular()).unwrap();
            fs.write_page(f.ino, 0, &vec![0x55u8; PAGE_SIZE], 4096).unwrap();
            fs.sync_fs().unwrap();
        }
        let fs = Ext4Sim::mount(dev as Arc<dyn BlockDevice>).unwrap();
        let f = fs.lookup(1, "persist").unwrap();
        assert_eq!(f.size, 4096);
        let mut buf = vec![0u8; PAGE_SIZE];
        fs.read_page(f.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x55));
        assert!(fs.check_consistency().is_clean(), "{:?}", fs.check_consistency().errors);
    }

    #[test]
    fn checkpoints_alternate_and_survive_a_torn_slot() {
        let dev = Arc::new(RamDisk::new(4096, 32_768));
        {
            let fs = Ext4Sim::format_and_mount(Arc::clone(&dev) as Arc<dyn BlockDevice>).unwrap();
            let f = fs.create(1, "keep", FileMode::regular()).unwrap();
            fs.write_page(f.ino, 0, &vec![0x11u8; PAGE_SIZE], 100).unwrap();
            fs.sync_fs().unwrap(); // checkpoint seq 2 (slot 0; format wrote seq 1)
            fs.create(1, "later", FileMode::regular()).unwrap();
            fs.sync_fs().unwrap(); // checkpoint seq 3 (slot 1)
        }
        // Tear the newest checkpoint (slot 1 = seq 3): corrupt one body
        // byte so its checksum no longer verifies.
        let slot1_body = JOURNAL_START + JOURNAL_BLOCKS + CHECKPOINT_SLOT_BLOCKS + 1;
        let mut block = vec![0u8; PAGE_SIZE];
        dev.read_block(slot1_body, &mut block).unwrap();
        block[0] ^= 0xFF;
        dev.write_block(slot1_body, &block).unwrap();
        // Mount falls back to seq 2: "keep" exists, "later" is gone, and
        // the recovered metadata is structurally consistent.
        let fs = Ext4Sim::mount(Arc::clone(&dev) as Arc<dyn BlockDevice>).unwrap();
        assert_eq!(fs.lookup(1, "keep").unwrap().size, 100);
        assert_eq!(fs.lookup(1, "later").unwrap_err().errno(), Errno::NoEnt);
        assert!(fs.check_consistency().is_clean(), "{:?}", fs.check_consistency().errors);
    }

    #[test]
    fn consistency_checker_flags_planted_corruption() {
        let fs = fresh();
        let a = fs.create(1, "a", FileMode::regular()).unwrap();
        let b = fs.create(1, "b", FileMode::regular()).unwrap();
        fs.write_page(a.ino, 0, &vec![1u8; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        fs.write_page(b.ino, 0, &vec![2u8; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        fs.sync_fs().unwrap();
        assert!(fs.check_consistency().is_clean());
        // Plant a double claim: point b's page at a's block.
        {
            let mut meta = fs.meta.write();
            let a_block = *meta.inodes.get(&a.ino).unwrap().blocks.get(&0).unwrap();
            meta.inodes.get_mut(&b.ino).unwrap().blocks.insert(0, a_block);
        }
        let report = fs.check_consistency();
        assert!(report.errors.iter().any(|e| e.contains("doubly claimed")), "{:?}", report.errors);
    }

    #[test]
    fn namespace_ops_and_errors() {
        let fs = fresh();
        let d = fs.mkdir(1, "d", FileMode::directory()).unwrap();
        fs.create(d.ino, "f", FileMode::regular()).unwrap();
        assert_eq!(fs.rmdir(1, "d").unwrap_err().errno(), Errno::NotEmpty);
        fs.rename(d.ino, "f", 1, "g").unwrap();
        fs.rmdir(1, "d").unwrap();
        fs.unlink(1, "g").unwrap();
        assert_eq!(fs.lookup(1, "g").unwrap_err().errno(), Errno::NoEnt);
        assert_eq!(fs.create(1, "x", FileMode::regular()).unwrap().nlink, 1);
        assert_eq!(fs.create(1, "x", FileMode::regular()).unwrap_err().errno(), Errno::Exist);
    }

    #[test]
    fn truncate_returns_blocks() {
        let fs = fresh();
        let f = fs.create(1, "t", FileMode::regular()).unwrap();
        let pages: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; PAGE_SIZE]).collect();
        let set: Vec<(u64, &[u8])> = (0..).zip(pages.iter().map(|p| p.as_slice())).collect();
        fs.write_pages(f.ino, &set, (8 * PAGE_SIZE) as u64).unwrap();
        fs.sync_fs().unwrap();
        let free_before = fs.statfs().unwrap().free_blocks;
        fs.setattr(f.ino, &SetAttr::truncate(PAGE_SIZE as u64)).unwrap();
        // Freed blocks are quarantined until the checkpoint recording the
        // truncate is durable; the next commit releases them.
        assert_eq!(fs.statfs().unwrap().free_blocks, free_before);
        fs.sync_fs().unwrap();
        assert!(fs.statfs().unwrap().free_blocks > free_before);
        assert!(fs.check_consistency().is_clean());
    }

    #[test]
    fn freed_blocks_survive_clean_unmount() {
        // A commit returns its drained quarantine to the free list only
        // after serializing its own checkpoint, so the unmount must record
        // it — or every mass-delete + remount cycle leaks the blocks.
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, 32_768));
        let initial_free = {
            let fs = Ext4Sim::format_and_mount(Arc::clone(&dev)).unwrap();
            let free = fs.statfs().unwrap().free_blocks;
            fs.destroy().unwrap();
            free
        };
        for round in 0..10 {
            let fs = Ext4Sim::mount(Arc::clone(&dev)).unwrap();
            assert_eq!(fs.statfs().unwrap().free_blocks, initial_free, "round {round}");
            assert_eq!(fs.check_consistency().leaked_blocks, 0, "round {round}");
            for i in 0..32 {
                let f = fs.create(1, &format!("f{i}"), FileMode::regular()).unwrap();
                let page = vec![i as u8; PAGE_SIZE];
                let set: Vec<(u64, &[u8])> = (0..4).map(|index| (index, &page[..])).collect();
                fs.write_pages(f.ino, &set, 4 * PAGE_SIZE as u64).unwrap();
            }
            fs.sync_fs().unwrap();
            for i in 0..32 {
                fs.unlink(1, &format!("f{i}")).unwrap();
            }
            fs.destroy().unwrap();
        }
        let fs = Ext4Sim::mount(dev).unwrap();
        assert_eq!(fs.statfs().unwrap().free_blocks, initial_free);
        let report = fs.check_consistency();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.leaked_blocks, 0);
    }

    #[test]
    fn full_stack_through_vfs() {
        let vfs = Vfs::default();
        vfs.register_filesystem(Arc::new(Ext4FilesystemType)).unwrap();
        vfs.mount(EXT4_NAME, Arc::new(RamDisk::new(4096, 32_768)), "/", &MountOptions::default())
            .unwrap();
        vfs.mkdir("/var").unwrap();
        let fd = vfs.open("/var/log.txt", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, &vec![9u8; 100_000]).unwrap();
        vfs.fsync(fd).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.stat("/var/log.txt").unwrap().size, 100_000);
        vfs.unmount("/").unwrap();
    }
}
