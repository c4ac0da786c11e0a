//! # ext4sim — the "commercial-grade" comparator
//!
//! The paper compares its xv6 implementations against ext4 mounted with
//! `data=journal` "to understand ballpark performance differences" (§6).
//! Real ext4 is far outside the scope of a reproduction, so this crate
//! provides a deliberately simplified journaling file system that captures
//! the properties responsible for ext4 beating xv6 in the paper's
//! macrobenchmarks:
//!
//! * a **JBD2-style journal with group commit** — the workspace's shared
//!   [`journal::Journal`], bound with [`GroupClose::OnFlush`]: operations
//!   join the running transaction (one journal group), which commits on
//!   `fsync`, `sync`, unmount, or when it nears one group's capacity —
//!   instead of xv6's commit-per-operation;
//! * **`data=journal`** semantics: file data is journaled (written twice),
//!   like the paper's ext4 configuration and like xv6's log, in the same
//!   group as the metadata blocks that map it;
//! * **scoped fsync**: `fsync` forces one journal commit (one device
//!   flush), never a whole-file-system scan;
//! * a batched `write_pages` writeback path.
//!
//! ## On-disk layout
//!
//! | blocks                         | contents                                   |
//! |--------------------------------|--------------------------------------------|
//! | 0                              | superblock (magic, device size), by format |
//! | 1 ..                           | the journal's ring of four commit regions  |
//! | [`TABLE_START`] ..             | inode table                                |
//! | [`DATA_START`] ..              | file data and inode overflow blocks        |
//!
//! A table block holds 32 slots of 128 bytes; slot 0 is the block's stamp
//! (mount reads the table up to the first unstamped block).  An inode's
//! slot holds its kind, nlink, size, parent and *body* — a file's extents
//! or a directory's entries, in a compact binary encoding — inline when
//! the body fits, otherwise in a chain of overflow blocks the inode owns,
//! allocated like data.  Inode numbers are reused lowest first, so the
//! table stays bounded.
//!
//! Simplifications relative to real ext4 (documented in EXPERIMENTS.md):
//! the working copy of all metadata lives in memory, so namespace
//! operations are map mutations; there are no block groups, bitmaps or
//! htree directories.  The free-block and free-inode sets are derived from
//! the table at mount, so neither is persisted and a crash cannot leak a
//! block.
//!
//! ## Commit and crash consistency
//!
//! A commit re-encodes the inodes dirtied since the last one, logs the
//! metadata blocks whose bytes changed — one journal operation, chunked at
//! [`MAX_OP_BLOCKS`] — into the group that already holds the data they map,
//! and flushes the journal: one barrier.  The journal installs a group's
//! blocks lazily, three commits later, and not at all when a newer commit
//! re-logged them, so a home on the device may be older than its committed
//! bytes: ext4sim keeps no block cache, and [`read_page`](VfsFs::read_page)
//! reads data blocks through [`Journal::read_home`].  Mount is journal
//! recovery plus a table read; unmount checkpoints, installing what is
//! pending.  Blocks an operation frees are *quarantined* until the
//! commit that records the free returns: a concurrent operation that
//! reused one between the commit's encode and its group close would
//! otherwise overwrite a block the recovered metadata still maps.
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
//! map behind one `RwLock`, and all device I/O — the commit's metadata
//! operation and journal flush — happens strictly *after* the metadata
//! guard is dropped (the commit holds it only to encode; write-back holds
//! it only to map its pages, inside the journal operation it then stages
//! the data in).  The critical sections are a few `HashMap` operations
//! long; splitting them per directory would require sharding the one
//! `inodes` map (every inode lives behind the same `&mut Metadata`) for no
//! measurable win, and cross-directory rename would then need its own
//! ordering discipline.  Directories reach the device only as encoded
//! bodies at commit time; if directory operations ever read or write
//! blocks themselves (block-group layout, htree directories), this
//! decision must be revisited.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use journal::io::{DeviceIo, JournalIo};
use journal::record::{get_u32, get_u64, put_u32, put_u64, BSIZE, LOG_HEAD_MAX_ENTRIES};
use journal::{GroupClose, Journal, JournalConfig, PlantedFault, MAX_OP_BLOCKS};
use simkernel::dev::BlockDevice;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{
    DirEntry, FileMode, FileType, FilesystemType, InodeAttr, OpenFlags, SetAttr, StatFs, VfsFs,
    WritePathStats, WritebackFile, PAGE_SIZE,
};

/// Registered name of the simulated ext4.
pub const EXT4_NAME: &str = "ext4sim";

/// Block 0: the superblock, [`SUPER_MAGIC`] and the device size.
const SUPERBLOCK: u64 = 0;
const SUPER_MAGIC: u64 = 0x6578_7434_7369_6d21; // "ext4sim!"
/// First block of the journal's log area.
const LOG_START: u64 = 1;
/// The log area: a ring of [`journal::REGIONS`] (four) commit regions,
/// each a header block and the most blocks one commit record can name.
const LOG_BLOCKS: u64 = journal::REGIONS as u64 * (LOG_HEAD_MAX_ENTRIES as u64 + 1);
/// First block of the inode table.
pub const TABLE_START: u64 = LOG_START + LOG_BLOCKS;
const TABLE_BLOCKS: u64 = 1024;
/// First block of the data area (file data and inode overflow blocks).
pub const DATA_START: u64 = TABLE_START + TABLE_BLOCKS;

/// Bytes per inode slot, and slots per table block.
const SLOT: usize = 128;
const SLOTS: u64 = (BSIZE / SLOT) as u64;
/// Slot 0 of every table block in use holds this stamp instead of an inode.
const TABLE_MAGIC: u64 = 0x6578_7434_7461_626c; // "ext4tabl"
/// Slot fields (little-endian): kind `u8`, nlink `u32`, size `u64`, parent
/// `u32`, first overflow block `u32`, body length `u32`, inline body.
const SLOT_NLINK: usize = 4;
const SLOT_SIZE: usize = 8;
const SLOT_PARENT: usize = 16;
const SLOT_CHAIN: usize = 20;
const SLOT_BODY_LEN: usize = 24;
const SLOT_BODY: usize = 28;
const KIND_FILE: u8 = 1;
const KIND_DIR: u8 = 2;
/// An overflow block is a `u32` link to the next one, then body bytes.
const CHAIN_PAYLOAD: usize = BSIZE - 4;
/// Bytes of one file extent: page, block and length as `u32`s.
const EXTENT: usize = 12;

const ROOT_INO: u64 = 1;
const NAME_MAX: usize = 255;

/// The running transaction commits before it could outgrow one journal
/// group (1 016 blocks): its data blocks, a worst-case operation more and
/// one block per dirty inode stay below this.
const COMMIT_THRESHOLD: usize = LOG_HEAD_MAX_ENTRIES - 2 * MAX_OP_BLOCKS;

/// The journal geometry ext4sim lays out on a device of `disk_blocks`
/// blocks: the log area after the superblock, homes legal from the inode
/// table to the end of the device, and groups that close only when
/// ext4sim flushes the journal.
pub fn journal_config(disk_blocks: u64) -> JournalConfig {
    let log = LOG_BLOCKS as usize;
    JournalConfig {
        close: GroupClose::OnFlush,
        ..JournalConfig::from_geometry(LOG_START, log, log, (TABLE_START, disk_blocks))
    }
}

fn no_space() -> KernelError {
    KernelError::with_context(Errno::NoSpc, "ext4sim: out of space")
}

fn corrupt() -> KernelError {
    KernelError::with_context(Errno::Inval, "ext4sim: corrupt inode table")
}

/// A name a new entry may take: at most [`NAME_MAX`] bytes, and neither
/// `.` nor `..`, which every directory already has.
fn check_new_name(name: &str) -> KernelResult<()> {
    if name == "." || name == ".." {
        return Err(KernelError::new(Errno::Exist));
    }
    if name.len() > NAME_MAX {
        return Err(KernelError::new(Errno::NameTooLong));
    }
    Ok(())
}

/// Whether the running transaction must commit before it takes another
/// worst-case operation: `pending` data blocks logged, `dirty` inodes to
/// encode.
fn over_threshold(pending: usize, dirty: usize) -> bool {
    pending + MAX_OP_BLOCKS + dirty > COMMIT_THRESHOLD
}

/// Every metadata block's bytes as the last successful commit logged them
/// (or mount read them).
type Image = HashMap<u64, Vec<u8>>;

#[derive(Debug, Clone)]
struct Ext4Inode {
    dir: bool,
    size: u64,
    nlink: u32,
    /// The containing directory (directories only: what `..` names).
    parent: u64,
    /// file page index -> disk block
    blocks: BTreeMap<u64, u64>,
    /// directory entries (directories only)
    entries: BTreeMap<String, u64>,
    /// Overflow blocks holding the encoded body when it does not fit the
    /// slot, in chain order.
    chain: Vec<u64>,
}

impl Ext4Inode {
    fn new(dir: bool, parent: u64) -> Self {
        Ext4Inode {
            dir,
            size: 0,
            nlink: if dir { 2 } else { 1 },
            parent,
            blocks: BTreeMap::new(),
            entries: BTreeMap::new(),
            chain: Vec::new(),
        }
    }

    fn attr(&self, ino: u64) -> InodeAttr {
        InodeAttr {
            ino,
            kind: if self.dir { FileType::Directory } else { FileType::Regular },
            size: self.size,
            nlink: self.nlink,
            blocks: (self.blocks.len() as u64) * (PAGE_SIZE as u64 / 512),
            perm: if self.dir { 0o755 } else { 0o644 },
        }
    }

    /// Every block this inode owns: its data and its overflow chain.
    fn owned(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.values().chain(&self.chain).copied()
    }

    /// The body: a file's extents as (page, block, length) `u32` triples,
    /// a directory's entries as (inode `u32`, name length `u8`, name).
    fn body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if self.dir {
            for (name, &ino) in &self.entries {
                out.extend_from_slice(&(ino as u32).to_le_bytes());
                out.push(name.len() as u8);
                out.extend_from_slice(name.as_bytes());
            }
            return out;
        }
        let mut push = |(page, block, len): (u64, u64, u64)| {
            for field in [page, block, len] {
                out.extend_from_slice(&(field as u32).to_le_bytes());
            }
        };
        let mut run: Option<(u64, u64, u64)> = None;
        for (&page, &block) in &self.blocks {
            match &mut run {
                Some((first, start, len)) if *first + *len == page && *start + *len == block => {
                    *len += 1;
                }
                _ => run.replace((page, block, 1)).into_iter().for_each(&mut push),
            }
        }
        run.into_iter().for_each(push);
        out
    }

    /// Parses a body written by [`Ext4Inode::body`]; `None` if malformed
    /// or if an extent leaves the data area of a device of `end` blocks.
    fn set_body(&mut self, mut body: &[u8], end: u64) -> Option<()> {
        while !body.is_empty() {
            if self.dir {
                let len = *body.get(4)? as usize;
                let name = std::str::from_utf8(body.get(5..5 + len)?).ok()?;
                self.entries.insert(name.to_string(), get_u32(body, 0) as u64);
                body = &body[5 + len..];
            } else {
                let extent = body.get(..EXTENT)?;
                let [page, block, len] = [0, 4, 8].map(|off| get_u32(extent, off) as u64);
                if block < DATA_START || block + len > end {
                    return None;
                }
                self.blocks.extend((0..len).map(|i| (page + i, block + i)));
                body = &body[EXTENT..];
            }
        }
        Some(())
    }

    /// Writes this inode into its (zeroed) table `slot`, growing or
    /// shrinking its overflow chain to fit the body — surplus blocks join
    /// `released` — and appends the chain blocks whose bytes differ from
    /// `image` to `logged`.
    fn encode(
        &mut self,
        slot: &mut [u8],
        blocks: &mut Alloc,
        image: &Image,
        released: &mut Vec<u64>,
        logged: &mut Vec<(u64, Vec<u8>)>,
    ) -> KernelResult<()> {
        let body = self.body();
        slot[0] = if self.dir { KIND_DIR } else { KIND_FILE };
        put_u32(slot, SLOT_NLINK, self.nlink);
        put_u64(slot, SLOT_SIZE, self.size);
        put_u32(slot, SLOT_PARENT, self.parent as u32);
        put_u32(slot, SLOT_BODY_LEN, body.len() as u32);
        let inline = body.len() <= SLOT - SLOT_BODY;
        let needed = if inline { 0 } else { body.len().div_ceil(CHAIN_PAYLOAD) };
        while self.chain.len() < needed {
            self.chain.push(blocks.alloc().ok_or_else(no_space)?);
        }
        released.extend(self.chain.drain(needed..));
        if inline {
            slot[SLOT_BODY..][..body.len()].copy_from_slice(&body);
            return Ok(());
        }
        put_u32(slot, SLOT_CHAIN, self.chain[0] as u32);
        for (i, chunk) in body.chunks(CHAIN_PAYLOAD).enumerate() {
            let mut bytes = vec![0u8; BSIZE];
            put_u32(&mut bytes, 0, self.chain.get(i + 1).map_or(0, |&next| next as u32));
            bytes[4..][..chunk.len()].copy_from_slice(chunk);
            if image.get(&self.chain[i]) != Some(&bytes) {
                logged.push((self.chain[i], bytes));
            }
        }
        Ok(())
    }

    /// Reads the inode in table `slot` (and its overflow chain from `io`),
    /// recording every chain block it reads in `image`; `None` for a free
    /// slot.
    fn load(
        io: &DeviceIo,
        slot: &[u8],
        end: u64,
        image: &mut Image,
    ) -> KernelResult<Option<Ext4Inode>> {
        let dir = match slot[0] {
            0 => return Ok(None),
            KIND_FILE => false,
            KIND_DIR => true,
            _ => return Err(corrupt()),
        };
        let mut inode = Ext4Inode {
            size: get_u64(slot, SLOT_SIZE),
            nlink: get_u32(slot, SLOT_NLINK),
            ..Ext4Inode::new(dir, get_u32(slot, SLOT_PARENT) as u64)
        };
        let len = get_u32(slot, SLOT_BODY_LEN) as usize;
        let mut body = slot.get(SLOT_BODY..SLOT_BODY + len).unwrap_or_default().to_vec();
        let mut next = get_u32(slot, SLOT_CHAIN) as u64;
        while body.len() < len {
            // A chain longer than the data area has a cycle.
            if !(DATA_START..end).contains(&next) || inode.chain.len() as u64 >= end - DATA_START {
                return Err(corrupt());
            }
            let mut block = vec![0u8; BSIZE];
            io.read_block(next, &mut block)?;
            body.extend_from_slice(&block[4..][..(len - body.len()).min(CHAIN_PAYLOAD)]);
            inode.chain.push(next);
            next = get_u32(&block, 0) as u64;
            image.insert(*inode.chain.last().expect("just pushed"), block);
        }
        inode.set_body(&body, end).ok_or_else(corrupt)?;
        Ok(Some(inode))
    }
}

/// Lowest-first allocator of numbered resources (inodes, blocks): freed
/// numbers below `next` first, then `next` itself, up to `end`.
#[derive(Debug)]
struct Alloc {
    free: BTreeSet<u64>,
    next: u64,
    end: u64,
}

impl Alloc {
    /// The allocator mount derives: every `usable` number in
    /// `[first, end)` below one past the highest `used` one is free unless
    /// used.
    fn derive(first: u64, end: u64, used: &HashSet<u64>, usable: impl Fn(u64) -> bool) -> Self {
        let next = used.iter().filter(|&&n| n >= first && n < end).max().map_or(first, |&n| n + 1);
        let free = (first..next).filter(|&n| usable(n) && !used.contains(&n)).collect();
        Alloc { free, next, end }
    }

    fn alloc(&mut self) -> Option<u64> {
        if let Some(n) = self.free.pop_first() {
            return Some(n);
        }
        (self.next < self.end).then(|| {
            self.next += 1;
            self.next - 1
        })
    }
}

#[derive(Debug)]
struct Metadata {
    inodes: HashMap<u64, Ext4Inode>,
    /// Inodes changed since the last commit encoded them (removed ones
    /// included: their slots must be cleared).
    dirty: HashSet<u64>,
    inos: Alloc,
    blocks: Alloc,
}

impl Metadata {
    fn dir_mut(&mut self, dir: u64) -> KernelResult<&mut Ext4Inode> {
        let inode = self.inodes.get_mut(&dir).ok_or(KernelError::new(Errno::NoEnt))?;
        if !inode.dir {
            return Err(KernelError::new(Errno::NotDir));
        }
        Ok(inode)
    }

    /// The lowest free inode number (slot 0 of each table block is its
    /// stamp, never an inode).
    fn alloc_ino(&mut self) -> KernelResult<u64> {
        loop {
            let ino = self
                .inos
                .alloc()
                .ok_or_else(|| KernelError::with_context(Errno::NoSpc, "ext4sim: out of inodes"))?;
            if ino % SLOTS != 0 {
                return Ok(ino);
            }
        }
    }

    /// Drops `ino`, whose last link is gone: its number is free at once,
    /// and the blocks it owned are returned for the quarantine.
    fn remove(&mut self, ino: u64) -> Vec<u64> {
        self.dirty.insert(ino);
        self.inos.free.insert(ino);
        self.inodes.remove(&ino).map(|inode| inode.owned().collect()).unwrap_or_default()
    }

    /// Re-encodes the `dirty` inodes into their table slots and overflow
    /// chains, returning every metadata block whose bytes differ from
    /// `image`: what the commit must log.
    fn encode(
        &mut self,
        dirty: &HashSet<u64>,
        image: &Image,
        released: &mut Vec<u64>,
    ) -> KernelResult<Vec<(u64, Vec<u8>)>> {
        let mut logged = Vec::new();
        let mut tables: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for &ino in dirty {
            let home = TABLE_START + ino / SLOTS;
            let table = tables
                .entry(home)
                .or_insert_with(|| image.get(&home).cloned().unwrap_or_else(|| vec![0u8; BSIZE]));
            let slot = &mut table[(ino % SLOTS) as usize * SLOT..][..SLOT];
            slot.fill(0);
            if let Some(inode) = self.inodes.get_mut(&ino) {
                inode.encode(slot, &mut self.blocks, image, released, &mut logged)?;
            }
        }
        // A table block's first use stamps it and makes its successor the
        // end-of-table mark, in the same group.
        let mut fresh = Vec::new();
        for (&home, table) in &mut tables {
            if get_u64(table, 0) != TABLE_MAGIC {
                put_u64(table, 0, TABLE_MAGIC);
                fresh.push(home + 1);
            }
        }
        for next in fresh.into_iter().filter(|&next| next < DATA_START) {
            tables.entry(next).or_insert_with(|| vec![0u8; BSIZE]);
        }
        for (home, table) in tables {
            if image.get(&home) != Some(&table) {
                logged.push((home, table));
            }
        }
        Ok(logged)
    }
}

/// Journal statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Committed transactions (journal groups).
    pub commits: u64,
    /// Blocks written through the journal: data and metadata blocks
    /// logged, plus any replayed by recovery.
    pub blocks_journaled: u64,
    /// Home-block installs the journal issued (a block re-logged before
    /// its install fell due is installed once).
    pub installs: u64,
}

/// Outcome of [`Ext4Sim::check_consistency`].
#[derive(Debug, Default)]
pub struct ConsistencyReport {
    /// Structural invariant violations.
    pub errors: Vec<String>,
}

impl ConsistencyReport {
    /// Whether the metadata satisfied every checked invariant.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The simplified ext4-like file system.
pub struct Ext4Sim {
    io: DeviceIo,
    journal: Journal,
    /// All metadata (inodes, directories, allocators) behind one lock.
    /// This is intentionally *not* per-directory: critical sections are
    /// pure in-memory map mutations with device I/O done after the guard
    /// drops — see the "Namespace locking" module docs before changing
    /// this.
    meta: RwLock<Metadata>,
    /// Serializes ext4sim's journal operations (so one never waits for
    /// group space only a flush can free); holds the data blocks logged
    /// since the last commit took the running group over.
    txn: Mutex<usize>,
    /// Serializes commits; holds the metadata [`Image`], so a commit logs
    /// only the blocks whose bytes changed.
    image: Mutex<Image>,
    /// Freed blocks no committed group records as free yet.
    pending_free: Mutex<Vec<u64>>,
}

impl std::fmt::Debug for Ext4Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ext4Sim").field("stats", &self.journal_stats()).finish_non_exhaustive()
    }
}

impl Ext4Sim {
    /// Formats `device` with an empty file system (root directory only) and
    /// mounts it: [`Ext4Sim::format`], then [`Ext4Sim::mount`].
    ///
    /// # Errors
    ///
    /// As [`Ext4Sim::format`] and [`Ext4Sim::mount`].
    pub fn format_and_mount(device: Arc<dyn BlockDevice>) -> KernelResult<Arc<Self>> {
        Self::format(&device)?;
        Self::mount(device)
    }

    /// Formats `device` with an empty file system (root directory only),
    /// committed and checkpointed, so the log is clean.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] for devices too small to hold the journal
    /// and inode table; propagates device errors.
    pub fn format(device: &Arc<dyn BlockDevice>) -> KernelResult<()> {
        let end = device.num_blocks();
        if end <= DATA_START + 16 {
            return Err(KernelError::with_context(Errno::Inval, "ext4sim: device too small"));
        }
        // Clean log headers and an empty table: nothing to replay, nothing
        // to read.  The superblock goes last.
        let config = journal_config(end);
        let mut block = vec![0u8; BSIZE];
        let heads =
            (0..journal::REGIONS as u64).map(|r| config.start + r * config.region_size as u64);
        for home in heads.chain([TABLE_START]) {
            device.write_block(home, &block)?;
        }
        put_u64(&mut block, 0, SUPER_MAGIC);
        put_u64(&mut block, 8, end);
        device.write_block(SUPERBLOCK, &block)?;
        device.flush()?;
        let fs = Self::open(Arc::clone(device), PlantedFault::None)?;
        {
            let mut meta = fs.meta.write();
            let root = meta.alloc_ino()?;
            debug_assert_eq!(root, ROOT_INO);
            meta.inodes.insert(ROOT_INO, Ext4Inode::new(true, ROOT_INO));
            meta.dirty.insert(ROOT_INO);
        }
        fs.commit()?;
        fs.journal.checkpoint(&fs.io)
    }

    /// [`Ext4Sim::format`]s `device` if it is blank (no ext4sim magic in
    /// block 0) and keeps the image otherwise.  A device whose block 0
    /// fails to read returns the error instead of being wiped.
    ///
    /// # Errors
    ///
    /// As [`Ext4Sim::format`].
    pub fn format_if_blank(device: &Arc<dyn BlockDevice>) -> KernelResult<()> {
        let mut block = vec![0u8; BSIZE];
        device.read_block(SUPERBLOCK, &mut block)?;
        if get_u64(&block, 0) == SUPER_MAGIC {
            return Ok(());
        }
        Self::format(device)
    }

    /// Mounts a previously formatted device: journal recovery, then a read
    /// of the inode table.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] if the device holds no ext4sim file system
    /// or its table is corrupt; propagates device errors.
    pub fn mount(device: Arc<dyn BlockDevice>) -> KernelResult<Arc<Self>> {
        Self::mount_planted(device, PlantedFault::None)
    }

    /// [`Ext4Sim::mount`] with a protocol violation planted in the journal
    /// (see [`PlantedFault`]): the crash suites' proof that their oracles
    /// catch it on this stack too.
    ///
    /// # Errors
    ///
    /// As [`Ext4Sim::mount`].
    #[doc(hidden)]
    pub fn mount_planted(
        device: Arc<dyn BlockDevice>,
        fault: PlantedFault,
    ) -> KernelResult<Arc<Self>> {
        let fs = Self::open(device, fault)?;
        if !fs.meta.read().inodes.get(&ROOT_INO).is_some_and(|root| root.dir) {
            return Err(KernelError::with_context(Errno::Inval, "ext4sim: no root directory"));
        }
        Ok(Arc::new(fs))
    }

    fn open(device: Arc<dyn BlockDevice>, fault: PlantedFault) -> KernelResult<Self> {
        let end = device.num_blocks();
        let io = DeviceIo::new(device);
        let mut block = vec![0u8; BSIZE];
        io.read_block(SUPERBLOCK, &mut block)?;
        if get_u64(&block, 0) != SUPER_MAGIC || get_u64(&block, 8) != end {
            return Err(KernelError::with_context(Errno::Inval, "ext4sim: no file system"));
        }
        let mut journal = Journal::new(journal_config(end));
        journal.plant_fault(fault);
        journal.recover(&io)?;
        let mut image = Image::new();
        let mut inodes = HashMap::new();
        for home in TABLE_START..DATA_START {
            io.read_block(home, &mut block)?;
            if get_u64(&block, 0) != TABLE_MAGIC {
                break;
            }
            let first = (home - TABLE_START) * SLOTS;
            for (i, slot) in block.chunks_exact(SLOT).enumerate().skip(1) {
                if let Some(inode) = Ext4Inode::load(&io, slot, end, &mut image)? {
                    inodes.insert(first + i as u64, inode);
                }
            }
            image.insert(home, block.clone());
        }
        let used_blocks: HashSet<u64> = inodes.values().flat_map(Ext4Inode::owned).collect();
        let used_inos: HashSet<u64> = inodes.keys().copied().collect();
        let meta = Metadata {
            inos: Alloc::derive(1, TABLE_BLOCKS * SLOTS, &used_inos, |ino| ino % SLOTS != 0),
            blocks: Alloc::derive(DATA_START, end, &used_blocks, |_| true),
            inodes,
            dirty: HashSet::new(),
        };
        Ok(Ext4Sim {
            io,
            journal,
            meta: RwLock::new(meta),
            txn: Mutex::new(0),
            image: Mutex::new(image),
            pending_free: Mutex::new(Vec::new()),
        })
    }

    /// Journal statistics (for the experiment harness).
    pub fn journal_stats(&self) -> JournalStats {
        let stats = self.journal.stats();
        JournalStats {
            commits: stats.commits,
            blocks_journaled: stats.blocks_logged,
            installs: stats.installs,
        }
    }

    /// Quarantines freed blocks until the commit recording the free
    /// returns.
    fn quarantine(&self, blocks: Vec<u64>) {
        if !blocks.is_empty() {
            self.pending_free.lock().extend(blocks);
        }
    }

    /// Commits the running transaction once it nears one group's capacity;
    /// `dirty` is the dirty-inode count the caller saw.
    fn after_change(&self, dirty: usize) -> KernelResult<()> {
        if over_threshold(*self.txn.lock(), dirty) {
            self.commit()
        } else {
            Ok(())
        }
    }

    /// Commits the running transaction: the changed metadata blocks of the
    /// inodes dirtied since the last commit join the data already in the
    /// running group, and the journal flushes it (one barrier).  Once the
    /// flush returns, the quarantined frees this commit recorded become
    /// allocatable.  A commit with nothing to log does no I/O.
    ///
    /// # Errors
    ///
    /// Propagates device errors; the inodes then stay dirty and the frees
    /// quarantined, for the next commit.
    pub fn commit(&self) -> KernelResult<()> {
        // The committer's clock carries the whole transaction: waiting for
        // an earlier commit, encoding, and the journal's flush are all
        // commit wait (device time nests under dev-io).
        let _commit = simkernel::trace::phase(simkernel::trace::Phase::CommitWait);
        let mut image = self.image.lock();
        // Frees whose metadata removal already happened: the encode below
        // records them.  Later frees wait for the next commit.
        let mut released = std::mem::take(&mut *self.pending_free.lock());
        let (dirty, encoded) = {
            let mut meta = self.meta.write();
            let dirty = std::mem::take(&mut meta.dirty);
            let encoded = meta.encode(&dirty, &image, &mut released);
            (dirty, encoded)
        };
        match encoded.and_then(|logged| self.log_and_flush(&logged).map(|()| logged)) {
            Ok(logged) => {
                for block in &released {
                    image.remove(block);
                }
                image.extend(logged);
                self.meta.write().blocks.free.extend(released);
                Ok(())
            }
            Err(e) => {
                self.meta.write().dirty.extend(dirty);
                self.pending_free.lock().extend(released);
                Err(e)
            }
        }
    }

    /// Logs a commit's metadata blocks as one journal operation (chunked at
    /// [`MAX_OP_BLOCKS`]), then flushes the group.  The transaction gate is
    /// held while logging, so no other operation can take the room the
    /// chunks were checked to fit in.
    fn log_and_flush(&self, logged: &[(u64, Vec<u8>)]) -> KernelResult<()> {
        {
            let mut pending = self.txn.lock();
            let capacity = self.journal.region_capacity();
            if *pending + logged.len() + MAX_OP_BLOCKS > capacity {
                // The data already in the group and this metadata would not
                // fit one group: commit the data first.  Data no committed
                // metadata maps yet is harmless on its own.
                self.journal.flush(&self.io)?;
            }
            if logged.len() + MAX_OP_BLOCKS > capacity {
                return Err(KernelError::with_context(
                    Errno::NoSpc,
                    "ext4sim: metadata transaction too large for the journal",
                ));
            }
            for chunk in logged.chunks(MAX_OP_BLOCKS) {
                self.journal.begin_op();
                let staged =
                    chunk.iter().try_for_each(|(home, bytes)| self.journal.log_write(*home, bytes));
                let ended = self.journal.end_op(&self.io);
                staged.and(ended)?;
            }
            *pending = 0;
        }
        self.journal.flush(&self.io)
    }

    /// Writes back one chunk of at most [`MAX_OP_BLOCKS`] pages as one
    /// journal operation (data=journal), committing first if the running
    /// transaction could not take it.
    fn log_pages(&self, ino: u64, pages: &[(u64, &[u8])], file_size: u64) -> KernelResult<()> {
        let mut pending = self.txn.lock();
        while over_threshold(*pending, self.meta.read().dirty.len()) {
            drop(pending);
            self.commit()?;
            pending = self.txn.lock();
        }
        self.journal.begin_op();
        let staged = self.map_and_stage(ino, pages, file_size);
        let ended = self.journal.end_op(&self.io);
        *pending += pages.len();
        staged.and(ended)
    }

    /// Maps `pages` to blocks — *inside* the journal operation: a commit
    /// that encodes the mapping then flushes, which drains this operation
    /// into the same group — and stages their bytes.
    fn map_and_stage(&self, ino: u64, pages: &[(u64, &[u8])], file_size: u64) -> KernelResult<()> {
        let mut staged = Vec::with_capacity(pages.len());
        {
            let mut guard = self.meta.write();
            let meta = &mut *guard;
            let inode = meta.inodes.get_mut(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            for &(page_index, page) in pages {
                if page_index * PAGE_SIZE as u64 >= file_size {
                    continue;
                }
                // Extents record page indexes as `u32`.
                if page_index > u64::from(u32::MAX) {
                    return Err(KernelError::new(Errno::FBig));
                }
                let home = match inode.blocks.entry(page_index) {
                    btree_map::Entry::Occupied(e) => *e.get(),
                    btree_map::Entry::Vacant(e) => {
                        *e.insert(meta.blocks.alloc().ok_or_else(no_space)?)
                    }
                };
                staged.push((home, page));
            }
            inode.size = inode.size.max(file_size);
            meta.dirty.insert(ino);
        }
        for (home, page) in staged {
            if let Some(whole) = page.get(..PAGE_SIZE) {
                self.journal.log_write(home, whole)?;
            } else {
                let mut whole = [0u8; PAGE_SIZE];
                whole[..page.len()].copy_from_slice(page);
                self.journal.log_write(home, &whole)?;
            }
        }
        Ok(())
    }

    /// Verifies the structural invariants of the in-memory metadata (after
    /// a crash-image mount, this is the recovered table): directory tree
    /// connectivity and `..` back-references, reference/link-count
    /// agreement, and block ownership — no double claims, nothing out of
    /// range, and every unclaimed block below the allocator's high-water
    /// mark free or quarantined, never leaked.
    pub fn check_consistency(&self) -> ConsistencyReport {
        let meta = self.meta.read();
        let quarantined: HashSet<u64> = self.pending_free.lock().iter().copied().collect();
        let mut report = ConsistencyReport::default();
        if !meta.inodes.get(&ROOT_INO).is_some_and(|root| root.dir && root.parent == ROOT_INO) {
            report.errors.push("root inode missing, not a directory, or reparented".to_string());
            return report;
        }
        // Walk the tree: reference counts, reachability, back-references.
        let mut refs: HashMap<u64, u64> = HashMap::new();
        let mut reached: HashSet<u64> = HashSet::new();
        let mut queue = vec![ROOT_INO];
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
                        if target.dir {
                            if target.parent != ino {
                                report.errors.push(format!(
                                    "directory {child} is listed in {ino} but its '..' is {}",
                                    target.parent
                                ));
                            }
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
            if ino != ROOT_INO && r == 0 {
                report.errors.push(format!("inode {ino} is unreachable from the root"));
            }
            if meta.inos.free.contains(&ino) {
                report.errors.push(format!("inode {ino} is both live and free"));
            }
            if inode.dir {
                if r > 1 {
                    report.errors.push(format!("directory {ino} referenced {r} times"));
                }
                let subdirs = inode
                    .entries
                    .values()
                    .filter(|c| meta.inodes.get(c).is_some_and(|i| i.dir))
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
            if let Some((&page, _)) = inode.blocks.range(size_pages..).next() {
                report
                    .errors
                    .push(format!("inode {ino} maps page {page} past its size {}", inode.size));
            }
            for block in inode.owned() {
                if !(DATA_START..meta.blocks.next).contains(&block) {
                    report.errors.push(format!("inode {ino} owns out-of-range block {block}"));
                }
                if let Some(prev) = claims.insert(block, ino) {
                    report
                        .errors
                        .push(format!("block {block} doubly claimed by inodes {prev} and {ino}"));
                }
            }
        }
        for block in DATA_START..meta.blocks.next {
            let free = meta.blocks.free.contains(&block);
            match claims.get(&block) {
                Some(owner) if free || quarantined.contains(&block) => report
                    .errors
                    .push(format!("block {block} is both free and claimed by inode {owner}")),
                None if !free && !quarantined.contains(&block) => {
                    report.errors.push(format!("block {block} is leaked"));
                }
                _ => {}
            }
        }
        report
    }

    fn lookup_in(&self, dir: u64, name: &str) -> KernelResult<u64> {
        let meta = self.meta.read();
        let parent = meta.inodes.get(&dir).ok_or(KernelError::new(Errno::NoEnt))?;
        if !parent.dir {
            return Err(KernelError::new(Errno::NotDir));
        }
        match name {
            "." => Ok(dir),
            ".." => Ok(parent.parent),
            _ => parent.entries.get(name).copied().ok_or(KernelError::new(Errno::NoEnt)),
        }
    }

    fn inode_attr(&self, ino: u64) -> KernelResult<InodeAttr> {
        let meta = self.meta.read();
        let inode = meta.inodes.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
        Ok(inode.attr(ino))
    }

    /// `create` and `mkdir`.
    fn add_entry(&self, dir: u64, name: &str, is_dir: bool) -> KernelResult<InodeAttr> {
        check_new_name(name)?;
        let mut meta = self.meta.write();
        if meta.dir_mut(dir)?.entries.contains_key(name) {
            return Err(KernelError::new(Errno::Exist));
        }
        let ino = meta.alloc_ino()?;
        let parent = meta.dir_mut(dir)?;
        parent.entries.insert(name.to_string(), ino);
        parent.nlink += u32::from(is_dir);
        let inode = Ext4Inode::new(is_dir, if is_dir { dir } else { 0 });
        let attr = inode.attr(ino);
        meta.inodes.insert(ino, inode);
        meta.dirty.extend([dir, ino]);
        let dirty = meta.dirty.len();
        drop(meta);
        self.after_change(dirty)?;
        Ok(attr)
    }
}

impl VfsFs for Ext4Sim {
    fn fs_name(&self) -> &str {
        EXT4_NAME
    }

    fn root_ino(&self) -> u64 {
        ROOT_INO
    }

    fn write_path_stats(&self) -> Option<WritePathStats> {
        Some(self.journal.stats().write_path_stats())
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
            if inode.dir {
                return Err(KernelError::new(Errno::IsDir));
            }
            let freed: Vec<u64> = if size < inode.size {
                inode.blocks.split_off(&size.div_ceil(PAGE_SIZE as u64)).into_values().collect()
            } else {
                Vec::new()
            };
            inode.size = size;
            meta.dirty.insert(ino);
            let dirty = meta.dirty.len();
            drop(meta);
            self.quarantine(freed);
            self.after_change(dirty)?;
        }
        self.inode_attr(ino)
    }

    fn create(&self, dir: u64, name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
        self.add_entry(dir, name, false)
    }

    fn mkdir(&self, dir: u64, name: &str, _mode: FileMode) -> KernelResult<InodeAttr> {
        self.add_entry(dir, name, true)
    }

    fn unlink(&self, dir: u64, name: &str) -> KernelResult<()> {
        let mut meta = self.meta.write();
        let ino = *meta.dir_mut(dir)?.entries.get(name).ok_or(KernelError::new(Errno::NoEnt))?;
        let inode = meta.inodes.get_mut(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
        if inode.dir {
            return Err(KernelError::new(Errno::IsDir));
        }
        inode.nlink = inode.nlink.saturating_sub(1);
        let freed = if inode.nlink == 0 { meta.remove(ino) } else { Vec::new() };
        meta.dir_mut(dir)?.entries.remove(name);
        meta.dirty.extend([dir, ino]);
        let dirty = meta.dirty.len();
        drop(meta);
        self.quarantine(freed);
        self.after_change(dirty)
    }

    fn rmdir(&self, dir: u64, name: &str) -> KernelResult<()> {
        let mut meta = self.meta.write();
        let ino = *meta.dir_mut(dir)?.entries.get(name).ok_or(KernelError::new(Errno::NoEnt))?;
        let target = meta.inodes.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
        if !target.dir {
            return Err(KernelError::new(Errno::NotDir));
        }
        if !target.entries.is_empty() {
            return Err(KernelError::new(Errno::NotEmpty));
        }
        let freed = meta.remove(ino);
        let parent = meta.dir_mut(dir)?;
        parent.entries.remove(name);
        parent.nlink = parent.nlink.saturating_sub(1);
        meta.dirty.insert(dir);
        let dirty = meta.dirty.len();
        drop(meta);
        self.quarantine(freed);
        self.after_change(dirty)
    }

    fn rename(&self, olddir: u64, oldname: &str, newdir: u64, newname: &str) -> KernelResult<()> {
        check_new_name(newname)?;
        let mut meta = self.meta.write();
        let src =
            *meta.dir_mut(olddir)?.entries.get(oldname).ok_or(KernelError::new(Errno::NoEnt))?;
        let target = meta.dir_mut(newdir)?.entries.get(newname).copied();
        if target == Some(src) {
            // Two links to one file: POSIX leaves both in place.
            return Ok(());
        }
        let mut freed = Vec::new();
        if let Some(target) = target {
            let inode = meta.inodes.get_mut(&target).ok_or(KernelError::new(Errno::NoEnt))?;
            if inode.dir && !inode.entries.is_empty() {
                return Err(KernelError::new(Errno::NotEmpty));
            }
            inode.nlink = inode.nlink.saturating_sub(1);
            let (dir, gone) = (inode.dir, inode.dir || inode.nlink == 0);
            if dir {
                meta.dir_mut(newdir)?.nlink -= 1;
            }
            if gone {
                freed = meta.remove(target);
            }
            meta.dirty.insert(target);
        }
        // A directory moved across parents takes its back-reference along.
        let src_inode = meta.inodes.get_mut(&src).ok_or(KernelError::new(Errno::NoEnt))?;
        if src_inode.dir && olddir != newdir {
            src_inode.parent = newdir;
            meta.dir_mut(olddir)?.nlink -= 1;
            meta.dir_mut(newdir)?.nlink += 1;
            meta.dirty.insert(src);
        }
        meta.dir_mut(olddir)?.entries.remove(oldname);
        meta.dir_mut(newdir)?.entries.insert(newname.to_string(), src);
        meta.dirty.extend([olddir, newdir]);
        let dirty = meta.dirty.len();
        drop(meta);
        self.quarantine(freed);
        self.after_change(dirty)
    }

    fn link(&self, ino: u64, newdir: u64, newname: &str) -> KernelResult<InodeAttr> {
        check_new_name(newname)?;
        let mut meta = self.meta.write();
        match meta.inodes.get(&ino) {
            None => return Err(KernelError::new(Errno::NoEnt)),
            Some(inode) if inode.dir => return Err(KernelError::new(Errno::Perm)),
            Some(_) => {}
        }
        let parent = meta.dir_mut(newdir)?;
        if parent.entries.contains_key(newname) {
            return Err(KernelError::new(Errno::Exist));
        }
        parent.entries.insert(newname.to_string(), ino);
        let inode = meta.inodes.get_mut(&ino).expect("checked above");
        inode.nlink += 1;
        let attr = inode.attr(ino);
        meta.dirty.extend([ino, newdir]);
        let dirty = meta.dirty.len();
        drop(meta);
        self.after_change(dirty)?;
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
        if !dir.dir {
            return Err(KernelError::new(Errno::NotDir));
        }
        let mut out = vec![
            DirEntry { ino, name: ".".to_string(), kind: FileType::Directory },
            DirEntry { ino: dir.parent, name: "..".to_string(), kind: FileType::Directory },
        ];
        for (name, child) in &dir.entries {
            let kind = if meta.inodes.get(child).is_some_and(|i| i.dir) {
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
        let page = buf.get_mut(..PAGE_SIZE).ok_or(KernelError::new(Errno::Inval))?;
        let valid = ((size - offset) as usize).min(PAGE_SIZE);
        match block {
            // The caller's page is the read buffer; past EOF it stays zero.
            // The journal serves a block whose install is still pending.
            Some(b) => {
                self.journal.read_home(&self.io, b, page)?;
                page[valid..].fill(0);
            }
            None => page[..valid].fill(0),
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
        self.write_pages(&[(ino, &[(page_index, data)], file_size)])
    }

    fn write_pages(&self, files: &[WritebackFile<'_>]) -> KernelResult<()> {
        // File by file, as Linux `sync` calls `writepages` per inode.
        files.iter().try_for_each(|&(ino, pages, file_size)| {
            if pages.is_empty() {
                return self.log_pages(ino, pages, file_size);
            }
            pages.chunks(MAX_OP_BLOCKS).try_for_each(|chunk| self.log_pages(ino, chunk, file_size))
        })
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
        let total = meta.blocks.end - DATA_START;
        let used = (meta.blocks.next - DATA_START) - meta.blocks.free.len() as u64;
        let total_inodes = TABLE_BLOCKS * (SLOTS - 1);
        Ok(StatFs {
            total_blocks: total,
            free_blocks: total - used,
            block_size: PAGE_SIZE as u32,
            total_inodes,
            free_inodes: total_inodes - meta.inodes.len() as u64,
            name_max: NAME_MAX as u32,
        })
    }

    fn sync_fs(&self) -> KernelResult<()> {
        self.commit()
    }

    fn destroy(&self) -> KernelResult<()> {
        self.commit()?;
        self.journal.checkpoint(&self.io)
    }
}

/// Mountable type for [`Ext4Sim`].  Mount formats only a blank device
/// ([`Ext4Sim::format_if_blank`]); a device that fails to read or holds a
/// damaged image returns the error instead of being wiped.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ext4FilesystemType;

impl FilesystemType for Ext4FilesystemType {
    fn fs_name(&self) -> &str {
        EXT4_NAME
    }

    fn mount(&self, device: Arc<dyn BlockDevice>) -> KernelResult<Arc<dyn VfsFs>> {
        Ext4Sim::format_if_blank(&device)?;
        Ok(Ext4Sim::mount(device)? as Arc<dyn VfsFs>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use journal::record::{parse_head, LOG_HEAD_COUNT_OFF};
    use simkernel::dev::RamDisk;
    use simkernel::vfs::{OpenFlags, Vfs};

    const DISK: u64 = DATA_START + 4096;

    fn fresh() -> Arc<Ext4Sim> {
        Ext4Sim::format_and_mount(Arc::new(RamDisk::new(4096, DISK))).unwrap()
    }

    fn write_file(fs: &Ext4Sim, dir: u64, name: &str, pages: u64, fill: u8) -> InodeAttr {
        let f = fs.create(dir, name, FileMode::regular()).unwrap();
        let page = vec![fill; PAGE_SIZE];
        let set: Vec<(u64, &[u8])> = (0..pages).map(|index| (index, &page[..])).collect();
        fs.write_pages(&[(f.ino, &set, pages * PAGE_SIZE as u64)]).unwrap();
        f
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
        let mut buf = vec![0xFFu8; PAGE_SIZE];
        assert_eq!(fs.read_page(f.ino, 0, &mut buf).unwrap(), 500);
        assert!(buf[..500].iter().all(|&b| b == 0x21));
        assert!(buf[500..].iter().all(|&b| b == 0), "past EOF the page reads zero");
    }

    #[test]
    fn read_page_sees_a_committed_rewrite_before_its_install() {
        // The page cache is bypassed: the first bytes are installed, the
        // rewrite is committed but its install is three commits away, and
        // read_page must still return the rewrite.
        let fs = fresh();
        let f = write_file(&fs, 1, "a", 1, 0x11);
        fs.fsync(f.ino, false).unwrap();
        fs.journal.checkpoint(&fs.io).unwrap();
        fs.write_page(f.ino, 0, &[0x22; PAGE_SIZE], PAGE_SIZE as u64).unwrap();
        fs.fsync(f.ino, false).unwrap();
        let block = fs.meta.read().inodes[&f.ino].blocks[&0];
        let mut page = vec![0u8; PAGE_SIZE];
        fs.io.read_block(block, &mut page).unwrap();
        assert_eq!(page[0], 0x11, "the home still holds the installed bytes");
        assert_eq!(fs.read_page(f.ino, 0, &mut page).unwrap(), PAGE_SIZE);
        assert!(page.iter().all(|&b| b == 0x22), "read_page returned the stale home");
    }

    #[test]
    fn many_ops_batch_into_few_commits() {
        let fs = fresh();
        for i in 0..200 {
            write_file(&fs, 1, &format!("f{i}"), 1, 1);
        }
        fs.sync_fs().unwrap();
        // Group commit: 200 creates+writes collapse into very few commits.
        assert!(fs.journal_stats().commits <= 2, "commits: {}", fs.journal_stats().commits);
    }

    #[test]
    fn data_survives_remount_after_sync() {
        let dev = Arc::new(RamDisk::new(4096, DISK));
        {
            let fs = Ext4Sim::format_and_mount(Arc::clone(&dev) as Arc<dyn BlockDevice>).unwrap();
            let d = fs.mkdir(1, "d", FileMode::directory()).unwrap();
            write_file(&fs, d.ino, "persist", 1, 0x55);
            fs.sync_fs().unwrap();
        }
        let fs = Ext4Sim::mount(dev as Arc<dyn BlockDevice>).unwrap();
        let d = fs.lookup(1, "d").unwrap();
        let f = fs.lookup(d.ino, "persist").unwrap();
        assert_eq!(f.size, 4096);
        let mut buf = vec![0u8; PAGE_SIZE];
        fs.read_page(f.ino, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x55));
        assert!(fs.check_consistency().is_clean(), "{:?}", fs.check_consistency().errors);
    }

    #[test]
    fn a_commit_logs_only_the_metadata_blocks_it_changed() {
        let fs = fresh();
        let dirs: Vec<u64> = (0..4)
            .map(|i| fs.mkdir(1, &format!("d{i}"), FileMode::directory()).unwrap().ino)
            .collect();
        for (i, &dir) in dirs.iter().enumerate() {
            for j in 0..64 {
                write_file(&fs, dir, &format!("message-{i}-{j}"), 2, j as u8);
            }
        }
        fs.sync_fs().unwrap();
        let before = fs.journal_stats();
        // One appended page: the page, and the one table block holding the
        // file's slot (no directory, no neighbour's overflow block).
        let f = fs.lookup(dirs[2], "message-2-7").unwrap();
        fs.write_page(f.ino, 2, &vec![7u8; PAGE_SIZE], 3 * PAGE_SIZE as u64).unwrap();
        fs.fsync(f.ino, false).unwrap();
        let after = fs.journal_stats();
        assert_eq!(
            (after.commits - before.commits, after.blocks_journaled - before.blocks_journaled),
            (1, 2)
        );
        // A delivery: its page, its own table block, and the directory's
        // slot (another table block) and entry block.
        write_file(&fs, dirs[0], "message-0-new", 1, 9);
        fs.sync_fs().unwrap();
        assert_eq!(fs.journal_stats().blocks_journaled - after.blocks_journaled, 4);
        // Nothing changed: the commit does no I/O at all.
        let before = (fs.journal_stats(), fs.io.device().stats());
        fs.sync_fs().unwrap();
        assert_eq!((fs.journal_stats(), fs.io.device().stats()), before);
    }

    #[test]
    fn inode_numbers_are_reused_lowest_first_and_the_table_stays_bounded() {
        let fs = fresh();
        let inos: Vec<u64> = (0..40)
            .map(|i| fs.create(1, &format!("f{i}"), FileMode::regular()).unwrap().ino)
            .collect();
        assert!(inos.iter().all(|ino| ino % SLOTS != 0), "slot 0 of a table block is its stamp");
        fs.unlink(1, "f3").unwrap();
        fs.unlink(1, "f1").unwrap();
        assert_eq!(fs.create(1, "g", FileMode::regular()).unwrap().ino, inos[1]);
        assert_eq!(fs.create(1, "h", FileMode::regular()).unwrap().ino, inos[3]);
        fs.sync_fs().unwrap();
        let used = fs.image.lock().keys().filter(|&&b| b < DATA_START).count();
        assert_eq!(used, 3, "two table blocks in use and the end-of-table mark");
        assert!(fs.check_consistency().is_clean(), "{:?}", fs.check_consistency().errors);
    }

    #[test]
    fn large_bodies_overflow_into_chains_and_shrink_back() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, DISK));
        {
            let fs = Ext4Sim::format_and_mount(Arc::clone(&dev)).unwrap();
            let d = fs.mkdir(1, "big", FileMode::directory()).unwrap();
            for i in 0..400 {
                fs.create(d.ino, &format!("a-rather-long-entry-name-{i:04}"), FileMode::regular())
                    .unwrap();
            }
            // A sparse file: one extent per page.
            let f = fs.create(1, "sparse", FileMode::regular()).unwrap();
            let page = vec![3u8; PAGE_SIZE];
            let set: Vec<(u64, &[u8])> = (0..20).map(|i| (2 * i, &page[..])).collect();
            fs.write_pages(&[(f.ino, &set, 40 * PAGE_SIZE as u64)]).unwrap();
            fs.destroy().unwrap();
        }
        let fs = Ext4Sim::mount(Arc::clone(&dev)).unwrap();
        let d = fs.lookup(1, "big").unwrap();
        assert_eq!(fs.readdir(d.ino).unwrap().len(), 402);
        assert!(fs.meta.read().inodes[&d.ino].chain.len() >= 4);
        let f = fs.lookup(1, "sparse").unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert_eq!(fs.read_page(f.ino, 38, &mut buf).unwrap(), PAGE_SIZE);
        assert!(buf.iter().all(|&b| b == 3));
        assert!(fs.check_consistency().is_clean(), "{:?}", fs.check_consistency().errors);
        // Emptied, the directory's body is inline again and its chain free.
        let free = fs.statfs().unwrap().free_blocks;
        for i in 0..400 {
            fs.unlink(d.ino, &format!("a-rather-long-entry-name-{i:04}")).unwrap();
        }
        fs.sync_fs().unwrap();
        assert!(fs.meta.read().inodes[&d.ino].chain.is_empty());
        assert!(fs.statfs().unwrap().free_blocks >= free + 4);
        assert!(fs.check_consistency().is_clean(), "{:?}", fs.check_consistency().errors);
    }

    #[test]
    fn a_torn_commit_record_falls_back_to_the_last_whole_commit() {
        // A crash right after a commit's barrier leaves its record on the
        // medium and its installs undone; recovery replays it.  The same
        // crash with one byte of the record's payload lost replays nothing
        // and mounts the state before the commit.
        for torn in [false, true] {
            let dev = Arc::new(RamDisk::new(4096, DISK));
            let dyn_dev = Arc::clone(&dev) as Arc<dyn BlockDevice>;
            let fs = Ext4Sim::format_and_mount(Arc::clone(&dyn_dev)).unwrap();
            write_file(&fs, 1, "keep", 1, 0x11);
            fs.sync_fs().unwrap();
            let before: Vec<Vec<u8>> = (TABLE_START..DISK)
                .map(|b| {
                    let mut block = vec![0u8; BSIZE];
                    dev.read_block(b, &mut block).unwrap();
                    block
                })
                .collect();
            write_file(&fs, 1, "later", 1, 0x22);
            fs.sync_fs().unwrap();
            drop(fs);
            // "keep" committed into region 0, "later" into region 1.
            let config = journal_config(DISK);
            let head_block = config.start + config.region_size as u64;
            let mut head = vec![0u8; BSIZE];
            dev.read_block(head_block, &mut head).unwrap();
            assert!(get_u32(&head, LOG_HEAD_COUNT_OFF) > 0);
            let record = parse_head(&head, config.capacity).unwrap();
            for &home in &record.homes {
                dev.write_block(home, &before[(home - TABLE_START) as usize]).unwrap();
            }
            if torn {
                let mut copy = vec![0u8; BSIZE];
                dev.read_block(head_block + 1, &mut copy).unwrap();
                copy[BSIZE - 1] ^= 0xFF;
                dev.write_block(head_block + 1, &copy).unwrap();
            }
            let fs = Ext4Sim::mount(Arc::clone(&dyn_dev)).unwrap();
            assert_eq!(fs.lookup(1, "keep").unwrap().size, 4096);
            assert_eq!(fs.lookup(1, "later").is_ok(), !torn, "torn {torn}");
            assert!(fs.check_consistency().is_clean(), "{:?}", fs.check_consistency().errors);
        }
    }

    #[test]
    fn consistency_checker_flags_planted_corruption() {
        let fs = fresh();
        let a = write_file(&fs, 1, "a", 1, 1);
        let b = write_file(&fs, 1, "b", 1, 2);
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
        assert!(report.errors.iter().any(|e| e.contains("leaked")), "{:?}", report.errors);
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
        assert_eq!(fs.create(1, "..", FileMode::regular()).unwrap_err().errno(), Errno::Exist);
        let long = "n".repeat(NAME_MAX + 1);
        assert_eq!(
            fs.create(1, &long, FileMode::regular()).unwrap_err().errno(),
            Errno::NameTooLong
        );
        // Renaming a hard link over its sibling leaves both; renaming over
        // one of two links drops only that link.
        let x = fs.lookup(1, "x").unwrap();
        fs.link(x.ino, 1, "y").unwrap();
        fs.rename(1, "x", 1, "y").unwrap();
        assert_eq!(fs.lookup(1, "x").unwrap().nlink, 2);
        fs.create(1, "z", FileMode::regular()).unwrap();
        fs.rename(1, "z", 1, "y").unwrap();
        assert_eq!(fs.lookup(1, "x").unwrap().nlink, 1);
        assert!(fs.check_consistency().is_clean(), "{:?}", fs.check_consistency().errors);
    }

    #[test]
    fn truncate_returns_blocks() {
        let fs = fresh();
        let f = write_file(&fs, 1, "t", 8, 4);
        fs.sync_fs().unwrap();
        let free_before = fs.statfs().unwrap().free_blocks;
        fs.setattr(f.ino, &SetAttr::truncate(PAGE_SIZE as u64)).unwrap();
        // Freed blocks are quarantined until the commit recording the
        // truncate returns; the next commit releases them.
        assert_eq!(fs.statfs().unwrap().free_blocks, free_before);
        assert!(fs.check_consistency().is_clean());
        fs.sync_fs().unwrap();
        assert_eq!(fs.statfs().unwrap().free_blocks, free_before + 7);
        assert!(fs.check_consistency().is_clean());
    }

    #[test]
    fn freed_blocks_survive_clean_unmount() {
        // Every free is recorded by the commit that releases it, and mount
        // derives the free set from the table: a mass-delete + remount
        // cycle gives back every block.
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, DISK));
        let initial_free = {
            let fs = Ext4Sim::format_and_mount(Arc::clone(&dev)).unwrap();
            let free = fs.statfs().unwrap().free_blocks;
            fs.destroy().unwrap();
            free
        };
        for round in 0..10 {
            let fs = Ext4Sim::mount(Arc::clone(&dev)).unwrap();
            assert_eq!(fs.statfs().unwrap().free_blocks, initial_free, "round {round}");
            for i in 0..32 {
                write_file(&fs, 1, &format!("f{i}"), 4, i as u8);
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
    }

    #[test]
    fn full_stack_through_vfs() {
        let vfs = Vfs::default();
        vfs.register_filesystem(Arc::new(Ext4FilesystemType)).unwrap();
        vfs.mount(EXT4_NAME, Arc::new(RamDisk::new(4096, DISK)), "/").unwrap();
        vfs.mkdir("/var").unwrap();
        let fd = vfs.open("/var/log.txt", OpenFlags::RDWR.with(OpenFlags::CREAT)).unwrap();
        vfs.write(fd, &vec![9u8; 100_000]).unwrap();
        vfs.fsync(fd).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.stat("/var/log.txt").unwrap().size, 100_000);
        vfs.unmount("/").unwrap();
    }
}
