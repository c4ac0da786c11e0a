//! The mid-level machinery of the file system: inode I/O, block mapping
//! (direct / indirect / double-indirect), byte-granular file reads and
//! writes, and truncation.  Everything here runs inside transactions managed
//! by the caller (see [`crate::ops`]).

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use bento::bentoks::SuperBlock;
use journal::PlantedFault;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::nslock::DirLockTable;
use simkernel::shard::{resolve_shards, ShardedMap, StripedCounter};

use crate::inode::{InodeCache, InodeData};
use crate::layout::{
    get_u32, put_u32, Dinode, DiskSuperblock, BSIZE, MAXFILE, NDIRECT, NINDIRECT, T_FREE,
};
use crate::log::Log;

/// Counters describing file system activity, transferred across online
/// upgrades and reported by the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FsStats {
    /// File/directory creations.
    pub creates: u64,
    /// Unlinks and rmdirs.
    pub removes: u64,
    /// Bytes written through `write`.
    pub bytes_written: u64,
    /// Bytes read through `read`.
    pub bytes_read: u64,
    /// fsync calls.
    pub fsyncs: u64,
}

/// Striped hot-path counters behind [`FsStats`]: every operation bumps one
/// of these, so they live on cache-line-padded stripes instead of a global
/// mutex.
#[derive(Debug, Default)]
pub struct FsCounters {
    /// File/directory creations.
    pub creates: StripedCounter,
    /// Unlinks and rmdirs.
    pub removes: StripedCounter,
    /// Bytes written through `write`.
    pub bytes_written: StripedCounter,
    /// Bytes read through `read`.
    pub bytes_read: StripedCounter,
    /// fsync calls.
    pub fsyncs: StripedCounter,
}

impl FsCounters {
    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> FsStats {
        FsStats {
            creates: self.creates.get(),
            removes: self.removes.get(),
            bytes_written: self.bytes_written.get(),
            bytes_read: self.bytes_read.get(),
            fsyncs: self.fsyncs.get(),
        }
    }

    /// Overwrites the counters (online-upgrade state transfer; the mount is
    /// quiescent).
    pub fn restore(&self, stats: FsStats) {
        self.creates.reset(stats.creates);
        self.removes.reset(stats.removes);
        self.bytes_written.reset(stats.bytes_written);
        self.bytes_read.reset(stats.bytes_read);
        self.fsyncs.reset(stats.fsyncs);
    }
}

/// Cursor and cached usage counts of one allocation group.
#[derive(Debug, Default)]
pub struct GroupState {
    /// Next data block to start scanning from (0 = group start).
    pub block_hint: u64,
    /// Next inode to start scanning from (0 = group start).
    pub inode_hint: u32,
    /// Cached count of allocated data blocks in this group's range.
    pub used_blocks: Option<u64>,
    /// Cached count of allocated inodes in this group's range.
    pub used_inodes: Option<u64>,
}

/// ext4-style allocation groups: the data-block range and the inode table
/// are partitioned into `G` contiguous groups, each with its own lock,
/// cursor, and cached used-counts.
///
/// The paper notes (§6.1) that the port had to add a lock around inode and
/// block allocation; a single such lock made every concurrent creator and
/// writer contend on one cursor.  Here a thread allocates from a *home*
/// group derived from its thread id (a FUSE daemon worker: from its client's,
/// see [`with_home`]) and only steals from other groups when
/// its own range is exhausted, so disjoint writers touch disjoint cursors
/// (and mostly disjoint bitmap bytes).
#[derive(Debug)]
pub struct AllocGroups {
    data_start: u64,
    size: u64,
    ninodes: u32,
    block_span: u64,
    inode_span: u32,
    groups: Vec<Mutex<GroupState>>,
    /// Allocations (blocks + inodes) served per group, for the experiment
    /// harness's skew diagnostics.
    allocs: Vec<AtomicU64>,
}

thread_local! {
    /// The allocation home of the work running on this thread: the
    /// thread's own id, hashed, except inside [`with_home`].
    static HOME: Cell<u64> = Cell::new({
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        hasher.finish()
    });
}

/// The calling thread's allocation home, which [`AllocGroups::home_group`]
/// maps to a group.  A server that runs file-system calls for its clients
/// on worker threads (the FUSE daemon) sends the client's home with each
/// request and serves it under [`with_home`], so the client, not whichever
/// worker wakes, picks where the request allocates.
pub fn thread_home() -> u64 {
    HOME.with(Cell::get)
}

/// Runs `f` with this thread's allocation home set to `home`.
pub fn with_home<R>(home: u64, f: impl FnOnce() -> R) -> R {
    let own = HOME.with(|h| h.replace(home));
    let result = f();
    HOME.with(|h| h.set(own));
    result
}

impl AllocGroups {
    /// Partitions the geometry of `dsb` into `requested` groups (`0` = the
    /// default shard count; rounded to a power of two and clamped so every
    /// group owns at least one data block and one inode).
    pub fn new(dsb: &DiskSuperblock, data_start: u64, requested: usize) -> Self {
        let size = dsb.size as u64;
        let data_blocks = size.saturating_sub(data_start).max(1);
        let inode_slots = dsb.ninodes.saturating_sub(1).max(1) as u64;
        let mut count = resolve_shards(requested) as u64;
        while count > 1 && (count > data_blocks || count > inode_slots) {
            count /= 2;
        }
        let block_span = data_blocks.div_ceil(count);
        let inode_span = inode_slots.div_ceil(count) as u32;
        AllocGroups {
            data_start,
            size,
            ninodes: dsb.ninodes,
            block_span,
            inode_span,
            groups: (0..count).map(|_| Mutex::new(GroupState::default())).collect(),
            allocs: (0..count).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of allocation groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group this thread allocates from first: that of its
    /// [`thread_home`].
    pub fn home_group(&self) -> usize {
        thread_home() as usize & (self.groups.len() - 1)
    }

    /// Locks group `g`'s cursor state.
    pub fn lock_group(&self, g: usize) -> MutexGuard<'_, GroupState> {
        self.groups[g].lock()
    }

    /// Data-block range `[lo, hi)` owned by group `g`.
    pub fn block_range(&self, g: usize) -> (u64, u64) {
        let lo = self.data_start + g as u64 * self.block_span;
        (lo.min(self.size), (lo + self.block_span).min(self.size))
    }

    /// Inode range `[lo, hi)` owned by group `g` (inode 0 is never used).
    pub fn inode_range(&self, g: usize) -> (u32, u32) {
        let lo = 1 + (g as u32).saturating_mul(self.inode_span);
        (lo.min(self.ninodes), lo.saturating_add(self.inode_span).min(self.ninodes))
    }

    /// The group owning data block `blockno`.
    pub fn group_of_block(&self, blockno: u64) -> usize {
        if blockno < self.data_start {
            return 0;
        }
        (((blockno - self.data_start) / self.block_span) as usize).min(self.groups.len() - 1)
    }

    /// The group owning inode `inum`.
    pub fn group_of_inode(&self, inum: u32) -> usize {
        ((inum.saturating_sub(1) / self.inode_span) as usize).min(self.groups.len() - 1)
    }

    /// Records an allocation served by group `g`.
    pub fn note_alloc(&self, g: usize) {
        self.allocs[g].fetch_add(1, Ordering::Relaxed);
    }

    /// Allocations served per group since mount.
    pub fn allocations_per_group(&self) -> Vec<u64> {
        self.allocs.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    /// Per-group block-allocation hints (for upgrade state transfer).
    pub fn export_hints(&self) -> Vec<(u64, u64)> {
        self.groups
            .iter()
            .map(|g| {
                let g = g.lock();
                (g.block_hint, g.inode_hint as u64)
            })
            .collect()
    }

    /// Restores hints exported by [`AllocGroups::export_hints`]; ignored if
    /// the group count changed across the upgrade.
    pub fn restore_hints(&self, hints: &[(u64, u64)]) {
        if hints.len() != self.groups.len() {
            return;
        }
        for (group, &(block_hint, inode_hint)) in self.groups.iter().zip(hints) {
            let mut g = group.lock();
            g.block_hint = block_hint;
            g.inode_hint = inode_hint as u32;
        }
    }
}

/// The read-mostly half of a mounted file system: everything that is fixed
/// once the superblock has been decoded at mount time.
///
/// No lock protects this struct — none is needed.  It is built once during
/// mount/upgrade-attach, shared behind an `Arc`, and only ever read
/// afterwards, so every operation reaches the geometry (inode-table
/// layout, bitmap placement, device size) without touching a shared cache
/// line in writable mode.  The mutable state of the mount (inode cache,
/// allocation cursors, open tables, directory locks, counters) lives in
/// [`FsCore`], each piece sharded or striped on its own.
#[derive(Debug)]
pub struct FsGeometry {
    /// Decoded on-disk superblock.
    pub dsb: DiskSuperblock,
    /// First data block (cached from `dsb.data_start()`).
    pub data_start: u64,
    /// Resolved allocation-group count applied at mount.
    pub alloc_groups: usize,
}

/// The core of a mounted xv6 file system: immutable geometry
/// ([`FsGeometry`]) plus the sharded mutable state — the log, the inode
/// cache, allocation cursors, open-file tracking, and the per-directory
/// namespace locks.
#[derive(Debug)]
pub struct FsCore {
    /// Immutable-after-mount geometry (superblock, layout, alloc config).
    pub geo: Arc<FsGeometry>,
    /// The write-ahead log.
    pub log: Log,
    /// The inode cache (sharded; see [`InodeCache`]).
    pub icache: InodeCache,
    /// Per-group allocation cursors and counters.
    pub alloc: AllocGroups,
    /// Open handle counts per inode (for deferred free of unlinked files).
    /// Sharded so open/release of different inodes do not contend.
    pub opens: ShardedMap<u32, u32>,
    /// Per-directory namespace locks: directory-tree restructuring
    /// operations lock only the parent directories they modify, in
    /// ascending-inum order (see [`simkernel::nslock`]).
    pub dir_locks: DirLockTable,
    /// Activity counters (striped; see [`FsCounters`]).
    pub stats: FsCounters,
}

/// What a walk of the block map does with an unmapped block.
#[derive(Debug, Clone, Copy)]
enum Alloc<'a> {
    /// Nothing: the block is a hole.
    No,
    /// Allocates it zero-filled (an indirect block).
    Zeroed,
    /// Allocates it as the data block `piece` is written into in this
    /// operation ([`FsCore::balloc_for`]).
    For(&'a [u8]),
}

/// Splits `src`, bound for file offset `offset`, at file-block boundaries:
/// yields `(offset, bytes)` pieces that each lie within one block.
pub(crate) fn block_pieces(offset: u64, src: &[u8]) -> impl Iterator<Item = (u64, &[u8])> {
    let head = (BSIZE - (offset % BSIZE as u64) as usize).min(src.len());
    let (head, rest) = src.split_at(head);
    let rest_at = offset + head.len() as u64;
    let rest = rest.chunks(BSIZE).enumerate().map(move |(i, p)| (rest_at + (i * BSIZE) as u64, p));
    std::iter::once((offset, head)).chain(rest).filter(|(_, piece)| !piece.is_empty())
}

impl FsCore {
    /// Builds the in-memory core from a decoded superblock with the default
    /// allocation-group count.
    pub fn new(dsb: DiskSuperblock) -> Self {
        FsCore::with_alloc_groups(dsb, 0)
    }

    /// Builds the core with an explicit allocation-group count (`0` =
    /// default; rounded to a power of two).
    pub fn with_alloc_groups(dsb: DiskSuperblock, alloc_groups: usize) -> Self {
        let data_start = dsb.data_start();
        let alloc = AllocGroups::new(&dsb, data_start, alloc_groups);
        let geo = Arc::new(FsGeometry { data_start, alloc_groups: alloc.group_count(), dsb });
        FsCore {
            log: Log::new(&geo.dsb),
            alloc,
            geo,
            icache: InodeCache::new(),
            opens: ShardedMap::new(0),
            dir_locks: DirLockTable::new(),
            stats: FsCounters::default(),
        }
    }

    /// The decoded on-disk superblock (immutable after mount).
    pub fn dsb(&self) -> &DiskSuperblock {
        &self.geo.dsb
    }

    // -- inode I/O -----------------------------------------------------------

    /// Ensures `data` holds the on-disk inode `inum` (the `ilock` read).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns [`Errno::NoEnt`] for a freed inode.
    pub fn load_inode(&self, sb: &SuperBlock, inum: u32, data: &mut InodeData) -> KernelResult<()> {
        if data.valid {
            return Ok(());
        }
        if inum as u64 >= self.dsb().ninodes as u64 {
            return Err(KernelError::with_context(
                Errno::NoEnt,
                "xv6fs: inode number out of range",
            ));
        }
        let block = sb.bread(self.dsb().inode_block(inum))?;
        let dinode = Dinode::decode(block.data(), DiskSuperblock::inode_offset(inum));
        if dinode.ftype == T_FREE {
            return Err(KernelError::with_context(Errno::NoEnt, "xv6fs: inode is free"));
        }
        *data = InodeData::from_dinode(&dinode);
        Ok(())
    }

    /// Writes the in-memory inode back to its disk block through the log
    /// (`iupdate`).  Must be called inside a transaction.
    ///
    /// An inode the buffer already holds byte for byte is neither copied
    /// nor logged: an overwrite inside EOF (an xv6 inode has no
    /// timestamps) or a directory edit that keeps the directory's size
    /// changes no byte of it.  Skipping is safe because the bytes in the
    /// buffer were logged by the operation that wrote them, in this
    /// operation's group or an earlier one, so every crash state that holds
    /// this operation's blocks holds that inode too.  Under
    /// [`journal::GroupClose::EveryOp`] a group closes only at quiescence,
    /// so the skip adds no crash state.  (jbd2 likewise journals only the
    /// buffers a handle dirtied.)
    ///
    /// # Errors
    ///
    /// Propagates I/O and log errors.
    pub fn update_inode(&self, sb: &SuperBlock, inum: u32, data: &InodeData) -> KernelResult<()> {
        let offset = DiskSuperblock::inode_offset(inum);
        let mut block = sb.bread(self.dsb().inode_block(inum))?;
        let (held, dinode) = (Dinode::decode(block.data(), offset), data.to_dinode());
        let unchanged = match self.log.planted() {
            PlantedFault::SizeOnlyInodeCompare => held.size == dinode.size,
            _ => held == dinode,
        };
        if unchanged {
            return Ok(());
        }
        dinode.encode(block.data_mut(), offset);
        self.log.log_write(&block)
    }

    // -- block mapping --------------------------------------------------------

    /// Returns the disk block backing file block `bn` of the inode described
    /// by `data`, or `None` for a hole.
    ///
    /// # Errors
    ///
    /// [`Errno::FBig`] beyond the maximum file size, I/O errors otherwise.
    pub fn bmap(
        &self,
        sb: &SuperBlock,
        data: &mut InodeData,
        bn: u64,
    ) -> KernelResult<Option<u64>> {
        Ok(self.map(sb, data, bn, Alloc::No)?.map(|(blockno, _)| blockno))
    }

    /// Walks the block map to file block `bn`, allocating as `alloc` says
    /// where it is unmapped (indirect blocks on the way zero-filled).
    /// Returns the block and whether this call allocated it; `None` for a
    /// hole when not allocating.
    fn map(
        &self,
        sb: &SuperBlock,
        data: &mut InodeData,
        bn: u64,
        alloc: Alloc<'_>,
    ) -> KernelResult<Option<(u64, bool)>> {
        let bn = bn as usize;
        if bn >= MAXFILE {
            return Err(KernelError::with_context(
                Errno::FBig,
                "xv6fs: file block beyond maximum size",
            ));
        }
        let interior = match alloc {
            Alloc::No => Alloc::No,
            _ => Alloc::Zeroed,
        };
        if bn < NDIRECT {
            return self.fill_slot(sb, &mut data.addrs[bn], alloc);
        }
        let bn = bn - NDIRECT;
        if bn < NINDIRECT {
            // Single indirect.
            let Some((single, _)) = self.fill_slot(sb, &mut data.addrs[NDIRECT], interior)? else {
                return Ok(None);
            };
            return self.indirect_lookup(sb, single, bn, alloc);
        }
        let bn = bn - NINDIRECT;
        // Double indirect.
        let Some((double, _)) = self.fill_slot(sb, &mut data.addrs[NDIRECT + 1], interior)? else {
            return Ok(None);
        };
        let Some((l1, _)) = self.indirect_lookup(sb, double, bn / NINDIRECT, interior)? else {
            return Ok(None);
        };
        self.indirect_lookup(sb, l1, bn % NINDIRECT, alloc)
    }

    /// The block in the inode's address slot `addr`, allocated as `alloc`
    /// says if the slot is empty.
    fn fill_slot(
        &self,
        sb: &SuperBlock,
        addr: &mut u32,
        alloc: Alloc<'_>,
    ) -> KernelResult<Option<(u64, bool)>> {
        if *addr != 0 {
            return Ok(Some((*addr as u64, false)));
        }
        let Some(fresh) = self.alloc_block(sb, alloc)? else {
            return Ok(None);
        };
        *addr = fresh as u32;
        Ok(Some((fresh, true)))
    }

    /// Looks up (and, as `alloc` says, allocates) slot `index` of the
    /// indirect block `blockno`.
    fn indirect_lookup(
        &self,
        sb: &SuperBlock,
        blockno: u64,
        index: usize,
        alloc: Alloc<'_>,
    ) -> KernelResult<Option<(u64, bool)>> {
        debug_assert!(index < NINDIRECT);
        let mut block = sb.bread(blockno)?;
        let current = get_u32(block.data(), index * 4);
        if current != 0 {
            return Ok(Some((current as u64, false)));
        }
        let Some(fresh) = self.alloc_block(sb, alloc)? else {
            return Ok(None);
        };
        put_u32(block.data_mut(), index * 4, fresh as u32);
        self.log.log_write(&block)?;
        Ok(Some((fresh, true)))
    }

    fn alloc_block(&self, sb: &SuperBlock, alloc: Alloc<'_>) -> KernelResult<Option<u64>> {
        match alloc {
            Alloc::No => Ok(None),
            Alloc::Zeroed => self.balloc(sb).map(Some),
            Alloc::For(piece) => self.balloc_for(sb, piece).map(Some),
        }
    }

    // -- byte-granular file I/O ----------------------------------------------

    /// Reads up to `buf.len()` bytes starting at `offset` through the
    /// buffer cache; returns the number of bytes read (clamped at end of
    /// file).  Directories read this way: their blocks are metadata, which
    /// the cache keeps.  File data goes through [`FsCore::read_data`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn readi(
        &self,
        sb: &SuperBlock,
        data: &mut InodeData,
        offset: u64,
        buf: &mut [u8],
    ) -> KernelResult<usize> {
        if offset >= data.size || buf.is_empty() {
            return Ok(0);
        }
        let to_read = buf.len().min((data.size - offset) as usize);
        let mut done = 0usize;
        while done < to_read {
            let pos = offset + done as u64;
            let block_off = (pos % BSIZE as u64) as usize;
            let chunk = (BSIZE - block_off).min(to_read - done);
            match self.bmap(sb, data, pos / BSIZE as u64)? {
                Some(blockno) => {
                    let block = sb.bread(blockno)?;
                    buf[done..done + chunk]
                        .copy_from_slice(&block.data()[block_off..block_off + chunk]);
                }
                None => {
                    // Hole: reads as zeros.
                    buf[done..done + chunk].fill(0);
                }
            }
            done += chunk;
        }
        self.stats.bytes_read.add(done as u64);
        Ok(done)
    }

    /// Reads file data: up to `buf.len()` bytes at `offset`, clamped at
    /// end of file; returns the number of bytes read.  Every whole block
    /// goes from the device — or from the buffer, if the cache holds the
    /// block — straight into `buf` ([`SuperBlock::read_uncached`]), so a
    /// page fill copies each byte once and leaves no second copy in the
    /// buffer cache.  Only a partial block at either end of the range (the
    /// one straddling end of file among them) goes through [`FsCore::readi`].
    ///
    /// Skipping the cache reads the current bytes because:
    /// - only clean, unreferenced buffers are evicted, so a dirty block or
    ///   one whose install is pending is still in the cache and is copied
    ///   from there;
    /// - the log writes a block's home location before `clean_if_holds`
    ///   marks its buffer clean, so a block the cache does not hold is
    ///   current on the device;
    /// - the page-cache file lock that a fill holds serializes every other
    ///   writer of the file's blocks, so none is cached between the lookup
    ///   and the device read.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn read_data(
        &self,
        sb: &SuperBlock,
        data: &mut InodeData,
        offset: u64,
        buf: &mut [u8],
    ) -> KernelResult<usize> {
        if offset >= data.size {
            return Ok(0);
        }
        let to_read = buf.len().min((data.size - offset) as usize);
        let mut done = 0usize;
        while done < to_read {
            let pos = offset + done as u64;
            let chunk = (BSIZE - (pos % BSIZE as u64) as usize).min(to_read - done);
            let piece = &mut buf[done..done + chunk];
            if chunk < BSIZE {
                self.readi(sb, data, pos, piece)?;
            } else {
                match self.bmap(sb, data, pos / BSIZE as u64)? {
                    Some(blockno) => sb.read_uncached(blockno, piece)?,
                    None => piece.fill(0),
                }
                self.stats.bytes_read.add(BSIZE as u64);
            }
            done += chunk;
        }
        Ok(done)
    }

    /// Writes `src` at `offset`, allocating blocks as needed and growing the
    /// file size, and updates the inode through the log.  Must be called
    /// inside a transaction with room for every block of `src` (directory
    /// entries are one block; [`FsCore::write_vectored`] packs file data
    /// piece by piece instead).
    ///
    /// # Errors
    ///
    /// [`Errno::NoSpc`], [`Errno::FBig`], I/O errors.
    pub fn writei(
        &self,
        sb: &SuperBlock,
        inum: u32,
        data: &mut InodeData,
        offset: u64,
        src: &[u8],
    ) -> KernelResult<usize> {
        for (at, piece) in block_pieces(offset, src) {
            self.write_piece(sb, data, at, piece)?;
        }
        self.update_inode(sb, inum, data)?;
        self.stats.bytes_written.add(src.len() as u64);
        Ok(src.len())
    }

    /// Writes one piece — bytes that lie within a single file block — at
    /// `offset`, allocating the block (and its indirect blocks) if needed
    /// and growing the in-memory size.  Must be called inside a
    /// transaction; the caller logs the inode block before ending it.
    ///
    /// # Errors
    ///
    /// [`Errno::NoSpc`], [`Errno::FBig`], I/O errors.
    pub(crate) fn write_piece(
        &self,
        sb: &SuperBlock,
        data: &mut InodeData,
        offset: u64,
        piece: &[u8],
    ) -> KernelResult<()> {
        let block_off = (offset % BSIZE as u64) as usize;
        debug_assert!(block_off + piece.len() <= BSIZE);
        let whole = piece.len() == BSIZE;
        let (blockno, fresh) =
            self.map(sb, data, offset / BSIZE as u64, Alloc::For(piece))?.ok_or_else(|| {
                KernelError::with_context(Errno::Io, "xv6fs: bmap failed to allocate")
            })?;
        // A fresh block that the piece covers whole already holds it (the
        // allocator took it as the block's first contents).  Otherwise a
        // whole piece needs none of the old bytes: take the buffer filled
        // with it, without reading the device or zero-filling it first.
        if !(fresh && whole) {
            let block = if whole {
                sb.bread_with(blockno, piece)?
            } else {
                let mut block = sb.bread(blockno)?;
                block.data_mut()[block_off..block_off + piece.len()].copy_from_slice(piece);
                block
            };
            self.log.log_write(&block)?;
        }
        data.size = data.size.max(offset + piece.len() as u64);
        Ok(())
    }

    /// Truncates the file to `new_size`, freeing whole blocks past the new
    /// end and zeroing the tail of the block straddling it.  Must run inside
    /// a transaction.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn truncate_inode(
        &self,
        sb: &SuperBlock,
        inum: u32,
        data: &mut InodeData,
        new_size: u64,
    ) -> KernelResult<()> {
        if new_size >= data.size {
            // Growing: just record the new size; reads of the gap see holes.
            data.size = new_size;
            return self.update_inode(sb, inum, data);
        }
        let first_free_bn = new_size.div_ceil(BSIZE as u64);
        let last_used_bn = data.size.div_ceil(BSIZE as u64);
        for bn in first_free_bn..last_used_bn {
            if let Some(blockno) = self.bmap(sb, data, bn)? {
                self.bfree(sb, blockno)?;
                self.clear_mapping(sb, data, bn)?;
            }
        }
        // Zero the tail of the (kept) final partial block so later growth
        // does not resurrect old bytes.
        if !new_size.is_multiple_of(BSIZE as u64) {
            if let Some(blockno) = self.bmap(sb, data, new_size / BSIZE as u64)? {
                let keep = (new_size % BSIZE as u64) as usize;
                let mut block = sb.bread(blockno)?;
                block.data_mut()[keep..].fill(0);
                self.log.log_write(&block)?;
            }
        }
        data.size = new_size;
        self.update_inode(sb, inum, data)
    }

    /// Clears the block-address slot that maps file block `bn` (direct or
    /// indirect) after the data block has been freed.
    fn clear_mapping(&self, sb: &SuperBlock, data: &mut InodeData, bn: u64) -> KernelResult<()> {
        let bn = bn as usize;
        if bn < NDIRECT {
            data.addrs[bn] = 0;
            return Ok(());
        }
        let bn = bn - NDIRECT;
        if bn < NINDIRECT {
            if data.addrs[NDIRECT] != 0 {
                self.clear_indirect_slot(sb, data.addrs[NDIRECT] as u64, bn)?;
            }
            return Ok(());
        }
        let bn = bn - NINDIRECT;
        if data.addrs[NDIRECT + 1] != 0 {
            let l1_block = {
                let block = sb.bread(data.addrs[NDIRECT + 1] as u64)?;
                get_u32(block.data(), (bn / NINDIRECT) * 4)
            };
            if l1_block != 0 {
                self.clear_indirect_slot(sb, l1_block as u64, bn % NINDIRECT)?;
            }
        }
        Ok(())
    }

    fn clear_indirect_slot(&self, sb: &SuperBlock, blockno: u64, index: usize) -> KernelResult<()> {
        let mut block = sb.bread(blockno)?;
        put_u32(block.data_mut(), index * 4, 0);
        self.log.log_write(&block)
    }

    /// Frees every data block of the inode, frees its indirect blocks, marks
    /// it free on disk, and drops it from the cache.  Must run inside a
    /// transaction (callers chunk: this can touch many blocks, so it is
    /// invoked with the file already truncated in chunks).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn free_inode(&self, sb: &SuperBlock, inum: u32, data: &mut InodeData) -> KernelResult<()> {
        // Free the indirect tree blocks themselves.
        if data.addrs[NDIRECT] != 0 {
            self.bfree(sb, data.addrs[NDIRECT] as u64)?;
            data.addrs[NDIRECT] = 0;
        }
        if data.addrs[NDIRECT + 1] != 0 {
            let l1 = sb.bread(data.addrs[NDIRECT + 1] as u64)?;
            let mut l1_blocks = Vec::new();
            for i in 0..NINDIRECT {
                let b = get_u32(l1.data(), i * 4);
                if b != 0 {
                    l1_blocks.push(b as u64);
                }
            }
            drop(l1);
            for b in l1_blocks {
                self.bfree(sb, b)?;
            }
            self.bfree(sb, data.addrs[NDIRECT + 1] as u64)?;
            data.addrs[NDIRECT + 1] = 0;
        }
        data.ftype = T_FREE;
        data.nlink = 0;
        data.size = 0;
        data.valid = false;
        let dinode = Dinode::default();
        let blockno = self.dsb().inode_block(inum);
        let mut block = sb.bread(blockno)?;
        dinode.encode(block.data_mut(), DiskSuperblock::inode_offset(inum));
        self.log.log_write(&block)?;
        drop(block);
        {
            let mut group = self.alloc.lock_group(self.alloc.group_of_inode(inum));
            if let Some(used) = group.used_inodes.as_mut() {
                *used = used.saturating_sub(1);
            }
        }
        self.icache.remove(inum);
        Ok(())
    }

    /// Number of handles currently open on `inum`.
    pub fn open_count(&self, inum: u32) -> u32 {
        self.opens.get(&inum).unwrap_or(0)
    }

    /// Registers an open handle on `inum`.
    pub fn note_open(&self, inum: u32) {
        self.opens.update_or_default(inum, |count| *count += 1);
    }

    /// Releases an open handle; returns the remaining count.  The
    /// decrement-and-prune is atomic under the owning shard's lock.
    pub fn note_release(&self, inum: u32) -> u32 {
        self.opens.decrement_and_prune(&inum)
    }
}
