//! The buffer cache.
//!
//! Linux file systems read and write metadata through the buffer cache:
//! `sb_bread` returns a locked, reference-counted `buffer_head` for a block,
//! the file system reads or modifies the attached data, optionally writes it
//! back, and finally calls `brelse`.  Forgetting `brelse` leaks the buffer —
//! one of the most common bug classes in the paper's study (Table 1).
//!
//! [`BufferCache`] reproduces that interface with Rust ownership:
//! [`BufferCache::bread`] returns a [`BufferGuard`] that holds the buffer's
//! lock and releases it (the `brelse`) automatically on drop.  Bento's
//! `BufferHead` capability type (in the `bento` crate) is a thin wrapper
//! around this guard, which is exactly the paper's §4.7 "wrapping
//! abstractions" story.
//!
//! Replacement is exact LRU at O(1) per hit and per eviction, the list
//! xv6's `bio.c` keeps: each shard threads its buffers, held in a slab, on
//! a doubly linked recency list.  A hit moves its buffer to the
//! most-recently-used end.  A miss into a full shard walks from the
//! least-recently-used end to the first buffer that is neither referenced
//! nor dirty and reuses its slot and its memory for the new block; the walk
//! steps over held and dirty buffers only, so it ends within a few links
//! instead of scanning the shard.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{ArcMutexGuard, Mutex, RawMutex};

use crate::dev::BlockDevice;
use crate::error::{Errno, KernelError, KernelResult};
use crate::shard::{resolve_shards, shard_of, StripedCounter};

/// Data and state attached to one cached block.
#[derive(Debug)]
struct BufferData {
    bytes: Vec<u8>,
    /// Whether `bytes` holds the current on-device content (or newer).
    valid: bool,
    /// Whether `bytes` has been modified since it was last written to the
    /// device.
    dirty: bool,
}

/// End-of-list marker for the recency links.
const NIL: usize = usize::MAX;

/// One slab entry: a buffer, the block it caches and its recency links.
#[derive(Debug)]
struct Slot {
    blockno: u64,
    /// Shared with the guards handed out for this block.  Clones are only
    /// made under the shard lock, so a strong count of one under that lock
    /// means no guard holds the buffer and no `bread` is waiting for it.
    data: Arc<Mutex<BufferData>>,
    /// The neighbour used less recently ([`NIL`] at the LRU end).
    older: usize,
    /// The neighbour used more recently ([`NIL`] at the MRU end).
    newer: usize,
}

/// One shard: the block → slot index, the slab and its recency list.
#[derive(Debug)]
struct Shard {
    index: HashMap<u64, usize>,
    slots: Vec<Slot>,
    /// Slots emptied by [`BufferCache::invalidate_clean`], kept for reuse.
    free: Vec<usize>,
    lru: usize,
    mru: usize,
}

impl Shard {
    fn new() -> Self {
        Shard { index: HashMap::new(), slots: Vec::new(), free: Vec::new(), lru: NIL, mru: NIL }
    }

    fn unlink(&mut self, i: usize) {
        let Slot { older, newer, .. } = self.slots[i];
        match older {
            NIL => self.lru = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.mru = older,
            n => self.slots[n].older = older,
        }
    }

    fn push_mru(&mut self, i: usize) {
        self.slots[i].older = self.mru;
        self.slots[i].newer = NIL;
        match self.mru {
            NIL => self.lru = i,
            m => self.slots[m].newer = i,
        }
        self.mru = i;
    }

    /// Takes slot `i` out of the index and the list if its buffer is
    /// unreferenced and clean, marking it invalid for its next block.
    fn detach_if_idle(&mut self, i: usize) -> bool {
        let slot = &mut self.slots[i];
        let Some(data) = Arc::get_mut(&mut slot.data).map(Mutex::get_mut) else {
            return false;
        };
        if data.dirty {
            return false;
        }
        data.valid = false;
        let blockno = slot.blockno;
        self.index.remove(&blockno);
        self.unlink(i);
        true
    }

    /// Detaches the least recently used buffer that is unreferenced and
    /// clean, returning its slot; `None` if every buffer is busy.
    fn evict(&mut self) -> Option<usize> {
        let mut i = self.lru;
        while i != NIL {
            let newer = self.slots[i].newer;
            if self.detach_if_idle(i) {
                return Some(i);
            }
            i = newer;
        }
        None
    }
}

/// A block cache with `bread`/`write`/implicit-`brelse` semantics.
///
/// The cache holds at most `capacity` buffers; buffers that are neither
/// locked nor dirty are evicted least-recently-used first when the cache is
/// full.
///
/// The cache is sharded by block number: concurrent `bread` of *different*
/// blocks contend only when the blocks hash to the same shard, so the
/// paper's multi-threaded workloads are not serialized on one lock.
/// Capacity is enforced per shard (`capacity / shards`, like the per-bucket
/// capacity of a hardware set-associative cache), which keeps eviction a
/// shard-local operation.
pub struct BufferCache {
    dev: Arc<dyn BlockDevice>,
    capacity: usize,
    shard_capacity: usize,
    block_size: usize,
    shards: Vec<Mutex<Shard>>,
    hits: StripedCounter,
    misses: StripedCounter,
}

impl std::fmt::Debug for BufferCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferCache")
            .field("capacity", &self.capacity)
            .field("block_size", &self.block_size)
            .field("cached", &self.stats().cached)
            .finish_non_exhaustive()
    }
}

/// Cache effectiveness statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferCacheStats {
    /// `bread` calls satisfied from the cache.
    pub hits: u64,
    /// `bread` calls that had to read the device.
    pub misses: u64,
    /// Buffers currently cached.
    pub cached: usize,
}

impl BufferCache {
    /// Creates a buffer cache over `dev` holding at most `capacity` blocks,
    /// with the default shard count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(dev: Arc<dyn BlockDevice>, capacity: usize) -> Self {
        BufferCache::with_shards(dev, capacity, 0)
    }

    /// Creates a buffer cache with an explicit shard count (`0` = default).
    ///
    /// The shard count is rounded to a power of two and clamped so that
    /// every shard owns at least one capacity slot; a single-sharded cache
    /// (`shards = 1`) behaves exactly like the old globally locked cache,
    /// including strict global LRU.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_shards(dev: Arc<dyn BlockDevice>, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer cache capacity must be nonzero");
        let block_size = dev.block_size() as usize;
        // Largest power of two ≤ capacity, so shards * shard_capacity never
        // exceeds the requested capacity.
        let max_shards = 1usize << (usize::BITS - 1 - capacity.leading_zeros());
        let shard_count = resolve_shards(shards).min(max_shards);
        BufferCache {
            dev,
            capacity,
            shard_capacity: capacity / shard_count,
            block_size,
            shards: (0..shard_count).map(|_| Mutex::new(Shard::new())).collect(),
            hits: StripedCounter::new(shard_count),
            misses: StripedCounter::new(shard_count),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The underlying block device.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.dev
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Reads block `blockno` through the cache and returns a locked guard.
    ///
    /// The guard's lock is exclusive (like the kernel's buffer lock); a
    /// second `bread` of the same block from another thread blocks until the
    /// first guard is dropped.  [`BufferGuard::missed`] tells whether this
    /// call read the device.
    ///
    /// # Errors
    ///
    /// Propagates device errors ([`Errno::Io`], [`Errno::Inval`]).
    pub fn bread(&self, blockno: u64) -> KernelResult<BufferGuard> {
        if blockno >= self.dev.num_blocks() {
            return Err(KernelError::with_context(Errno::Inval, "bread: block out of range"));
        }
        let mut guard = Mutex::lock_arc(&self.get_or_insert(blockno));
        let missed = !guard.valid;
        if missed {
            self.dev.read_block(blockno, &mut guard.bytes)?;
            guard.valid = true;
            self.misses.inc();
        } else {
            self.hits.inc();
        }
        Ok(BufferGuard { blockno, guard, dev: Arc::clone(&self.dev), missed })
    }

    /// Like [`BufferCache::bread`] but does not read the device: the returned
    /// buffer is zero-filled and marked valid.  Used for blocks that are
    /// about to be completely overwritten (log blocks, freshly allocated
    /// blocks).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] if `blockno` is out of range.
    pub fn getblk_zeroed(&self, blockno: u64) -> KernelResult<BufferGuard> {
        if blockno >= self.dev.num_blocks() {
            return Err(KernelError::with_context(Errno::Inval, "getblk: block out of range"));
        }
        let mut guard = Mutex::lock_arc(&self.get_or_insert(blockno));
        guard.bytes.fill(0);
        guard.valid = true;
        guard.dirty = true;
        Ok(BufferGuard { blockno, guard, dev: Arc::clone(&self.dev), missed: false })
    }

    /// Drops every cached buffer that is clean and unlocked.  Used by tests
    /// and by unmount to simulate a cold cache.  Sweeps one shard at a time.
    pub fn invalidate_clean(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let mut i = shard.lru;
            while i != NIL {
                let newer = shard.slots[i].newer;
                if shard.detach_if_idle(i) {
                    shard.free.push(i);
                }
                i = newer;
            }
        }
    }

    /// Returns hit/miss statistics.
    pub fn stats(&self) -> BufferCacheStats {
        BufferCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            cached: self.shards.iter().map(|s| s.lock().index.len()).sum(),
        }
    }

    /// Issues a FLUSH to the underlying device.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn flush_device(&self) -> KernelResult<()> {
        self.dev.flush()
    }

    /// The buffer for `blockno`, made most recently used; a miss takes the
    /// slot of the shard's LRU idle buffer when the shard is full.  If every
    /// buffer is busy the shard grows past its capacity share (the kernel
    /// would sleep; growing keeps the simulation deadlock-free).
    fn get_or_insert(&self, blockno: u64) -> Arc<Mutex<BufferData>> {
        let mut shard = self.shards[shard_of(&blockno, self.shards.len() - 1)].lock();
        if let Some(&i) = shard.index.get(&blockno) {
            if shard.mru != i {
                shard.unlink(i);
                shard.push_mru(i);
            }
            return Arc::clone(&shard.slots[i].data);
        }
        let reused = if shard.index.len() >= self.shard_capacity { shard.evict() } else { None };
        let i = match reused.or_else(|| shard.free.pop()) {
            Some(i) => {
                shard.slots[i].blockno = blockno;
                i
            }
            None => {
                let data =
                    BufferData { bytes: vec![0u8; self.block_size], valid: false, dirty: false };
                let data = Arc::new(Mutex::new(data));
                shard.slots.push(Slot { blockno, data, older: NIL, newer: NIL });
                shard.slots.len() - 1
            }
        };
        shard.index.insert(blockno, i);
        shard.push_mru(i);
        Arc::clone(&shard.slots[i].data)
    }
}

/// An exclusive, RAII handle to a cached block (the analogue of a locked
/// `buffer_head`).
///
/// Dropping the guard releases the buffer (`brelse`).  Modifications made
/// through [`BufferGuard::data_mut`] stay in the cache; call
/// [`BufferGuard::write`] to write the block to the device (`bwrite`).
pub struct BufferGuard {
    blockno: u64,
    guard: ArcMutexGuard<RawMutex, BufferData>,
    dev: Arc<dyn BlockDevice>,
    missed: bool,
}

impl std::fmt::Debug for BufferGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferGuard")
            .field("blockno", &self.blockno)
            .field("dirty", &self.guard.dirty)
            .finish_non_exhaustive()
    }
}

impl BufferGuard {
    /// The block number this guard refers to.
    pub fn blockno(&self) -> u64 {
        self.blockno
    }

    /// Whether the `bread` that returned this guard read the block from the
    /// device (a cache miss).  Always `false` for
    /// [`BufferCache::getblk_zeroed`].
    pub fn missed(&self) -> bool {
        self.missed
    }

    /// Read-only view of the block contents.
    pub fn data(&self) -> &[u8] {
        &self.guard.bytes
    }

    /// Mutable view of the block contents; marks the buffer dirty.
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.guard.dirty = true;
        &mut self.guard.bytes
    }

    /// Whether the cached contents differ from what was last written to the
    /// device.
    pub fn is_dirty(&self) -> bool {
        self.guard.dirty
    }

    /// Writes the buffer to the device (`bwrite`) and clears the dirty flag.
    ///
    /// Durability still requires a device flush; see
    /// [`BufferCache::flush_device`].
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write(&mut self) -> KernelResult<()> {
        self.dev.write_block(self.blockno, &self.guard.bytes)?;
        self.guard.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::RamDisk;
    use std::collections::BTreeSet;

    fn cache(blocks: u64, capacity: usize) -> BufferCache {
        BufferCache::new(Arc::new(RamDisk::new(4096, blocks)), capacity)
    }

    /// A single-sharded cache: behaves like the old globally locked cache,
    /// including strict global LRU — used by the tests that assert exact
    /// eviction order.
    fn cache1(blocks: u64, capacity: usize) -> BufferCache {
        BufferCache::with_shards(Arc::new(RamDisk::new(4096, blocks)), capacity, 1)
    }

    fn cached_blocks(c: &BufferCache) -> BTreeSet<u64> {
        c.shards.iter().flat_map(|s| s.lock().index.keys().copied().collect::<Vec<_>>()).collect()
    }

    #[test]
    fn bread_reads_device_once_then_hits_cache() {
        let c = cache(32, 8);
        {
            let mut b = c.bread(5).unwrap();
            assert!(b.missed());
            b.data_mut()[0] = 42;
            b.write().unwrap();
        }
        {
            let b = c.bread(5).unwrap();
            assert!(!b.missed());
            assert_eq!(b.data()[0], 42);
        }
        let stats = c.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn modifications_persist_in_cache_without_write() {
        let c = cache(32, 8);
        {
            let mut b = c.bread(3).unwrap();
            b.data_mut()[7] = 99;
            assert!(b.is_dirty());
            // no write(): data stays only in the cache
        }
        let b = c.bread(3).unwrap();
        assert_eq!(b.data()[7], 99);
        // The device itself still has zeros.
        let mut raw = vec![0u8; 4096];
        c.device().read_block(3, &mut raw).unwrap();
        assert_eq!(raw[7], 0);
    }

    #[test]
    fn write_makes_data_reach_device() {
        let c = cache(32, 8);
        let mut b = c.bread(9).unwrap();
        b.data_mut()[0] = 0xEE;
        b.write().unwrap();
        assert!(!b.is_dirty());
        drop(b);
        let mut raw = vec![0u8; 4096];
        c.device().read_block(9, &mut raw).unwrap();
        assert_eq!(raw[0], 0xEE);
    }

    #[test]
    fn getblk_zeroed_skips_device_read() {
        let c = cache(32, 8);
        c.device().write_block(4, &vec![0xFFu8; 4096]).unwrap();
        let reads_before = c.device().stats().reads;
        let b = c.getblk_zeroed(4).unwrap();
        assert!(!b.missed());
        assert!(b.data().iter().all(|&x| x == 0));
        assert_eq!(c.device().stats().reads, reads_before);
    }

    #[test]
    fn eviction_prefers_clean_unlocked_lru() {
        let c = cache1(64, 2);
        {
            let mut b0 = c.bread(0).unwrap();
            b0.data_mut()[0] = 1;
            b0.write().unwrap();
        }
        {
            let mut b1 = c.bread(1).unwrap();
            b1.data_mut()[0] = 2;
            b1.write().unwrap();
        }
        // Touch block 1 so block 0 is LRU, then bring in block 2.
        drop(c.bread(1).unwrap());
        drop(c.bread(2).unwrap());
        assert_eq!(cached_blocks(&c), BTreeSet::from([1, 2]), "block 0 was the LRU");
        // Re-reading block 0 must still return correct (device) data.
        let b0 = c.bread(0).unwrap();
        assert_eq!(b0.data()[0], 1);
    }

    #[test]
    fn held_or_dirty_lru_tail_is_skipped() {
        let c = cache1(64, 3);
        let held = c.bread(0).unwrap();
        c.bread(1).unwrap().data_mut()[0] = 0xAA; // dirty, never written
        drop(c.bread(2).unwrap());
        // LRU order is 0 (held), 1 (dirty), 2: the walk passes the first two.
        drop(c.bread(3).unwrap());
        assert_eq!(cached_blocks(&c), BTreeSet::from([0, 1, 3]));
        // Once nothing is idle the shard grows instead of evicting.
        let pinned = c.bread(3).unwrap();
        drop(c.bread(4).unwrap());
        assert_eq!(cached_blocks(&c), BTreeSet::from([0, 1, 3, 4]));
        drop((held, pinned));
        assert_eq!(c.bread(1).unwrap().data()[0], 0xAA);
    }

    #[test]
    fn dirty_buffers_are_not_evicted() {
        let c = cache1(64, 2);
        {
            let mut b0 = c.bread(0).unwrap();
            b0.data_mut()[0] = 0xAA; // dirty, never written
        }
        drop(c.bread(1).unwrap());
        drop(c.bread(2).unwrap());
        drop(c.bread(3).unwrap());
        // Block 0's modification must survive because dirty buffers are pinned.
        let b0 = c.bread(0).unwrap();
        assert_eq!(b0.data()[0], 0xAA);
    }

    /// The replacement rule the slab replaced, kept as an oracle: a use
    /// clock per buffer and, on a miss into a full shard, the argmin of the
    /// clock over buffers that are neither held nor dirty.
    struct ScanModel {
        /// Per shard: block → (last use, dirty).
        shards: Vec<HashMap<u64, (u64, bool)>>,
        shard_capacity: usize,
        clock: u64,
        reads: u64,
    }

    impl ScanModel {
        fn new(c: &BufferCache) -> Self {
            let shards = (0..c.shard_count()).map(|_| HashMap::new()).collect();
            ScanModel { shards, shard_capacity: c.shard_capacity, clock: 0, reads: 0 }
        }

        fn shard(&mut self, blockno: u64) -> &mut HashMap<u64, (u64, bool)> {
            let mask = self.shards.len() - 1;
            &mut self.shards[shard_of(&blockno, mask)]
        }

        fn access(&mut self, blockno: u64, zeroed: bool, held: &[u64]) {
            self.clock += 1;
            let (clock, cap) = (self.clock, self.shard_capacity);
            let shard = self.shard(blockno);
            if let Some(entry) = shard.get_mut(&blockno) {
                *entry = (clock, entry.1 || zeroed);
                return;
            }
            if shard.len() >= cap {
                let victim = shard
                    .iter()
                    .filter(|(b, &(_, dirty))| !dirty && !held.contains(b))
                    .min_by_key(|(_, &(used, _))| used)
                    .map(|(&b, _)| b);
                if let Some(b) = victim {
                    shard.remove(&b);
                }
            }
            shard.insert(blockno, (clock, zeroed));
            self.reads += u64::from(!zeroed);
        }

        fn set_dirty(&mut self, blockno: u64, dirty: bool) {
            self.shard(blockno).get_mut(&blockno).expect("held block is cached").1 = dirty;
        }

        fn invalidate_clean(&mut self, held: &[u64]) {
            for shard in &mut self.shards {
                shard.retain(|b, &mut (_, dirty)| dirty || held.contains(b));
            }
        }

        fn cached(&self) -> BTreeSet<u64> {
            self.shards.iter().flat_map(|s| s.keys().copied()).collect()
        }
    }

    /// Runs one seeded trace of breads, zeroed gets, guards held across
    /// misses, dirtying, writes and invalidations through the cache and the
    /// scan model, comparing cached sets and device reads after every step.
    fn check_against_scan_model(shards: usize, seed: u64) {
        const BLOCKS: u64 = 160;
        let c = BufferCache::with_shards(Arc::new(RamDisk::new(4096, BLOCKS)), 48, shards);
        let mut model = ScanModel::new(&c);
        let mut held: Vec<BufferGuard> = Vec::new();
        let mut state = seed;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for step in 0..4000 {
            let held_blocks: Vec<u64> = held.iter().map(BufferGuard::blockno).collect();
            let free_block = loop {
                let b = rand(BLOCKS);
                if !held_blocks.contains(&b) {
                    break b;
                }
            };
            match rand(100) {
                // bread or getblk_zeroed; a quarter of the guards stay held.
                roll @ 0..=54 => {
                    let zeroed = roll >= 45;
                    let guard =
                        if zeroed { c.getblk_zeroed(free_block) } else { c.bread(free_block) };
                    model.access(free_block, zeroed, &held_blocks);
                    if held.len() < 6 && rand(4) == 0 {
                        held.push(guard.unwrap());
                    }
                }
                55..=69 if !held.is_empty() => {
                    let i = rand(held.len() as u64) as usize;
                    held[i].data_mut()[0] ^= 1;
                    model.set_dirty(held[i].blockno(), true);
                }
                70..=79 => {
                    // Write-back of any block: bread, write, release.
                    c.bread(free_block).unwrap().write().unwrap();
                    model.access(free_block, false, &held_blocks);
                    model.set_dirty(free_block, false);
                }
                80..=94 if !held.is_empty() => {
                    held.swap_remove(rand(held.len() as u64) as usize);
                }
                95..=99 => {
                    c.invalidate_clean();
                    model.invalidate_clean(&held_blocks);
                }
                _ => {}
            }
            let ctx = format!("{shards} shards, seed {seed}, step {step}");
            assert_eq!(cached_blocks(&c), model.cached(), "cached sets differ: {ctx}");
            assert_eq!(c.device().stats().reads, model.reads, "device reads differ: {ctx}");
        }
    }

    #[test]
    fn exact_lru_matches_the_scan_model() {
        for seed in [1, 42, 0x5EED] {
            check_against_scan_model(1, seed);
            check_against_scan_model(16, seed);
        }
    }

    #[test]
    fn out_of_range_is_rejected() {
        let c = cache(8, 4);
        assert_eq!(c.bread(8).unwrap_err().errno(), Errno::Inval);
        assert_eq!(c.getblk_zeroed(100).unwrap_err().errno(), Errno::Inval);
    }

    #[test]
    fn concurrent_breads_serialize_per_block() {
        use std::thread;
        let c = Arc::new(cache(16, 16));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    let mut b = c.bread(0).unwrap();
                    let v = u64::from_le_bytes(b.data()[..8].try_into().unwrap());
                    let bytes = (v + 1).to_le_bytes();
                    b.data_mut()[..8].copy_from_slice(&bytes);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let b = c.bread(0).unwrap();
        let v = u64::from_le_bytes(b.data()[..8].try_into().unwrap());
        assert_eq!(v, 800, "exclusive buffer lock must make increments atomic");
    }

    #[test]
    fn sharded_cache_respects_total_capacity() {
        // Fill a sharded cache far past its capacity with clean blocks: the
        // per-shard eviction must keep the total at (or below) capacity.
        let c = cache(4096, 64);
        assert!(c.shard_count() > 1, "default cache should be sharded");
        for blockno in 0..1024u64 {
            let mut b = c.bread(blockno).unwrap();
            b.data_mut()[0] = blockno as u8;
            b.write().unwrap();
        }
        assert!(
            c.stats().cached <= 64,
            "sharded eviction must bound the cache: {} > 64",
            c.stats().cached
        );
    }

    #[test]
    fn concurrent_breads_of_disjoint_blocks_make_progress() {
        use std::thread;
        let c = Arc::new(cache(4096, 1024));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                // Each thread owns a disjoint range of blocks.
                for round in 0..50u64 {
                    for i in 0..16u64 {
                        let blockno = t * 256 + i;
                        let mut b = c.bread(blockno).unwrap();
                        let v = u64::from_le_bytes(b.data()[..8].try_into().unwrap());
                        assert_eq!(v, round, "block {blockno} must see its own writes");
                        b.data_mut()[..8].copy_from_slice(&(round + 1).to_le_bytes());
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = c.stats();
        assert!(stats.hits > 0 && stats.misses >= 8 * 16);
    }

    #[test]
    fn invalidate_clean_forces_reread() {
        let c = cache(16, 8);
        {
            let mut b = c.bread(2).unwrap();
            b.data_mut()[0] = 5;
            b.write().unwrap();
        }
        c.invalidate_clean();
        assert_eq!(c.stats().cached, 0);
        let b = c.bread(2).unwrap();
        assert!(b.missed());
        assert_eq!(b.data()[0], 5);
        assert_eq!(c.stats().misses, 2);
    }
}
