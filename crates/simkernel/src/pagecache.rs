//! The page cache.
//!
//! Linux satisfies `read` and `write` syscalls from an in-memory page cache
//! and only calls into the file system to *fill* pages on a miss and to
//! *write back* dirty pages.  The Bento paper leans on this twice:
//!
//! * reads of a warm file are identical across Bento, the VFS baseline and
//!   FUSE because they all hit the same in-kernel cache (§6.5.1);
//! * write *throughput* differs because writeback can hand an inode's
//!   dirty pages over in one `writepages` call (Bento, inherited from the
//!   FUSE kernel module) or must send them one `writepage` at a time (the
//!   paper's VFS baseline) (§6.5.2).
//!
//! [`PageCache`] reproduces exactly that: per-file page maps with dirty
//! tracking, a configurable dirty threshold that triggers synchronous
//! writeback (the stand-in for `balance_dirty_pages` throttling, which is
//! what makes a sustained write benchmark device-bound rather than
//! memcpy-bound), and a writeback routine that, when the file system
//! supports it, makes **one `write_pages` call per inode per pass**: the
//! call lends the whole sorted set of the inode's dirty pages, adjacent or
//! not, and how that set is cut into transactions (or FUSE requests) is
//! the file system's business, which knows what its log can hold.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::KernelResult;
use crate::shard::{ShardedMap, StripedCounter};
use crate::vfs::{VfsFs, PAGE_SIZE};

#[derive(Debug)]
struct Page {
    data: Box<[u8]>,
    dirty: bool,
}

impl Page {
    fn new_zeroed() -> Page {
        Page { data: vec![0u8; PAGE_SIZE].into_boxed_slice(), dirty: false }
    }
}

#[derive(Debug)]
struct FilePages {
    pages: BTreeMap<u64, Page>,
    /// Cached file size; authoritative once loaded because buffered writes
    /// extend it before the file system learns about the new data.
    size: u64,
    size_loaded: bool,
    dirty_count: usize,
}

impl FilePages {
    fn new() -> FilePages {
        FilePages { pages: BTreeMap::new(), size: 0, size_loaded: false, dirty_count: 0 }
    }
}

/// Behavioural knobs for the page cache.
#[derive(Debug, Clone)]
pub struct PageCacheConfig {
    /// When a single file accumulates this many dirty pages, the writing
    /// thread performs writeback synchronously (dirty throttling).
    pub dirty_threshold_pages: usize,
    /// Soft cap on total cached pages per file; clean pages beyond the cap
    /// are dropped after writeback.
    pub max_cached_pages_per_file: usize,
    /// Shards for the per-file page table and stripes for the statistics
    /// counters (`0` = default).  `read_at`/`write_at` on distinct inodes
    /// only contend when the inodes hash to the same shard.
    pub shards: usize,
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        PageCacheConfig { dirty_threshold_pages: 512, max_cached_pages_per_file: 65_536, shards: 0 }
    }
}

/// Per-mount page cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Pages a read found already cached (one per page touched, like
    /// [`PageCacheStats::read_fills`]: `hits / (hits + fills)` is the read
    /// hit ratio).
    pub read_hits: u64,
    /// Pages filled by calling the file system.
    pub read_fills: u64,
    /// Pages written back via single-page `write_page` calls.
    pub writeback_single: u64,
    /// Pages written back as part of batched `write_pages` calls.
    pub writeback_batched: u64,
    /// Number of `write_pages` calls into the file system (one per inode
    /// per write-back pass).
    pub writeback_batches: u64,
}

/// Hot-path counters, striped so concurrent readers/writers on different
/// files do not bounce one statistics cache line (see
/// [`StripedCounter`]).
#[derive(Debug)]
struct StripedStats {
    read_hits: StripedCounter,
    read_fills: StripedCounter,
    writeback_single: StripedCounter,
    writeback_batched: StripedCounter,
    writeback_batches: StripedCounter,
}

impl StripedStats {
    fn new(stripes: usize) -> Self {
        StripedStats {
            read_hits: StripedCounter::new(stripes),
            read_fills: StripedCounter::new(stripes),
            writeback_single: StripedCounter::new(stripes),
            writeback_batched: StripedCounter::new(stripes),
            writeback_batches: StripedCounter::new(stripes),
        }
    }
}

/// A write-back page cache covering every file of one mounted file system.
///
/// The inode → pages table is sharded ([`ShardedMap`]), so reads and writes
/// of *different* files take different locks; per-file state stays under
/// one `Mutex` per file, which is what serializes same-file access (as the
/// kernel's per-address-space locks do).
pub struct PageCache {
    config: PageCacheConfig,
    files: ShardedMap<u64, Arc<Mutex<FilePages>>>,
    stats: StripedStats,
    /// Whether writeback should use the batched `write_pages` path.
    batch_writeback: bool,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("config", &self.config)
            .field("files", &self.files.len())
            .field("batch_writeback", &self.batch_writeback)
            .finish_non_exhaustive()
    }
}

impl PageCache {
    /// Creates a page cache.  `batch_writeback` selects the `write_pages`
    /// (batched) writeback path; the VFS baseline passes `false`.
    pub fn new(config: PageCacheConfig, batch_writeback: bool) -> Self {
        let shards = config.shards;
        PageCache {
            config,
            files: ShardedMap::new(shards),
            stats: StripedStats::new(shards),
            batch_writeback,
        }
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> PageCacheStats {
        PageCacheStats {
            read_hits: self.stats.read_hits.get(),
            read_fills: self.stats.read_fills.get(),
            writeback_single: self.stats.writeback_single.get(),
            writeback_batched: self.stats.writeback_batched.get(),
            writeback_batches: self.stats.writeback_batches.get(),
        }
    }

    /// Whether batched writeback is enabled.
    pub fn batch_writeback(&self) -> bool {
        self.batch_writeback
    }

    fn file(&self, ino: u64) -> Arc<Mutex<FilePages>> {
        self.files.get_or_insert_with(ino, || Arc::new(Mutex::new(FilePages::new())))
    }

    fn load_size(&self, fs: &Arc<dyn VfsFs>, ino: u64, fp: &mut FilePages) -> KernelResult<()> {
        if !fp.size_loaded {
            fp.size = fs.getattr(ino)?.size;
            fp.size_loaded = true;
        }
        Ok(())
    }

    /// The cached size of `ino`, loading it from the file system if needed.
    ///
    /// # Errors
    ///
    /// Propagates `getattr` errors.
    pub fn file_size(&self, fs: &Arc<dyn VfsFs>, ino: u64) -> KernelResult<u64> {
        let file = self.file(ino);
        let mut fp = file.lock();
        self.load_size(fs, ino, &mut fp)?;
        Ok(fp.size)
    }

    /// Overrides the cached size (used by truncate and by the VFS after
    /// `setattr`).
    pub fn set_file_size(&self, ino: u64, size: u64) {
        let file = self.file(ino);
        let mut fp = file.lock();
        fp.size = size;
        fp.size_loaded = true;
        // Drop whole pages beyond the new EOF and zero the tail of the page
        // straddling it, so stale data cannot reappear if the file grows.
        let first_invalid = size.div_ceil(PAGE_SIZE as u64);
        let removed: Vec<u64> = fp.pages.range(first_invalid..).map(|(k, _)| *k).collect();
        for k in removed {
            if let Some(p) = fp.pages.remove(&k) {
                if p.dirty {
                    fp.dirty_count = fp.dirty_count.saturating_sub(1);
                }
            }
        }
        if !size.is_multiple_of(PAGE_SIZE as u64) {
            let last_page = size / PAGE_SIZE as u64;
            let keep = (size % PAGE_SIZE as u64) as usize;
            if let Some(p) = fp.pages.get_mut(&last_page) {
                p.data[keep..].fill(0);
            }
        }
    }

    /// Reads up to `buf.len()` bytes at `offset` from file `ino`, going
    /// through the cache.  Returns the number of bytes read (0 at or past
    /// EOF).
    ///
    /// # Errors
    ///
    /// Propagates file system read errors.
    pub fn read(
        &self,
        fs: &Arc<dyn VfsFs>,
        ino: u64,
        offset: u64,
        buf: &mut [u8],
    ) -> KernelResult<usize> {
        let file = self.file(ino);
        let mut fp = file.lock();
        self.load_size(fs, ino, &mut fp)?;
        if offset >= fp.size || buf.is_empty() {
            return Ok(0);
        }
        let to_read = buf.len().min((fp.size - offset) as usize);
        let mut done = 0usize;
        while done < to_read {
            let pos = offset + done as u64;
            let page_idx = pos / PAGE_SIZE as u64;
            let page_off = (pos % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - page_off).min(to_read - done);
            if let std::collections::btree_map::Entry::Vacant(e) = fp.pages.entry(page_idx) {
                let mut page = Page::new_zeroed();
                let filled = fs.read_page(ino, page_idx, &mut page.data)?;
                debug_assert!(filled <= PAGE_SIZE);
                e.insert(page);
                self.stats.read_fills.inc();
            } else {
                self.stats.read_hits.inc();
            }
            let page = fp.pages.get(&page_idx).expect("page just ensured");
            buf[done..done + chunk].copy_from_slice(&page.data[page_off..page_off + chunk]);
            done += chunk;
        }
        Ok(done)
    }

    /// Writes `data` at `offset` into file `ino` through the cache, marking
    /// pages dirty and extending the cached size.  If the file's dirty page
    /// count crosses the configured threshold, the calling thread performs
    /// writeback before returning (dirty throttling).
    ///
    /// # Errors
    ///
    /// Propagates file system errors encountered during read-modify-write
    /// fills or throttled writeback.
    pub fn write(
        &self,
        fs: &Arc<dyn VfsFs>,
        ino: u64,
        offset: u64,
        data: &[u8],
    ) -> KernelResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let file = self.file(ino);
        let mut fp = file.lock();
        self.load_size(fs, ino, &mut fp)?;
        self.write_locked(fs, ino, offset, data, &mut fp)
    }

    /// Appends `data` at EOF, returning `(offset_written_at, bytes)`.
    ///
    /// The EOF lookup and the write happen under one hold of the per-file
    /// lock — `O_APPEND` semantics.  Reading the size and writing in two
    /// separate critical sections (as a `file_size()` + `write()` caller
    /// would) lets two appenders observe the same EOF and overwrite each
    /// other; this is where the atomicity lives.
    ///
    /// # Errors
    ///
    /// As for [`PageCache::write`].
    pub fn append(&self, fs: &Arc<dyn VfsFs>, ino: u64, data: &[u8]) -> KernelResult<(u64, usize)> {
        let file = self.file(ino);
        let mut fp = file.lock();
        self.load_size(fs, ino, &mut fp)?;
        let offset = fp.size;
        if data.is_empty() {
            return Ok((offset, 0));
        }
        let n = self.write_locked(fs, ino, offset, data, &mut fp)?;
        Ok((offset, n))
    }

    /// The write body, with the file's lock (and loaded size) already held.
    fn write_locked(
        &self,
        fs: &Arc<dyn VfsFs>,
        ino: u64,
        offset: u64,
        data: &[u8],
        fp: &mut FilePages,
    ) -> KernelResult<usize> {
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let page_idx = pos / PAGE_SIZE as u64;
            let page_off = (pos % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - page_off).min(data.len() - done);
            let need_fill = !fp.pages.contains_key(&page_idx)
                && (page_off != 0 || chunk != PAGE_SIZE)
                && page_idx * (PAGE_SIZE as u64) < fp.size;
            if need_fill {
                let mut page = Page::new_zeroed();
                fs.read_page(ino, page_idx, &mut page.data)?;
                fp.pages.insert(page_idx, page);
                self.stats.read_fills.inc();
            }
            let page = fp.pages.entry(page_idx).or_insert_with(Page::new_zeroed);
            page.data[page_off..page_off + chunk].copy_from_slice(&data[done..done + chunk]);
            if !page.dirty {
                page.dirty = true;
                fp.dirty_count += 1;
            }
            done += chunk;
        }
        fp.size = fp.size.max(offset + data.len() as u64);
        let over_threshold = fp.dirty_count >= self.config.dirty_threshold_pages;
        if over_threshold {
            self.writeback_locked(fs, ino, fp)?;
        }
        Ok(done)
    }

    /// Writes back every dirty page of `ino` to the file system.
    ///
    /// # Errors
    ///
    /// Propagates file system write errors.
    pub fn writeback(&self, fs: &Arc<dyn VfsFs>, ino: u64) -> KernelResult<()> {
        let file = self.file(ino);
        let mut fp = file.lock();
        self.writeback_locked(fs, ino, &mut fp)
    }

    fn writeback_locked(
        &self,
        fs: &Arc<dyn VfsFs>,
        ino: u64,
        fp: &mut FilePages,
    ) -> KernelResult<()> {
        if fp.dirty_count == 0 {
            return Ok(());
        }
        let size = fp.size;
        let dirty = fp.pages.iter().filter(|(_, p)| p.dirty).map(|(idx, p)| (*idx, &*p.data));
        if self.batch_writeback {
            let pages: Vec<(u64, &[u8])> = dirty.collect();
            fs.write_pages(ino, &pages, size)?;
            self.stats.writeback_batched.add(pages.len() as u64);
            self.stats.writeback_batches.inc();
        } else {
            for (idx, page) in dirty {
                fs.write_page(ino, idx, page, size)?;
                self.stats.writeback_single.inc();
            }
        }
        for page in fp.pages.values_mut() {
            page.dirty = false;
        }
        fp.dirty_count = 0;
        // Trim the cache if it has grown very large (clean pages only).
        if fp.pages.len() > self.config.max_cached_pages_per_file {
            let excess = fp.pages.len() - self.config.max_cached_pages_per_file;
            let victims: Vec<u64> =
                fp.pages.iter().filter(|(_, p)| !p.dirty).map(|(k, _)| *k).take(excess).collect();
            for v in victims {
                fp.pages.remove(&v);
            }
        }
        Ok(())
    }

    /// Writes back every file with dirty pages (used by `sync`, `fsync` on a
    /// directory, and unmount).
    ///
    /// # Errors
    ///
    /// Propagates file system write errors.
    pub fn writeback_all(&self, fs: &Arc<dyn VfsFs>) -> KernelResult<()> {
        let inos: Vec<u64> = self.files.keys();
        for ino in inos {
            self.writeback(fs, ino)?;
        }
        Ok(())
    }

    /// Drops all cached pages of `ino`.
    pub fn invalidate(&self, ino: u64) {
        self.files.remove(&ino);
    }

    /// Drops all cached pages of `ino` around `remove`, the file-system
    /// call that drops the last link to it.  The entry leaves the table
    /// *before* `remove` runs: the file system may free the inode number
    /// inside that call, and a concurrent create that recycles the number
    /// must start from an empty entry of its own — dropping the entry
    /// afterwards could hand it the previous owner's pages and size, or
    /// throw away pages it has already written.  If `remove` fails the
    /// file still exists, so the entry (dirty pages included) goes back
    /// unless the number already has a new one.
    ///
    /// # Errors
    ///
    /// Propagates the error of `remove`.
    pub fn invalidate_around<T>(
        &self,
        ino: u64,
        remove: impl FnOnce() -> KernelResult<T>,
    ) -> KernelResult<T> {
        let detached = self.files.remove(&ino);
        let result = remove();
        if let (Err(_), Some(entry)) = (&result, detached) {
            self.files.get_or_insert_with(ino, || entry);
        }
        result
    }

    /// Drops the whole cache (used at unmount, after writeback).
    pub fn invalidate_all(&self) {
        self.files.clear();
    }

    /// Total dirty pages across all files (diagnostics).
    pub fn dirty_pages(&self) -> usize {
        let mut dirty = 0usize;
        self.files.for_each(|_, f| dirty += f.lock().dirty_count);
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{Errno, KernelError};
    use crate::vfs::{DirEntry, FileMode, InodeAttr, OpenFlags, SetAttr, StatFs};
    use parking_lot::Mutex as PlMutex;
    use std::collections::HashMap as Map;

    /// A trivial in-memory VfsFs used to test the page cache in isolation.
    struct MemFs {
        files: PlMutex<Map<u64, Vec<u8>>>,
        write_page_calls: PlMutex<u64>,
        /// The page indexes each `write_pages` call carried.
        write_pages_calls: PlMutex<Vec<Vec<u64>>>,
    }

    impl MemFs {
        #[allow(clippy::new_ret_no_self)]
        fn new() -> Arc<dyn VfsFs> {
            Self::concrete()
        }

        /// The same file system with its call records reachable.
        fn concrete() -> Arc<MemFs> {
            Arc::new(MemFs {
                files: PlMutex::new(Map::from([(2u64, Vec::new())])),
                write_page_calls: PlMutex::new(0),
                write_pages_calls: PlMutex::new(Vec::new()),
            })
        }
    }

    impl VfsFs for MemFs {
        fn fs_name(&self) -> &str {
            "memfs"
        }
        fn root_ino(&self) -> u64 {
            1
        }
        fn lookup(&self, _d: u64, _n: &str) -> KernelResult<InodeAttr> {
            Err(KernelError::new(Errno::NoEnt))
        }
        fn getattr(&self, ino: u64) -> KernelResult<InodeAttr> {
            let files = self.files.lock();
            let data = files.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            Ok(InodeAttr::regular(ino, data.len() as u64))
        }
        fn setattr(&self, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr> {
            if let Some(size) = set.size {
                let mut files = self.files.lock();
                let data = files.get_mut(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
                data.resize(size as usize, 0);
            }
            self.getattr(ino)
        }
        fn create(&self, _d: u64, _n: &str, _m: FileMode) -> KernelResult<InodeAttr> {
            Err(KernelError::new(Errno::NoSys))
        }
        fn mkdir(&self, _d: u64, _n: &str, _m: FileMode) -> KernelResult<InodeAttr> {
            Err(KernelError::new(Errno::NoSys))
        }
        fn unlink(&self, _d: u64, _n: &str) -> KernelResult<()> {
            Err(KernelError::new(Errno::NoSys))
        }
        fn rmdir(&self, _d: u64, _n: &str) -> KernelResult<()> {
            Err(KernelError::new(Errno::NoSys))
        }
        fn rename(&self, _od: u64, _on: &str, _nd: u64, _nn: &str) -> KernelResult<()> {
            Err(KernelError::new(Errno::NoSys))
        }
        fn open(&self, _ino: u64, _f: OpenFlags) -> KernelResult<u64> {
            Ok(0)
        }
        fn release(&self, _ino: u64, _fh: u64) -> KernelResult<()> {
            Ok(())
        }
        fn readdir(&self, _ino: u64) -> KernelResult<Vec<DirEntry>> {
            Ok(Vec::new())
        }
        fn read_page(&self, ino: u64, page_index: u64, buf: &mut [u8]) -> KernelResult<usize> {
            let files = self.files.lock();
            let data = files.get(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            let start = (page_index as usize) * PAGE_SIZE;
            if start >= data.len() {
                return Ok(0);
            }
            let n = (data.len() - start).min(PAGE_SIZE);
            buf[..n].copy_from_slice(&data[start..start + n]);
            Ok(n)
        }
        fn write_page(
            &self,
            ino: u64,
            page_index: u64,
            data: &[u8],
            file_size: u64,
        ) -> KernelResult<()> {
            *self.write_page_calls.lock() += 1;
            let mut files = self.files.lock();
            let file = files.get_mut(&ino).ok_or(KernelError::new(Errno::NoEnt))?;
            if (file.len() as u64) < file_size {
                file.resize(file_size as usize, 0);
            }
            let start = (page_index as usize) * PAGE_SIZE;
            let n = data.len().min(file.len().saturating_sub(start));
            file[start..start + n].copy_from_slice(&data[..n]);
            Ok(())
        }
        fn write_pages(
            &self,
            ino: u64,
            pages: &[(u64, &[u8])],
            file_size: u64,
        ) -> KernelResult<()> {
            self.write_pages_calls.lock().push(pages.iter().map(|(index, _)| *index).collect());
            for &(page_index, page) in pages {
                self.write_page(ino, page_index, page, file_size)?;
            }
            Ok(())
        }
        fn fsync(&self, _ino: u64, _datasync: bool) -> KernelResult<()> {
            Ok(())
        }
        fn statfs(&self) -> KernelResult<StatFs> {
            Ok(StatFs::default())
        }
        fn sync_fs(&self) -> KernelResult<()> {
            Ok(())
        }
    }

    fn cache(batch: bool) -> PageCache {
        PageCache::new(PageCacheConfig::default(), batch)
    }

    #[test]
    fn write_then_read_roundtrip_through_cache() {
        let fs = MemFs::new();
        let pc = cache(true);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(pc.write(&fs, 2, 100, &data).unwrap(), data.len());
        let mut out = vec![0u8; data.len()];
        assert_eq!(pc.read(&fs, 2, 100, &mut out).unwrap(), data.len());
        assert_eq!(out, data);
        // Before writeback the backing fs has not seen the data.
        assert_eq!(fs.getattr(2).unwrap().size, 0);
        pc.writeback(&fs, 2).unwrap();
        assert_eq!(fs.getattr(2).unwrap().size, 10_100);
    }

    #[test]
    fn append_is_atomic_across_racing_writers() {
        // Regression: append's EOF lookup and write must share one critical
        // section.  A file_size()+write() sequence lets two appenders read
        // the same EOF and overwrite each other — under full-suite CPU load
        // the shard_stress shared-log test lost appends exactly that way.
        let fs = MemFs::new();
        let pc = Arc::new(cache(true));
        let threads = 8;
        let per_thread = 64;
        let record = 64usize;
        let mut handles = Vec::new();
        for t in 0..threads {
            let fs = Arc::clone(&fs);
            let pc = Arc::clone(&pc);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    let data = vec![t as u8 + 1; record];
                    let (_, n) = pc.append(&fs, 2, &data).unwrap();
                    assert_eq!(n, record);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = (threads * per_thread * record) as u64;
        assert_eq!(pc.file_size(&fs, 2).unwrap(), total, "no append may be lost");
        // Every record is intact: scan the file in record-sized chunks and
        // check each is a uniform fill byte (no interleaving within one).
        let mut buf = vec![0u8; record];
        for i in 0..(threads * per_thread) {
            let n = pc.read(&fs, 2, (i * record) as u64, &mut buf).unwrap();
            assert_eq!(n, record);
            assert!(buf.iter().all(|&b| b == buf[0]), "record {i} interleaved");
        }
    }

    #[test]
    fn append_returns_offset_and_handles_empty() {
        let fs = MemFs::new();
        let pc = cache(true);
        assert_eq!(pc.append(&fs, 2, b"abc").unwrap(), (0, 3));
        assert_eq!(pc.append(&fs, 2, b"").unwrap(), (3, 0));
        assert_eq!(pc.append(&fs, 2, b"de").unwrap(), (3, 2));
        assert_eq!(pc.file_size(&fs, 2).unwrap(), 5);
    }

    #[test]
    fn read_beyond_eof_returns_zero() {
        let fs = MemFs::new();
        let pc = cache(true);
        let mut out = vec![0u8; 16];
        assert_eq!(pc.read(&fs, 2, 0, &mut out).unwrap(), 0);
        pc.write(&fs, 2, 0, b"hello").unwrap();
        assert_eq!(pc.read(&fs, 2, 5, &mut out).unwrap(), 0);
        assert_eq!(pc.read(&fs, 2, 1000, &mut out).unwrap(), 0);
    }

    #[test]
    fn short_read_at_eof() {
        let fs = MemFs::new();
        let pc = cache(true);
        pc.write(&fs, 2, 0, b"hello world").unwrap();
        let mut out = vec![0u8; 64];
        let n = pc.read(&fs, 2, 6, &mut out).unwrap();
        assert_eq!(&out[..n], b"world");
    }

    #[test]
    fn batched_writeback_uses_write_pages() {
        let fs = MemFs::new();
        let pc = cache(true);
        let data = vec![7u8; PAGE_SIZE * 8];
        pc.write(&fs, 2, 0, &data).unwrap();
        pc.writeback(&fs, 2).unwrap();
        let stats = pc.stats();
        assert_eq!(stats.writeback_batched, 8);
        assert_eq!(stats.writeback_batches, 1);
        assert_eq!(stats.writeback_single, 0);
    }

    #[test]
    fn unbatched_writeback_uses_write_page() {
        let fs = MemFs::new();
        let pc = cache(false);
        let data = vec![7u8; PAGE_SIZE * 8];
        pc.write(&fs, 2, 0, &data).unwrap();
        pc.writeback(&fs, 2).unwrap();
        let stats = pc.stats();
        assert_eq!(stats.writeback_single, 8);
        assert_eq!(stats.writeback_batched, 0);
    }

    #[test]
    fn sparse_dirty_pages_go_to_the_file_system_in_one_call() {
        // Dirty pages 0,1,2 and 10,11 — two contiguous runs, one pass.
        let dirty_two_runs = |pc: &PageCache, fs: &Arc<dyn VfsFs>| {
            pc.write(fs, 2, 10 * PAGE_SIZE as u64, &vec![2u8; PAGE_SIZE * 2]).unwrap();
            pc.write(fs, 2, 0, &vec![1u8; PAGE_SIZE * 3]).unwrap();
            pc.writeback(fs, 2).unwrap();
        };
        let mem = MemFs::concrete();
        let fs: Arc<dyn VfsFs> = Arc::clone(&mem) as _;
        let pc = cache(true);
        dirty_two_runs(&pc, &fs);
        assert_eq!(*mem.write_pages_calls.lock(), [vec![0, 1, 2, 10, 11]], "one call, sorted");
        let stats = pc.stats();
        assert_eq!((stats.writeback_batches, stats.writeback_batched), (1, 5));
        // A second pass with nothing dirty makes no call at all.
        pc.writeback(&fs, 2).unwrap();
        assert_eq!(pc.stats().writeback_batches, 1);

        // The unbatched path: a `write_page` per page.
        let mem = MemFs::concrete();
        let fs: Arc<dyn VfsFs> = Arc::clone(&mem) as _;
        let pc = cache(false);
        dirty_two_runs(&pc, &fs);
        assert_eq!(*mem.write_page_calls.lock(), 5);
        assert!(mem.write_pages_calls.lock().is_empty());
        assert_eq!(pc.stats().writeback_single, 5);
    }

    #[test]
    fn read_hits_and_fills_both_count_pages() {
        let fs = MemFs::new();
        let pc = cache(true);
        pc.write(&fs, 2, 0, &vec![5u8; PAGE_SIZE * 3]).unwrap();
        pc.writeback(&fs, 2).unwrap();
        pc.invalidate(2);
        // 100 bytes inside page 0, then a read straddling pages 0 and 1.
        let mut buf = vec![0u8; PAGE_SIZE];
        pc.read(&fs, 2, 10, &mut buf[..100]).unwrap();
        assert_eq!((pc.stats().read_fills, pc.stats().read_hits), (1, 0));
        pc.read(&fs, 2, PAGE_SIZE as u64 - 50, &mut buf[..100]).unwrap();
        assert_eq!((pc.stats().read_fills, pc.stats().read_hits), (2, 1), "one page hit, not 50");
        pc.read(&fs, 2, 0, &mut buf).unwrap();
        assert_eq!((pc.stats().read_fills, pc.stats().read_hits), (2, 2));
    }

    #[test]
    fn dirty_threshold_triggers_writeback() {
        let fs = MemFs::new();
        let pc = PageCache::new(
            PageCacheConfig { dirty_threshold_pages: 4, ..PageCacheConfig::default() },
            true,
        );
        pc.write(&fs, 2, 0, &vec![3u8; PAGE_SIZE * 4]).unwrap();
        // Threshold reached: data already written back, nothing dirty.
        assert_eq!(pc.dirty_pages(), 0);
        assert_eq!(fs.getattr(2).unwrap().size, (PAGE_SIZE * 4) as u64);
    }

    #[test]
    fn partial_page_overwrite_preserves_existing_bytes() {
        let fs = MemFs::new();
        let pc = cache(true);
        pc.write(&fs, 2, 0, &vec![0xAA; PAGE_SIZE]).unwrap();
        pc.writeback(&fs, 2).unwrap();
        pc.invalidate(2);
        // Overwrite bytes 10..20 only; the rest of the page must survive the
        // read-modify-write fill.
        pc.write(&fs, 2, 10, &[0xBB; 10]).unwrap();
        pc.writeback(&fs, 2).unwrap();
        pc.invalidate(2);
        let mut out = vec![0u8; PAGE_SIZE];
        pc.read(&fs, 2, 0, &mut out).unwrap();
        assert_eq!(out[0], 0xAA);
        assert_eq!(out[10], 0xBB);
        assert_eq!(out[19], 0xBB);
        assert_eq!(out[20], 0xAA);
    }

    #[test]
    fn invalidate_around_keeps_dirty_pages_when_the_removal_fails() {
        let fs = MemFs::new();
        let pc = cache(true);
        pc.write(&fs, 2, 0, &[7u8; 100]).unwrap();
        let failed: KernelResult<()> = pc.invalidate_around(2, || Err(KernelError::new(Errno::Io)));
        assert_eq!(failed.unwrap_err().errno(), Errno::Io);
        assert_eq!(pc.dirty_pages(), 1, "the file still exists: its dirty page survives");
        pc.invalidate_around(2, || Ok(())).unwrap();
        assert_eq!(pc.dirty_pages(), 0, "removed: nothing left to write back");
    }

    #[test]
    fn truncate_drops_pages_beyond_eof() {
        let fs = MemFs::new();
        let pc = cache(true);
        pc.write(&fs, 2, 0, &vec![9u8; PAGE_SIZE * 3 + 100]).unwrap();
        pc.set_file_size(2, 100);
        assert_eq!(pc.file_size(&fs, 2).unwrap(), 100);
        let mut out = vec![0u8; 200];
        let n = pc.read(&fs, 2, 0, &mut out).unwrap();
        assert_eq!(n, 100);
        // Growing again must not resurrect stale bytes.
        pc.set_file_size(2, PAGE_SIZE as u64);
        let mut out = vec![1u8; PAGE_SIZE];
        pc.read(&fs, 2, 0, &mut out).unwrap();
        assert!(out[100..].iter().all(|&b| b == 0));
    }
}
