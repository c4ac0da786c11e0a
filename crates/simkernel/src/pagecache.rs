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
//! memcpy-bound), and a writeback routine that makes **one `write_pages`
//! call per pass**.  A pass is every file with dirty pages (`sync`,
//! unmount) or one file (`fsync`, the dirty threshold); the call lends
//! each file's whole sorted set of dirty pages, adjacent or not, with the
//! files in ascending inode order, and how the pass is cut into
//! transactions (or FUSE requests) is the file system's business, which
//! knows what its log can hold.  Packing several files into one
//! transaction goes beyond the paper: Linux `sync` calls `writepages` once
//! per inode.
//!
//! Fills mirror that: a read (or a write's read-modify-write of a partial
//! page) fills each run of adjacent missing pages of its range, clipped
//! to EOF, with **one `read_pages` call**, into fresh pages whose buffers
//! it lends.  The VFS baseline and BentoFS take the trait default, a
//! `read_page` per page; the FUSE driver sends the run as one READ, as the
//! kernel FUSE client does.  A fill that fails caches nothing.
//!
//! A pass either succeeds as a whole or marks nothing clean: if
//! `write_pages` fails, every file of the pass keeps its dirty pages and
//! the next pass writes them again, including any prefix the file system
//! had already committed (rewriting it is idempotent).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::error::KernelResult;
use crate::shard::{ShardedMap, StripedCounter};
use crate::vfs::{VfsFs, WritebackFile, PAGE_SIZE};

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

    /// The dirty pages, as `(page_index, data)` sorted by index.
    fn dirty_pages(&self) -> Vec<(u64, &[u8])> {
        self.pages.iter().filter(|(_, p)| p.dirty).map(|(idx, p)| (*idx, &*p.data)).collect()
    }

    /// Marks every page clean after a successful write-back, and trims the
    /// cache if it has grown very large.
    fn mark_clean(&mut self) {
        for page in self.pages.values_mut() {
            page.dirty = false;
        }
        self.dirty_count = 0;
        if self.pages.len() > MAX_CACHED_PAGES_PER_FILE {
            let excess = self.pages.len() - MAX_CACHED_PAGES_PER_FILE;
            let victims: Vec<u64> = self.pages.keys().copied().take(excess).collect();
            for v in victims {
                self.pages.remove(&v);
            }
        }
    }
}

/// Soft cap on total cached pages per file; clean pages beyond the cap are
/// dropped after writeback.
const MAX_CACHED_PAGES_PER_FILE: usize = 65_536;

/// Behavioural knobs for the page cache.
#[derive(Debug, Clone)]
pub struct PageCacheConfig {
    /// When a single file accumulates this many dirty pages, the writing
    /// thread performs writeback synchronously (dirty throttling).
    pub dirty_threshold_pages: usize,
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        PageCacheConfig { dirty_threshold_pages: 512 }
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
    /// Pages written back through a file system with a batched
    /// `write_pages`.
    pub writeback_batched: u64,
    /// Files written back through a file system with a batched
    /// `write_pages`: one per inode per write-back pass.
    pub writeback_batches: u64,
    /// Write-back passes: `write_pages` calls into the file system, each
    /// carrying one file (`fsync`, the dirty threshold) or every file with
    /// dirty pages (`sync`, unmount).
    pub writeback_passes: u64,
}

/// Hot-path counters, striped so concurrent readers/writers on different
/// files do not bounce one statistics cache line (see
/// [`StripedCounter`]).
#[derive(Debug, Default)]
struct StripedStats {
    read_hits: StripedCounter,
    read_fills: StripedCounter,
    writeback_single: StripedCounter,
    writeback_batched: StripedCounter,
    writeback_batches: StripedCounter,
    writeback_passes: StripedCounter,
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
    /// Whether the file system batches `write_pages` (which decides only
    /// how write-back is counted).
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
    /// Creates a page cache.  `batch_writeback` says whether the file
    /// system's `write_pages` is batched (counted as batched write-back) or
    /// the per-page default (counted as single-page write-back); the VFS
    /// baseline passes `false`.
    pub fn new(config: PageCacheConfig, batch_writeback: bool) -> Self {
        PageCache {
            config,
            files: ShardedMap::default(),
            stats: StripedStats::default(),
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
            writeback_passes: self.stats.writeback_passes.get(),
        }
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

    /// Fills the pages of `wanted` (ascending page indexes, before EOF)
    /// that `fp` does not hold, with one [`VfsFs::read_pages`] call per run
    /// of adjacent missing pages.  The pages are allocated first and their
    /// buffers lent to the file system, so each byte is copied once; they
    /// are cached only after every run has been read, so on an error none
    /// is.  Returns the number of pages filled.
    fn fill(
        &self,
        fs: &Arc<dyn VfsFs>,
        ino: u64,
        fp: &mut FilePages,
        wanted: impl IntoIterator<Item = u64>,
    ) -> KernelResult<usize> {
        let missing: Vec<u64> =
            wanted.into_iter().filter(|page_idx| !fp.pages.contains_key(page_idx)).collect();
        if missing.is_empty() {
            return Ok(0);
        }
        let mut pages: Vec<Page> = missing.iter().map(|_| Page::new_zeroed()).collect();
        let mut rest = pages.as_mut_slice();
        for run in missing.chunk_by(|a, b| a + 1 == *b) {
            let (now, later) = rest.split_at_mut(run.len());
            rest = later;
            let mut bufs: Vec<&mut [u8]> = now.iter_mut().map(|page| &mut *page.data).collect();
            let filled = fs.read_pages(ino, run[0], &mut bufs)?;
            debug_assert!(filled <= run.len() * PAGE_SIZE);
        }
        self.stats.read_fills.add(missing.len() as u64);
        fp.pages.extend(missing.iter().copied().zip(pages));
        Ok(missing.len())
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

    /// The size the cache holds for `ino`, if it has loaded one: no
    /// file-system call, and no entry is created for a file it does not
    /// cache.
    pub fn cached_size(&self, ino: u64) -> Option<u64> {
        let file = self.files.get(&ino)?;
        let fp = file.lock();
        fp.size_loaded.then_some(fp.size)
    }

    /// Takes `size`, from attributes the caller has just resolved, as
    /// `ino`'s size unless one is loaded already (buffered writes may have
    /// moved a loaded size past the file system's).  Spares the first read
    /// or write of a freshly opened file a `getattr`.
    pub fn seed_size(&self, ino: u64, size: u64) {
        let file = self.file(ino);
        let mut fp = file.lock();
        if !fp.size_loaded {
            fp.size = size;
            fp.size_loaded = true;
        }
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
        let first = offset / PAGE_SIZE as u64;
        let end = (offset + to_read as u64).div_ceil(PAGE_SIZE as u64);
        let filled = self.fill(fs, ino, &mut fp, first..end)?;
        self.stats.read_hits.add(end - first - filled as u64);
        let mut done = 0usize;
        for (&page_idx, page) in fp.pages.range(first..end) {
            let pos = offset + done as u64;
            debug_assert_eq!(page_idx, pos / PAGE_SIZE as u64, "every page was just filled");
            let page_off = (pos % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - page_off).min(to_read - done);
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
        // Only the first and the last page can be partly overwritten; those
        // that hold data before EOF are read in first.
        let end = offset + data.len() as u64;
        let partial = |p: u64| offset > p * PAGE_SIZE as u64 || end < (p + 1) * PAGE_SIZE as u64;
        let size = fp.size;
        let (first, last) = (offset / PAGE_SIZE as u64, (end - 1) / PAGE_SIZE as u64);
        let rmw = (first..=last).filter(|&p| partial(p) && p * (PAGE_SIZE as u64) < size);
        self.fill(fs, ino, fp, rmw)?;
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let page_idx = pos / PAGE_SIZE as u64;
            let page_off = (pos % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - page_off).min(data.len() - done);
            let page = fp.pages.entry(page_idx).or_insert_with(Page::new_zeroed);
            page.data[page_off..page_off + chunk].copy_from_slice(&data[done..done + chunk]);
            if !page.dirty {
                page.dirty = true;
                fp.dirty_count += 1;
            }
            done += chunk;
        }
        fp.size = fp.size.max(offset + data.len() as u64);
        if fp.dirty_count >= self.config.dirty_threshold_pages {
            self.writeback_pass(fs, &mut [(ino, fp)])?;
        }
        Ok(done)
    }

    /// Writes back every dirty page of `ino` to the file system: a pass of
    /// one file.
    ///
    /// # Errors
    ///
    /// Propagates file system write errors; the file stays dirty.
    pub fn writeback(&self, fs: &Arc<dyn VfsFs>, ino: u64) -> KernelResult<()> {
        let file = self.file(ino);
        let mut fp = file.lock();
        if fp.dirty_count == 0 {
            return Ok(());
        }
        self.writeback_pass(fs, &mut [(ino, &mut fp)])
    }

    /// Writes back every file with dirty pages in one pass (used by
    /// `sync`, `fsync` on a directory, and unmount).  The files are locked
    /// in ascending inode order and stay locked for the whole pass.
    ///
    /// # Errors
    ///
    /// Propagates file system write errors; no file of the pass is marked
    /// clean.
    pub fn writeback_all(&self, fs: &Arc<dyn VfsFs>) -> KernelResult<()> {
        let mut inos = self.files.keys();
        inos.sort_unstable();
        let entries: Vec<(u64, Arc<Mutex<FilePages>>)> =
            inos.into_iter().filter_map(|ino| Some((ino, self.files.get(&ino)?))).collect();
        let mut locked: Vec<(u64, MutexGuard<'_, FilePages>)> = entries
            .iter()
            .map(|(ino, file)| (*ino, file.lock()))
            .filter(|(_, fp)| fp.dirty_count > 0)
            .collect();
        if locked.is_empty() {
            return Ok(());
        }
        let mut files: Vec<(u64, &mut FilePages)> =
            locked.iter_mut().map(|(ino, fp)| (*ino, &mut **fp)).collect();
        self.writeback_pass(fs, &mut files)
    }

    /// One write-back pass: a single `write_pages` call carrying every
    /// dirty page of `files` (locked, dirty, in ascending inode order).
    /// Only if it succeeds are the files marked clean.
    fn writeback_pass(
        &self,
        fs: &Arc<dyn VfsFs>,
        files: &mut [(u64, &mut FilePages)],
    ) -> KernelResult<()> {
        debug_assert!(files.windows(2).all(|w| w[0].0 < w[1].0), "a pass is sorted by inode");
        let pages = {
            let dirty: Vec<Vec<(u64, &[u8])>> =
                files.iter().map(|(_, fp)| fp.dirty_pages()).collect();
            let pass: Vec<WritebackFile<'_>> = files
                .iter()
                .zip(&dirty)
                .map(|((ino, fp), pages)| (*ino, pages.as_slice(), fp.size))
                .collect();
            fs.write_pages(&pass)?;
            dirty.iter().map(Vec::len).sum::<usize>() as u64
        };
        if self.batch_writeback {
            self.stats.writeback_batched.add(pages);
            self.stats.writeback_batches.add(files.len() as u64);
        } else {
            self.stats.writeback_single.add(pages);
        }
        self.stats.writeback_passes.inc();
        for (_, fp) in files.iter_mut() {
            fp.mark_clean();
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

    /// Files the cache holds an entry for (diagnostics).
    pub fn cached_files(&self) -> usize {
        self.files.len()
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

    /// What one `write_pages` call carried: `(ino, page indexes)` per file.
    type PassRecord = Vec<(u64, Vec<u64>)>;

    /// A trivial in-memory VfsFs used to test the page cache in isolation.
    struct MemFs {
        files: PlMutex<Map<u64, Vec<u8>>>,
        write_page_calls: PlMutex<u64>,
        /// What each `write_pages` call carried.
        write_pages_calls: PlMutex<Vec<PassRecord>>,
        /// An inode whose write-back fails with `EIO`.
        failing: PlMutex<Option<u64>>,
        /// What each `read_pages` call asked for: `(ino, first_page, pages)`.
        read_pages_calls: PlMutex<Vec<(u64, u64, usize)>>,
        /// A first page whose `read_pages` call fails with `EIO`.
        failing_fill: PlMutex<Option<u64>>,
    }

    impl MemFs {
        #[allow(clippy::new_ret_no_self)]
        fn new() -> Arc<dyn VfsFs> {
            Self::concrete()
        }

        /// The same file system with its call records reachable.
        fn concrete() -> Arc<MemFs> {
            Self::with_files(&[2])
        }

        /// Empty files `inos`, with the call records reachable.
        fn with_files(inos: &[u64]) -> Arc<MemFs> {
            Arc::new(MemFs {
                files: PlMutex::new(inos.iter().map(|&ino| (ino, Vec::new())).collect()),
                write_page_calls: PlMutex::new(0),
                write_pages_calls: PlMutex::new(Vec::new()),
                failing: PlMutex::new(None),
                read_pages_calls: PlMutex::new(Vec::new()),
                failing_fill: PlMutex::new(None),
            })
        }

        /// File 2 holding `len` bytes, byte `i` being `i % 251`, written
        /// straight to the file system (nothing cached).
        fn with_contents(len: usize) -> Arc<MemFs> {
            let mem = Self::concrete();
            mem.files.lock().insert(2, pattern(len));
            mem
        }

        /// Takes the recorded `read_pages` calls.
        fn fills(&self) -> Vec<(u64, u64, usize)> {
            std::mem::take(&mut *self.read_pages_calls.lock())
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
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
        fn read_pages(
            &self,
            ino: u64,
            first_page: u64,
            pages: &mut [&mut [u8]],
        ) -> KernelResult<usize> {
            self.read_pages_calls.lock().push((ino, first_page, pages.len()));
            if *self.failing_fill.lock() == Some(first_page) {
                return Err(KernelError::new(Errno::Io));
            }
            let mut filled = 0;
            for (page_index, page) in (first_page..).zip(pages.iter_mut()) {
                filled += self.read_page(ino, page_index, page)?;
            }
            Ok(filled)
        }
        fn write_page(
            &self,
            ino: u64,
            page_index: u64,
            data: &[u8],
            file_size: u64,
        ) -> KernelResult<()> {
            *self.write_page_calls.lock() += 1;
            if *self.failing.lock() == Some(ino) {
                return Err(KernelError::new(Errno::Io));
            }
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
        fn write_pages(&self, files: &[WritebackFile<'_>]) -> KernelResult<()> {
            self.write_pages_calls.lock().push(
                files
                    .iter()
                    .map(|&(ino, pages, _)| (ino, pages.iter().map(|(index, _)| *index).collect()))
                    .collect(),
            );
            for &(ino, pages, file_size) in files {
                for &(page_index, page) in pages {
                    self.write_page(ino, page_index, page, file_size)?;
                }
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
        assert_eq!(
            *mem.write_pages_calls.lock(),
            [[(2, vec![0, 1, 2, 10, 11])]],
            "one call, sorted"
        );
        let stats = pc.stats();
        assert_eq!((stats.writeback_batches, stats.writeback_batched), (1, 5));
        assert_eq!(stats.writeback_passes, 1);
        // A second pass with nothing dirty makes no call at all.
        pc.writeback(&fs, 2).unwrap();
        assert_eq!(pc.stats().writeback_batches, 1);

        // The unbatched path: a `write_page` per page.
        let mem = MemFs::concrete();
        let fs: Arc<dyn VfsFs> = Arc::clone(&mem) as _;
        let pc = cache(false);
        dirty_two_runs(&pc, &fs);
        assert_eq!(*mem.write_page_calls.lock(), 5);
        assert_eq!(mem.write_pages_calls.lock().len(), 1, "one pass, by the trait's default");
        assert_eq!(pc.stats().writeback_single, 5);
    }

    #[test]
    fn sync_is_one_pass_over_every_dirty_file_in_inode_order() {
        let mem = MemFs::with_files(&[2, 3, 5, 9]);
        let fs: Arc<dyn VfsFs> = Arc::clone(&mem) as _;
        let pc = cache(true);
        for (ino, pages) in [(9u64, 2usize), (3, 1), (2, 3)] {
            pc.write(&fs, ino, 0, &vec![ino as u8; PAGE_SIZE * pages]).unwrap();
        }
        // Cached but clean: read, not written.
        pc.read(&fs, 5, 0, &mut [0u8; 16]).unwrap();
        pc.writeback_all(&fs).unwrap();
        let calls = mem.write_pages_calls.lock().clone();
        assert_eq!(calls, [vec![(2, vec![0, 1, 2]), (3, vec![0]), (9, vec![0, 1])]]);
        let stats = pc.stats();
        assert_eq!(
            (stats.writeback_passes, stats.writeback_batches, stats.writeback_batched),
            (1, 3, 6),
            "one pass, one batch per file, every page"
        );
        assert_eq!(pc.dirty_pages(), 0);
        // Nothing dirty: no call.
        pc.writeback_all(&fs).unwrap();
        assert_eq!(mem.write_pages_calls.lock().len(), 1);
    }

    #[test]
    fn a_failed_pass_marks_no_file_clean_and_the_next_pass_rewrites_it() {
        let mem = MemFs::with_files(&[2, 3, 4]);
        let fs: Arc<dyn VfsFs> = Arc::clone(&mem) as _;
        let pc = cache(true);
        for ino in [2u64, 3, 4] {
            pc.write(&fs, ino, 0, &vec![ino as u8; PAGE_SIZE + 10]).unwrap();
        }
        *mem.failing.lock() = Some(3);
        let failed = pc.writeback_all(&fs).unwrap_err();
        assert_eq!(failed.errno(), Errno::Io);
        // The file system got as far as ino 2 before ino 3 failed; nothing
        // of the pass is clean, and nothing was counted.
        assert_eq!(fs.getattr(2).unwrap().size, (PAGE_SIZE + 10) as u64, "a committed prefix");
        assert_eq!(fs.getattr(4).unwrap().size, 0);
        assert_eq!(pc.dirty_pages(), 6);
        assert_eq!(pc.stats(), PageCacheStats::default());

        // The next pass carries all three again; rewriting ino 2 is
        // idempotent.
        *mem.failing.lock() = None;
        pc.writeback_all(&fs).unwrap();
        let calls = mem.write_pages_calls.lock().clone();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0], calls[1], "the same pass, whole");
        assert_eq!(pc.dirty_pages(), 0);
        for ino in [2u64, 3, 4] {
            let mut page = vec![0u8; PAGE_SIZE];
            assert_eq!(fs.read_page(ino, 1, &mut page).unwrap(), 10);
            assert!(page[..10].iter().all(|&b| b == ino as u8), "ino {ino}");
        }
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
        let pc = PageCache::new(PageCacheConfig { dirty_threshold_pages: 4 }, true);
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

    #[test]
    fn a_cold_read_is_one_fill_call_for_the_whole_run() {
        let mem = MemFs::with_contents(20 * PAGE_SIZE);
        let fs: Arc<dyn VfsFs> = Arc::clone(&mem) as _;
        let pc = cache(true);
        let mut buf = vec![0u8; 16 * PAGE_SIZE];
        assert_eq!(pc.read(&fs, 2, 0, &mut buf).unwrap(), buf.len());
        assert_eq!(buf, pattern(16 * PAGE_SIZE));
        assert_eq!(mem.fills(), [(2, 0, 16)], "one call of 16 pages");
        assert_eq!((pc.stats().read_fills, pc.stats().read_hits), (16, 0));
        // Warm: no call at all.
        pc.read(&fs, 2, 0, &mut buf).unwrap();
        assert!(mem.fills().is_empty());
        assert_eq!((pc.stats().read_fills, pc.stats().read_hits), (16, 16));
    }

    #[test]
    fn each_run_of_missing_pages_is_one_fill_call() {
        let mem = MemFs::with_contents(5 * PAGE_SIZE);
        let fs: Arc<dyn VfsFs> = Arc::clone(&mem) as _;
        let pc = cache(true);
        let mut buf = vec![0u8; 5 * PAGE_SIZE];
        pc.read(&fs, 2, 0, &mut buf[..10]).unwrap();
        pc.read(&fs, 2, 3 * PAGE_SIZE as u64 + 7, &mut buf[..10]).unwrap();
        assert_eq!(mem.fills(), [(2, 0, 1), (2, 3, 1)]);
        // Cached, missing, missing, cached, missing: two runs, two calls.
        assert_eq!(pc.read(&fs, 2, 0, &mut buf).unwrap(), buf.len());
        assert_eq!(buf, pattern(5 * PAGE_SIZE));
        assert_eq!(mem.fills(), [(2, 1, 2), (2, 4, 1)]);
        assert_eq!((pc.stats().read_fills, pc.stats().read_hits), (5, 2));
    }

    #[test]
    fn no_page_at_or_past_eof_is_filled() {
        let len = 2 * PAGE_SIZE + 1000;
        let mem = MemFs::with_contents(len);
        let fs: Arc<dyn VfsFs> = Arc::clone(&mem) as _;
        let pc = cache(true);
        let mut buf = vec![0u8; 16 * PAGE_SIZE];
        assert_eq!(pc.read(&fs, 2, 0, &mut buf).unwrap(), len);
        assert_eq!(buf[..len], pattern(len)[..]);
        assert_eq!(mem.fills(), [(2, 0, 3)], "the page holding EOF, none after it");
        assert_eq!(pc.read(&fs, 2, len as u64, &mut buf).unwrap(), 0);
        assert!(mem.fills().is_empty());

        // A write's read-modify-write fill stops at EOF too: a partial
        // page past it is zeros, one before it is read.
        pc.invalidate(2);
        pc.write(&fs, 2, 5 * PAGE_SIZE as u64 + 10, &[1u8; 10]).unwrap();
        assert!(mem.fills().is_empty(), "page 5 lies past EOF");
        pc.write(&fs, 2, PAGE_SIZE as u64 - 5, &[2u8; 10]).unwrap();
        assert_eq!(mem.fills(), [(2, 0, 2)], "both partial pages, adjacent: one run");
        pc.write(&fs, 2, 10, &vec![3u8; 2 * PAGE_SIZE]).unwrap();
        assert_eq!(mem.fills(), [(2, 2, 1)], "only the uncached partial tail page");
        assert_eq!(pc.stats().read_fills, 3 + 3, "the read's pages, then the writes'");
    }

    #[test]
    fn a_failed_fill_caches_nothing_and_the_retry_reads_the_right_bytes() {
        let mem = MemFs::with_contents(5 * PAGE_SIZE);
        let fs: Arc<dyn VfsFs> = Arc::clone(&mem) as _;
        let pc = cache(true);
        let mut buf = vec![0u8; 5 * PAGE_SIZE];
        pc.read(&fs, 2, 0, &mut buf[..10]).unwrap();
        pc.read(&fs, 2, 3 * PAGE_SIZE as u64, &mut buf[..10]).unwrap();
        mem.fills();
        // The second run fails after the first was read: neither is cached.
        *mem.failing_fill.lock() = Some(4);
        assert_eq!(pc.read(&fs, 2, 0, &mut buf).unwrap_err().errno(), Errno::Io);
        assert_eq!(mem.fills(), [(2, 1, 2), (2, 4, 1)]);
        assert_eq!(pc.stats().read_fills, 2, "only the two earlier fills count");
        *mem.failing_fill.lock() = None;
        buf.fill(0);
        assert_eq!(pc.read(&fs, 2, 0, &mut buf).unwrap(), buf.len());
        assert_eq!(buf, pattern(5 * PAGE_SIZE));
        assert_eq!(mem.fills(), [(2, 1, 2), (2, 4, 1)], "the retry asks for both runs again");
        assert_eq!(pc.stats().read_fills, 5);
        // A write whose fill fails changes nothing either.
        pc.invalidate(2);
        *mem.failing_fill.lock() = Some(0);
        assert_eq!(pc.write(&fs, 2, 10, &[9u8; 10]).unwrap_err().errno(), Errno::Io);
        assert_eq!(pc.dirty_pages(), 0);
        *mem.failing_fill.lock() = None;
        pc.read(&fs, 2, 0, &mut buf).unwrap();
        assert_eq!(buf, pattern(5 * PAGE_SIZE));
    }
}
