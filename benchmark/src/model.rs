//! The generator's model of what the file system must contain.
//!
//! Every byte the benchmark writes is a slice of one seeded [`Pool`], so a
//! file's expected content is a short list of pool references instead of a
//! shadow copy.  [`Namespace`] is advanced op by op as the driver executes
//! the stream ([`Namespace::apply`]); reads are compared against it the
//! moment they return, and after every pass the mounted tree must match it
//! exactly (see `verify`).

use std::collections::{BTreeMap, BTreeSet};

use crate::rng::Rng;

pub const PAGE: usize = 4096;
/// 4 MiB of seeded bytes plus slack for the longest (128 KiB) page run.
const POOL_PAGES: u32 = 1024 + 32;

/// The seeded byte pool all written data is cut from.
pub struct Pool {
    bytes: Vec<u8>,
}

impl Pool {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::fork(seed, 0x706f_6f6c);
        let mut bytes = Vec::with_capacity(POOL_PAGES as usize * PAGE);
        while bytes.len() < bytes.capacity() {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Pool { bytes }
    }

    pub fn slice(&self, off: u32, len: u32) -> &[u8] {
        &self.bytes[off as usize..(off + len) as usize]
    }

    pub fn pages(&self, page: u32, n: u32) -> &[u8] {
        self.slice(page * PAGE as u32, n * PAGE as u32)
    }

    /// A random byte offset at which `len` bytes fit.
    pub fn pick(&self, rng: &mut Rng, len: u32) -> u32 {
        rng.below(self.bytes.len() as u64 - len as u64 + 1) as u32
    }

    /// A random page index at which a run of `n` pages fits.
    pub fn pick_pages(&self, rng: &mut Rng, n: u32) -> u32 {
        rng.below((POOL_PAGES - n + 1) as u64) as u32
    }
}

/// Expected content of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Content {
    /// Concatenation of `(pool byte offset, length)` extents — small files
    /// that are written once and appended to.
    Extents(Vec<(u32, u32)>),
    /// One pool page index per file page — the big file that is overwritten
    /// in place at page granularity.
    Paged(Vec<u32>),
}

impl Content {
    pub fn len(&self) -> u64 {
        match self {
            Content::Extents(ext) => ext.iter().map(|&(_, len)| len as u64).sum(),
            Content::Paged(pages) => (pages.len() * PAGE) as u64,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `data`, read from file offset `offset`, is what the file
    /// must hold there.  Reading past the expected end never matches.
    pub fn matches(&self, pool: &Pool, offset: u64, data: &[u8]) -> bool {
        if offset + data.len() as u64 > self.len() {
            return false;
        }
        match self {
            Content::Extents(ext) => {
                let (mut pos, mut done) = (0u64, 0usize);
                for &(off, len) in ext {
                    let end = pos + len as u64;
                    let want_from = offset + done as u64;
                    if done < data.len() && want_from < end {
                        let skip = (want_from - pos) as u32;
                        let take = ((len - skip) as usize).min(data.len() - done);
                        if data[done..done + take] != *pool.slice(off + skip, take as u32) {
                            return false;
                        }
                        done += take;
                    }
                    pos = end;
                }
                done == data.len()
            }
            Content::Paged(pages) => {
                debug_assert!(
                    offset.is_multiple_of(PAGE as u64) && data.len().is_multiple_of(PAGE)
                );
                let first = (offset / PAGE as u64) as usize;
                data.chunks(PAGE).zip(&pages[first..]).all(|(got, &p)| got == pool.pages(p, 1))
            }
        }
    }
}

/// One operation of a workload: one instance of an op class, possibly
/// several syscalls.  Everything the executor needs is in the op, so the
/// program under test sees only generated syscalls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    // mail_sync
    /// create, write, fsync, close, then unlink `victim`.
    Deliver {
        path: String,
        pool_off: u32,
        len: u32,
        victim: String,
    },
    /// open O_APPEND, write, fsync, close.
    AppendSync {
        path: String,
        pool_off: u32,
        len: u32,
    },
    /// open, read to EOF in 64 KiB chunks, close (also `cold_scan`'s op).
    ReadWhole {
        path: String,
    },
    Stat {
        path: String,
    },
    // data_cached (one open fd on the big file)
    Pread {
        off: u64,
        len: u32,
    },
    Pwrite {
        off: u64,
        pool_page: u32,
        pages: u32,
    },
    /// fsync of the big file's descriptor.
    FsyncBig,
    // tree_meta
    Mkdir {
        path: String,
    },
    /// create, write, close — no fsync.
    Create {
        path: String,
        pool_off: u32,
        len: u32,
    },
    Sync,
    Readdir {
        path: String,
        entries: u32,
    },
    Rename {
        from: String,
        to: String,
    },
    Unlink {
        path: String,
    },
    Rmdir {
        path: String,
    },
}

impl Op {
    /// The op class, as printed in reports and recorded in spans.
    pub fn class(&self) -> &'static str {
        match self {
            Op::Deliver { .. } => "deliver",
            Op::AppendSync { .. } => "append_sync",
            Op::ReadWhole { .. } => "read_whole",
            Op::Stat { .. } => "stat",
            Op::Pread { len, .. } if *len as usize == PAGE => "pread_4k_rnd",
            Op::Pread { .. } => "pread_128k_seq",
            Op::Pwrite { pages: 1, .. } => "pwrite_4k_rnd",
            Op::Pwrite { .. } => "pwrite_128k_seq",
            Op::FsyncBig => "fsync",
            Op::Mkdir { .. } => "mkdir",
            Op::Create { .. } => "create",
            Op::Sync => "sync",
            Op::Readdir { .. } => "readdir",
            Op::Rename { .. } => "rename",
            Op::Unlink { .. } => "unlink",
            Op::Rmdir { .. } => "rmdir",
        }
    }
}

/// The big file of `data_cached`.
pub const BIG_FILE: &str = "/big";

/// What the mounted tree must contain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Namespace {
    pub files: BTreeMap<String, Content>,
    pub dirs: BTreeSet<String>,
    /// Files unlinked since the last acknowledged fsync.  After a dropped
    /// mount these may legitimately be back (an unlink is durable only once
    /// a later commit is); every earlier unlink must stay gone.
    pub unsynced_unlinks: Vec<String>,
}

impl Namespace {
    /// Advances the model past `op` (called after the op succeeded).
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Deliver { path, pool_off, len, victim } => {
                self.files.insert(path.clone(), Content::Extents(vec![(*pool_off, *len)]));
                self.files.remove(victim);
                // The fsync came before the unlink.
                self.unsynced_unlinks = vec![victim.clone()];
            }
            Op::AppendSync { path, pool_off, len } => {
                if let Some(Content::Extents(ext)) = self.files.get_mut(path) {
                    ext.push((*pool_off, *len));
                }
                self.unsynced_unlinks.clear();
            }
            Op::Pwrite { off, pool_page, pages } => {
                if let Some(Content::Paged(map)) = self.files.get_mut(BIG_FILE) {
                    let first = (*off / PAGE as u64) as usize;
                    for i in 0..*pages as usize {
                        // Populate writes sequentially past the end.
                        match map.get_mut(first + i) {
                            Some(page) => *page = pool_page + i as u32,
                            None => map.push(pool_page + i as u32),
                        }
                    }
                }
            }
            Op::Mkdir { path } => {
                self.dirs.insert(path.clone());
            }
            Op::Create { path, pool_off, len } => {
                let content = if path == BIG_FILE {
                    Content::Paged(Vec::new())
                } else {
                    Content::Extents(vec![(*pool_off, *len)])
                };
                self.files.insert(path.clone(), content);
            }
            Op::Rename { from, to } => {
                if let Some(content) = self.files.remove(from) {
                    self.files.insert(to.clone(), content);
                }
            }
            Op::Unlink { path } => {
                self.files.remove(path);
                self.unsynced_unlinks.push(path.clone());
            }
            Op::Rmdir { path } => {
                self.dirs.remove(path);
            }
            Op::Sync | Op::FsyncBig => self.unsynced_unlinks.clear(),
            Op::ReadWhole { .. } | Op::Stat { .. } | Op::Pread { .. } | Op::Readdir { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_match_at_any_offset_and_reject_wrong_bytes() {
        let pool = Pool::new(3);
        let content = Content::Extents(vec![(100, 5000), (9000, 4096), (7, 33)]);
        let mut whole = Vec::new();
        for &(off, len) in &[(100u32, 5000u32), (9000, 4096), (7, 33)] {
            whole.extend_from_slice(pool.slice(off, len));
        }
        assert_eq!(content.len(), whole.len() as u64);
        assert!(content.matches(&pool, 0, &whole));
        assert!(content.matches(&pool, 4990, &whole[4990..9100]));
        assert!(content.matches(&pool, whole.len() as u64, &[]));
        let mut bad = whole.clone();
        bad[5001] ^= 1;
        assert!(!content.matches(&pool, 0, &bad));
        assert!(!content.matches(&pool, 1, &whole), "reading past EOF must not match");
    }

    #[test]
    fn paged_content_follows_overwrites() {
        let pool = Pool::new(3);
        let mut ns = Namespace::default();
        ns.files.insert(BIG_FILE.into(), Content::Paged(vec![0, 1, 2, 3]));
        ns.apply(&Op::Pwrite { off: PAGE as u64, pool_page: 40, pages: 2 });
        let content = &ns.files[BIG_FILE];
        assert_eq!(*content, Content::Paged(vec![0, 40, 41, 3]));
        assert!(content.matches(&pool, PAGE as u64, pool.pages(40, 2)));
        assert!(!content.matches(&pool, 0, pool.pages(40, 1)));
    }

    #[test]
    fn unlinks_are_uncertain_until_the_next_fsync() {
        let mut ns = Namespace::default();
        ns.apply(&Op::Create { path: "/a".into(), pool_off: 0, len: 1 });
        ns.apply(&Op::Deliver { path: "/b".into(), pool_off: 0, len: 1, victim: "/a".into() });
        assert_eq!(ns.unsynced_unlinks, vec!["/a".to_string()]);
        ns.apply(&Op::AppendSync { path: "/b".into(), pool_off: 8, len: 2 });
        assert!(ns.unsynced_unlinks.is_empty());
        assert_eq!(ns.files["/b"].len(), 3);
    }
}
