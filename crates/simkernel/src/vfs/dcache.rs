//! The dentry cache: the names path walks have learned, kept per mount.
//!
//! A successful lookup of `name` in directory `dir` leaves
//! `name → (ino, kind)` here, so the next walk through `dir` does not ask
//! the file system again.  Only names are cached: attributes always come
//! from the file system, a name that does not exist is not remembered (no
//! negative entries), and `..` is never cached (a directory rename would
//! leave it stale).
//!
//! Two rules keep it coherent with the file system:
//!
//! * a removal (`unlink`, `rmdir`, both names of `rename`) drops its names
//!   before the file-system call, so no walk picks up an inode number the
//!   call may free and a create may recycle;
//! * each drop bumps the cache's generation first, and a lookup caches its
//!   answer only if the generation it read before asking the file system is
//!   unchanged — checked under the shard lock the drop takes.  The removal
//!   drops its names again after the call, for a lookup that read the
//!   generation after the first drop but asked the file system before the
//!   removal.  A lookup that raced a removal therefore leaves nothing
//!   behind.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::error::KernelResult;
use crate::hash::FxHashMap;
use crate::vfs::{FileType, InodeAttr, VfsFs};

/// Shards per mount, picked by directory inode.
const SHARDS: usize = 16;

/// Directory inode → name → [`Dentry`].
type Shard = RwLock<FxHashMap<u64, FxHashMap<Box<str>, Dentry>>>;

/// A cached name: the inode it names and that inode's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Dentry {
    pub(super) ino: u64,
    pub(super) kind: FileType,
}

impl From<InodeAttr> for Dentry {
    fn from(attr: InodeAttr) -> Self {
        Dentry { ino: attr.ino, kind: attr.kind }
    }
}

/// One mount's dentry cache.
#[derive(Default)]
pub(super) struct DentryCache {
    shards: [Shard; SHARDS],
    /// Bumped by every drop of a removal.
    generation: AtomicU64,
}

impl DentryCache {
    fn shard(&self, dir: u64) -> &Shard {
        &self.shards[dir as usize % SHARDS]
    }

    /// The cached entry for `name` in `dir`.
    pub(super) fn get(&self, dir: u64, name: &str) -> Option<Dentry> {
        self.shard(dir).read().get(&dir)?.get(name).copied()
    }

    /// Looks `name` up in `dir` through `fs` and caches the answer, unless
    /// it is `..` or a removal dropped names since the lookup began.
    pub(super) fn lookup(&self, fs: &dyn VfsFs, dir: u64, name: &str) -> KernelResult<InodeAttr> {
        let generation = self.generation.load(Ordering::SeqCst);
        let attr = fs.lookup(dir, name)?;
        if name != ".." {
            let mut shard = self.shard(dir).write();
            if self.generation.load(Ordering::SeqCst) == generation {
                shard.entry(dir).or_default().insert(name.into(), attr.into());
            }
        }
        Ok(attr)
    }

    /// Runs the file-system removal `remove` of `names` (each a directory
    /// and a name in it) with none of them cached before or after it.
    pub(super) fn remove_around<T>(&self, names: &[(u64, &str)], remove: impl FnOnce() -> T) -> T {
        self.drop_names(names);
        let out = remove();
        self.drop_names(names);
        out
    }

    fn drop_names(&self, names: &[(u64, &str)]) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        for &(dir, name) in names {
            let mut shard = self.shard(dir).write();
            if let Some(cached) = shard.get_mut(&dir) {
                cached.remove(name);
                if cached.is_empty() {
                    shard.remove(&dir);
                }
            }
        }
    }

    /// Drops every entry (the mount is going away).
    pub(super) fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    /// Number of cached names (tests).
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().values().map(|names| names.len()).sum::<usize>())
            .sum()
    }
}
