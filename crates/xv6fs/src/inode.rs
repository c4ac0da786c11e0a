//! In-memory inodes and the inode cache.
//!
//! The xv6 design keeps a small cache of in-memory inodes, each protected by
//! a sleeping lock.  The Rust port follows the paper's note (§6.1) that the
//! Rust versions carry *more* locks than the original C code: every cached
//! inode is wrapped in a reader/writer lock instead of relying on implicit
//! conventions.

use std::sync::Arc;

use parking_lot::RwLock;

use simkernel::shard::ShardedMap;
use simkernel::vfs::{FileType, InodeAttr};

use crate::layout::{Dinode, NDIRECT, T_DEVICE, T_DIR, T_FREE};

/// The mutable state of an in-memory inode (a decoded `Dinode` plus a
/// validity flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeData {
    /// Whether the on-disk inode has been read into this structure.
    pub valid: bool,
    /// File type (`T_DIR`, `T_FILE`, `T_DEVICE`, or `T_FREE`).
    pub ftype: u16,
    /// Device major number.
    pub major: u16,
    /// Device minor number.
    pub minor: u16,
    /// Link count.
    pub nlink: u16,
    /// Size in bytes.
    pub size: u64,
    /// Direct, indirect, and double-indirect block addresses.
    pub addrs: [u32; NDIRECT + 2],
}

impl Default for InodeData {
    fn default() -> Self {
        InodeData {
            valid: false,
            ftype: T_FREE,
            major: 0,
            minor: 0,
            nlink: 0,
            size: 0,
            addrs: [0; NDIRECT + 2],
        }
    }
}

impl InodeData {
    /// Builds in-memory state from an on-disk inode.
    pub fn from_dinode(d: &Dinode) -> Self {
        InodeData {
            valid: true,
            ftype: d.ftype,
            major: d.major,
            minor: d.minor,
            nlink: d.nlink,
            size: d.size,
            addrs: d.addrs,
        }
    }

    /// Converts back to the on-disk representation.
    pub fn to_dinode(&self) -> Dinode {
        Dinode {
            ftype: self.ftype,
            major: self.major,
            minor: self.minor,
            nlink: self.nlink,
            size: self.size,
            addrs: self.addrs,
        }
    }

    /// The VFS-visible file type.  Free inodes report as regular files (they
    /// should never escape to callers).
    pub fn file_type(&self) -> FileType {
        match self.ftype {
            T_DIR => FileType::Directory,
            T_DEVICE => FileType::Device,
            _ => FileType::Regular,
        }
    }

    /// Whether this inode is a directory.
    pub fn is_dir(&self) -> bool {
        self.ftype == T_DIR
    }

    /// Whether this inode slot is free.
    pub fn is_free(&self) -> bool {
        self.ftype == T_FREE
    }

    /// VFS attributes for inode number `inum`.
    pub fn attr(&self, inum: u32) -> InodeAttr {
        InodeAttr {
            ino: inum as u64,
            kind: self.file_type(),
            size: self.size,
            nlink: self.nlink as u32,
            blocks: self.size.div_ceil(512),
            perm: if self.is_dir() { 0o755 } else { 0o644 },
        }
    }
}

/// An in-memory inode: the lock plus its data.
#[derive(Debug)]
pub struct Inode {
    /// Inode number.
    pub inum: u32,
    /// Guarded inode state.
    pub data: RwLock<InodeData>,
}

impl Inode {
    fn new(inum: u32) -> Self {
        Inode { inum, data: RwLock::new(InodeData::default()) }
    }
}

/// The inode cache: inode number → shared in-memory inode.
///
/// Sharded ([`ShardedMap`]): `iget` of different inodes takes different
/// locks, so the paper's 32-thread create/lookup workloads do not serialize
/// on one cache-wide mutex.  Each inode still carries its own
/// reader/writer lock (the xv6 sleeplock split — the cache lock protects
/// *presence*, the per-inode lock protects *content*).
#[derive(Debug, Default)]
pub struct InodeCache {
    map: ShardedMap<u32, Arc<Inode>>,
}

impl InodeCache {
    /// Creates an empty cache with the default shard count.
    pub fn new() -> Self {
        InodeCache::default()
    }

    /// Returns the cached inode for `inum`, creating an (invalid, unread)
    /// entry if needed — the equivalent of `iget`.
    pub fn get(&self, inum: u32) -> Arc<Inode> {
        self.map.get_or_insert_with(inum, || Arc::new(Inode::new(inum)))
    }

    /// Drops the cache entry for `inum` (after the inode has been freed on
    /// disk).
    pub fn remove(&self, inum: u32) {
        self.map.remove(&inum);
    }

    /// Number of cached inodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inode numbers currently cached (used for upgrade state transfer).
    pub fn cached_inums(&self) -> Vec<u32> {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{INODE_SIZE, T_FILE};

    #[test]
    fn dinode_conversion_roundtrip() {
        let mut d =
            Dinode { ftype: T_FILE, major: 1, minor: 2, nlink: 3, size: 4096, ..Dinode::default() };
        d.addrs[0] = 55;
        d.addrs[NDIRECT] = 77;
        let mem = InodeData::from_dinode(&d);
        assert!(mem.valid);
        assert_eq!(mem.to_dinode(), d);
        assert_eq!(mem.file_type(), FileType::Regular);
    }

    #[test]
    fn attr_reports_vfs_view() {
        let mut data =
            InodeData::from_dinode(&Dinode { ftype: T_DIR, nlink: 2, ..Dinode::default() });
        data.size = 1024;
        let attr = data.attr(7);
        assert_eq!(attr.ino, 7);
        assert_eq!(attr.kind, FileType::Directory);
        assert_eq!(attr.nlink, 2);
        assert_eq!(attr.blocks, 2);
    }

    #[test]
    fn cache_returns_same_arc_for_same_inum() {
        let cache = InodeCache::new();
        let a = cache.get(3);
        let b = cache.get(3);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.get(4);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        cache.remove(3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn inode_size_constant_fits_struct() {
        // The encoded inode (2+2+2+2+8 + (NDIRECT+2)*4 bytes) must fit the
        // on-disk slot.
        const { assert!(16 + (NDIRECT + 2) * 4 <= INODE_SIZE) };
    }
}
