//! On-disk layout of the xv6 file system.
//!
//! The layout follows the teaching xv6 file system with the two changes the
//! paper made for its evaluation (§6.1): the block size is 4096 bytes and
//! inodes carry a **double-indirect** block so files can grow to 4 GiB.
//!
//! ```text
//! [ boot | superblock | log (header + data) | inode blocks | bitmap | data ]
//!   blk0      blk1      logstart..           inodestart..   bmapstart..
//! ```
//!
//! All on-disk integers are little-endian.  Serialization is hand-rolled
//! (no `unsafe`, no external codec) so the format is explicit and stable.

use simkernel::error::{Errno, KernelError, KernelResult};

/// Block size in bytes (also the page size used by the page cache).  Tied
/// to the shared journal crate's block size: the commit-record capacity
/// derives from it.
pub const BSIZE: usize = journal::record::BSIZE;

/// Magic number identifying an xv6 file system superblock.
pub const FSMAGIC: u32 = 0x10203040;

/// Number of direct block pointers per inode.
pub const NDIRECT: usize = 12;

/// Number of block pointers in one indirect block.
pub const NINDIRECT: usize = BSIZE / 4;

/// Number of blocks addressable through the double-indirect pointer.
pub const NDINDIRECT: usize = NINDIRECT * NINDIRECT;

/// Maximum file size in blocks (direct + indirect + double indirect).
pub const MAXFILE: usize = NDIRECT + NINDIRECT + NDINDIRECT;

/// Size of one on-disk inode in bytes.
pub const INODE_SIZE: usize = 128;

/// Inodes per block.
pub const IPB: usize = BSIZE / INODE_SIZE;

/// Maximum length of a directory entry name.
pub const DIRSIZ: usize = 28;

/// Size of one directory entry in bytes.
pub const DIRENT_SIZE: usize = 32;

/// Directory entries per block.
pub const DPB: usize = BSIZE / DIRENT_SIZE;

/// Bits per bitmap block.
pub const BPB: usize = BSIZE * 8;

/// Maximum number of blocks one log transaction may modify — the shared
/// journal's reservation granularity.
pub const MAXOPBLOCKS: usize = journal::MAX_OP_BLOCKS;

/// Total log blocks reserved on disk: a ring of [`journal::REGIONS`] (four)
/// commit regions, each holding a header block plus room for four
/// worst-case operations.  A group's capacity is one region's; the ring's
/// length is how long a committed block may wait for a newer commit to
/// supersede its install (see the `journal` crate docs).
pub const LOGSIZE: usize = journal::REGIONS * (4 * MAXOPBLOCKS + 1);

/// Inode number of the root directory.
pub const ROOT_INO: u32 = 1;

/// On-disk inode type: free slot.
pub const T_FREE: u16 = 0;
/// On-disk inode type: directory.
pub const T_DIR: u16 = 1;
/// On-disk inode type: regular file.
pub const T_FILE: u16 = 2;
/// On-disk inode type: device node.
pub const T_DEVICE: u16 = 3;

/// The on-disk superblock, stored in block 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskSuperblock {
    /// Must be [`FSMAGIC`].
    pub magic: u32,
    /// Total number of blocks in the file system image.
    pub size: u32,
    /// Number of data blocks.
    pub nblocks: u32,
    /// Number of inodes.
    pub ninodes: u32,
    /// Number of log blocks (including the header block).
    pub nlog: u32,
    /// First log block.
    pub logstart: u32,
    /// First inode block.
    pub inodestart: u32,
    /// First free-bitmap block.
    pub bmapstart: u32,
}

impl DiskSuperblock {
    /// Serializes the superblock into the start of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 32 bytes.
    pub fn encode(&self, buf: &mut [u8]) {
        put_u32(buf, 0, self.magic);
        put_u32(buf, 4, self.size);
        put_u32(buf, 8, self.nblocks);
        put_u32(buf, 12, self.ninodes);
        put_u32(buf, 16, self.nlog);
        put_u32(buf, 20, self.logstart);
        put_u32(buf, 24, self.inodestart);
        put_u32(buf, 28, self.bmapstart);
    }

    /// Deserializes a superblock from the start of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Inval`] if the magic number does not match.
    pub fn decode(buf: &[u8]) -> KernelResult<Self> {
        let sb = DiskSuperblock {
            magic: get_u32(buf, 0),
            size: get_u32(buf, 4),
            nblocks: get_u32(buf, 8),
            ninodes: get_u32(buf, 12),
            nlog: get_u32(buf, 16),
            logstart: get_u32(buf, 20),
            inodestart: get_u32(buf, 24),
            bmapstart: get_u32(buf, 28),
        };
        if sb.magic != FSMAGIC {
            return Err(KernelError::with_context(Errno::Inval, "xv6fs: bad superblock magic"));
        }
        Ok(sb)
    }

    /// Block that holds inode `inum`.
    pub fn inode_block(&self, inum: u32) -> u64 {
        self.inodestart as u64 + (inum as u64) / IPB as u64
    }

    /// Byte offset of inode `inum` within its block.
    pub fn inode_offset(inum: u32) -> usize {
        (inum as usize % IPB) * INODE_SIZE
    }

    /// Bitmap block that covers data/meta block `blockno`.
    pub fn bitmap_block(&self, blockno: u64) -> u64 {
        self.bmapstart as u64 + blockno / BPB as u64
    }

    /// First block usable for file data.
    pub fn data_start(&self) -> u64 {
        // Everything before the data area (boot, super, log, inode blocks)
        // already ends at `bmapstart`; only the bitmap blocks follow it.
        let bitmap_blocks = (self.size as u64).div_ceil(BPB as u64);
        self.bmapstart as u64 + bitmap_blocks.max(1)
    }
}

/// An on-disk inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dinode {
    /// One of [`T_FREE`], [`T_DIR`], [`T_FILE`], [`T_DEVICE`].
    pub ftype: u16,
    /// Device major number (device nodes only).
    pub major: u16,
    /// Device minor number (device nodes only).
    pub minor: u16,
    /// Number of directory entries referring to this inode.
    pub nlink: u16,
    /// File size in bytes.
    pub size: u64,
    /// Block addresses: `NDIRECT` direct, one indirect, one double-indirect.
    pub addrs: [u32; NDIRECT + 2],
}

impl Default for Dinode {
    fn default() -> Self {
        Dinode { ftype: T_FREE, major: 0, minor: 0, nlink: 0, size: 0, addrs: [0; NDIRECT + 2] }
    }
}

impl Dinode {
    /// Serializes the inode at `offset` within `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is too short to hold [`INODE_SIZE`] bytes at `offset`.
    pub fn encode(&self, buf: &mut [u8], offset: usize) {
        let b = &mut buf[offset..offset + INODE_SIZE];
        put_u16(b, 0, self.ftype);
        put_u16(b, 2, self.major);
        put_u16(b, 4, self.minor);
        put_u16(b, 6, self.nlink);
        put_u64(b, 8, self.size);
        for (i, addr) in self.addrs.iter().enumerate() {
            put_u32(b, 16 + i * 4, *addr);
        }
    }

    /// Deserializes the inode at `offset` within `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is too short to hold [`INODE_SIZE`] bytes at `offset`.
    pub fn decode(buf: &[u8], offset: usize) -> Self {
        let b = &buf[offset..offset + INODE_SIZE];
        let mut addrs = [0u32; NDIRECT + 2];
        for (i, addr) in addrs.iter_mut().enumerate() {
            *addr = get_u32(b, 16 + i * 4);
        }
        Dinode {
            ftype: get_u16(b, 0),
            major: get_u16(b, 2),
            minor: get_u16(b, 4),
            nlink: get_u16(b, 6),
            size: get_u64(b, 8),
            addrs,
        }
    }
}

/// An on-disk directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Inode number (0 marks a free slot).
    pub inum: u32,
    /// Entry name.
    pub name: String,
}

impl Dirent {
    /// Serializes the entry at `offset` within `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::NameTooLong`] if the name exceeds [`DIRSIZ`] bytes
    /// and [`Errno::Inval`] if it contains a NUL byte or `/`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is too short to hold [`DIRENT_SIZE`] bytes at
    /// `offset`.
    pub fn encode(&self, buf: &mut [u8], offset: usize) -> KernelResult<()> {
        validate_name(&self.name)?;
        let b = &mut buf[offset..offset + DIRENT_SIZE];
        put_u32(b, 0, self.inum);
        b[4..4 + DIRSIZ].fill(0);
        b[4..4 + self.name.len()].copy_from_slice(self.name.as_bytes());
        Ok(())
    }

    /// Deserializes the entry at `offset` within `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is too short to hold [`DIRENT_SIZE`] bytes at
    /// `offset`.
    pub fn decode(buf: &[u8], offset: usize) -> Self {
        let b = &buf[offset..offset + DIRENT_SIZE];
        let inum = get_u32(b, 0);
        let raw = &b[4..4 + DIRSIZ];
        let end = raw.iter().position(|&c| c == 0).unwrap_or(DIRSIZ);
        let name = String::from_utf8_lossy(&raw[..end]).into_owned();
        Dirent { inum, name }
    }
}

/// Checks that `name` is a legal directory entry name.
///
/// # Errors
///
/// Returns [`Errno::NameTooLong`] if longer than [`DIRSIZ`] bytes,
/// [`Errno::Inval`] if empty or containing `/` or NUL.
pub fn validate_name(name: &str) -> KernelResult<()> {
    if name.is_empty() {
        return Err(KernelError::with_context(Errno::Inval, "xv6fs: empty name"));
    }
    if name.len() > DIRSIZ {
        return Err(KernelError::with_context(Errno::NameTooLong, "xv6fs: name too long"));
    }
    if name.bytes().any(|b| b == 0 || b == b'/') {
        return Err(KernelError::with_context(Errno::Inval, "xv6fs: invalid character in name"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Little-endian helpers
// ---------------------------------------------------------------------------

/// Writes a little-endian `u16` at `off`.
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Writes a little-endian `u32` at `off`.
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Writes a little-endian `u64` at `off`.
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u16` at `off`.
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().expect("u16 slice"))
}

/// Reads a little-endian `u32` at `off`.
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("u32 slice"))
}

/// Reads a little-endian `u64` at `off`.
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("u64 slice"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(IPB * INODE_SIZE, BSIZE);
        assert_eq!(DPB * DIRENT_SIZE, BSIZE);
        assert_eq!(NINDIRECT, 1024);
        // Double indirect support takes the maximum file size past 4 GiB.
        assert!(MAXFILE as u64 * BSIZE as u64 >= 4 * 1024 * 1024 * 1024);
        const { assert!(LOGSIZE > MAXOPBLOCKS + 1) };
    }

    #[test]
    fn superblock_roundtrip_and_magic_check() {
        let sb = DiskSuperblock {
            magic: FSMAGIC,
            size: 10_000,
            nblocks: 9_000,
            ninodes: 1_024,
            nlog: LOGSIZE as u32,
            logstart: 2,
            inodestart: 300,
            bmapstart: 340,
        };
        let mut buf = vec![0u8; BSIZE];
        sb.encode(&mut buf);
        assert_eq!(DiskSuperblock::decode(&buf).unwrap(), sb);
        buf[0] = 0xFF;
        assert_eq!(DiskSuperblock::decode(&buf).unwrap_err().errno(), Errno::Inval);
    }

    #[test]
    fn dinode_roundtrip_all_fields() {
        let mut addrs = [0u32; NDIRECT + 2];
        for (i, a) in addrs.iter_mut().enumerate() {
            *a = 1000 + i as u32;
        }
        let di = Dinode {
            ftype: T_FILE,
            major: 3,
            minor: 9,
            nlink: 2,
            size: u32::MAX as u64 + 17,
            addrs,
        };
        let mut buf = vec![0u8; BSIZE];
        di.encode(&mut buf, 3 * INODE_SIZE);
        assert_eq!(Dinode::decode(&buf, 3 * INODE_SIZE), di);
        // A different slot stays untouched (all zeroes = free inode).
        assert_eq!(Dinode::decode(&buf, 0).ftype, T_FREE);
    }

    #[test]
    fn dirent_roundtrip_and_validation() {
        let mut buf = vec![0u8; BSIZE];
        let d = Dirent { inum: 77, name: "hello.txt".to_string() };
        d.encode(&mut buf, DIRENT_SIZE * 5).unwrap();
        assert_eq!(Dirent::decode(&buf, DIRENT_SIZE * 5), d);

        let too_long = Dirent { inum: 1, name: "x".repeat(DIRSIZ + 1) };
        assert_eq!(too_long.encode(&mut buf, 0).unwrap_err().errno(), Errno::NameTooLong);
        let slash = Dirent { inum: 1, name: "a/b".to_string() };
        assert_eq!(slash.encode(&mut buf, 0).unwrap_err().errno(), Errno::Inval);
    }

    #[test]
    fn dirent_max_length_name_roundtrips() {
        let mut buf = vec![0u8; DIRENT_SIZE];
        let name = "n".repeat(DIRSIZ);
        let d = Dirent { inum: 5, name: name.clone() };
        d.encode(&mut buf, 0).unwrap();
        assert_eq!(Dirent::decode(&buf, 0).name, name);
    }

    #[test]
    fn inode_block_math() {
        let sb = DiskSuperblock { inodestart: 100, ..DiskSuperblock::default() };
        assert_eq!(sb.inode_block(0), 100);
        assert_eq!(sb.inode_block(IPB as u32 - 1), 100);
        assert_eq!(sb.inode_block(IPB as u32), 101);
        assert_eq!(DiskSuperblock::inode_offset(1), INODE_SIZE);
        assert_eq!(DiskSuperblock::inode_offset(IPB as u32), 0);
    }
}
