//! The one op vocabulary every harness speaks: path ops and fd ops on a
//! per-worker descriptor table, and the one function that runs them.
//!
//! The load driver, the untar benchmark and the differential tests all
//! build [`Op`] values and hand them to [`apply`]; none of them issues VFS
//! calls of its own.  Path ops ([`Op::Create`], [`Op::Read`], ...) open and
//! close their file inside the op, so one op is one latency sample of a
//! whole flowop.  Fd ops ([`Op::Open`], [`Op::Pread`], ...) name a slot of
//! the worker's [`Fds`], for loops that hold a descriptor across ops.

use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::vfs::{OpenFlags, Vfs};

/// The largest single `write` a path op issues; longer payloads go out in
/// chunks of this size.
pub const MAX_CHUNK: u64 = 1 << 20;

/// Operation classes: what a latency sample, an error count or a trace
/// span is filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Create a file and write its body.
    Create,
    /// Read from a file.
    Read,
    /// Overwrite part of a file in place.
    Write,
    /// Append to a file.
    Append,
    /// Make a file durable (an append followed by `fsync`, or `fsync` on a
    /// held descriptor).
    Fsync,
    /// `stat` a path.
    Stat,
    /// Unlink a file.
    Delete,
    /// Rename a file.
    Rename,
    /// Add a hard link.
    Link,
    /// Create a directory.
    Mkdir,
    /// Remove a directory.
    Rmdir,
    /// Truncate a file.
    Truncate,
    /// Open a descriptor into a slot.
    Open,
    /// Close a slot's descriptor.
    Close,
    /// Sync the whole file system.
    Sync,
}

impl OpKind {
    /// Every class, in reporting order ([`OpKind::index`] order).
    pub const ALL: [OpKind; 15] = [
        OpKind::Create,
        OpKind::Read,
        OpKind::Write,
        OpKind::Append,
        OpKind::Fsync,
        OpKind::Stat,
        OpKind::Delete,
        OpKind::Rename,
        OpKind::Link,
        OpKind::Mkdir,
        OpKind::Rmdir,
        OpKind::Truncate,
        OpKind::Open,
        OpKind::Close,
        OpKind::Sync,
    ];

    /// Position in [`OpKind::ALL`], for per-class tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Row label (`"create"`, `"read"`, ...).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Append => "append",
            OpKind::Fsync => "fsync",
            OpKind::Stat => "stat",
            OpKind::Delete => "delete",
            OpKind::Rename => "rename",
            OpKind::Link => "link",
            OpKind::Mkdir => "mkdir",
            OpKind::Rmdir => "rmdir",
            OpKind::Truncate => "truncate",
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Sync => "sync",
        }
    }
}

/// One file system operation.  Written bytes are `fill` repeated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Open `path` write-only, creating it, write `len` bytes from offset
    /// 0, close.
    Create {
        /// The file.
        path: String,
        /// Bytes to write.
        len: u64,
        /// The byte written.
        fill: u8,
    },
    /// Open `path` read-only, read `len` bytes at `offset`, close.
    Read {
        /// The file.
        path: String,
        /// Where to read.
        offset: u64,
        /// How much to read.
        len: u64,
    },
    /// Open `path` write-only, write `len` bytes at `offset`, close.
    Write {
        /// The file.
        path: String,
        /// Where to write.
        offset: u64,
        /// Bytes to write.
        len: u64,
        /// The byte written.
        fill: u8,
    },
    /// Open `path` for append, write `len` bytes, `fsync` if asked, close.
    Append {
        /// The file.
        path: String,
        /// Bytes to append.
        len: u64,
        /// The byte written.
        fill: u8,
        /// Whether to `fsync` before closing (the [`OpKind::Fsync`] class).
        fsync: bool,
    },
    /// `stat` a path.
    Stat(String),
    /// Unlink a file.
    Unlink(String),
    /// Rename the first path to the second.
    Rename(String, String),
    /// Link the existing first path as the second.
    Link(String, String),
    /// Create a directory.
    Mkdir(String),
    /// Remove an empty directory.
    Rmdir(String),
    /// Truncate (or extend) a file to a length.
    Truncate(String, u64),
    /// Sync the whole file system.
    Sync,
    /// Open `path` with `flags` into descriptor slot `slot`.
    Open {
        /// The slot that holds the descriptor.
        slot: usize,
        /// The file.
        path: String,
        /// Open flags.
        flags: OpenFlags,
    },
    /// Close the descriptor in a slot.
    Close(usize),
    /// Read `len` bytes at `offset` through a slot's descriptor.
    Pread {
        /// The descriptor's slot.
        slot: usize,
        /// Where to read.
        offset: u64,
        /// How much to read.
        len: u64,
    },
    /// Write `len` bytes at `offset` through a slot's descriptor.
    Pwrite {
        /// The descriptor's slot.
        slot: usize,
        /// Where to write.
        offset: u64,
        /// Bytes to write.
        len: u64,
        /// The byte written.
        fill: u8,
    },
    /// `fsync` a slot's descriptor.
    Fsync(usize),
}

impl Op {
    /// The class this op is counted under.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Create { .. } => OpKind::Create,
            Op::Read { .. } | Op::Pread { .. } => OpKind::Read,
            Op::Write { .. } | Op::Pwrite { .. } => OpKind::Write,
            Op::Append { fsync: false, .. } => OpKind::Append,
            Op::Append { fsync: true, .. } | Op::Fsync(_) => OpKind::Fsync,
            Op::Stat(_) => OpKind::Stat,
            Op::Unlink(_) => OpKind::Delete,
            Op::Rename(..) => OpKind::Rename,
            Op::Link(..) => OpKind::Link,
            Op::Mkdir(_) => OpKind::Mkdir,
            Op::Rmdir(_) => OpKind::Rmdir,
            Op::Truncate(..) => OpKind::Truncate,
            Op::Open { .. } => OpKind::Open,
            Op::Close(_) => OpKind::Close,
            Op::Sync => OpKind::Sync,
        }
    }

    /// The path a path op names (the source of a rename or link).
    pub fn path(&self) -> Option<&str> {
        match self {
            Op::Create { path, .. }
            | Op::Read { path, .. }
            | Op::Write { path, .. }
            | Op::Append { path, .. }
            | Op::Open { path, .. }
            | Op::Stat(path)
            | Op::Unlink(path)
            | Op::Rename(path, _)
            | Op::Link(path, _)
            | Op::Mkdir(path)
            | Op::Rmdir(path)
            | Op::Truncate(path, _) => Some(path),
            Op::Sync | Op::Close(_) | Op::Pread { .. } | Op::Pwrite { .. } | Op::Fsync(_) => None,
        }
    }
}

/// A worker's descriptor table (the slots fd ops name) and its payload
/// and read buffers, reused across ops so a measured op does not allocate.
#[derive(Debug, Default)]
pub struct Fds {
    slots: Vec<Option<u64>>,
    payload: Vec<u8>,
    fill: u8,
    read: Vec<u8>,
}

impl Fds {
    /// Closes every open slot; the first close error wins.
    ///
    /// # Errors
    ///
    /// The first failed `close`.
    pub fn close_all(&mut self, vfs: &Vfs) -> KernelResult<()> {
        let mut result = Ok(());
        for fd in self.slots.drain(..).flatten() {
            let closed = vfs.close(fd);
            result = result.and(closed);
        }
        result
    }

    fn fd(&self, slot: usize) -> KernelResult<u64> {
        self.slots
            .get(slot)
            .copied()
            .flatten()
            .ok_or(KernelError::with_context(Errno::BadF, "op: empty descriptor slot"))
    }

    /// `len` bytes of `fill`.
    fn payload(&mut self, len: u64, fill: u8) -> &[u8] {
        let len = len as usize;
        if self.fill != fill || self.payload.len() < len {
            let size = len.max(self.payload.len());
            self.payload.clear();
            self.payload.resize(size, fill);
            self.fill = fill;
        }
        &self.payload[..len]
    }

    fn read_buf(&mut self, len: u64) -> &mut [u8] {
        let len = len as usize;
        if self.read.len() < len {
            self.read.resize(len, 0);
        }
        &mut self.read[..len]
    }
}

/// Runs one op and returns the payload bytes it moved.
///
/// # Errors
///
/// The failing VFS call's error; a path op closes its descriptor on the
/// error path too, so a failed op leaks nothing.
pub fn apply(vfs: &Vfs, fds: &mut Fds, op: &Op) -> KernelResult<u64> {
    match op {
        Op::Create { path, len, fill } => {
            let fd = vfs.open(path, OpenFlags::WRONLY.with(OpenFlags::CREAT))?;
            closing(vfs, fd, write_fully(vfs, fd, *len, fds.payload((*len).min(MAX_CHUNK), *fill)))
        }
        Op::Read { path, offset, len } => {
            let fd = vfs.open(path, OpenFlags::RDONLY)?;
            closing(vfs, fd, vfs.pread(fd, fds.read_buf(*len), *offset).map(|n| n as u64))
        }
        Op::Write { path, offset, len, fill } => {
            let fd = vfs.open(path, OpenFlags::WRONLY)?;
            closing(vfs, fd, vfs.pwrite(fd, fds.payload(*len, *fill), *offset).map(|n| n as u64))
        }
        Op::Append { path, len, fill, fsync } => {
            let fd = vfs.open(path, OpenFlags::WRONLY.with(OpenFlags::APPEND))?;
            let written = write_fully(vfs, fd, *len, fds.payload((*len).min(MAX_CHUNK), *fill))
                .and_then(|n| if *fsync { vfs.fsync(fd).map(|()| n) } else { Ok(n) });
            closing(vfs, fd, written)
        }
        Op::Stat(path) => vfs.stat(path).map(|_| 0),
        Op::Unlink(path) => vfs.unlink(path).map(|()| 0),
        Op::Rename(from, to) => vfs.rename(from, to).map(|()| 0),
        Op::Link(existing, new) => vfs.link(existing, new).map(|()| 0),
        Op::Mkdir(path) => vfs.mkdir(path).map(|()| 0),
        Op::Rmdir(path) => vfs.rmdir(path).map(|()| 0),
        Op::Truncate(path, len) => vfs.truncate(path, *len).map(|()| 0),
        Op::Sync => vfs.sync().map(|()| 0),
        Op::Open { slot, path, flags } => {
            let fd = vfs.open(path, *flags)?;
            if fds.slots.len() <= *slot {
                fds.slots.resize(slot + 1, None);
            }
            match fds.slots[*slot].replace(fd) {
                Some(old) => vfs.close(old).map(|()| 0),
                None => Ok(0),
            }
        }
        Op::Close(slot) => {
            let fd = fds.fd(*slot)?;
            fds.slots[*slot] = None;
            vfs.close(fd).map(|()| 0)
        }
        Op::Pread { slot, offset, len } => {
            let fd = fds.fd(*slot)?;
            vfs.pread(fd, fds.read_buf(*len), *offset).map(|n| n as u64)
        }
        Op::Pwrite { slot, offset, len, fill } => {
            let fd = fds.fd(*slot)?;
            vfs.pwrite(fd, fds.payload(*len, *fill), *offset).map(|n| n as u64)
        }
        Op::Fsync(slot) => vfs.fsync(fds.fd(*slot)?).map(|()| 0),
    }
}

/// [`apply`] for extracting an archive whose entries may run out of order
/// (several workers share one manifest): a directory that already exists
/// counts as made, and a file whose parent is missing gets its parents
/// first.
///
/// # Errors
///
/// As for [`apply`].
pub fn apply_extracting(vfs: &Vfs, fds: &mut Fds, op: &Op) -> KernelResult<u64> {
    if let Op::Mkdir(path) = op {
        return mkdir_p(vfs, path).map(|()| 0);
    }
    match apply(vfs, fds, op) {
        Err(e) if e.errno() == Errno::NoEnt => {
            let parent = op.path().and_then(|p| p.rsplit_once('/')).map(|(dir, _)| dir);
            match parent {
                Some(dir) if !dir.is_empty() => {
                    mkdir_p(vfs, dir)?;
                    apply(vfs, fds, op)
                }
                _ => Err(e),
            }
        }
        result => result,
    }
}

/// Closes `fd` after an op on it; the op's own error wins over the
/// close's.
fn closing(vfs: &Vfs, fd: u64, result: KernelResult<u64>) -> KernelResult<u64> {
    let closed = vfs.close(fd);
    let n = result?;
    closed.map(|()| n)
}

/// Writes `total` bytes to `fd` at its position, `chunk.len()` bytes per
/// `write` call, and returns `total`.
///
/// # Errors
///
/// The failing write, or [`Errno::Io`] if a write makes no progress.
pub fn write_fully(vfs: &Vfs, fd: u64, total: u64, chunk: &[u8]) -> KernelResult<u64> {
    let mut remaining = total;
    while remaining > 0 {
        let n = vfs.write(fd, &chunk[..(remaining as usize).min(chunk.len())])?;
        if n == 0 {
            return Err(KernelError::with_context(Errno::Io, "op: zero-length write"));
        }
        remaining -= n as u64;
    }
    Ok(total)
}

/// `mkdir -p`: creates `path` and any missing ancestors; directories that
/// already exist (another worker made them) are fine.
///
/// # Errors
///
/// Any `mkdir` failure other than [`Errno::Exist`].
pub fn mkdir_p(vfs: &Vfs, path: &str) -> KernelResult<()> {
    match vfs.mkdir(path) {
        Err(e) if e.errno() == Errno::NoEnt => {
            let parent = path.rsplit_once('/').map(|(dir, _)| dir).filter(|d| !d.is_empty());
            mkdir_p(vfs, parent.ok_or(e)?)?;
            match vfs.mkdir(path) {
                Err(e) if e.errno() == Errno::Exist => Ok(()),
                result => result,
            }
        }
        Err(e) if e.errno() == Errno::Exist => Ok(()),
        result => result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;
    use simkernel::memfs::MemFilesystemType;
    use simkernel::vfs::VfsConfig;
    use std::sync::Arc;

    fn memfs() -> Arc<Vfs> {
        let vfs = Arc::new(Vfs::new(VfsConfig::default()));
        vfs.register_filesystem(Arc::new(MemFilesystemType)).unwrap();
        vfs.mount("memfs", Arc::new(RamDisk::new(4096, 16)), "/").unwrap();
        vfs
    }

    #[test]
    fn path_and_fd_ops_round_trip_and_count_bytes() {
        let vfs = memfs();
        let mut fds = Fds::default();
        let create = Op::Create { path: "/f".into(), len: 3 * MAX_CHUNK + 5, fill: 7 };
        assert_eq!(apply(&vfs, &mut fds, &create).unwrap(), 3 * MAX_CHUNK + 5);
        let append = Op::Append { path: "/f".into(), len: 10, fill: 9, fsync: true };
        assert_eq!(append.kind(), OpKind::Fsync);
        assert_eq!(apply(&vfs, &mut fds, &append).unwrap(), 10);
        assert_eq!(vfs.stat("/f").unwrap().size, 3 * MAX_CHUNK + 15);
        let open = Op::Open { slot: 2, path: "/f".into(), flags: OpenFlags::RDWR };
        apply(&vfs, &mut fds, &open).unwrap();
        let pwrite = Op::Pwrite { slot: 2, offset: 1, len: 2, fill: 0xEE };
        assert_eq!(apply(&vfs, &mut fds, &pwrite).unwrap(), 2);
        let long = Op::Pwrite { slot: 2, offset: 4 * MAX_CHUNK, len: MAX_CHUNK + 3, fill: 1 };
        assert_eq!(apply(&vfs, &mut fds, &long).unwrap(), MAX_CHUNK + 3, "one pwrite, all of it");
        assert_eq!(apply(&vfs, &mut fds, &Op::Pread { slot: 2, offset: 0, len: 4 }).unwrap(), 4);
        assert_eq!(fds.read[..4], [7, 0xEE, 0xEE, 7]);
        apply(&vfs, &mut fds, &Op::Close(2)).unwrap();
        // An empty slot is EBADF, and no descriptor outlives its op.
        let err = apply(&vfs, &mut fds, &Op::Fsync(2)).unwrap_err();
        assert_eq!(err.errno(), Errno::BadF);
        let missing = Op::Read { path: "/nope".into(), offset: 0, len: 1 };
        assert_eq!(apply(&vfs, &mut fds, &missing).unwrap_err().errno(), Errno::NoEnt);
        assert_eq!(vfs.open_fd_count(), 0);
    }

    #[test]
    fn extracting_creates_missing_parents_and_tolerates_existing_dirs() {
        let vfs = memfs();
        let mut fds = Fds::default();
        let deep = Op::Create { path: "/a/b/c/f".into(), len: 1, fill: 1 };
        assert_eq!(apply(&vfs, &mut fds, &deep).unwrap_err().errno(), Errno::NoEnt);
        apply_extracting(&vfs, &mut fds, &deep).unwrap();
        apply_extracting(&vfs, &mut fds, &Op::Mkdir("/a/b".into())).unwrap();
        assert_eq!(vfs.stat("/a/b/c/f").unwrap().size, 1);
        mkdir_p(&vfs, "/a/b/c/d").unwrap();
        assert!(vfs.exists("/a/b/c/d"));
    }
}
