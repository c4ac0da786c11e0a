//! # simkernel — a simulated Linux kernel substrate
//!
//! The Bento paper ([FAST '21]) builds a framework that lets kernel file
//! systems be written in safe Rust.  Bento sits between two kernel-provided
//! surfaces:
//!
//! * **above** the file system: the VFS layer, which resolves paths, manages
//!   the dentry/inode/file-descriptor tables and the page cache, and calls
//!   into the registered file system through an operations table;
//! * **below** the file system: kernel services, primarily block I/O through
//!   the buffer cache (`sb_bread` / `brelse`) on top of a block device.
//!
//! Running a real kernel module is not possible in this environment, so this
//! crate reproduces those surfaces faithfully in userspace:
//!
//! * [`dev`] — the one block-device interface, [`dev::BlockDevice`]
//!   (single-block reads and writes, a batch of raw writes, FLUSH), with a
//!   [`dev::RamDisk`] and an [`dev::SsdDevice`] wrapper that injects a
//!   calibrated NVMe-SSD latency model (per-block read/write cost, volatile
//!   write cache, FLUSH cost) and records statistics.
//! * [`buffer`] — a buffer cache with xv6/Linux `bread`/`bwrite`/`brelse`
//!   semantics; buffers are handed out as RAII guards.
//! * [`pagecache`] — a per-file page cache with dirty tracking and both
//!   `writepage` (single page) and `writepages` (batched) writeback paths,
//!   which is the mechanism behind the paper's Bento-vs-VFS write difference.
//! * [`vfs`] — the virtual file system layer: file system registration,
//!   mounting, path resolution, a file-descriptor table, and POSIX-like
//!   syscalls (`open`, `read`, `write`, `fsync`, `mkdir`, `rename`, ...).
//!   File systems plug in by implementing [`vfs::VfsFs`].
//! * [`cost`] — the latency/cost model shared by the devices and the FUSE
//!   simulation, with a zero-cost preset for tests and an NVMe preset for the
//!   paper's experiments.
//! * [`shard`] — the sharded concurrency substrate ([`shard::ShardedMap`],
//!   [`shard::StripedCounter`]) under the buffer cache, page cache, and fd
//!   table, so the paper's 32-thread workloads do not serialize on global
//!   map locks.
//! * [`nslock`] — per-directory namespace locks ([`nslock::DirLockTable`]):
//!   one lock per directory inode with an ascending-inum ordering
//!   discipline (checked at runtime in debug builds), so concurrent
//!   creates/unlinks/renames in different directories never share a lock.
//! * [`hash`] — the dependency-free block digest used by on-disk records
//!   that must survive torn writes (log commit records, checkpoints).
//! * [`metrics`] — the shared log-bucketed latency histogram
//!   ([`metrics::LatencyHistogram`]) every workload driver records
//!   per-operation latency through, so p50/p99/p99.9 mean the same thing in
//!   every BENCH row.
//! * [`trace`] — always-compiled-in op tracing: per-op spans with
//!   exclusive-time phase attribution (namespace-lock wait, journal
//!   reserve/stage/commit wait, device I/O) recorded into per-thread rings;
//!   the disabled path is a single relaxed atomic load.
//!
//! The crate is intentionally free of `unsafe` code.
//!
//! [FAST '21]: https://www.usenix.org/conference/fast21/presentation/miller
//!
//! ## Example
//!
//! ```
//! use simkernel::dev::{BlockDevice, RamDisk};
//!
//! let disk = RamDisk::new(4096, 128);
//! let mut buf = vec![0u8; 4096];
//! disk.write_block(3, &vec![0xabu8; 4096]).unwrap();
//! disk.read_block(3, &mut buf).unwrap();
//! assert!(buf.iter().all(|&b| b == 0xab));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod cost;
pub mod dev;
pub mod error;
pub mod hash;
pub mod memfs;
pub mod metrics;
pub mod nslock;
pub mod pagecache;
pub mod shard;
pub mod trace;
pub mod vfs;

pub use cost::CostModel;
pub use error::{Errno, KernelError, KernelResult};
