//! # Bento — high velocity kernel file systems in safe Rust
//!
//! This crate is the core contribution of *High Velocity Kernel File Systems
//! with Bento* (Miller et al., FAST '21), rebuilt on top of the [`simkernel`]
//! substrate.  Bento lets a file system be written entirely in safe Rust and
//! run "in the kernel" by interposing two thin layers:
//!
//! * **BentoFS** ([`bentofs`]) sits between the kernel's VFS layer and the
//!   file system.  It translates VFS calls into the [file operations
//!   API](fileops) — a Rust rendering of the FUSE low-level interface,
//!   augmented with a reference to the [`SuperBlock`]
//!   capability needed for block I/O (paper §4.3).  Because BentoFS inherits
//!   the FUSE kernel module's writeback path, it batches dirty pages into
//!   single large writes (`writepages`), which is where its small performance
//!   edge over the hand-written VFS baseline comes from (§6.5.2).
//! * **BentoKS** ([`bentoks`]) sits between the file system and kernel
//!   services.  Raw kernel interfaces (the buffer cache's
//!   `sb_bread`/`brelse`, the `super_block` pointer) are wrapped in
//!   unforgeable *capability types* and RAII guards so the file system never
//!   touches a raw pointer (§4.5–4.7).
//!
//! Two further paper features are implemented:
//!
//! * **Online upgrade** (§4.8, [`upgrade`] + [`bentofs::BentoFs::upgrade`]):
//!   a running file system can be replaced by a new implementation without
//!   unmounting; in-memory state is carried across through a
//!   [`StateBundle`].  The pause is the write lock's drain plus the state
//!   transfer, nothing more.
//! * **Userspace debugging** (§4.9, [`userspace`]): the same file system code
//!   runs in userspace unchanged.  Its one kernel-service surface is the
//!   [`SuperBlock`] capability over a buffer cache; BentoKS-User is the
//!   same capability types over a userspace disk file,
//!   [`userspace::UserDisk`], which charges the boundary crossings and
//!   whole-file fsyncs where the daemon touches the disk (used by the FUSE
//!   baseline and by `examples/userspace_debug.rs`).
//!
//! ## The ownership model
//!
//! The interface follows the paper's "ownership model" (§4.4): ownership of
//! objects never crosses the interface; the caller lends references for the
//! duration of a call.  Concretely, every file-operations method borrows the
//! [`Request`] context and the
//! [`SuperBlock`], and block buffers are only reachable
//! through the [`BufferHead`] guard, whose drop releases
//! the buffer (`brelse`).
//!
//! ## Example
//!
//! ```
//! use bento::fileops::{FileSystem, Request};
//! use bento::bentoks::SuperBlock;
//! use bento::bentofs::BentoFsType;
//! use simkernel::error::KernelResult;
//! use simkernel::vfs::{FilesystemType, StatFs};
//!
//! /// A do-nothing file system: only statfs is implemented.
//! struct NullFs;
//!
//! impl FileSystem for NullFs {
//!     fn name(&self) -> &'static str { "nullfs" }
//!     fn statfs(&self, _req: &Request, sb: &SuperBlock) -> KernelResult<StatFs> {
//!         Ok(StatFs { total_blocks: sb.nblocks(), ..StatFs::default() })
//!     }
//! }
//!
//! let fstype = BentoFsType::new("nullfs", || Box::new(NullFs));
//! assert_eq!(fstype.fs_name(), "nullfs");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bentofs;
pub mod bentoks;
pub mod fileops;
pub mod upgrade;
pub mod userspace;

pub use bentofs::{register_bento_fs, unregister_bento_fs, BentoFs, BentoFsType, UpgradeGate};
pub use bentoks::{BufferHead, SuperBlock};
pub use fileops::{FileSegments, FileSystem, Request};
pub use upgrade::StateBundle;
