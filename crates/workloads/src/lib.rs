//! # workloads — the op vocabulary, the stacks, and the untar manifest
//!
//! The paper's evaluation (§6.4) drives every file system with filebench
//! personalities and an untar of the Linux source.  This crate holds what
//! every harness shares:
//!
//! - [`op`]: the one op vocabulary ([`Op`]) and the one function that runs
//!   an op against a [`Vfs`](simkernel::vfs::Vfs) ([`apply`]); the load
//!   driver (`loadgen`), the untar benchmark and the differential tests
//!   all speak it;
//! - [`stacks`]: the one place that maps a stack to its format, mount and
//!   checker code;
//! - [`mod@untar`]: the synthetic Linux-like archive, as a list of ops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod op;
pub mod stacks;
pub mod untar;

pub use op::{apply, apply_extracting, mkdir_p, write_fully, Fds, Op, OpKind};
pub use stacks::{format, mount_stack, mount_stack_on, FsStack, MountedStack, StackHandle};
pub use untar::{generate_linux_like_manifest, untar, UntarManifest};
