//! # workloads — filebench-style workload generators
//!
//! The paper's evaluation (§6.4) drives every file system with filebench:
//! single-threaded and 32-threaded read / write / file-creation /
//! file-deletion microbenchmarks, the `varmail` and `fileserver`
//! macrobenchmarks, plus untarring the Linux kernel source tree.  filebench
//! itself is not available here, so this crate reimplements the used
//! personalities as multi-threaded generators that drive a
//! [`Vfs`](simkernel::vfs::Vfs) — any of the four stacks (Bento xv6, VFS
//! xv6, FUSE xv6, ext4sim) mounted on the simulated NVMe device.
//!
//! [`stacks`] is the one place that maps a stack to its format, mount and
//! checker code;
//! [`runner`] contains the generators and the [`WorkloadResult`] they
//! produce (operations/second or MB/s, matching the units in the paper's
//! figures and tables).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;
pub mod stacks;
pub mod untar;

pub use runner::{
    create_crossdir_micro, create_micro, delete_micro, fileserver, read_micro, read_micro_disjoint,
    rename_storm, varmail, write_micro, write_micro_disjoint, AccessPattern, WorkloadResult,
};
pub use stacks::{
    format, mount_stack, mount_stack_on, mount_stack_with, FsStack, MountedStack, StackHandle,
};
pub use untar::{generate_linux_like_manifest, untar, UntarEntry, UntarManifest};
