//! The "untar the Linux kernel" benchmark (§6.6.3).
//!
//! The paper measures the time to untar the Linux source tree onto the file
//! system — a metadata-and-small-write heavy workload across many
//! directories.  The tree is not available here, so
//! [`generate_linux_like_manifest`] produces a deterministic synthetic tree
//! whose directory depth and file-size distribution follow the kernel
//! source's (most files a few KiB, a long tail of larger ones), scaled down
//! so the sweep over four stacks finishes quickly.  A manifest is a list of
//! [`Op`]s; [`untar`] applies it against a mounted stack and reports
//! elapsed time, as the paper does (lower is better), and the load
//! generator's untar-replay personality applies the same ops.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use simkernel::error::KernelResult;
use simkernel::vfs::Vfs;

use crate::op::{apply, Fds, Op};

/// The byte every extracted file is filled with.
const FILL: u8 = 0x42;

/// A synthetic archive: [`Op::Mkdir`] and [`Op::Create`] ops in extraction
/// order (parents precede children), with absolute paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UntarManifest {
    /// The ops, in extraction order.
    pub ops: Vec<Op>,
}

impl UntarManifest {
    /// Number of directories in the manifest.
    pub fn dir_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, Op::Mkdir(_))).count()
    }

    /// Number of files in the manifest.
    pub fn file_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, Op::Create { .. })).count()
    }

    /// Total file bytes.
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(|op| if let Op::Create { len, .. } = op { *len } else { 0 }).sum()
    }
}

/// Generates a deterministic Linux-source-like tree: `dirs` directories (two
/// levels deep) holding `files` files whose sizes follow the kernel tree's
/// skewed distribution (≈70% under 8 KiB, ≈25% 8–64 KiB, ≈5% 64–256 KiB).
pub fn generate_linux_like_manifest(dirs: usize, files: usize, seed: u64) -> UntarManifest {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(dirs + files + 16);
    let top_level = ["arch", "drivers", "fs", "include", "kernel", "net", "mm", "lib"];
    let mut dir_paths: Vec<String> = top_level.iter().map(|s| format!("/{s}")).collect();
    ops.extend(dir_paths.iter().cloned().map(Op::Mkdir));
    for d in 0..dirs.saturating_sub(top_level.len()) {
        let parent = &dir_paths[rng.gen_range(0..dir_paths.len().min(top_level.len() * 4))];
        let path = format!("{parent}/sub{d}");
        ops.push(Op::Mkdir(path.clone()));
        dir_paths.push(path);
    }
    for f in 0..files {
        let dir = &dir_paths[rng.gen_range(0..dir_paths.len())];
        let roll: f64 = rng.gen();
        let size = if roll < 0.70 {
            rng.gen_range(512..8 * 1024)
        } else if roll < 0.95 {
            rng.gen_range(8 * 1024..64 * 1024)
        } else {
            rng.gen_range(64 * 1024..256 * 1024)
        };
        let ext = if f % 10 == 0 { "h" } else { "c" };
        ops.push(Op::Create { path: format!("{dir}/file{f}.{ext}"), len: size, fill: FILL });
    }
    UntarManifest { ops }
}

/// Extracts `manifest` at the root of `vfs` and returns the elapsed time
/// and bytes written.  A final `sync` is included in the measurement, as
/// `tar xf` followed by the implicit writeback would be on a real system.
///
/// # Errors
///
/// Propagates file system errors.
pub fn untar(vfs: &Vfs, manifest: &UntarManifest) -> KernelResult<(Duration, u64)> {
    let start = Instant::now();
    let mut fds = Fds::default();
    let mut bytes = 0;
    for op in &manifest.ops {
        bytes += apply(vfs, &mut fds, op)?;
    }
    vfs.sync()?;
    Ok((start.elapsed(), bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;
    use simkernel::memfs::MemFilesystemType;
    use simkernel::vfs::VfsConfig;
    use std::sync::Arc;

    #[test]
    fn manifest_is_deterministic_and_shaped() {
        let a = generate_linux_like_manifest(64, 500, 7);
        let b = generate_linux_like_manifest(64, 500, 7);
        assert_eq!(a, b, "same seed must give the same tree");
        assert_eq!(a.file_count(), 500);
        assert!(a.dir_count() >= 64);
        // The size distribution is dominated by small files.
        let small =
            a.ops.iter().filter(|op| matches!(op, Op::Create { len, .. } if *len < 8192)).count();
        assert!(small as f64 > 0.6 * a.file_count() as f64);
    }

    #[test]
    fn untar_extracts_every_entry() {
        let vfs = Arc::new(Vfs::new(VfsConfig::default()));
        vfs.register_filesystem(Arc::new(MemFilesystemType)).unwrap();
        vfs.mount("memfs", Arc::new(RamDisk::new(4096, 16)), "/").unwrap();
        let manifest = generate_linux_like_manifest(16, 60, 3);
        let (elapsed, bytes) = untar(&vfs, &manifest).unwrap();
        assert!(elapsed.as_nanos() > 0);
        assert_eq!(bytes, manifest.total_bytes());
        // Spot check: every file exists with the right size.
        for op in &manifest.ops {
            if let Op::Create { path, len, .. } = op {
                assert_eq!(vfs.stat(path).unwrap().size, *len);
            }
        }
    }
}
