//! The workload-side model tracker and the logical durability oracle.
//!
//! While the randomized workload drives a mounted file system, a
//! [`WorkloadModel`] mirrors every operation in memory.  Each time an
//! `fsync` completes, the model snapshots its state together with the
//! device event count at that instant.  After a crash image is recovered,
//! [`WorkloadModel::verify`] picks the newest snapshot the crash state is
//! obliged to honour (its fsync completed within the state's durable
//! prefix) and checks:
//!
//! * every file/directory in that snapshot that was **not touched after
//!   the snapshot** still exists with byte-identical content — fsync'd
//!   data must survive;
//! * nothing that was deleted before the snapshot has been resurrected,
//!   and every object on disk is accounted for (in the snapshot, or
//!   created/touched after it — a crash may legitimately surface those in
//!   either their old or new form, so only their existence is excused,
//!   not used as evidence).
//!
//! Objects touched after the snapshot are exempt from the byte-for-byte
//! check: the crash cut their updates at an arbitrary point, and any of
//! old/new/absent is legal for data that was never fsync'd.

use std::collections::{BTreeMap, BTreeSet};

use simkernel::error::{Errno, KernelResult};
use simkernel::vfs::{FileType, VfsFs, PAGE_SIZE};

/// In-memory mirror of the tree the workload has built.
#[derive(Debug, Default, Clone)]
pub struct TreeState {
    /// Path → expected content (paths are `/`-joined, root-relative).
    pub files: BTreeMap<String, Vec<u8>>,
    /// Directory paths.
    pub dirs: BTreeSet<String>,
}

/// One durability point: the model state at a completed fsync.
#[derive(Debug, Clone)]
pub struct StableSnapshot {
    /// The tree as of this fsync.
    pub tree: TreeState,
    /// Index of the workload operation that issued the fsync.
    pub op_index: usize,
    /// Durable device event count (through the last FLUSH) when the fsync
    /// returned: a crash state honours this snapshot iff its durable prefix
    /// reaches at least this far.
    pub durable_events: usize,
}

/// The model tracker.
#[derive(Debug, Default)]
pub struct WorkloadModel {
    /// Live tree (what the workload believes right now).
    pub tree: TreeState,
    snapshots: Vec<StableSnapshot>,
    /// `(op_index, path)` for every mutation, so per-snapshot dirty sets
    /// can be derived after the fact.
    touched: Vec<(usize, String)>,
    op_index: usize,
}

/// One oracle violation found while checking a crash state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Description of the crash state the violation occurred in.
    pub state: String,
    /// What went wrong.
    pub detail: String,
}

impl WorkloadModel {
    /// Creates an empty model (root directory only).
    pub fn new() -> Self {
        WorkloadModel::default()
    }

    /// Number of stable snapshots recorded (== completed fsyncs).
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Advances the operation counter; returns the op index for bookkeeping.
    pub fn next_op(&mut self) -> usize {
        self.op_index += 1;
        self.op_index
    }

    fn touch(&mut self, path: &str) {
        self.touched.push((self.op_index, path.to_string()));
    }

    /// Records a file creation.
    pub fn create(&mut self, path: &str) {
        self.tree.files.insert(path.to_string(), Vec::new());
        self.touch(path);
    }

    /// Records a directory creation.
    pub fn mkdir(&mut self, path: &str) {
        self.tree.dirs.insert(path.to_string());
        self.touch(path);
    }

    /// Records a whole-file content overwrite/extension: `content` is the
    /// file's bytes after the write.
    pub fn set_content(&mut self, path: &str, content: Vec<u8>) {
        self.tree.files.insert(path.to_string(), content);
        self.touch(path);
    }

    /// Records a truncation to `size` (extension pads with zeros).
    pub fn truncate(&mut self, path: &str, size: usize) {
        if let Some(content) = self.tree.files.get_mut(path) {
            content.resize(size, 0);
        }
        self.touch(path);
    }

    /// Records an unlink.
    pub fn unlink(&mut self, path: &str) {
        self.tree.files.remove(path);
        self.touch(path);
    }

    /// Records a directory removal.
    pub fn rmdir(&mut self, path: &str) {
        self.tree.dirs.remove(path);
        self.touch(path);
    }

    /// Records a rename (both names become dirty).
    pub fn rename(&mut self, from: &str, to: &str) {
        if let Some(content) = self.tree.files.remove(from) {
            self.tree.files.insert(to.to_string(), content);
        }
        self.touch(from);
        self.touch(to);
    }

    /// Records a completed fsync: everything the model holds right now is
    /// durable once a crash state's prefix covers `durable_events`.
    pub fn note_fsync(&mut self, durable_events: usize) {
        self.snapshots.push(StableSnapshot {
            tree: self.tree.clone(),
            op_index: self.op_index,
            durable_events,
        });
    }

    /// The newest snapshot a crash state with the given durable prefix must
    /// honour.
    fn snapshot_for(&self, durable_events: usize) -> Option<&StableSnapshot> {
        self.snapshots.iter().rev().find(|s| s.durable_events <= durable_events)
    }

    /// Paths mutated after `op_index` (the snapshot's dirty set).
    fn dirty_after(&self, op_index: usize) -> BTreeSet<&str> {
        self.touched
            .iter()
            .filter(|(op, _)| *op > op_index)
            .map(|(_, path)| path.as_str())
            .collect()
    }

    /// Runs the durability oracle against a recovered file system.
    ///
    /// `state` labels the crash state in reported violations;
    /// `durable_events` is the crash state's durable prefix length.
    ///
    /// # Errors
    ///
    /// Propagates device I/O errors (oracle *violations* are returned in
    /// the vector, not as errors).
    pub fn verify(
        &self,
        fs: &dyn VfsFs,
        state: &str,
        durable_events: usize,
    ) -> KernelResult<Vec<Violation>> {
        let mut violations = Vec::new();
        let Some(snapshot) = self.snapshot_for(durable_events) else {
            return Ok(violations); // nothing was ever promised durable
        };
        let dirty = self.dirty_after(snapshot.op_index);
        let mut violate = |detail: String| {
            violations.push(Violation { state: state.to_string(), detail });
        };

        // 1. Stable directories exist.
        for dir in &snapshot.tree.dirs {
            if dirty.contains(dir.as_str()) {
                continue;
            }
            match resolve(fs, dir)? {
                Some(attr) if attr.kind == FileType::Directory => {}
                Some(_) => violate(format!("stable directory '{dir}' is not a directory")),
                None => violate(format!("stable directory '{dir}' missing after recovery")),
            }
        }
        // 2. Stable, untouched files exist byte-for-byte.
        for (path, content) in &snapshot.tree.files {
            if dirty.contains(path.as_str()) {
                continue;
            }
            let attr = match resolve(fs, path)? {
                Some(attr) if attr.kind == FileType::Regular => attr,
                Some(_) => {
                    violate(format!("stable file '{path}' is not a regular file"));
                    continue;
                }
                None => {
                    violate(format!("stable file '{path}' missing after recovery"));
                    continue;
                }
            };
            if attr.size != content.len() as u64 {
                violate(format!(
                    "stable file '{path}': size {} != fsync'd {}",
                    attr.size,
                    content.len()
                ));
                continue;
            }
            let mut offset = 0usize;
            let mut page = vec![0u8; PAGE_SIZE];
            let mut page_index = 0u64;
            while offset < content.len() {
                let n = fs.read_page(attr.ino, page_index, &mut page)?;
                let expect = (content.len() - offset).min(PAGE_SIZE);
                if n < expect || page[..expect] != content[offset..offset + expect] {
                    violate(format!("stable file '{path}': content differs at offset {offset}"));
                    break;
                }
                offset += expect;
                page_index += 1;
            }
        }
        // 3. Nothing deleted before the snapshot has been resurrected, and
        //    every on-disk object is accounted for.
        let mut on_disk_files = Vec::new();
        let mut on_disk_dirs = Vec::new();
        walk(fs, fs.root_ino(), String::new(), &mut on_disk_files, &mut on_disk_dirs, 0)?;
        for path in on_disk_files {
            if !snapshot.tree.files.contains_key(&path) && !dirty.contains(path.as_str()) {
                violate(format!("unexpected file '{path}' present after recovery"));
            }
        }
        for path in on_disk_dirs {
            if !snapshot.tree.dirs.contains(&path) && !dirty.contains(path.as_str()) {
                violate(format!("unexpected directory '{path}' present after recovery"));
            }
        }
        Ok(violations)
    }
}

/// Resolves a `/`-joined root-relative path; `None` if any component is
/// missing.
///
/// # Errors
///
/// Propagates I/O errors other than `ENOENT`.
pub fn resolve(fs: &dyn VfsFs, path: &str) -> KernelResult<Option<simkernel::vfs::InodeAttr>> {
    let mut attr = fs.getattr(fs.root_ino())?;
    for component in path.split('/').filter(|c| !c.is_empty()) {
        match fs.lookup(attr.ino, component) {
            Ok(next) => attr = next,
            Err(e) if e.errno() == Errno::NoEnt => return Ok(None),
            Err(e) => return Err(e),
        }
    }
    Ok(Some(attr))
}

/// Depth-first tree walk collecting file and directory paths (dot entries
/// skipped); bounded depth as a cycle guard — a deeper tree than the
/// workload ever builds means the image is corrupt, which the fsck oracle
/// reports separately.
fn walk(
    fs: &dyn VfsFs,
    ino: u64,
    prefix: String,
    files: &mut Vec<String>,
    dirs: &mut Vec<String>,
    depth: usize,
) -> KernelResult<()> {
    if depth > 16 {
        return Ok(());
    }
    for entry in fs.readdir(ino)? {
        if entry.name == "." || entry.name == ".." {
            continue;
        }
        let path =
            if prefix.is_empty() { entry.name.clone() } else { format!("{prefix}/{}", entry.name) };
        match entry.kind {
            FileType::Directory => {
                dirs.push(path.clone());
                walk(fs, entry.ino, path, files, dirs, depth + 1)?;
            }
            _ => files.push(path),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_selection_honours_durable_bound() {
        let mut model = WorkloadModel::new();
        model.next_op();
        model.create("a");
        model.note_fsync(10);
        model.next_op();
        model.create("b");
        model.note_fsync(20);
        assert!(model.snapshot_for(5).is_none());
        assert_eq!(model.snapshot_for(10).unwrap().tree.files.len(), 1);
        assert_eq!(model.snapshot_for(15).unwrap().tree.files.len(), 1);
        assert_eq!(model.snapshot_for(20).unwrap().tree.files.len(), 2);
        assert_eq!(model.snapshot_for(usize::MAX).unwrap().tree.files.len(), 2);
    }

    #[test]
    fn dirty_set_covers_only_later_ops() {
        let mut model = WorkloadModel::new();
        model.next_op();
        model.create("early");
        model.note_fsync(5);
        let snap_op = model.snapshots.last().unwrap().op_index;
        model.next_op();
        model.create("late");
        model.next_op();
        model.rename("early", "moved");
        let dirty = model.dirty_after(snap_op);
        assert!(dirty.contains("late"));
        assert!(dirty.contains("early") && dirty.contains("moved"));
        assert_eq!(model.dirty_after(usize::MAX).len(), 0);
    }
}
