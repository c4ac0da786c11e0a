//! `fsck` — offline consistency checking of an xv6 file system image.
//!
//! The crash-state enumeration harness (`crashsim`) mounts a materialized
//! crash image, lets log recovery run, and then needs a *machine-checkable*
//! statement that the image is structurally sound — "the mount did not
//! error" is far too weak.  This module reads the raw device (no cache, no
//! mounted state) and verifies the invariants the on-disk format promises:
//!
//! * the superblock decodes and its geometry fits the device;
//! * every allocated inode has a legal type and maps only in-range blocks;
//! * no block is claimed by two owners (doubly-claimed);
//! * the free bitmap agrees exactly with the set of reachable blocks —
//!   no leaked blocks, no claimed-but-free blocks;
//! * directory entries reference allocated inodes, `.`/`..` are wired
//!   correctly, and link counts match reference counts (files) or the
//!   `1 + subdirectories` rule this implementation maintains (directories);
//! * every inode with links is reachable from the root directory.
//!
//! Inodes with `nlink == 0` and no referencing entry are reported as
//! *orphans*, not errors: a crash between an unlink/rmdir transaction and
//! the deferred reap legitimately leaves one behind (a real fsck would move
//! it to `lost+found`).
//!
//! Because every xv6 stack (Bento, the `xv6fs-vfs` binding, FUSE) runs this
//! crate's one implementation of the format, a single checker covers them
//! all.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use simkernel::dev::BlockDevice;
use simkernel::error::KernelResult;

use crate::layout::{
    Dinode, Dirent, DiskSuperblock, BPB, BSIZE, DIRENT_SIZE, IPB, NDIRECT, NINDIRECT, ROOT_INO,
    T_DEVICE, T_DIR, T_FILE, T_FREE,
};

/// Cap on recorded error strings so a badly corrupted image cannot balloon
/// the report.
const MAX_ERRORS: usize = 64;

/// The outcome of one [`fsck_device`] run.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Invariant violations found (capped at an internal limit).
    pub errors: Vec<String>,
    /// Allocated inodes with no links and no referencing entry (legal
    /// post-crash state; a real fsck would reattach them).
    pub orphan_inodes: u64,
    /// Allocated inodes examined.
    pub inodes_checked: u64,
    /// Data-area blocks examined against the bitmap.
    pub blocks_checked: u64,
}

impl FsckReport {
    /// Whether the image satisfied every checked invariant (orphans are
    /// tolerated).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    fn error(&mut self, message: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        }
    }
}

/// Everything fsck remembers about one allocated inode.
struct InodeInfo {
    dinode: Dinode,
    /// Non-dot directory entries referencing this inode.
    refs: u64,
    /// For directories: children named by non-dot entries (inum list).
    children: Vec<u32>,
    /// For directories: number of child entries that are directories.
    subdirs: u64,
    /// For directories: `.`/`..` were absent (an error unless orphaned).
    missing_dots: bool,
}

fn read_block(dev: &Arc<dyn BlockDevice>, blockno: u64) -> KernelResult<Vec<u8>> {
    let mut buf = vec![0u8; BSIZE];
    dev.read_block(blockno, &mut buf)?;
    Ok(buf)
}

/// Checks the file system image on `dev` and returns a report.
///
/// Only genuine device I/O failures surface as `Err`; every structural
/// problem is recorded in the report instead, so a corrupt image yields a
/// dirty report rather than an early bail-out.
///
/// # Errors
///
/// Propagates device read errors.
pub fn fsck_device(dev: &Arc<dyn BlockDevice>) -> KernelResult<FsckReport> {
    let mut report = FsckReport::default();
    if dev.block_size() as usize != BSIZE {
        report.error(format!("device block size {} != {BSIZE}", dev.block_size()));
        return Ok(report);
    }
    let sb = match DiskSuperblock::decode(&read_block(dev, 1)?) {
        Ok(sb) => sb,
        Err(_) => {
            report.error("superblock does not decode (bad magic)".to_string());
            return Ok(report);
        }
    };
    // Geometry.
    if (sb.size as u64) > dev.num_blocks() {
        report.error(format!("superblock size {} exceeds device {}", sb.size, dev.num_blocks()));
        return Ok(report);
    }
    let inode_blocks = (sb.ninodes as u64).div_ceil(IPB as u64);
    if (sb.logstart as u64) < 2
        || (sb.inodestart as u64) < sb.logstart as u64 + sb.nlog as u64
        || (sb.bmapstart as u64) < sb.inodestart as u64 + inode_blocks
        || sb.data_start() >= sb.size as u64
    {
        report.error(format!("inconsistent area layout: {sb:?}"));
        return Ok(report);
    }
    let data_start = sb.data_start();

    // Pass 1: the inode table.  Collect every allocated inode and claim the
    // blocks it maps (including the indirect blocks themselves).
    let mut inodes: HashMap<u32, InodeInfo> = HashMap::new();
    let mut claims: HashMap<u64, u32> = HashMap::new();
    let claim = |report: &mut FsckReport, claims: &mut HashMap<u64, u32>, b: u64, inum: u32| {
        if b < data_start || b >= sb.size as u64 {
            report.error(format!("inode {inum} maps out-of-range block {b}"));
            return;
        }
        if let Some(prev) = claims.insert(b, inum) {
            report.error(format!("block {b} doubly claimed by inodes {prev} and {inum}"));
        }
    };
    for inum in 1..sb.ninodes {
        let block = read_block(dev, sb.inode_block(inum))?;
        let dinode = Dinode::decode(&block, DiskSuperblock::inode_offset(inum));
        if dinode.ftype == T_FREE {
            continue;
        }
        if !matches!(dinode.ftype, T_DIR | T_FILE | T_DEVICE) {
            report.error(format!("inode {inum} has invalid type {}", dinode.ftype));
            continue;
        }
        report.inodes_checked += 1;
        let size_blocks = dinode.size.div_ceil(BSIZE as u64);
        let mut mapped_past_eof = 0u64;
        let mut note_mapping =
            |report: &mut FsckReport, claims: &mut HashMap<u64, u32>, bn: u64, b: u64| {
                claim(report, claims, b, inum);
                if bn >= size_blocks {
                    mapped_past_eof += 1;
                }
            };
        for (i, &addr) in dinode.addrs.iter().take(NDIRECT).enumerate() {
            if addr != 0 {
                note_mapping(&mut report, &mut claims, i as u64, addr as u64);
            }
        }
        if dinode.addrs[NDIRECT] != 0 {
            let ind = dinode.addrs[NDIRECT] as u64;
            claim(&mut report, &mut claims, ind, inum);
            if ind >= data_start && ind < sb.size as u64 {
                let block = read_block(dev, ind)?;
                for i in 0..NINDIRECT {
                    let b = crate::layout::get_u32(&block, i * 4);
                    if b != 0 {
                        note_mapping(&mut report, &mut claims, (NDIRECT + i) as u64, b as u64);
                    }
                }
            }
        }
        if dinode.addrs[NDIRECT + 1] != 0 {
            let dind = dinode.addrs[NDIRECT + 1] as u64;
            claim(&mut report, &mut claims, dind, inum);
            if dind >= data_start && dind < sb.size as u64 {
                let l1 = read_block(dev, dind)?;
                for i in 0..NINDIRECT {
                    let l1_block = crate::layout::get_u32(&l1, i * 4);
                    if l1_block == 0 {
                        continue;
                    }
                    claim(&mut report, &mut claims, l1_block as u64, inum);
                    if (l1_block as u64) < data_start || (l1_block as u64) >= sb.size as u64 {
                        continue;
                    }
                    let l2 = read_block(dev, l1_block as u64)?;
                    for j in 0..NINDIRECT {
                        let b = crate::layout::get_u32(&l2, j * 4);
                        if b != 0 {
                            note_mapping(
                                &mut report,
                                &mut claims,
                                (NDIRECT + NINDIRECT + i * NINDIRECT + j) as u64,
                                b as u64,
                            );
                        }
                    }
                }
            }
        }
        if mapped_past_eof > 0 {
            report.error(format!(
                "inode {inum} maps {mapped_past_eof} block(s) past its size {}",
                dinode.size
            ));
        }
        inodes.insert(
            inum,
            InodeInfo { dinode, refs: 0, children: Vec::new(), subdirs: 0, missing_dots: false },
        );
    }

    match inodes.get(&ROOT_INO) {
        Some(info) if info.dinode.ftype == T_DIR => {}
        Some(_) => report.error("root inode is not a directory".to_string()),
        None => {
            report.error("root inode is missing".to_string());
            return Ok(report);
        }
    }

    // Pass 2: directory entries.  Reads file content through the claimed
    // mappings collected above.
    let dir_inums: Vec<u32> =
        inodes.iter().filter(|(_, i)| i.dinode.ftype == T_DIR).map(|(&n, _)| n).collect();
    for dir in dir_inums {
        let dinode = inodes[&dir].dinode;
        let mut entries: Vec<(u32, String)> = Vec::new();
        let nblocks = dinode.size.div_ceil(BSIZE as u64);
        for bn in 0..nblocks {
            let Some(blockno) = resolve_mapping(dev, &dinode, bn)? else { continue };
            if blockno < data_start || blockno >= sb.size as u64 {
                continue; // already reported in pass 1
            }
            let block = read_block(dev, blockno)?;
            let first = (bn * BSIZE as u64) as usize;
            for slot in 0..BSIZE / DIRENT_SIZE {
                if (first + slot * DIRENT_SIZE + DIRENT_SIZE) as u64 > dinode.size {
                    break;
                }
                let entry = Dirent::decode(&block, slot * DIRENT_SIZE);
                if entry.inum != 0 {
                    entries.push((entry.inum, entry.name));
                }
            }
        }
        let mut saw_dot = false;
        let mut saw_dotdot = false;
        for (inum, name) in entries {
            match name.as_str() {
                "." => {
                    saw_dot = true;
                    if inum != dir {
                        report.error(format!("dir {dir}: '.' points to {inum}"));
                    }
                }
                ".." => {
                    saw_dotdot = true;
                    if !inodes.contains_key(&inum) {
                        report.error(format!("dir {dir}: '..' points to free inode {inum}"));
                    }
                }
                _ => {
                    if !inodes.contains_key(&inum) {
                        report.error(format!(
                            "dir {dir}: entry '{name}' references free inode {inum}"
                        ));
                        continue;
                    }
                    let is_dir = inodes[&inum].dinode.ftype == T_DIR;
                    let info = inodes.get_mut(&dir).expect("dir exists");
                    info.children.push(inum);
                    if is_dir {
                        info.subdirs += 1;
                    }
                    inodes.get_mut(&inum).expect("checked above").refs += 1;
                }
            }
        }
        if !saw_dot || !saw_dotdot {
            // Deferred: an orphaned directory (rmdir'd, crash before the
            // reap finished truncating/freeing it) legitimately has no
            // entries left.  Whether this is an error depends on orphan
            // status, known only after all reference counts are in.
            inodes.get_mut(&dir).expect("dir exists").missing_dots = true;
        }
    }

    // Pass 3: link counts.
    for (&inum, info) in &inodes {
        let nlink = info.dinode.nlink as u64;
        match info.dinode.ftype {
            T_DIR => {
                if nlink == 0 && info.refs == 0 {
                    report.orphan_inodes += 1;
                    continue;
                }
                if info.missing_dots {
                    report.error(format!("dir {inum}: missing '.' or '..' entry"));
                }
                if info.refs > 1 {
                    report.error(format!("dir {inum} referenced by {} entries", info.refs));
                }
                if inum != ROOT_INO && info.refs == 0 {
                    report.error(format!("dir {inum} has nlink {nlink} but no entry"));
                }
                let expected = 1 + info.subdirs;
                if nlink != expected {
                    report.error(format!(
                        "dir {inum}: nlink {nlink} != 1 + {} subdirs",
                        info.subdirs
                    ));
                }
            }
            _ => {
                if nlink == 0 && info.refs == 0 {
                    report.orphan_inodes += 1;
                    continue;
                }
                if nlink != info.refs {
                    report.error(format!(
                        "file {inum}: nlink {nlink} != {} referencing entries",
                        info.refs
                    ));
                }
            }
        }
    }

    // Pass 4: reachability from the root.
    let mut reached: HashSet<u32> = HashSet::new();
    let mut queue = VecDeque::from([ROOT_INO]);
    while let Some(inum) = queue.pop_front() {
        if !reached.insert(inum) {
            continue;
        }
        if let Some(info) = inodes.get(&inum) {
            for &child in &info.children {
                queue.push_back(child);
            }
        }
    }
    for (&inum, info) in &inodes {
        let orphan = info.dinode.nlink == 0 && info.refs == 0;
        if !orphan && !reached.contains(&inum) {
            report.error(format!("inode {inum} has links but is unreachable from the root"));
        }
    }

    // Pass 5: the free bitmap must agree exactly with the claim map (plus
    // the fixed metadata area, which is always in use).  One read and one
    // sweep per bitmap block.
    for base in (0..sb.size as u64).step_by(BPB) {
        let bitmap = read_block(dev, sb.bitmap_block(base))?;
        let end = (base + BPB as u64).min(sb.size as u64);
        for blockno in base..end {
            let index = (blockno % BPB as u64) as usize;
            let used = bitmap[index / 8] & (1 << (index % 8)) != 0;
            if blockno < data_start {
                if !used {
                    report.error(format!("metadata block {blockno} marked free in bitmap"));
                }
                continue;
            }
            report.blocks_checked += 1;
            let claimed = claims.contains_key(&blockno);
            if used && !claimed {
                report.error(format!("block {blockno} marked used but unreachable (leaked)"));
            } else if !used && claimed {
                report.error(format!(
                    "block {blockno} claimed by inode {} but marked free",
                    claims[&blockno]
                ));
            }
        }
    }

    Ok(report)
}

/// Resolves file block `bn` of `dinode` to a device block, reading indirect
/// blocks raw.  Returns `None` for holes — and for out-of-range indirect
/// pointers, which pass 1 has already reported; surfacing them as device
/// errors here would break fsck's report-don't-abort contract.
fn resolve_mapping(
    dev: &Arc<dyn BlockDevice>,
    dinode: &Dinode,
    bn: u64,
) -> KernelResult<Option<u64>> {
    let in_range = |b: u64| b != 0 && b < dev.num_blocks();
    let bn = bn as usize;
    if bn < NDIRECT {
        let b = dinode.addrs[bn];
        return Ok((b != 0).then_some(b as u64));
    }
    let bn = bn - NDIRECT;
    if bn < NINDIRECT {
        if !in_range(dinode.addrs[NDIRECT] as u64) {
            return Ok(None);
        }
        let block = read_block(dev, dinode.addrs[NDIRECT] as u64)?;
        let b = crate::layout::get_u32(&block, bn * 4);
        return Ok((b != 0).then_some(b as u64));
    }
    let bn = bn - NINDIRECT;
    if !in_range(dinode.addrs[NDIRECT + 1] as u64) {
        return Ok(None);
    }
    let l1 = read_block(dev, dinode.addrs[NDIRECT + 1] as u64)?;
    let l1_block = crate::layout::get_u32(&l1, (bn / NINDIRECT) * 4);
    if !in_range(l1_block as u64) {
        return Ok(None);
    }
    let l2 = read_block(dev, l1_block as u64)?;
    let b = crate::layout::get_u32(&l2, (bn % NINDIRECT) * 4);
    Ok((b != 0).then_some(b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::put_u16;
    use crate::mkfs::mkfs_on_device;
    use simkernel::dev::RamDisk;
    use simkernel::vfs::{FileMode, VfsFs as _};

    fn fresh(blocks: u64) -> Arc<dyn BlockDevice> {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, blocks));
        mkfs_on_device(&dev, 256).unwrap();
        dev
    }

    #[test]
    fn freshly_formatted_image_is_clean() {
        let dev = fresh(4096);
        let report = fsck_device(&dev).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.inodes_checked, 1, "only the root");
        assert_eq!(report.orphan_inodes, 0);
    }

    #[test]
    fn live_filesystem_state_is_clean_after_sync() {
        let dev = fresh(4096);
        let fs = crate::fstype().mount_on(Arc::clone(&dev)).unwrap();
        let d = fs.mkdir(1, "dir", FileMode::directory()).unwrap();
        let f = fs.create(d.ino, "file", FileMode::regular()).unwrap();
        fs.write_page(f.ino, 0, &vec![7u8; BSIZE], 3000).unwrap();
        let g = fs.create(1, "other", FileMode::regular()).unwrap();
        fs.link(g.ino, d.ino, "alias").unwrap();
        fs.unlink(1, "other").unwrap();
        fs.rename(d.ino, "file", 1, "moved").unwrap();
        fs.destroy().unwrap();
        drop(fs);
        let report = fsck_device(&dev).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert!(report.inodes_checked >= 3);
    }

    #[test]
    fn detects_dangling_directory_entry() {
        let dev = fresh(4096);
        let fs = crate::fstype().mount_on(Arc::clone(&dev)).unwrap();
        let f = fs.create(1, "victim", FileMode::regular()).unwrap();
        fs.destroy().unwrap();
        drop(fs);
        // Corrupt: free the inode on disk while its dirent remains.
        let sb = DiskSuperblock::decode(&read_block(&dev, 1).unwrap()).unwrap();
        let mut block = read_block(&dev, sb.inode_block(f.ino as u32)).unwrap();
        put_u16(&mut block, DiskSuperblock::inode_offset(f.ino as u32), T_FREE);
        dev.write_block(sb.inode_block(f.ino as u32), &block).unwrap();
        let report = fsck_device(&dev).unwrap();
        assert!(!report.is_clean());
        assert!(report.errors.iter().any(|e| e.contains("free inode")), "{:?}", report.errors);
    }

    #[test]
    fn detects_doubly_claimed_block_and_bitmap_leak() {
        let dev = fresh(4096);
        let fs = crate::fstype().mount_on(Arc::clone(&dev)).unwrap();
        let a = fs.create(1, "a", FileMode::regular()).unwrap();
        let b = fs.create(1, "b", FileMode::regular()).unwrap();
        fs.write_page(a.ino, 0, &vec![1u8; BSIZE], BSIZE as u64).unwrap();
        fs.write_page(b.ino, 0, &vec![2u8; BSIZE], BSIZE as u64).unwrap();
        fs.destroy().unwrap();
        drop(fs);
        let sb = DiskSuperblock::decode(&read_block(&dev, 1).unwrap()).unwrap();
        // Point b's first block at a's first block: doubly claimed, and b's
        // original block becomes leaked (used in bitmap, unreachable).
        let a_block = {
            let block = read_block(&dev, sb.inode_block(a.ino as u32)).unwrap();
            Dinode::decode(&block, DiskSuperblock::inode_offset(a.ino as u32)).addrs[0]
        };
        let inode_block = sb.inode_block(b.ino as u32);
        let mut block = read_block(&dev, inode_block).unwrap();
        let mut dinode = Dinode::decode(&block, DiskSuperblock::inode_offset(b.ino as u32));
        dinode.addrs[0] = a_block;
        dinode.encode(&mut block, DiskSuperblock::inode_offset(b.ino as u32));
        dev.write_block(inode_block, &block).unwrap();
        let report = fsck_device(&dev).unwrap();
        assert!(report.errors.iter().any(|e| e.contains("doubly claimed")), "{:?}", report.errors);
        assert!(report.errors.iter().any(|e| e.contains("leaked")), "{:?}", report.errors);
    }

    #[test]
    fn detects_wrong_link_count() {
        let dev = fresh(4096);
        let fs = crate::fstype().mount_on(Arc::clone(&dev)).unwrap();
        let f = fs.create(1, "f", FileMode::regular()).unwrap();
        fs.destroy().unwrap();
        drop(fs);
        let sb = DiskSuperblock::decode(&read_block(&dev, 1).unwrap()).unwrap();
        let inode_block = sb.inode_block(f.ino as u32);
        let mut block = read_block(&dev, inode_block).unwrap();
        // nlink lives at offset 6 within the inode slot.
        put_u16(&mut block, DiskSuperblock::inode_offset(f.ino as u32) + 6, 5);
        dev.write_block(inode_block, &block).unwrap();
        let report = fsck_device(&dev).unwrap();
        assert!(report.errors.iter().any(|e| e.contains("nlink")), "{:?}", report.errors);
    }

    #[test]
    fn tolerates_orphan_inode() {
        let dev = fresh(4096);
        let fs = crate::fstype().mount_on(Arc::clone(&dev)).unwrap();
        let f = fs.create(1, "o", FileMode::regular()).unwrap();
        fs.destroy().unwrap();
        drop(fs);
        let sb = DiskSuperblock::decode(&read_block(&dev, 1).unwrap()).unwrap();
        // Simulate the crash window between unlink and reap: remove the
        // dirent and zero the link count, leaving the inode allocated.
        let root = {
            let block = read_block(&dev, sb.inode_block(ROOT_INO)).unwrap();
            Dinode::decode(&block, DiskSuperblock::inode_offset(ROOT_INO))
        };
        let mut dir_block = read_block(&dev, root.addrs[0] as u64).unwrap();
        for slot in 0..BSIZE / DIRENT_SIZE {
            if Dirent::decode(&dir_block, slot * DIRENT_SIZE).name == "o" {
                dir_block[slot * DIRENT_SIZE..(slot + 1) * DIRENT_SIZE].fill(0);
            }
        }
        dev.write_block(root.addrs[0] as u64, &dir_block).unwrap();
        let inode_block = sb.inode_block(f.ino as u32);
        let mut block = read_block(&dev, inode_block).unwrap();
        put_u16(&mut block, DiskSuperblock::inode_offset(f.ino as u32) + 6, 0);
        dev.write_block(inode_block, &block).unwrap();
        let report = fsck_device(&dev).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.orphan_inodes, 1);
    }
}
