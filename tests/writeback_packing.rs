//! How xv6 packs one write-back pass into log transactions.
//!
//! `FsCore::write_vectored` has one rule: keep taking block-sized pieces
//! into the open transaction while the blocks it has staged, the worst
//! case of one more piece (6: data, indirect and double-indirect block,
//! each with a bitmap block) and the inode block fit `MAX_OP_BLOCKS`; then
//! end it and open the next.  This suite restates that rule over symbolic
//! block names, predicts the size of every commit of a pass from it, and
//! compares the prediction with the commit records the Bento stack really
//! wrote — decoded from a recorded device trace — for page sets that sit on
//! the direct / indirect / double-indirect boundaries of a sparse file, and
//! for a contiguous run longer than a transaction.

use std::collections::HashSet;
use std::sync::Arc;

use crashsim::{Event, FaultConfig, FaultDevice};
use journal::record::parse_head;
use journal::{JournalConfig, MAX_OP_BLOCKS, REGIONS};
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{FileMode, VfsFs, PAGE_SIZE};
use xv6fs::layout::{DiskSuperblock, LOGSIZE, NDIRECT, NINDIRECT};

const DISK_BLOCKS: u64 = 16_384;
const PIECE_WORST_BLOCKS: usize = 6;
const DIRECT: u64 = NDIRECT as u64;
const INDIRECT: u64 = NINDIRECT as u64;

/// A block a transaction stages, by role.  One bitmap block covers the
/// whole 16 384-block image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Staged {
    Bitmap,
    Data(u64),
    Indirect,
    DoubleIndirect,
    Level1(u64),
}

/// What of one file is already allocated.
#[derive(Default)]
struct FileMap {
    data: HashSet<u64>,
    indirect: bool,
    double_indirect: bool,
    level1: HashSet<u64>,
}

impl FileMap {
    /// The blocks writing page `page` stages: its data block; for every
    /// block it has to allocate, the bitmap block and the block that
    /// receives the new pointer (the inode itself for a direct block — it
    /// is logged once, when the transaction closes).
    fn stage(&mut self, page: u64, staged: &mut HashSet<Staged>) {
        let fresh = self.data.insert(page);
        staged.insert(Staged::Data(page));
        if fresh {
            staged.insert(Staged::Bitmap);
        }
        if page < DIRECT {
            return;
        }
        if page < DIRECT + INDIRECT {
            if !std::mem::replace(&mut self.indirect, true) || fresh {
                staged.extend([Staged::Bitmap, Staged::Indirect]);
            }
            return;
        }
        let level1 = (page - DIRECT - INDIRECT) / INDIRECT;
        if !std::mem::replace(&mut self.double_indirect, true) {
            staged.extend([Staged::Bitmap, Staged::DoubleIndirect]);
        }
        if self.level1.insert(level1) {
            staged.extend([Staged::Bitmap, Staged::DoubleIndirect, Staged::Level1(level1)]);
        }
        if fresh {
            staged.insert(Staged::Level1(level1));
        }
    }

    /// The rule: blocks per commit of one pass over `pages`.
    fn commits(&mut self, pages: &[u64]) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut pages = pages.iter().peekable();
        while pages.peek().is_some() {
            let mut staged = HashSet::new();
            while staged.len() + PIECE_WORST_BLOCKS < MAX_OP_BLOCKS {
                let Some(&page) = pages.next() else { break };
                self.stage(page, &mut staged);
            }
            sizes.push(staged.len() + 1); // + the inode block
        }
        sizes
    }
}

/// The Bento xv6 stack over a recording device.
struct Recorded {
    fs: Arc<dyn VfsFs>,
    recorder: Arc<FaultDevice>,
    log_heads: [u64; REGIONS],
    capacity: usize,
}

impl Recorded {
    fn mount() -> Recorded {
        let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(PAGE_SIZE as u32, DISK_BLOCKS));
        let dsb: DiskSuperblock = xv6fs::mkfs::mkfs_on_device(&base, 64).unwrap();
        let log = JournalConfig::from_geometry(
            dsb.logstart as u64,
            dsb.nlog as usize,
            LOGSIZE,
            (dsb.inodestart as u64, dsb.size as u64),
        );
        let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
        let fs = xv6fs::fstype().mount_on(Arc::clone(&recorder) as Arc<dyn BlockDevice>).unwrap();
        Recorded {
            fs,
            recorder,
            log_heads: std::array::from_fn(|r| log.start + (r * log.region_size) as u64),
            capacity: log.capacity,
        }
    }

    /// Writes back `pages` of `ino` (every page full, the file ending with
    /// the last one or at `size`) in one `write_pages` call; returns the
    /// block count of every commit record the call wrote.
    fn write_back(&self, ino: u64, pages: &[u64], size: u64) -> Vec<usize> {
        let page = vec![0xD7u8; PAGE_SIZE];
        let set: Vec<(u64, &[u8])> = pages.iter().map(|&index| (index, &page[..])).collect();
        let before = self.recorder.event_count();
        self.fs.write_pages(ino, &set, size).expect("no transaction may be too large");
        self.recorder.trace().events[before..]
            .iter()
            .filter_map(|event| match event {
                Event::Write { blockno, data } if self.log_heads.contains(blockno) => {
                    parse_head(data, self.capacity).map(|record| record.homes.len())
                }
                _ => None,
            })
            .collect()
    }
}

#[test]
fn scattered_pages_across_the_mapping_boundaries_pack_by_the_rule() {
    let stack = Recorded::mount();
    let ino = stack.fs.create(1, "sparse", FileMode::regular()).unwrap().ino;
    // Both sides of direct→indirect, of indirect→double-indirect and of
    // the first level-1 boundary inside the double-indirect range, then a
    // page every 97 out past page 11 000: 127 one-page segments.
    let edge = |at: u64| at - 2..at + 2;
    let mut pages: Vec<u64> = edge(DIRECT)
        .chain(edge(DIRECT + INDIRECT))
        .chain(edge(DIRECT + 2 * INDIRECT))
        .chain((0..115).map(|i| 40 + 97 * i))
        .collect();
    pages.sort_unstable();
    pages.dedup();
    let size = (pages.last().unwrap() + 1) * PAGE_SIZE as u64;

    let mut map = FileMap::default();
    let predicted = map.commits(&pages);
    assert!(predicted.len() >= 3, "the set must not fit one transaction: {predicted:?}");
    let commits = stack.write_back(ino, &pages, size);
    assert!(commits.iter().all(|&blocks| blocks <= MAX_OP_BLOCKS), "{commits:?}");
    assert_eq!(commits, predicted, "fresh sparse file");

    // The same set again: nothing to allocate, a data block per page.
    let per_commit = MAX_OP_BLOCKS - PIECE_WORST_BLOCKS;
    let again = stack.write_back(ino, &pages, size);
    assert_eq!(again, map.commits(&pages), "overwrite");
    assert_eq!(again.len(), pages.len().div_ceil(per_commit));
    assert_eq!(stack.fs.getattr(ino).unwrap().size, size);
    stack.fs.destroy().unwrap();
    let report = xv6fs::fsck::fsck_device(&(stack.recorder as Arc<dyn BlockDevice>)).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
}

#[test]
fn a_contiguous_run_longer_than_a_transaction_is_cut_by_the_rule() {
    let stack = Recorded::mount();
    let ino = stack.fs.create(1, "run", FileMode::regular()).unwrap().ino;
    let pages: Vec<u64> = (0..200).collect();
    let size = 200 * PAGE_SIZE as u64;
    let mut map = FileMap::default();

    // Fresh: every page allocates, so a commit also carries the bitmap
    // block and (past page 12) the indirect block.
    let fresh = stack.write_back(ino, &pages, size);
    assert!(fresh.iter().all(|&blocks| blocks <= MAX_OP_BLOCKS), "{fresh:?}");
    assert_eq!(fresh, map.commits(&pages));
    assert_eq!(fresh.iter().sum::<usize>(), 200 + 3 * fresh.len(), "+ bitmap, indirect, inode");

    // Overwrite: 58 data blocks and the inode block per commit.
    let per_commit = MAX_OP_BLOCKS - PIECE_WORST_BLOCKS;
    let over = stack.write_back(ino, &pages, size);
    assert_eq!(over, [per_commit + 1, per_commit + 1, per_commit + 1, 200 - 3 * per_commit + 1]);
    assert_eq!(over.len(), 200usize.div_ceil(per_commit));

    // The costliest piece this image can produce — the file's first page
    // in the double-indirect range: data, level-1 and top block, one
    // bitmap block — arriving when the transaction is as full as the rule
    // lets it get still fits.
    let mut nearly_full: Vec<u64> = (0..per_commit as u64 - 1).collect();
    nearly_full.push(DIRECT + INDIRECT + 5);
    let size = (DIRECT + INDIRECT + 6) * PAGE_SIZE as u64;
    assert_eq!(stack.write_back(ino, &nearly_full, size), [per_commit - 1 + 4 + 1]);
    assert_eq!(map.commits(&nearly_full), [per_commit - 1 + 4 + 1]);
}
