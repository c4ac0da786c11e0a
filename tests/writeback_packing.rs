//! How xv6 packs one write-back pass into log transactions.
//!
//! `FsCore::write_vectored` has one rule: keep taking block-sized pieces —
//! of one file after another, in ascending inode order — into the open
//! transaction while the blocks it has staged, the worst case of one more
//! piece (6: data, indirect and double-indirect block, each with a bitmap
//! block) and the inode block of the file being written (the one inode
//! not yet staged) fit `MAX_OP_BLOCKS`; then end it and open the next.  A
//! file's inode block is staged when the stream leaves the file or the
//! transaction ends, and only if the file's inode changed in that
//! transaction — its size grew or a slot of its block map was filled:
//! `FsCore::update_inode` logs nothing when the inode's buffer already
//! holds the same bytes, so an overwrite inside EOF stages its data blocks
//! alone.  The reservation for the inode block stays either way.  A block
//! the transaction allocates — a new data block, or a new indirect,
//! double-indirect or level-1 block — goes straight to its home in the
//! commit's epoch, and the commit record names it as a direct home; every
//! other block it stages is copied into the log.  This suite restates that
//! rule over symbolic block names, predicts the logged and direct blocks
//! of every commit of a pass from it, and compares the prediction with the
//! commit records the Bento stack really wrote — decoded from a recorded
//! device trace — for page sets that sit on
//! the direct / indirect / double-indirect boundaries of a sparse file, for
//! a contiguous run longer than a transaction, and for a `sync`-shaped pass
//! over many small files whose inodes share inode blocks.

use std::collections::HashSet;
use std::sync::Arc;

use crashsim::{Event, FaultConfig, FaultDevice};
use journal::record::parse_head;
use journal::{JournalConfig, MAX_OP_BLOCKS, REGIONS};
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::vfs::{FileMode, VfsFs, WritebackFile, PAGE_SIZE};
use xv6fs::layout::{DiskSuperblock, IPB, LOGSIZE, NDIRECT, NINDIRECT};

const DISK_BLOCKS: u64 = 16_384;
const PIECE_WORST_BLOCKS: usize = 6;
const DIRECT: u64 = NDIRECT as u64;
const INDIRECT: u64 = NINDIRECT as u64;

/// A block a transaction stages, by role and owning inode.  One bitmap
/// block covers the whole 16 384-block image; `IPB` inodes share an inode
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Staged {
    Bitmap,
    InodeBlock(u64),
    Data(u64, u64),
    Indirect(u64),
    DoubleIndirect(u64),
    Level1(u64, u64),
}

/// The blocks one transaction stages, and which of them it allocated
/// (those go home directly; the rest are logged).
#[derive(Default)]
struct Tx {
    staged: HashSet<Staged>,
    allocated: HashSet<Staged>,
}

impl Tx {
    /// Stages a block the file already had.
    fn stage(&mut self, block: Staged) {
        self.staged.insert(block);
    }

    /// Stages a block this transaction allocates, and the bitmap block.
    fn allocate(&mut self, block: Staged) {
        self.staged.extend([block, Staged::Bitmap]);
        self.allocated.insert(block);
    }

    /// `(logged, direct)` blocks of the commit.
    fn commit(&self) -> (usize, usize) {
        (self.staged.len() - self.allocated.len(), self.allocated.len())
    }
}

/// What of one file is already allocated, and its size.
#[derive(Default)]
struct FileMap {
    ino: u64,
    size: u64,
    data: HashSet<u64>,
    indirect: bool,
    double_indirect: bool,
    level1: HashSet<u64>,
}

impl FileMap {
    fn new(ino: u64) -> FileMap {
        FileMap { ino, ..FileMap::default() }
    }

    /// The blocks writing page `page` stages: its data block; for every
    /// block it has to allocate, the bitmap block and the block that
    /// receives the new pointer (the inode itself for a direct block — it
    /// is logged once, when the file leaves the transaction).  Returns
    /// whether the inode changed: a page past the end grows its size, a
    /// fresh direct block or the first indirect or double-indirect block
    /// fills one of its address slots.
    fn stage(&mut self, page: u64, tx: &mut Tx) -> bool {
        let ino = self.ino;
        let fresh = self.data.insert(page);
        let end = (page + 1) * PAGE_SIZE as u64;
        let grew = end > self.size;
        self.size = self.size.max(end);
        if fresh {
            tx.allocate(Staged::Data(ino, page));
        } else {
            tx.stage(Staged::Data(ino, page));
        }
        if page < DIRECT {
            return grew || fresh;
        }
        if page < DIRECT + INDIRECT {
            let first = !std::mem::replace(&mut self.indirect, true);
            if first {
                tx.allocate(Staged::Indirect(ino));
            } else if fresh {
                tx.stage(Staged::Indirect(ino));
            }
            return grew || first;
        }
        let level1 = (page - DIRECT - INDIRECT) / INDIRECT;
        let first = !std::mem::replace(&mut self.double_indirect, true);
        if first {
            tx.allocate(Staged::DoubleIndirect(ino));
        }
        if self.level1.insert(level1) {
            tx.allocate(Staged::Level1(ino, level1));
            tx.stage(Staged::DoubleIndirect(ino));
        }
        if fresh {
            tx.stage(Staged::Level1(ino, level1));
        }
        grew || first
    }

    /// The rule for a pass of this file alone.
    fn commits(&mut self, pages: &[u64]) -> Vec<(usize, usize)> {
        commits(&mut [(self, pages)])
    }
}

/// The rule: `(logged, direct)` blocks per commit of one pass over `pass`,
/// `(file, pages)` in ascending inode order.
fn commits(pass: &mut [(&mut FileMap, &[u64])]) -> Vec<(usize, usize)> {
    let pieces: Vec<(usize, u64)> = pass
        .iter()
        .enumerate()
        .flat_map(|(file, (_, pages))| pages.iter().map(move |&page| (file, page)))
        .collect();
    // `<`, not `≤`: one block stays free for the inode block of the file
    // being written, the one inode not yet staged.
    let room = |tx: &Tx| tx.staged.len() + PIECE_WORST_BLOCKS < MAX_OP_BLOCKS;
    let mut sizes = Vec::new();
    let mut pieces = pieces.into_iter().peekable();
    while pieces.peek().is_some() {
        let mut tx = Tx::default();
        while let Some(&(file, _)) = pieces.peek() {
            if !room(&tx) {
                break;
            }
            let map = &mut *pass[file].0;
            let mut changed = false;
            while let Some((_, page)) = pieces.next_if(|&(f, _)| f == file && room(&tx)) {
                changed |= map.stage(page, &mut tx);
            }
            if changed {
                tx.stage(Staged::InodeBlock(map.ino / IPB as u64));
            }
        }
        sizes.push(tx.commit());
    }
    sizes
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
        let dsb: DiskSuperblock = xv6fs::mkfs::mkfs_on_device(&base, 256).unwrap();
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
    /// `(logged, direct)` block counts of every commit record the call
    /// wrote.
    fn write_back(&self, ino: u64, pages: &[u64], size: u64) -> Vec<(usize, usize)> {
        self.write_back_pass(&[(ino, pages, size)])
    }

    /// [`Recorded::write_back`] of a pass of several files, `(ino, pages,
    /// size)` in ascending inode order.
    fn write_back_pass(&self, pass: &[(u64, &[u64], u64)]) -> Vec<(usize, usize)> {
        let page = vec![0xD7u8; PAGE_SIZE];
        let sets: Vec<Vec<(u64, &[u8])>> = pass
            .iter()
            .map(|(_, pages, _)| pages.iter().map(|&index| (index, &page[..])).collect())
            .collect();
        let files: Vec<WritebackFile<'_>> =
            pass.iter().zip(&sets).map(|(&(ino, _, size), set)| (ino, &set[..], size)).collect();
        let before = self.recorder.event_count();
        self.fs.write_pages(&files).expect("no transaction may be too large");
        self.recorder.trace().events[before..]
            .iter()
            .filter_map(|event| match event {
                Event::Write { blockno, data } if self.log_heads.contains(blockno) => {
                    let record = parse_head(data, self.capacity)?;
                    Some((record.homes.len(), record.direct.len()))
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

    let mut map = FileMap::new(ino);
    let predicted = map.commits(&pages);
    assert!(predicted.len() >= 3, "the set must not fit one transaction: {predicted:?}");
    let commits = stack.write_back(ino, &pages, size);
    assert!(
        commits.iter().all(|&(logged, direct)| logged + direct <= MAX_OP_BLOCKS),
        "{commits:?}"
    );
    assert_eq!(commits, predicted, "fresh sparse file");

    // The same set again: nothing to allocate, a logged data block per
    // page.
    let per_commit = MAX_OP_BLOCKS - PIECE_WORST_BLOCKS;
    let again = stack.write_back(ino, &pages, size);
    assert_eq!(again, map.commits(&pages), "overwrite");
    assert!(again.iter().all(|&(_, direct)| direct == 0), "{again:?}");
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
    let mut map = FileMap::new(ino);

    // Fresh: every page allocates, so a commit also carries the bitmap
    // block and (past page 12) the indirect block.  The data blocks and
    // the indirect block go home directly; the indirect block once, in the
    // commit that allocates it, and logged in the later ones.
    let fresh = stack.write_back(ino, &pages, size);
    let total = |commits: &[(usize, usize)]| commits.iter().map(|&(l, d)| l + d).sum::<usize>();
    assert!(fresh.iter().all(|&(logged, direct)| logged + direct <= MAX_OP_BLOCKS), "{fresh:?}");
    assert_eq!(fresh, map.commits(&pages));
    assert_eq!(total(&fresh), 200 + 3 * fresh.len(), "+ bitmap, indirect, inode");
    assert_eq!(fresh.iter().map(|&(_, direct)| direct).sum::<usize>(), 200 + 1);

    // Overwrite: 58 logged data blocks per commit and no inode block — the
    // inode did not change.
    let per_commit = MAX_OP_BLOCKS - PIECE_WORST_BLOCKS;
    let over = stack.write_back(ino, &pages, size);
    let logged = |n| (n, 0);
    assert_eq!(over, [per_commit, per_commit, per_commit, 200 - 3 * per_commit].map(logged));
    assert_eq!(over, map.commits(&pages));
    assert_eq!(over.len(), 200usize.div_ceil(per_commit));

    // The costliest piece this image can produce — the file's first page
    // in the double-indirect range: data, level-1 and top block, one
    // bitmap block — arriving when the transaction is as full as the rule
    // lets it get still fits.  Its three new blocks go home directly; the
    // bitmap and inode blocks join the overwritten pages in the log.
    let mut nearly_full: Vec<u64> = (0..per_commit as u64 - 1).collect();
    nearly_full.push(DIRECT + INDIRECT + 5);
    let size = (DIRECT + INDIRECT + 6) * PAGE_SIZE as u64;
    let expected = [(per_commit - 1 + 1 + 1, 3)];
    assert_eq!(stack.write_back(ino, &nearly_full, size), expected);
    assert_eq!(map.commits(&nearly_full), expected);
}

#[test]
fn a_sync_pass_over_many_small_files_packs_them_by_the_rule() {
    let stack = Recorded::mount();
    // 90 files: their inodes fill one inode block and spill into the next.
    // Each has 1-4 pages; every 16th also a page past the direct blocks.
    let inos: Vec<u64> = (0..90)
        .map(|i| stack.fs.create(1, &format!("f{i}"), FileMode::regular()).unwrap().ino)
        .collect();
    assert!(inos.windows(2).all(|w| w[0] < w[1]));
    assert_ne!(inos[0] / IPB as u64, inos[89] / IPB as u64, "two inode blocks");
    let page_sets: Vec<Vec<u64>> = (0..90u64)
        .map(|i| {
            let mut pages: Vec<u64> = (0..1 + i % 4).collect();
            if i % 16 == 0 {
                pages.push(DIRECT + i % 5);
            }
            pages
        })
        .collect();
    let pass: Vec<(u64, &[u64], u64)> = inos
        .iter()
        .zip(&page_sets)
        .map(|(&ino, pages)| (ino, &pages[..], (pages.last().unwrap() + 1) * PAGE_SIZE as u64))
        .collect();
    let mut maps: Vec<FileMap> = inos.iter().map(|&ino| FileMap::new(ino)).collect();
    let mut model: Vec<(&mut FileMap, &[u64])> =
        maps.iter_mut().zip(&page_sets).map(|(map, pages)| (map, &pages[..])).collect();

    let predicted = commits(&mut model);
    let total_pages: usize = page_sets.iter().map(Vec::len).sum();
    assert!(predicted.len() >= 3, "the pass must not fit one transaction: {predicted:?}");
    assert!(predicted.len() * 10 < inos.len(), "many files per transaction: {predicted:?}");
    let fresh = stack.write_back_pass(&pass);
    assert!(fresh.iter().all(|&(logged, direct)| logged + direct <= MAX_OP_BLOCKS), "{fresh:?}");
    assert_eq!(fresh, predicted, "fresh files");
    let direct: usize = fresh.iter().map(|&(_, direct)| direct).sum();
    let logged: usize = fresh.iter().map(|&(logged, _)| logged).sum();
    assert_eq!(direct, total_pages + 90 / 16 + 1, "every data page and indirect block");
    assert!(direct + logged < total_pages + inos.len(), "shared inode blocks");

    // The same pass again: nothing to allocate.
    let again = stack.write_back_pass(&pass);
    assert_eq!(again, commits(&mut model), "overwrite");
    assert!(again.iter().all(|&(_, direct)| direct == 0), "{again:?}");
    for (&ino, &(_, _, size)) in inos.iter().zip(&pass) {
        assert_eq!(stack.fs.getattr(ino).unwrap().size, size, "ino {ino}");
    }
    stack.fs.destroy().unwrap();
    let report = xv6fs::fsck::fsck_device(&(stack.recorder as Arc<dyn BlockDevice>)).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
}
