//! A write-back pass that reaches the file system through `write_pages` is
//! one transaction on the Bento stack, however many disjoint runs of pages
//! it carries: across a crash the whole pass is there or none of it is.
//! The C-Kernel stack writes the same pages one transaction each, so it may
//! — and, enumerated, does — recover to a state holding one run of a pass
//! without the other.  Both stay fsck-clean in every state.
//!
//! A `sync`-shaped pass over several files is packed into transactions
//! that each carry pieces of several files.  Across a crash the files that
//! share a transaction move together: every recovered state is a prefix of
//! the pass cut at a commit, on Bento at one of its few commits, on the
//! C-Kernel stack at any page.

use std::sync::Arc;

use crashsim::{prefix_states, sampled_states, DiskImage, Event, FaultConfig, FaultDevice};
use journal::record::parse_head;
use journal::PlantedFault;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::error::Errno;
use simkernel::vfs::{FileMode, VfsFs, WritebackFile, PAGE_SIZE};
use workloads::{mount_stack_on, FsStack};
use xv6fs::layout::BSIZE;

fn mount(stack: FsStack, dev: Arc<dyn BlockDevice>) -> Arc<dyn VfsFs> {
    mount_stack_on(stack, dev, CostModel::zero(), PlantedFault::None).unwrap().fs
}

/// The two passes of the workload, as `(page, fill)` sets, and the file
/// (one fill byte per page, 0 = hole) after each.
const PASSES: [&[(u64, u8)]; 2] = [&[(0, 1), (1, 1), (3, 1)], &[(1, 2), (4, 2), (5, 2)]];
const AFTER: [&[u8]; 3] = [&[], &[1, 1, 0, 1], &[1, 2, 0, 1, 2, 2]];

/// Writes back `pass` the way the stack's page cache would: `write_pages`
/// is one call into a stack that batches and, by the trait's default, a
/// `write_page` per page into one that does not.
fn write_back(fs: &dyn VfsFs, ino: u64, pass: &[(u64, u8)], size: u64) {
    let pages: Vec<(u64, Vec<u8>)> =
        pass.iter().map(|&(index, fill)| (index, vec![fill; PAGE_SIZE])).collect();
    let set: Vec<(u64, &[u8])> = pages.iter().map(|(index, page)| (*index, &page[..])).collect();
    fs.write_pages(&[(ino, &set, size)]).unwrap();
}

/// The recovered file `name` as one fill byte per page; `None` if it is
/// absent.
fn observe_file(fs: &dyn VfsFs, name: &str) -> Option<Vec<u8>> {
    let attr = match fs.lookup(1, name) {
        Ok(attr) => attr,
        Err(e) if e.errno() == Errno::NoEnt => return None,
        Err(e) => panic!("lookup: {e}"),
    };
    assert_eq!(attr.size % PAGE_SIZE as u64, 0, "sizes are whole pages");
    let mut page = vec![0u8; PAGE_SIZE];
    let fills = (0..attr.size / PAGE_SIZE as u64).map(|index| {
        assert_eq!(fs.read_page(attr.ino, index, &mut page).unwrap(), PAGE_SIZE);
        assert!(page.iter().all(|&b| b == page[0]), "page {index} is torn");
        page[0]
    });
    Some(fills.collect())
}

/// The recovered file `f`.
fn observe(fs: &dyn VfsFs) -> Option<Vec<u8>> {
    observe_file(fs, "f")
}

/// The block counts of every commit record in `trace` (log heads sit
/// below the inode table).
fn commit_sizes(trace: &crashsim::WriteTrace, dsb: &xv6fs::layout::DiskSuperblock) -> Vec<usize> {
    trace
        .events
        .iter()
        .filter_map(|event| match event {
            Event::Write { blockno, data } if (*blockno as u32) < dsb.inodestart => {
                parse_head(data, journal::MAX_OP_BLOCKS).map(|record| record.homes.len())
            }
            _ => None,
        })
        .collect()
}

/// Runs create → pass 0 → pass 1 on a recording device, and returns every
/// distinct file state the enumerated crash images recover to, plus the
/// block count of the largest commit in the trace.
fn recovered_states(stack: FsStack) -> (Vec<Option<Vec<u8>>>, usize) {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, 4096));
    let dsb = xv6fs::mkfs::mkfs_on_device(&base, 64).unwrap();
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    {
        let fs = mount(stack, Arc::clone(&recorder) as Arc<dyn BlockDevice>);
        let ino = fs.create(1, "f", FileMode::regular()).unwrap().ino;
        for (pass, after) in PASSES.iter().zip(&AFTER[1..]) {
            write_back(&*fs, ino, pass, (after.len() * PAGE_SIZE) as u64);
        }
    }
    let trace = recorder.trace();
    let largest_commit = commit_sizes(&trace, &dsb).into_iter().max().unwrap();

    let mut crash_states = prefix_states(&trace, &image);
    crash_states.extend(sampled_states(&trace, &image, 0x22_0B17, 200));
    let mut seen: Vec<Option<Vec<u8>>> = Vec::new();
    for state in crash_states {
        let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let fs = mount(stack, Arc::clone(&disk));
        let report = xv6fs::fsck::fsck_device(&disk).unwrap();
        assert!(report.is_clean(), "{stack:?}: {}: {:?}", state.description, report.errors);
        let file = observe(&*fs);
        if !seen.contains(&file) {
            seen.push(file);
        }
    }
    (seen, largest_commit)
}

#[test]
fn a_two_run_pass_is_all_or_nothing_on_bento_and_page_by_page_on_ckernel() {
    let whole: Vec<Option<Vec<u8>>> =
        std::iter::once(None).chain(AFTER.iter().map(|file| Some(file.to_vec()))).collect();

    let (bento, largest) = recovered_states(FsStack::BentoXv6);
    for file in &bento {
        assert!(whole.contains(file), "Bento recovered to a partial pass: {file:?}");
    }
    assert_eq!(bento.len(), whole.len(), "every whole state is visited: {bento:?}");
    // Pass 0 in one record: three data blocks, the bitmap and the inode.
    assert_eq!(largest, 5, "the enumeration saw the multi-page write-back transaction");

    let (ckernel, largest) = recovered_states(FsStack::VfsXv6);
    for file in &whole {
        assert!(ckernel.contains(file), "C-Kernel never recovered to {file:?}");
    }
    assert!(
        ckernel.contains(&Some(vec![1, 1])),
        "a page per transaction: the first run of pass 0 can survive alone: {ckernel:?}"
    );
    assert!(largest <= 3, "no C-Kernel write-back transaction carries two pages");
}

/// The files of the multi-file pass, in inode order, with their page
/// counts: 56 fresh pages and their bitmap and indirect blocks need two
/// transactions, so at least one carries pieces of two files.
const FILES: [(&str, u64); 3] = [("a", 16), ("b", 24), ("c", 16)];

/// Pages of each file of [`FILES`] after the first `k` pages of the pass.
fn pass_prefix(k: u64) -> Vec<u64> {
    let mut left = k;
    FILES
        .iter()
        .map(|&(_, pages)| {
            let taken = left.min(pages);
            left -= taken;
            taken
        })
        .collect()
}

/// Creates [`FILES`] empty (checkpointed into the base image), then
/// writes them back in one `write_pages` pass on a recording device.
/// Returns the sorted distinct pass prefixes (in pages) every enumerated
/// crash state recovers to, and the commit count of the pass.
fn multi_file_prefixes(stack: FsStack) -> (Vec<u64>, usize) {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, 4096));
    let dsb = xv6fs::mkfs::mkfs_on_device(&base, 64).unwrap();
    let inos: Vec<u64> = {
        let fs = mount(stack, Arc::clone(&base));
        let inos =
            FILES.iter().map(|(file, _)| fs.create(1, file, FileMode::regular()).unwrap().ino);
        let inos = inos.collect();
        fs.destroy().unwrap();
        inos
    };
    assert!(inos.windows(2).all(|w| w[0] < w[1]), "the pass is in inode order");
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    {
        let fs = mount(stack, Arc::clone(&recorder) as Arc<dyn BlockDevice>);
        let pages: Vec<Vec<u8>> =
            (0..FILES.len()).map(|i| vec![0xA0 + i as u8; PAGE_SIZE]).collect();
        let sets: Vec<Vec<(u64, &[u8])>> = FILES
            .iter()
            .zip(&pages)
            .map(|(&(_, count), page)| (0..count).map(|index| (index, &page[..])).collect())
            .collect();
        let pass: Vec<WritebackFile<'_>> = inos
            .iter()
            .zip(&sets)
            .map(|(&ino, set)| (ino, &set[..], (set.len() * PAGE_SIZE) as u64))
            .collect();
        fs.write_pages(&pass).unwrap();
    }
    let trace = recorder.trace();
    let commits = commit_sizes(&trace, &dsb).len();

    let mut crash_states = prefix_states(&trace, &image);
    crash_states.extend(sampled_states(&trace, &image, 0x33_F11E, 200));
    let mut prefixes: Vec<u64> = Vec::new();
    for state in crash_states {
        let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let fs = mount(stack, Arc::clone(&disk));
        let report = xv6fs::fsck::fsck_device(&disk).unwrap();
        assert!(report.is_clean(), "{stack:?}: {}: {:?}", state.description, report.errors);
        let files: Vec<u64> = FILES
            .iter()
            .enumerate()
            .map(|(i, (file, _))| {
                let fills = observe_file(&*fs, file).expect("created before the pass");
                assert!(
                    fills.iter().all(|&fill| fill == 0xA0 + i as u8),
                    "{stack:?}: {file} {fills:?}"
                );
                fills.len() as u64
            })
            .collect();
        let k = files.iter().sum();
        assert_eq!(
            files,
            pass_prefix(k),
            "{stack:?}: {}: not a prefix of the pass",
            state.description
        );
        if !prefixes.contains(&k) {
            prefixes.push(k);
        }
    }
    prefixes.sort_unstable();
    (prefixes, commits)
}

#[test]
fn files_sharing_a_write_back_transaction_move_together() {
    let total: u64 = FILES.iter().map(|(_, pages)| pages).sum();

    let (bento, commits) = multi_file_prefixes(FsStack::BentoXv6);
    assert!(commits >= 2, "the pass needs several transactions: {commits}");
    assert!(commits < FILES.len() * 2, "files share transactions: {commits} commits");
    // Every transaction is atomic: the recovered states are the pass cut at
    // its commits, and nowhere else.
    assert_eq!(bento.len(), commits + 1, "one state per commit boundary: {bento:?}");
    assert_eq!((bento[0], bento[commits]), (0, total));
    // Coverage: the enumeration recovered a record carrying the data of
    // two files at once.
    let two_files = bento.windows(2).any(|cut| {
        let (before, after) = (pass_prefix(cut[0]), pass_prefix(cut[1]));
        before.iter().zip(&after).filter(|(b, a)| b != a).count() >= 2
    });
    assert!(two_files, "no recovered record named the data of two inodes: {bento:?}");

    let (ckernel, commits) = multi_file_prefixes(FsStack::VfsXv6);
    assert_eq!(commits as u64, total, "a transaction per page");
    assert_eq!(ckernel, (0..=total).collect::<Vec<_>>(), "every page prefix is recoverable");
}
