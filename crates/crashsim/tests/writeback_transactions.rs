//! A write-back pass that reaches the file system through `write_pages` is
//! one transaction on the Bento stack, however many disjoint runs of pages
//! it carries: across a crash the whole pass is there or none of it is.
//! The C-Kernel stack writes the same pages one transaction each, so it may
//! — and, enumerated, does — recover to a state holding one run of a pass
//! without the other.  Both stay fsck-clean in every state.

use std::sync::Arc;

use crashsim::{prefix_states, sampled_states, DiskImage, Event, FaultConfig, FaultDevice};
use journal::record::parse_head;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::error::{Errno, KernelResult};
use simkernel::vfs::{FileMode, VfsFs, PAGE_SIZE};
use xv6fs::layout::BSIZE;

type Mount = fn(Arc<dyn BlockDevice>) -> KernelResult<Arc<dyn VfsFs>>;

fn mount_bento(dev: Arc<dyn BlockDevice>) -> KernelResult<Arc<dyn VfsFs>> {
    Ok(xv6fs::fstype().mount_on(dev)? as Arc<dyn VfsFs>)
}

fn mount_vfs(dev: Arc<dyn BlockDevice>) -> KernelResult<Arc<dyn VfsFs>> {
    Ok(xv6fs_vfs::Xv6VfsFilesystem::mount(dev)? as Arc<dyn VfsFs>)
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
    fs.write_pages(ino, &set, size).unwrap();
}

/// The recovered file as one fill byte per page; `None` if it is absent.
fn observe(fs: &dyn VfsFs) -> Option<Vec<u8>> {
    let attr = match fs.lookup(1, "f") {
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

/// Runs create → pass 0 → pass 1 on a recording device, and returns every
/// distinct file state the enumerated crash images recover to, plus the
/// block count of the largest commit in the trace.
fn recovered_states(name: &str, mount: Mount) -> (Vec<Option<Vec<u8>>>, usize) {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, 4096));
    let dsb = xv6fs::mkfs::mkfs_on_device(&base, 64).unwrap();
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    {
        let fs = mount(Arc::clone(&recorder) as Arc<dyn BlockDevice>).unwrap();
        let ino = fs.create(1, "f", FileMode::regular()).unwrap().ino;
        for (pass, after) in PASSES.iter().zip(&AFTER[1..]) {
            write_back(&*fs, ino, pass, (after.len() * PAGE_SIZE) as u64);
        }
    }
    let trace = recorder.trace();
    let largest_commit = trace
        .events
        .iter()
        .filter_map(|event| match event {
            Event::Write { blockno, data } if (*blockno as u32) < dsb.inodestart => {
                parse_head(data, journal::MAX_OP_BLOCKS).map(|record| record.homes.len())
            }
            _ => None,
        })
        .max()
        .unwrap();

    let mut crash_states = prefix_states(&trace, &image);
    crash_states.extend(sampled_states(&trace, &image, 0x22_0B17, 200));
    let mut seen: Vec<Option<Vec<u8>>> = Vec::new();
    for state in crash_states {
        let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let fs = mount(Arc::clone(&disk)).unwrap();
        let report = xv6fs::fsck::fsck_device(&disk).unwrap();
        assert!(report.is_clean(), "{name}: {}: {:?}", state.description, report.errors);
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

    let (bento, largest) = recovered_states("bento-xv6fs", mount_bento);
    for file in &bento {
        assert!(whole.contains(file), "Bento recovered to a partial pass: {file:?}");
    }
    assert_eq!(bento.len(), whole.len(), "every whole state is visited: {bento:?}");
    // Pass 0 in one record: three data blocks, the bitmap and the inode.
    assert_eq!(largest, 5, "the enumeration saw the multi-page write-back transaction");

    let (ckernel, largest) = recovered_states("vfs-xv6fs", mount_vfs);
    for file in &whole {
        assert!(ckernel.contains(file), "C-Kernel never recovered to {file:?}");
    }
    assert!(
        ckernel.contains(&Some(vec![1, 1])),
        "a page per transaction: the first run of pass 0 can survive alone: {ckernel:?}"
    );
    assert!(largest <= 3, "no C-Kernel write-back transaction carries two pages");
}
