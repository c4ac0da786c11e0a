//! An open file stays usable after its last name is unlinked (ROADMAP item
//! 1a), on every stack.
//!
//! POSIX keeps an unlinked file alive while a descriptor holds it: reads
//! return what was written, writes succeed, and `close`, `sync` and
//! unmount all return `Ok`, leaving an image the checker finds clean.  The
//! test walks each stack through that sequence and reports, per stack, the
//! first step that fails.
//!
//! ```text
//! cargo test --test open_unlinked -- --ignored
//! ```

use simkernel::cost::CostModel;
use simkernel::error::KernelResult;
use simkernel::vfs::OpenFlags;
use workloads::{mount_stack, FsStack, MountedStack};

const LEN: usize = 5_000;

/// Runs the sequence on `mounted`, naming the step that failed.
fn open_unlinked(mounted: &MountedStack) -> Result<(), String> {
    let step = |what: &str, result: KernelResult<()>| result.map_err(|e| format!("{what}: {e}"));
    let vfs = &mounted.vfs;
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    let fd =
        vfs.open("/f", OpenFlags::RDWR.with(OpenFlags::CREAT)).map_err(|e| format!("open: {e}"))?;
    step("write", vfs.pwrite(fd, &data, 0).map(drop))?;
    step("unlink", vfs.unlink("/f"))?;
    let mut back = vec![0u8; LEN];
    let read = vfs.pread(fd, &mut back, 0).map_err(|e| format!("pread: {e}"))?;
    if back[..read] != data[..] {
        return Err(format!("pread: {read} bytes, not the {LEN} written"));
    }
    step("pwrite", vfs.pwrite(fd, &data[..100], LEN as u64).map(drop))?;
    step("close", vfs.close(fd))?;
    step("sync", vfs.sync())?;
    step("unmount", mounted.unmount())?;
    let errors = mounted.check().map_err(|e| format!("check: {e}"))?;
    if !errors.is_empty() {
        return Err(format!("check: {errors:?}"));
    }
    Ok(())
}

#[test]
#[ignore = "ROADMAP item 1a"]
fn an_open_unlinked_file_stays_readable_and_writable_on_every_stack() {
    let failures: Vec<String> = FsStack::all()
        .into_iter()
        .filter_map(|stack| {
            let mounted = mount_stack(stack, CostModel::zero(), 16_384)
                .unwrap_or_else(|e| panic!("{}: mount: {e}", stack.label()));
            open_unlinked(&mounted).err().map(|e| format!("{}: {e}", stack.label()))
        })
        .collect();
    for failure in &failures {
        eprintln!("{failure}");
    }
    assert!(failures.is_empty(), "{} of 4 stacks fail: {failures:?}", failures.len());
}
