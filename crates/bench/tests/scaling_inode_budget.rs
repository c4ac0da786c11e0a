//! The scaling sweep's create phases on a small inode table.
//!
//! The create and cross-directory create points of `scaling` used to run
//! until a clock ran out, on a fixed inode table: as creates got faster,
//! `scaling --quick` started failing with `xv6fs: out of inodes: ENOSPC`.
//! Running out of inodes is correct file-system behaviour; the defect was a
//! harness that creates files until a deadline.  Each point now runs a
//! fixed op count, so the same phases run exactly that many creates on a
//! table a quarter of the standard size at any speed, and a table too small
//! for a point is refused before any op runs.

use std::sync::Arc;

use bench::{scaling_create, ExperimentConfig};
use journal::PlantedFault;
use loadgen::OpKind;
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, SsdDevice};
use workloads::{format, mount_stack_on, FsStack, MountedStack};

fn mount(cfg: &ExperimentConfig, inodes: u32) -> MountedStack {
    let device: Arc<dyn BlockDevice> =
        Arc::new(SsdDevice::ram_backed(cfg.disk_blocks, CostModel::zero()));
    format(FsStack::BentoXv6, &device, inodes).unwrap();
    mount_stack_on(FsStack::BentoXv6, device, CostModel::zero(), PlantedFault::None).unwrap()
}

#[test]
fn scaling_create_phases_fit_a_small_inode_table() {
    let cfg = ExperimentConfig { model: CostModel::zero(), ..ExperimentConfig::quick() };
    for threads in [1, 8] {
        for crossdir in [false, true] {
            let mounted = mount(&cfg, 2048);
            let point = scaling_create(&mounted, &cfg, threads, crossdir, false)
                .unwrap_or_else(|e| panic!("{threads}t crossdir={crossdir}: {e}"));
            let creates = point.result.class(OpKind::Create).map_or(0, |c| c.completed);
            assert!(point.result.is_clean());
            assert_eq!(creates, threads as u64 * cfg.ops / 2, "{threads}t crossdir={crossdir}");
            mounted.unmount_and_check().unwrap();
        }
    }
}

#[test]
fn a_create_point_that_outgrows_the_inode_table_fails_before_it_starts() {
    let cfg = ExperimentConfig { model: CostModel::zero(), ..ExperimentConfig::quick() };
    let mounted = mount(&cfg, 256);
    let err = scaling_create(&mounted, &cfg, 8, false, false).err().expect("8 × 250 > 256");
    assert!(err.0.contains("create-8t on Bento") && err.0.contains("ENOSPC"), "{err}");
    // Only the fileset's directories were made: no create ran.
    let fs = mounted.vfs.statfs("/").unwrap();
    assert_eq!(fs.total_inodes - fs.free_inodes, 1 + 8, "root and one directory per worker");
    mounted.unmount_and_check().unwrap();
}
