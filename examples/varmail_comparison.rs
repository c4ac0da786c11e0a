//! Runs the varmail macrobenchmark (Table 6) on every stack with the NVMe
//! cost model and prints the comparison — a one-figure taste of the full
//! harness in `cargo run -p bench --bin paper_experiments`, on the same
//! spec and driver.
//!
//! ```text
//! cargo run --release --example varmail_comparison
//! ```

use std::error::Error;

use loadgen::{prepare, run_load, LoadConfig, WorkloadSpec};
use simkernel::cost::CostModel;
use workloads::{mount_stack, FsStack};

fn main() -> Result<(), Box<dyn Error>> {
    let model = CostModel::nvme_ssd_scaled(2);
    let spec = WorkloadSpec::varmail().with_files(120);
    let load = LoadConfig::closed(4, 400);
    println!("varmail (mail server mix: create/append/fsync/read/delete), 4 workers x 400 ops\n");
    let mut results = Vec::new();
    for stack in FsStack::all() {
        let mounted = mount_stack(stack, model.clone(), 48 * 1024)?;
        prepare(&mounted.vfs, &spec, &load)?;
        let result = run_load(&mounted.vfs, &spec, &load)?;
        println!("{:<10} {:>10.0} ops/sec", stack.label(), result.ops_per_sec());
        results.push((stack, result.ops_per_sec()));
        mounted.unmount()?;
    }
    let rate = |stack| results.iter().find(|(s, _)| *s == stack).map_or(0.0, |(_, v)| *v);
    println!(
        "\nBento is {:.0}x faster than FUSE on this mix (paper: ~13x for varmail, far larger for data-heavy mixes)",
        rate(FsStack::BentoXv6) / rate(FsStack::FuseXv6).max(1e-9)
    );
    Ok(())
}
