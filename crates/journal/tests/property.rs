//! Journal property test (randomized crash contract): random operation
//! streams × seeded crash-state sampling against the bare [`Journal`] over
//! crashsim's fault device.
//!
//! Each round derives everything — the transaction stream, interleaved
//! `flush` calls, and the sampled crash states — from one seed, which is
//! printed on entry, so any failure replays bit-for-bit by pasting the
//! seed into `run_round`.  For every sampled crash state the oracle
//! asserts, after recovery:
//!
//! * **committed-group atomicity** — each transaction's blocks are either
//!   all at their written value or all at the initial image value, with
//!   every byte of every block uniform (no torn block survives recovery);
//! * **commit ordering** — the set of applied transactions is a prefix of
//!   the commit order (ops ran sequentially, so seq order = stream order);
//! * **no resurrection** — a second recovery replays nothing.

use std::sync::Arc;

use crashsim::{sampled_states, DiskImage, FaultConfig, FaultDevice};
use journal::io::{DeviceIo, JournalIo};
use journal::record::BSIZE;
use journal::{Journal, JournalConfig, MAX_OP_BLOCKS, REGIONS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simkernel::dev::{BlockDevice, RamDisk};

const LOG_BLOCKS: usize = REGIONS * (4 * MAX_OP_BLOCKS + 1);
const DISK_BLOCKS: u64 = 2048;
/// First home block each transaction's disjoint range is carved from.
const HOME_BASE: u64 = 1600;
/// Transactions per round; each owns `BLOCKS_PER_TX` consecutive blocks.
const TXS_PER_ROUND: u64 = 12;
const BLOCKS_PER_TX: u64 = 4;
const STATES_PER_ROUND: usize = 150;

fn config() -> JournalConfig {
    JournalConfig::from_geometry(2, LOG_BLOCKS, LOG_BLOCKS, (2 + LOG_BLOCKS as u64, DISK_BLOCKS))
}

/// One transaction of the generated stream: which blocks it wrote and with
/// what fill byte (nonzero, unique per tx).
struct TxPlan {
    blocks: Vec<u64>,
    fill: u8,
}

#[test]
fn random_op_streams_recover_atomically_from_sampled_crashes() {
    for round in 0..4u64 {
        run_round(0x0100_5EEDu64 + round);
    }
}

fn run_round(seed: u64) {
    // Replay any failure with `run_round(<seed>)`.
    println!("journal property round: seed {seed:#x}");
    let mut rng = SmallRng::seed_from_u64(seed);

    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(seed)));

    // Generate and run the op stream.  Transaction t owns the disjoint
    // block range [HOME_BASE + t*BLOCKS_PER_TX, ..), writes 1..=4 of those
    // blocks with fill t+1, and is occasionally followed by a flush.
    let mut plans = Vec::new();
    {
        let io = DeviceIo::new(Arc::clone(&recorder) as Arc<dyn BlockDevice>);
        let journal = Journal::new(config());
        for t in 0..TXS_PER_ROUND {
            let count = rng.gen_range(1..=BLOCKS_PER_TX);
            let fill = (t + 1) as u8;
            let blocks: Vec<u64> = (0..count).map(|i| HOME_BASE + t * BLOCKS_PER_TX + i).collect();
            journal.begin_op();
            for &blockno in &blocks {
                journal.log_write(blockno, &[fill; BSIZE]).unwrap();
            }
            journal.end_op(&io).unwrap();
            if rng.gen_range(0..4) == 0 {
                journal.flush(&io).unwrap();
            }
            plans.push(TxPlan { blocks, fill });
        }
    }
    let trace = recorder.trace();

    let sample_seed = rng.gen::<u64>();
    for state in sampled_states(&trace, &image, sample_seed, STATES_PER_ROUND) {
        let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
        let io = DeviceIo::new(disk);
        let journal = Journal::new(config());
        journal.recover(&io).unwrap();
        // No resurrection: a second recovery has nothing to replay.
        assert_eq!(
            journal.recover(&io).unwrap(),
            0,
            "seed {seed:#x}: {}: second recovery replayed blocks",
            state.description
        );

        // Committed-group atomicity per transaction, and every surviving
        // block fully uniform (torn writes must not outlive recovery).
        let mut applied = Vec::with_capacity(plans.len());
        for (t, plan) in plans.iter().enumerate() {
            let mut seen = Vec::with_capacity(plan.blocks.len());
            for &blockno in &plan.blocks {
                let mut buf = vec![0u8; BSIZE];
                io.read_block(blockno, &mut buf).unwrap();
                assert!(
                    buf.iter().all(|&b| b == buf[0]),
                    "seed {seed:#x}: {}: block {blockno} torn after recovery",
                    state.description
                );
                assert!(
                    buf[0] == 0 || buf[0] == plan.fill,
                    "seed {seed:#x}: {}: block {blockno} holds foreign byte {:#x}",
                    state.description,
                    buf[0]
                );
                seen.push(buf[0] == plan.fill);
            }
            let tx_applied = seen[0];
            assert!(
                seen.iter().all(|&s| s == tx_applied),
                "seed {seed:#x}: {}: tx {t} partially applied",
                state.description
            );
            applied.push(tx_applied);
        }

        // Commit ordering: the applied set is a prefix of the stream.
        let first_missing = applied.iter().position(|&a| !a).unwrap_or(plans.len());
        assert!(
            applied[first_missing..].iter().all(|&a| !a),
            "seed {seed:#x}: {}: applied transactions are not a prefix: {applied:?}",
            state.description
        );
    }
}
