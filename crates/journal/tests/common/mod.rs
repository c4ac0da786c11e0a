//! Shared by the journal-level crash suites: the log geometry, and the
//! **chain workload** — back-to-back transactions and a checkpoint over
//! the bare [`Journal`] on crashsim's fault device, grouped into commits
//! by either close rule — with its recovery oracles (atomicity, ordering,
//! durability) and a census of which states of the one-barrier epoch an
//! enumeration actually visited.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::sync::Arc;

use crashsim::{
    sampled_states, CrashState, DiskImage, Event, FaultConfig, FaultDevice, WriteTrace,
};
use journal::io::{DeviceIo, JournalIo};
use journal::record::{parse_head, payload_digest, BSIZE};
use journal::{GroupClose, Journal, JournalConfig, PlantedFault, MAX_OP_BLOCKS};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::queue::{MultiQueueDevice, QueueConfig};

pub const LOG_BLOCKS: usize = 2 * (4 * MAX_OP_BLOCKS + 1);
pub const DISK_BLOCKS: u64 = 1024;

pub fn config() -> JournalConfig {
    JournalConfig::from_geometry(2, LOG_BLOCKS, LOG_BLOCKS, (2 + LOG_BLOCKS as u64, DISK_BLOCKS))
}

pub fn journal_with(close: GroupClose, fault: PlantedFault) -> Journal {
    let mut journal = Journal::new(JournalConfig { close, ..config() });
    journal.plant_fault(fault);
    journal
}

pub fn block_fill(io: &DeviceIo, blockno: u64) -> u8 {
    let mut buf = vec![0u8; BSIZE];
    io.read_block(blockno, &mut buf).unwrap();
    buf[0]
}

/// A blank disk under a recording fault device, the image it started
/// from, and the device the journal should be run on: the recorder itself,
/// or a multi-queue device (4 queues, depth 8) over it.
pub fn recorded_disk(queued: bool) -> (Arc<FaultDevice>, Arc<DiskImage>, Arc<dyn BlockDevice>) {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let dev: Arc<dyn BlockDevice> = if queued {
        Arc::new(MultiQueueDevice::new(
            Arc::clone(&recorder) as Arc<dyn BlockDevice>,
            CostModel::zero(),
            QueueConfig::new(4, 8),
        ))
    } else {
        Arc::clone(&recorder) as Arc<dyn BlockDevice>
    };
    (recorder, image, dev)
}

/// Transactions of the chain workload under [`GroupClose::EveryOp`]:
/// enough that each region is reused twice, so the region-reuse rule is
/// exercised, not just the first fill.  [`GroupClose::OnFlush`] runs one
/// more, so its three groups reuse a region too.
pub const CHAIN_TXS: u64 = 5;
/// Under [`GroupClose::OnFlush`], the transaction after which the driver
/// flushes as an fsync would, and the running-group size at which it
/// flushes as ext4's size threshold does.
const ON_FLUSH_FSYNC_AFTER: u64 = 1;
const ON_FLUSH_THRESHOLD: usize = 7;
/// Block every chain transaction rewrites (the cross-group conflict).
const CHAIN_SHARED: u64 = 900;

/// The blocks only chain transaction `t` writes.
fn chain_own_blocks(t: u64) -> [u64; 2] {
    [910 + 2 * t, 911 + 2 * t]
}

fn chain_fill(t: u64) -> u8 {
    0xC0 + t as u8
}

/// A recorded chain run: its trace, the image it started from, and the
/// transactions of each commit group, in commit order.
pub struct RecordedChain {
    pub trace: WriteTrace,
    pub image: Arc<DiskImage>,
    pub groups: Vec<Vec<u64>>,
}

/// Records the chain workload and the checkpoint of a clean unmount, on a
/// synchronous or a multi-queue device, through a journal with `fault`
/// planted.  Transaction `t` writes `chain_fill(t)` into the shared block
/// and its own two.  Under [`GroupClose::EveryOp`] every transaction is a
/// group; under [`GroupClose::OnFlush`] the driver closes the first group
/// with an fsync-style flush after two transactions, the second with a
/// threshold flush once it holds [`ON_FLUSH_THRESHOLD`] blocks (followed
/// by a flush with nothing pending), and the checkpoint closes the last.
pub fn record_chain(close: GroupClose, queued: bool, fault: PlantedFault) -> RecordedChain {
    let (recorder, image, dev) = recorded_disk(queued);
    let io = DeviceIo::new(dev);
    let journal = journal_with(close, fault);
    let txs = if close == GroupClose::OnFlush { CHAIN_TXS + 1 } else { CHAIN_TXS };
    let mut groups = vec![Vec::new()];
    for t in 0..txs {
        journal.begin_op();
        journal.log_write(CHAIN_SHARED, &[chain_fill(t); BSIZE]).unwrap();
        for blockno in chain_own_blocks(t) {
            journal.log_write(blockno, &[chain_fill(t); BSIZE]).unwrap();
        }
        journal.end_op(&io).unwrap();
        let group = groups.last_mut().expect("a running group");
        group.push(t);
        let running = 1 + 2 * group.len();
        let closed = match close {
            GroupClose::EveryOp => true,
            GroupClose::OnFlush if t == ON_FLUSH_FSYNC_AFTER => {
                journal.flush(&io).unwrap();
                true
            }
            GroupClose::OnFlush if running >= ON_FLUSH_THRESHOLD => {
                journal.flush(&io).unwrap();
                let stats = journal.stats();
                journal.flush(&io).unwrap();
                assert_eq!(journal.stats(), stats, "a flush with nothing pending is free");
                true
            }
            GroupClose::OnFlush => false,
        };
        if closed && t + 1 < txs {
            groups.push(Vec::new());
        }
    }
    let stats = journal.stats();
    assert_eq!(stats.barriers, stats.commits, "one barrier per commit");
    journal.checkpoint(&io).unwrap();
    assert_eq!(journal.stats().commits as usize, groups.len());
    RecordedChain { trace: recorder.trace(), image, groups }
}

impl RecordedChain {
    /// Event count at which each transaction became durable: just past
    /// the commit barrier of its group, the one flush of that commit.
    pub fn ack_points(&self) -> Vec<usize> {
        let flushes =
            self.trace.events.iter().enumerate().filter(|(_, e)| matches!(e, Event::Flush));
        flushes
            .zip(&self.groups)
            .flat_map(|((i, _), group)| group.iter().map(move |_| i + 1))
            .collect()
    }

    /// Applies [`check_chain_state`] to every state; returns the violations
    /// (prefixed with the state's description) and the coverage census.
    pub fn violations(
        &self,
        states: &[CrashState],
        fault: PlantedFault,
    ) -> (Vec<String>, ChainCoverage) {
        let acks = self.ack_points();
        let mut coverage = ChainCoverage::default();
        let violations = states
            .iter()
            .filter_map(|state| {
                check_chain_state(state, self, &acks, fault, &mut coverage)
                    .err()
                    .map(|what| format!("{}: {what}", state.description))
            })
            .collect();
        (violations, coverage)
    }
}

/// Which states of the one-barrier epoch an enumeration saw on the medium.
#[derive(Debug, Default)]
pub struct ChainCoverage {
    /// (i) The newest record whole, fewer than all of its log blocks.
    pub record_ahead_of_payload: usize,
    /// (ii) An older record surviving over a region the group two commits
    /// later has partly overwritten, while the record between them is
    /// valid.
    pub overwritten_under_old_record: usize,
    /// (iii) Two consecutive records both valid.
    pub two_valid_records: usize,
    /// (iv) A valid record whose own installs are partly on the medium.
    pub partial_installs_under_record: usize,
    /// (v) A valid newest record whose group holds several transactions.
    pub multi_op_group: usize,
}

/// The sealed record in `region` as the medium holds it: its sequence and
/// whether the log blocks behind it are the ones it was sealed over.
fn region_record(io: &DeviceIo, cfg: &JournalConfig, region: u64) -> Option<(u64, bool)> {
    let head_block = cfg.start + region * cfg.region_size as u64;
    let mut head = vec![0u8; BSIZE];
    io.read_block(head_block, &mut head).unwrap();
    let parsed = parse_head(&head, cfg.capacity)?;
    let mut payload = vec![0u8; parsed.homes.len() * BSIZE];
    for (i, copy) in payload.chunks_exact_mut(BSIZE).enumerate() {
        io.read_block(head_block + 1 + i as u64, copy).unwrap();
    }
    Some((parsed.seq, payload_digest(payload.chunks_exact(BSIZE)) == parsed.payload_digest))
}

/// Inspects one chain crash state as the medium holds it, then recovers it
/// (through a journal with `fault` planted) and applies the oracles.
/// Returns a description of the first violated oracle, if any.
fn check_chain_state(
    state: &CrashState,
    chain: &RecordedChain,
    acks: &[usize],
    fault: PlantedFault,
    coverage: &mut ChainCoverage,
) -> Result<(), String> {
    let disk: Arc<dyn BlockDevice> = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
    let io = DeviceIo::new(disk);
    let cfg = config();
    let acknowledged = acks.iter().take_while(|&&ack| ack <= state.durable_events).count();

    let mut records: Vec<(u64, bool)> =
        (0..2).filter_map(|region| region_record(&io, &cfg, region)).collect();
    records.sort_unstable();
    match records[..] {
        [(_, false)] | [(_, true), (_, false)] => coverage.record_ahead_of_payload += 1,
        [(_, false), (_, true)] => coverage.overwritten_under_old_record += 1,
        [(_, true), (_, true)] => coverage.two_valid_records += 1,
        _ => {}
    }
    if let Some(&(newest, true)) = records.last() {
        // Sequential commits: a record's sequence is its group's index.
        let group = &chain.groups[newest as usize];
        let own: Vec<(u64, u8)> = group
            .iter()
            .flat_map(|&t| chain_own_blocks(t).map(|blockno| (blockno, chain_fill(t))))
            .collect();
        let installed =
            own.iter().filter(|&&(blockno, fill)| block_fill(&io, blockno) == fill).count();
        if installed > 0 && installed < own.len() {
            coverage.partial_installs_under_record += 1;
        }
        if group.len() > 1 {
            coverage.multi_op_group += 1;
        }
    }

    let journal = journal_with(GroupClose::EveryOp, fault);
    journal.recover(&io).unwrap();
    if journal.recover(&io).unwrap() != 0 {
        return Err("second recovery replayed blocks".into());
    }
    if (0..2).any(|region| region_record(&io, &cfg, region).is_some()) {
        return Err("recovery left a record on the medium".into());
    }
    // Atomicity and ordering: the applied transactions are a prefix, each
    // wholly applied, and the shared block belongs to the last of them.
    let txs = chain.groups.iter().map(Vec::len).sum::<usize>() as u64;
    let applied: Vec<bool> = (0..txs)
        .map(|t| {
            let fills = chain_own_blocks(t).map(|blockno| block_fill(&io, blockno));
            match fills {
                [a, b] if a == chain_fill(t) && b == a => Ok(true),
                [0, 0] => Ok(false),
                _ => Err(format!("tx {t} partially applied: {fills:x?}")),
            }
        })
        .collect::<Result<_, _>>()?;
    let count = applied.iter().take_while(|&&a| a).count();
    if applied[count..].iter().any(|&a| a) {
        return Err(format!("applied transactions are not a prefix: {applied:?}"));
    }
    let shared = block_fill(&io, CHAIN_SHARED);
    let expected = if count == 0 { 0 } else { chain_fill(count as u64 - 1) };
    if shared != expected {
        return Err(format!("shared block holds {shared:#x}, last applied tx wrote {expected:#x}"));
    }
    // Durability: every transaction whose commit barrier completed before
    // the crash must be there.
    if count < acknowledged {
        return Err(format!("{acknowledged} transactions acknowledged, only {count} recovered"));
    }
    Ok(())
}

/// The violations among 600 crash states sampled (from `seed`) of the
/// every-op chain workload, run and recovered through journals with
/// `fault` planted.
pub fn sampled_chain_violations(queued: bool, fault: PlantedFault, seed: u64) -> Vec<String> {
    let chain = record_chain(GroupClose::EveryOp, queued, fault);
    let states = sampled_states(&chain.trace, &chain.image, seed, 600);
    chain.violations(&states, fault).0
}

/// Whether `violation` came from the atomicity/ordering oracles.
pub fn is_atomicity(violation: &str) -> bool {
    violation.contains("partially applied") || violation.contains("shared block holds")
}
