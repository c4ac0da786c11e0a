//! Shared by the journal-level crash suites: the log geometry, and the
//! **chain workload** — back-to-back transactions and a checkpoint over
//! the bare [`Journal`] on crashsim's fault device, grouped into commits
//! by either close rule — with its recovery oracles (atomicity, ordering,
//! durability) and a census of which states of the one-barrier epoch and
//! the region ring an enumeration actually visited.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::sync::Arc;

use crashsim::{
    sampled_states, CrashState, DiskImage, Event, FaultConfig, FaultDevice, WriteTrace,
};
use journal::io::{DeviceIo, JournalIo};
use journal::record::{parse_head, payload_digest, BSIZE};
use journal::{GroupClose, Journal, JournalConfig, PlantedFault, MAX_OP_BLOCKS, REGIONS};
use simkernel::cost::CostModel;
use simkernel::dev::{BlockDevice, RamDisk};
use simkernel::queue::{MultiQueueDevice, QueueConfig};

pub const LOG_BLOCKS: usize = REGIONS * (4 * MAX_OP_BLOCKS + 1);
pub const DISK_BLOCKS: u64 = 2048;

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
/// enough that two regions are reused, so the region-reuse rule is
/// exercised, not just the first fill of the ring.
pub const CHAIN_TXS: u64 = 6;
/// Transactions under [`GroupClose::OnFlush`]: enough for five groups, so
/// the first region is reused there too.
const ON_FLUSH_TXS: u64 = 10;
/// Under [`GroupClose::OnFlush`], the transactions after which the driver
/// flushes as an fsync would, and the running-group size at which it
/// flushes as ext4's size threshold does.
const ON_FLUSH_FSYNC_AFTER: [u64; 3] = [1, 6, 8];
const ON_FLUSH_THRESHOLD: usize = 7;
/// Block every chain transaction rewrites (the cross-group conflict): each
/// copy but the last is superseded before its install falls due.
const CHAIN_SHARED: u64 = 1900;
/// Block every [`REGIONS`]-th transaction rewrites: the copy of
/// transaction *t* is superseded by no group before *t + REGIONS*, the
/// group that reuses its region.
pub const CHAIN_PERIOD: u64 = 1905;

/// The blocks only chain transaction `t` writes.
fn chain_own_blocks(t: u64) -> [u64; 2] {
    [1910 + 2 * t, 1911 + 2 * t]
}

/// The blocks several chain transactions write, each with the fill of the
/// last one to write it: `t`'s blocks among them.
fn chain_rewritten_blocks(t: u64) -> impl Iterator<Item = u64> {
    std::iter::once(CHAIN_SHARED).chain(t.is_multiple_of(REGIONS as u64).then_some(CHAIN_PERIOD))
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
/// planted.  Transaction `t` writes `chain_fill(t)` into the shared block,
/// every [`REGIONS`]-th one into the period block too, and into its own
/// two.  Under [`GroupClose::EveryOp`] every transaction is a group; under
/// [`GroupClose::OnFlush`] the driver closes groups with an fsync-style
/// flush after the transactions in [`ON_FLUSH_FSYNC_AFTER`], one with a
/// threshold flush once it holds [`ON_FLUSH_THRESHOLD`] blocks (followed
/// by a flush with nothing pending), and the checkpoint closes the last.
pub fn record_chain(close: GroupClose, queued: bool, fault: PlantedFault) -> RecordedChain {
    let (recorder, image, dev) = recorded_disk(queued);
    let io = DeviceIo::new(dev);
    let journal = journal_with(close, fault);
    let txs = if close == GroupClose::OnFlush { ON_FLUSH_TXS } else { CHAIN_TXS };
    let mut groups = vec![Vec::new()];
    for t in 0..txs {
        journal.begin_op();
        for blockno in chain_rewritten_blocks(t).chain(chain_own_blocks(t)) {
            journal.log_write(blockno, &[chain_fill(t); BSIZE]).unwrap();
        }
        journal.end_op(&io).unwrap();
        let group = groups.last_mut().expect("a running group");
        group.push(t);
        let running = 1 + 2 * group.len();
        let closed = match close {
            GroupClose::EveryOp => true,
            GroupClose::OnFlush if ON_FLUSH_FSYNC_AFTER.contains(&t) => {
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

/// Which states of the one-barrier epoch and the region ring an
/// enumeration saw on the medium.
#[derive(Debug, Default)]
pub struct ChainCoverage {
    /// (i) The newest record whole, fewer than all of its log blocks.
    pub record_ahead_of_payload: usize,
    /// (ii) An older record surviving over a region a later group has
    /// partly overwritten, while a newer record is valid: a crash inside a
    /// reuse epoch.
    pub overwritten_under_old_record: usize,
    /// (ii′) Such a reuse epoch whose overwritten record held blocks a
    /// newer valid record holds again — copies superseded, never
    /// installed.
    pub reuse_over_superseded: usize,
    /// (iii) Two or more records valid at once.
    pub two_valid_records: usize,
    /// (iii′) As many valid records as regions.
    pub four_valid_records: usize,
    /// (iv) A valid record whose own installs are partly on the medium.
    pub partial_installs_under_record: usize,
    /// (v) A valid newest record whose group holds several transactions.
    pub multi_op_group: usize,
    /// (vi) A home older than the copy the newest valid record holding it
    /// carries: the install still pending.
    pub home_older_than_newest_copy: usize,
}

/// A sealed record as the medium holds it: its sequence, its homes, and
/// whether the log blocks behind it are the ones it was sealed over (then
/// `payload` holds them).
struct RegionRecord {
    seq: u64,
    homes: Vec<u64>,
    intact: bool,
    payload: Vec<u8>,
}

/// The sealed record in `region`, if its header parses.
fn region_record(io: &DeviceIo, cfg: &JournalConfig, region: u64) -> Option<RegionRecord> {
    let head_block = cfg.start + region * cfg.region_size as u64;
    let mut head = vec![0u8; BSIZE];
    io.read_block(head_block, &mut head).unwrap();
    let parsed = parse_head(&head, cfg.capacity)?;
    let mut payload = vec![0u8; parsed.homes.len() * BSIZE];
    for (i, copy) in payload.chunks_exact_mut(BSIZE).enumerate() {
        io.read_block(head_block + 1 + i as u64, copy).unwrap();
    }
    let intact = payload_digest(payload.chunks_exact(BSIZE)) == parsed.payload_digest;
    Some(RegionRecord { seq: parsed.seq, homes: parsed.homes, intact, payload })
}

/// Counts what `records` (sorted by sequence) show of the epoch and the
/// ring into `coverage`.
fn census(
    io: &DeviceIo,
    chain: &RecordedChain,
    records: &[RegionRecord],
    coverage: &mut ChainCoverage,
) {
    let valid: Vec<&RegionRecord> = records.iter().filter(|r| r.intact).collect();
    let newest_valid = valid.last().map(|r| r.seq);
    if records.last().is_some_and(|r| !r.intact) {
        coverage.record_ahead_of_payload += 1;
    }
    for old in records.iter().filter(|r| !r.intact && newest_valid.is_some_and(|n| r.seq < n)) {
        coverage.overwritten_under_old_record += 1;
        let relogged = |home: &u64| valid.iter().any(|r| r.seq > old.seq && r.homes.contains(home));
        if old.homes.iter().any(relogged) {
            coverage.reuse_over_superseded += 1;
        }
    }
    if valid.len() >= 2 {
        coverage.two_valid_records += 1;
    }
    if valid.len() == REGIONS {
        coverage.four_valid_records += 1;
    }
    // Sequential commits: a record's sequence is its group's index.
    let partial = valid.iter().any(|record| {
        let own: Vec<(u64, u8)> = chain.groups[record.seq as usize]
            .iter()
            .flat_map(|&t| chain_own_blocks(t).map(|blockno| (blockno, chain_fill(t))))
            .collect();
        let installed =
            own.iter().filter(|&&(blockno, fill)| block_fill(io, blockno) == fill).count();
        installed > 0 && installed < own.len()
    });
    if partial {
        coverage.partial_installs_under_record += 1;
    }
    if newest_valid.is_some_and(|n| chain.groups[n as usize].len() > 1) {
        coverage.multi_op_group += 1;
    }
    let stale = valid.iter().enumerate().any(|(i, record)| {
        record.homes.iter().zip(record.payload.chunks_exact(BSIZE)).any(|(home, copy)| {
            let newest = !valid[i + 1..].iter().any(|later| later.homes.contains(home));
            newest && block_fill(io, *home) != copy[0]
        })
    });
    if stale {
        coverage.home_older_than_newest_copy += 1;
    }
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

    let mut records: Vec<RegionRecord> =
        (0..REGIONS as u64).filter_map(|region| region_record(&io, &cfg, region)).collect();
    records.sort_unstable_by_key(|r| r.seq);
    census(&io, chain, &records, coverage);

    let journal = journal_with(GroupClose::EveryOp, fault);
    journal.recover(&io).unwrap();
    if journal.recover(&io).unwrap() != 0 {
        return Err("second recovery replayed blocks".into());
    }
    if (0..REGIONS as u64).any(|region| region_record(&io, &cfg, region).is_some()) {
        return Err("recovery left a record on the medium".into());
    }
    // Atomicity and ordering: the applied transactions are a prefix, each
    // wholly applied, and each rewritten block belongs to the last of them
    // that wrote it.
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
    let count = applied.iter().take_while(|&&a| a).count() as u64;
    if applied[count as usize..].iter().any(|&a| a) {
        return Err(format!("applied transactions are not a prefix: {applied:?}"));
    }
    for blockno in [CHAIN_SHARED, CHAIN_PERIOD] {
        let last = (0..count).rev().find(|&t| chain_rewritten_blocks(t).any(|b| b == blockno));
        let expected = last.map_or(0, chain_fill);
        let held = block_fill(&io, blockno);
        if held != expected {
            return Err(format!(
                "block {blockno} holds {held:#x}, the last applied tx writing it wrote {expected:#x}"
            ));
        }
    }
    // Durability: every transaction whose commit barrier completed before
    // the crash must be there.
    if (count as usize) < acknowledged {
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
    violation.contains("partially applied") || violation.contains("the last applied tx writing it")
}
