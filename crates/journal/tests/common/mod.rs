//! Shared by the journal-level crash suites: the log geometry, and the
//! **chain workload** — back-to-back transactions and a checkpoint over
//! the bare [`Journal`] on crashsim's fault device, grouped into commits
//! by either close rule — with its recovery oracles (atomicity, ordering,
//! durability) and a census of which states of the one-barrier epoch, the
//! region ring and the direct writes of fresh blocks an enumeration
//! actually visited; and the **reuse workload**, a block freed and
//! allocated again while older copies of it are live.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::sync::Arc;

use crashsim::{
    prefix_states, sampled_states, CrashState, DiskImage, Event, FaultConfig, FaultDevice,
    WriteTrace,
};
use journal::io::{DeviceIo, JournalIo};
use journal::record::{direct_checksum, parse_head, payload_digest, BSIZE};
use journal::{GroupClose, Journal, JournalConfig, PlantedFault, MAX_OP_BLOCKS, REGIONS};
use simkernel::dev::{BlockDevice, RamDisk};

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
/// from, and the recorder as the device the journal should be run on.
pub fn recorded_disk() -> (Arc<FaultDevice>, Arc<DiskImage>, Arc<dyn BlockDevice>) {
    let base: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(BSIZE as u32, DISK_BLOCKS));
    let image = Arc::new(DiskImage::capture(&base).unwrap());
    let recorder = Arc::new(FaultDevice::new(base, FaultConfig::recorder(0)));
    let dev = Arc::clone(&recorder) as Arc<dyn BlockDevice>;
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

/// The block chain transaction `t` allocates ([`Journal::log_fresh`]) and
/// transaction `t + 1` rewrites: a direct home in `t`'s record, then a
/// logged copy in `t + 1`'s that is installed over it — by the epoch that
/// falls due, or by the checkpoint while `t`'s record is still live.
fn chain_fresh(t: u64) -> u64 {
    1940 + t
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

/// Records the chain workload and the checkpoint of a clean unmount
/// through a journal with `fault` planted.  Transaction `t` writes `chain_fill(t)` into the shared block,
/// every [`REGIONS`]-th one into the period block too, and into its own
/// two.  Under [`GroupClose::EveryOp`] every transaction is a group; under
/// [`GroupClose::OnFlush`] the driver closes groups with an fsync-style
/// flush after the transactions in [`ON_FLUSH_FSYNC_AFTER`], one with a
/// threshold flush once it holds [`ON_FLUSH_THRESHOLD`] blocks (followed
/// by a flush with nothing pending), and the checkpoint closes the last.
pub fn record_chain(close: GroupClose, fault: PlantedFault) -> RecordedChain {
    let (recorder, image, dev) = recorded_disk();
    let io = DeviceIo::new(dev);
    let journal = journal_with(close, fault);
    let txs = if close == GroupClose::OnFlush { ON_FLUSH_TXS } else { CHAIN_TXS };
    let mut groups = vec![Vec::new()];
    for t in 0..txs {
        journal.begin_op();
        let rewrites = t.checked_sub(1).map(chain_fresh);
        for blockno in chain_rewritten_blocks(t).chain(chain_own_blocks(t)).chain(rewrites) {
            journal.log_write(blockno, &[chain_fill(t); BSIZE]).unwrap();
        }
        journal.log_fresh(chain_fresh(t), &[chain_fill(t); BSIZE]).unwrap();
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
    let stats = journal.stats();
    assert_eq!((stats.direct_blocks, stats.demoted), (txs, 0), "every fresh block goes home");
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
                let disk = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
                check_chain_state(&disk, state.durable_events, self, &acks, fault, &mut coverage)
                    .err()
                    .map(|what| format!("{}: {what}", state.description))
            })
            .collect();
        (violations, coverage)
    }

    /// Crashes *during recovery*: for each of `states` whose medium holds
    /// a valid record with a direct home, records a (correct) recovery of
    /// it, then checks every in-order prefix of that recovery's writes —
    /// a recovery cut short — by recovering it again (with `fault`
    /// planted) and applying the chain oracles with the acknowledgements
    /// of the original crash.  Returns the violations and how many cut
    /// recoveries had replayed a block and left a record with a direct
    /// home for the second recovery.
    pub fn violations_after_a_crash_in_recovery(
        &self,
        states: &[CrashState],
        fault: PlantedFault,
    ) -> (Vec<String>, usize) {
        let acks = self.ack_points();
        let cfg = config();
        let homes = cfg.home_range.0;
        let mut coverage = ChainCoverage::default();
        let (mut violations, mut second_recoveries) = (Vec::new(), 0);
        for state in states {
            let disk = Arc::clone(&state.disk) as Arc<dyn BlockDevice>;
            let io = DeviceIo::new(Arc::clone(&disk));
            let with_direct = (0..REGIONS as u64)
                .filter_map(|region| region_record(&io, &cfg, region))
                .any(|record| record.intact && !record.direct.is_empty());
            if !with_direct {
                continue;
            }
            let image = Arc::new(DiskImage::capture(&disk).unwrap());
            let recorder = Arc::new(FaultDevice::new(disk, FaultConfig::recorder(0)));
            let recovering = DeviceIo::new(Arc::clone(&recorder) as Arc<dyn BlockDevice>);
            Journal::new(config()).recover(&recovering).unwrap();
            let trace = recorder.trace();
            for cut in prefix_states(&trace, &image) {
                let cut_disk = Arc::clone(&cut.disk) as Arc<dyn BlockDevice>;
                let cut_io = DeviceIo::new(Arc::clone(&cut_disk));
                let replayed = trace.events[..cut.durable_events].iter().any(
                    |event| matches!(event, Event::Write { blockno, .. } if *blockno >= homes),
                );
                let direct_left = (0..REGIONS as u64)
                    .filter_map(|region| region_record(&cut_io, &cfg, region))
                    .any(|record| !record.direct.is_empty());
                if replayed && direct_left {
                    second_recoveries += 1;
                }
                let checked = check_chain_state(
                    &cut_disk,
                    state.durable_events,
                    self,
                    &acks,
                    fault,
                    &mut coverage,
                );
                if let Err(what) = checked {
                    violations
                        .push(format!("{} then {}: {what}", state.description, cut.description));
                }
            }
        }
        (violations, second_recoveries)
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
    /// (vii) A record whose payload is whole while one of its direct
    /// blocks is not at home (and no newer valid record names it): the
    /// write cache persisted the record ahead of a direct write.
    pub record_ahead_of_direct: usize,
    /// (viii) A direct block at home while its group's record is not on
    /// the medium.
    pub direct_ahead_of_record: usize,
    /// (ix) A valid record's direct home overwritten by a newer group's
    /// copy, while the newer record that names it is valid too: an install
    /// (a due one, or the checkpoint's) under the older, live record.
    pub direct_overwritten_under_live_record: usize,
}

/// A sealed record as the medium holds it: its sequence, its homes, and
/// whether the log blocks behind it are the ones it was sealed over (then
/// `payload` holds them).
struct RegionRecord {
    seq: u64,
    homes: Vec<u64>,
    direct: Vec<(u64, u64)>,
    intact: bool,
    payload: Vec<u8>,
}

impl RegionRecord {
    /// Whether the direct home `home` holds the bytes this record sealed.
    fn direct_at_home(&self, io: &DeviceIo, (home, checksum): (u64, u64)) -> bool {
        let mut block = vec![0u8; BSIZE];
        io.read_block(home, &mut block).unwrap();
        direct_checksum(&block) == checksum
    }

    /// Whether the record names `home`, logged or direct.
    fn names(&self, home: u64) -> bool {
        self.homes.contains(&home) || self.direct.iter().any(|&(direct, _)| direct == home)
    }
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
    Some(RegionRecord {
        seq: parsed.seq,
        homes: parsed.homes,
        direct: parsed.direct,
        intact,
        payload,
    })
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
    let newer_names = |seq: u64, home: u64| valid.iter().any(|r| r.seq > seq && r.names(home));
    let (mut ahead, mut overwritten) = (false, false);
    for record in &valid {
        for &entry in &record.direct {
            if record.direct_at_home(io, entry) {
                continue;
            }
            if newer_names(record.seq, entry.0) {
                overwritten = true;
            } else {
                ahead = true;
            }
        }
    }
    coverage.record_ahead_of_direct += usize::from(ahead);
    coverage.direct_overwritten_under_live_record += usize::from(overwritten);
    // Sequential commits: a group's index is its record's sequence, and
    // the group after the newest record on the medium never committed.
    let next = records.last().map_or(0, |r| r.seq + 1) as usize;
    if records.last().is_some() && next < chain.groups.len() {
        // Only the group's own direct write puts anything there.
        if chain.groups[next].iter().any(|&t| block_fill(io, chain_fresh(t)) != 0) {
            coverage.direct_ahead_of_record += 1;
        }
    }
}

/// Inspects one chain crash state as the medium holds it, then recovers it
/// (through a journal with `fault` planted) and applies the oracles.
/// Returns a description of the first violated oracle, if any.
fn check_chain_state(
    disk: &Arc<dyn BlockDevice>,
    durable_events: usize,
    chain: &RecordedChain,
    acks: &[usize],
    fault: PlantedFault,
    coverage: &mut ChainCoverage,
) -> Result<(), String> {
    let io = DeviceIo::new(Arc::clone(disk));
    let cfg = config();
    let acknowledged = acks.iter().take_while(|&&ack| ack <= durable_events).count();

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
    // Each applied transaction's fresh block holds its own bytes, or its
    // successor's once that is applied too.
    let fresh = (0..count).map(|t| (chain_fresh(t), chain_fill((t + 1).min(count - 1))));
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
    for (blockno, expected) in fresh {
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
pub fn sampled_chain_violations(fault: PlantedFault, seed: u64) -> Vec<String> {
    let chain = record_chain(GroupClose::EveryOp, fault);
    let states = sampled_states(&chain.trace, &chain.image, seed, 600);
    chain.violations(&states, fault).0
}

/// Whether `violation` came from the atomicity/ordering oracles.
pub fn is_atomicity(violation: &str) -> bool {
    violation.contains("partially applied") || violation.contains("the last applied tx writing it")
}

/// The block the reuse workload frees and allocates again.
const REUSED: u64 = 1980;

/// What reuse transaction `t` does to [`REUSED`]: write it (as a block the
/// file already had, or as a fresh one), free it, or both free it and
/// allocate it again; every transaction also writes its own marker block.
#[derive(Clone, Copy, PartialEq)]
enum Reuse {
    Rewrite(u8),
    Free,
    Allocate(u8),
    FreeAndAllocate(u8),
    Nothing,
}

/// The reuse script: transaction 0 rewrites the block (a logged copy,
/// pending until transaction 3's epoch, its record live until transaction
/// 4 reuses the region); transaction 1 frees it; transaction 2 allocates
/// it again while that copy and record are live; transactions 3–6 let
/// transaction 2's record go; transaction 7 frees it and allocates it
/// again in one group.  Both allocations must be logged.
const REUSE: [Reuse; 8] = [
    Reuse::Rewrite(0xA0),
    Reuse::Free,
    Reuse::Allocate(0xA2),
    Reuse::Nothing,
    Reuse::Nothing,
    Reuse::Nothing,
    Reuse::Nothing,
    Reuse::FreeAndAllocate(0xA7),
];

fn reuse_marker(t: usize) -> (u64, u8) {
    (1990 + t as u64, 0x10 + t as u8)
}

/// The violations among every in-order prefix and 600 sampled crash states
/// of the reuse script, run and recovered through journals with `fault`
/// planted: the applied transactions must be a prefix, durable once
/// acknowledged, and the reused block must hold the bytes of the last
/// applied transaction that wrote it (anything, if that transaction freed
/// it).
pub fn reuse_violations(fault: PlantedFault) -> Vec<String> {
    let (recorder, image, dev) = recorded_disk();
    let io = DeviceIo::new(dev);
    let journal = journal_with(GroupClose::EveryOp, fault);
    let mut acks = Vec::new();
    for (t, step) in REUSE.iter().enumerate() {
        journal.begin_op();
        let (marker, fill) = reuse_marker(t);
        journal.log_write(marker, &[fill; BSIZE]).unwrap();
        match *step {
            Reuse::Rewrite(fill) => journal.log_write(REUSED, &[fill; BSIZE]).unwrap(),
            Reuse::Free => journal.note_free(REUSED).unwrap(),
            Reuse::Allocate(fill) => journal.log_fresh(REUSED, &[fill; BSIZE]).unwrap(),
            Reuse::FreeAndAllocate(fill) => {
                journal.note_free(REUSED).unwrap();
                journal.log_fresh(REUSED, &[fill; BSIZE]).unwrap();
            }
            Reuse::Nothing => {}
        }
        journal.end_op(&io).unwrap();
        acks.push(recorder.durable_event_count());
    }
    journal.checkpoint(&io).unwrap();
    if fault == PlantedFault::None {
        assert_eq!(journal.stats().demoted, 2, "both allocations are logged");
    }
    let trace = recorder.trace();
    let mut states = prefix_states(&trace, &image);
    states.extend(sampled_states(&trace, &image, 0x2E05_E000, 600));
    let mut violations = Vec::new();
    for state in states {
        let io = DeviceIo::new(Arc::clone(&state.disk) as Arc<dyn BlockDevice>);
        Journal::new(config()).recover(&io).unwrap();
        let applied: Vec<bool> = (0..REUSE.len())
            .map(|t| block_fill(&io, reuse_marker(t).0) == reuse_marker(t).1)
            .collect();
        let count = applied.iter().take_while(|&&a| a).count();
        let acknowledged = acks.iter().take_while(|&&ack| ack <= state.durable_events).count();
        let last = REUSE[..count].iter().rev().find(|step| **step != Reuse::Nothing);
        let expected = match last {
            None => Some(0),
            Some(Reuse::Rewrite(fill) | Reuse::Allocate(fill) | Reuse::FreeAndAllocate(fill)) => {
                Some(*fill)
            }
            Some(_) => None,
        };
        let held = block_fill(&io, REUSED);
        let what = if applied[count..].iter().any(|&a| a) {
            format!("applied transactions are not a prefix: {applied:?}")
        } else if count < acknowledged {
            format!("{acknowledged} transactions acknowledged, only {count} recovered")
        } else if expected.is_some_and(|expected| held != expected) {
            format!("reused block holds {held:#x} after {count} transactions")
        } else {
            continue;
        };
        violations.push(format!("{}: {what}", state.description));
    }
    violations
}
