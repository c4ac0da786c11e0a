//! The four workloads: seeded generators of op streams over bounded
//! file-sets.
//!
//! A generator deals ops in **units** — a deck of ops with a fixed class
//! mix (`mail_sync`, `data_cached`) or one whole round (`tree_meta`,
//! `cold_scan`).  Units are what passes count: a segment is a fixed number
//! of units, so every segment of a workload has the same composition and a
//! faster stack simply gets through more of them.  File-sets are bounded
//! (every create is paired with an unlink, every round tears down the tree
//! before it), so no stack can run out of space however many units it
//! completes.
//!
//! The FUSE stack runs a smaller shape of `data_cached`, `tree_meta` and
//! `cold_scan` (`small`): under the calibrated model every xv6 log commit
//! costs it a >= 12 ms whole-disk-file fsync, so full-size rounds would not
//! fit a run.  Same generator, same seed, smaller counts.

use crate::model::{Op, Pool, BIG_FILE, PAGE};
use crate::rng::{Deck, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    MailSync,
    DataCached,
    TreeMeta,
    ColdScan,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::MailSync, Workload::DataCached, Workload::TreeMeta, Workload::ColdScan];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MailSync => "mail_sync",
            Workload::DataCached => "data_cached",
            Workload::TreeMeta => "tree_meta",
            Workload::ColdScan => "cold_scan",
        }
    }

    /// Ops in one unit of the stream (`small`: the FUSE shape), not counting
    /// the fsync that closes a `data_cached` segment.
    pub fn unit_ops(self, small: bool) -> u32 {
        match (self, small) {
            (Workload::MailSync, _) => 20,
            (Workload::DataCached, _) => 25,
            (Workload::TreeMeta, false) => 1662,
            (Workload::TreeMeta, true) => 24,
            (Workload::ColdScan, false) => 256,
            (Workload::ColdScan, true) => 96,
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Blocks of the disk image (4 KiB each).  Sized for the bounded
    /// file-set plus ext4sim's fixed 24 MiB journal + checkpoint area.
    pub fn disk_blocks(self) -> u64 {
        match self {
            Workload::MailSync | Workload::TreeMeta => 16_384,
            Workload::DataCached | Workload::ColdScan => 20_480,
        }
    }
}

const KIB: u32 = 1024;
/// 128 KiB, the size of sequential I/O and the mean size of `cold_scan` files.
const RUN_PAGES: u32 = 32;
const RUN_BYTES: u32 = RUN_PAGES * PAGE as u32;

/// Live files of `mail_sync`, spread over [`MAIL_DIRS`] directories.
const MAIL_FILES: usize = 256;
const MAIL_DIRS: usize = 4;
const MAIL_APPEND: u32 = 4 * KIB;

/// `tree_meta` file sizes, 512 B – 24 KiB, dealt as a deck.  Fifteen cards
/// do not divide a round's 512 files, so a pass ends part-way through a
/// deck and its total size depends — by a few blocks — on the seed.
const TREE_SIZES: [u32; 15] = [
    512,
    KIB,
    KIB * 3 / 2,
    2 * KIB,
    3 * KIB,
    4 * KIB,
    5 * KIB,
    6 * KIB,
    8 * KIB,
    10 * KIB,
    12 * KIB,
    16 * KIB,
    18 * KIB,
    20 * KIB,
    24 * KIB,
];

#[derive(Debug, Clone, Copy)]
enum MailClass {
    Deliver,
    AppendSync,
    ReadWhole,
    Stat,
}

#[derive(Debug, Clone, Copy)]
enum DataClass {
    Read4k,
    Read128k,
    Write4k,
    Write128k,
}

/// Size of one `tree_meta` tree.
#[derive(Debug, Clone, Copy)]
struct TreeShape {
    tops: u32,
    leaves: u32,
    files: u32,
    renames: u32,
}

/// A built tree: its directories, parents first, and its files.
#[derive(Debug, Default)]
struct Tree {
    dirs: Vec<String>,
    files: Vec<String>,
}

enum State {
    Mail {
        prefix: String,
        live: Vec<String>,
        next_id: u64,
        classes: Deck<MailClass>,
        sizes: Deck<u32>,
    },
    Data {
        pages: u32,
        classes: Deck<DataClass>,
        /// Where the 128 KiB reads and writes go: every aligned run of the
        /// file once per pass of the deck, so segments are alike instead of
        /// following a cursor round the file.
        read_runs: Deck<u32>,
        write_runs: Deck<u32>,
    },
    Tree {
        round: u64,
        shape: TreeShape,
        sizes: Deck<u32>,
        /// The tree the last round left behind, torn down by the next.
        standing: Tree,
    },
    Cold {
        dirs: u32,
        files: Vec<String>,
    },
}

/// A seeded op stream for one workload on one stack (or one client).
pub struct Generator {
    workload: Workload,
    small: bool,
    rng: Rng,
    state: State,
}

fn repeat<T: Copy>(spec: &[(T, usize)]) -> Vec<T> {
    spec.iter().flat_map(|&(item, n)| std::iter::repeat_n(item, n)).collect()
}

impl Generator {
    /// The stream of `workload` for `seed`; `small` selects the shape FUSE
    /// (and a `--smoke` run on every stack) uses.
    pub fn new(workload: Workload, seed: u64, small: bool) -> Self {
        Self::for_client(workload, seed, small, None)
    }

    /// Like [`Generator::new`]; `client` gives a `mail_sync` client its own
    /// directories and random stream so two clients share one mount.
    pub fn for_client(workload: Workload, seed: u64, small: bool, client: Option<u32>) -> Self {
        let tag = workload as u64 * 16 + client.map_or(0, |c| c as u64 + 1);
        let state = match workload {
            // 25 / 30 / 35 / 10 %.  Fsync-bearing ops are 55 % so that the
            // median op sits inside the append class rather than on the
            // boundary between a 3 us read and a 300 us commit.
            Workload::MailSync => State::Mail {
                prefix: client.map_or(String::new(), |c| format!("c{c}")),
                live: Vec::new(),
                next_id: 0,
                classes: Deck::new(repeat(&[
                    (MailClass::Deliver, 5),
                    (MailClass::AppendSync, 6),
                    (MailClass::ReadWhole, 7),
                    (MailClass::Stat, 2),
                ])),
                sizes: Deck::new((2..=16).map(|k| k * KIB).collect()),
            },
            // 60 / 8 / 24 / 8 %: p95 falls inside the 128 KiB write class.
            Workload::DataCached => {
                // 12 MiB (8 MiB): inside the page cache *and* the 16 MiB buffer
                // cache, so write-back never has to read a home block back in
                // and every segment costs the same.
                let pages = if small { 2048 } else { 3072 };
                let runs: Vec<u32> = (0..pages).step_by(RUN_PAGES as usize).collect();
                State::Data {
                    pages,
                    classes: Deck::new(repeat(&[
                        (DataClass::Read4k, 15),
                        (DataClass::Read128k, 2),
                        (DataClass::Write4k, 6),
                        (DataClass::Write128k, 2),
                    ])),
                    read_runs: Deck::new(runs.clone()),
                    write_runs: Deck::new(runs),
                }
            }
            Workload::TreeMeta => State::Tree {
                round: 0,
                shape: if small {
                    TreeShape { tops: 1, leaves: 2, files: 4, renames: 1 }
                } else {
                    TreeShape { tops: 4, leaves: 4, files: 512, renames: 64 }
                },
                sizes: Deck::new(TREE_SIZES.to_vec()),
                standing: Tree::default(),
            },
            Workload::ColdScan => {
                let files = if small { 96 } else { 256 };
                State::Cold {
                    dirs: 16,
                    files: (0..files).map(|i| format!("/s{}/f{i}", i % 16)).collect(),
                }
            }
        };
        Generator { workload, small, rng: Rng::fork(seed, tag), state }
    }

    /// Ops in one unit of this stream.
    pub fn unit_ops(&self) -> u32 {
        self.workload.unit_ops(self.small)
    }

    /// `cold_scan` starts every round on a fresh mount of the same image.
    pub fn remount_each_unit(&self) -> bool {
        self.workload == Workload::ColdScan
    }

    /// The ops that build the initial file-set on an empty file system.
    pub fn populate(&mut self, pool: &Pool) -> Vec<Op> {
        let rng = &mut self.rng;
        let mut ops = Vec::new();
        match &mut self.state {
            State::Mail { prefix, live, next_id, sizes, .. } => {
                for d in 0..MAIL_DIRS {
                    ops.push(Op::Mkdir { path: format!("/{prefix}m{d}") });
                }
                for _ in 0..MAIL_FILES {
                    let path = mail_path(prefix, next_id);
                    let len = sizes.deal(rng);
                    ops.push(Op::Create { path: path.clone(), pool_off: pool.pick(rng, len), len });
                    live.push(path);
                }
            }
            State::Data { pages, .. } => {
                ops.push(Op::Create { path: BIG_FILE.into(), pool_off: 0, len: 0 });
                for first in (0..*pages).step_by(RUN_PAGES as usize) {
                    ops.push(Op::Pwrite {
                        off: first as u64 * PAGE as u64,
                        pool_page: pool.pick_pages(rng, RUN_PAGES),
                        pages: RUN_PAGES,
                    });
                }
            }
            // The first tree, so that every round has one to tear down.
            State::Tree { round, shape, sizes, standing } => {
                ops = tree_round(rng, pool, round, *shape, sizes, standing);
                ops.pop();
            }
            State::Cold { dirs, files } => {
                for d in 0..*dirs {
                    ops.push(Op::Mkdir { path: format!("/s{d}") });
                }
                for path in files.iter() {
                    // 124-132 KiB, 128 KiB on average.
                    let len = RUN_BYTES - 4 * KIB + rng.below(8 * KIB as u64 + 1) as u32;
                    ops.push(Op::Create { path: path.clone(), pool_off: pool.pick(rng, len), len });
                }
            }
        }
        ops.push(Op::Sync);
        ops
    }

    /// Ops executed, unmeasured, at the start of every pass so that caches
    /// are in their steady state when timing starts.
    pub fn warmup(&mut self, pool: &Pool) -> Vec<Op> {
        let small = self.small;
        match &self.state {
            // FUSE pays its modelled >= 12 ms per commit during warm-up too
            // (only the device's delays can be switched off), so it gets none.
            State::Mail { .. } if small => Vec::new(),
            State::Mail { .. } => (0..25).flat_map(|_| self.unit(pool)).collect(),
            // Read the whole file once: it then sits in the page cache.
            State::Data { pages, .. } => (0..*pages)
                .step_by(RUN_PAGES as usize)
                .map(|first| Op::Pread { off: first as u64 * PAGE as u64, len: RUN_BYTES })
                .collect(),
            State::Tree { .. } if small => Vec::new(),
            State::Tree { .. } => self.unit(pool),
            // Every round starts on a fresh mount: there is nothing to warm.
            State::Cold { .. } => Vec::new(),
        }
    }

    /// The op that closes every segment, if the workload has one.
    /// `data_cached` ends each segment with an fsync of the big file, so a
    /// segment pays for exactly the pages it dirtied and its cost does not
    /// depend on where the page cache's dirty-page throttle happened to fire.
    pub fn segment_end(&self) -> Option<Op> {
        (self.workload == Workload::DataCached).then_some(Op::FsyncBig)
    }

    /// The next unit of the stream: one deck or one round.
    pub fn unit(&mut self, pool: &Pool) -> Vec<Op> {
        let rng = &mut self.rng;
        match &mut self.state {
            State::Mail { prefix, live, next_id, classes, sizes } => (0..classes.size())
                .map(|_| match classes.deal(rng) {
                    MailClass::Deliver => {
                        let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
                        let path = mail_path(prefix, next_id);
                        live.push(path.clone());
                        let len = sizes.deal(rng);
                        Op::Deliver { path, pool_off: pool.pick(rng, len), len, victim }
                    }
                    MailClass::AppendSync => Op::AppendSync {
                        path: pick(rng, live).clone(),
                        pool_off: pool.pick(rng, MAIL_APPEND),
                        len: MAIL_APPEND,
                    },
                    MailClass::ReadWhole => Op::ReadWhole { path: pick(rng, live).clone() },
                    MailClass::Stat => Op::Stat { path: pick(rng, live).clone() },
                })
                .collect(),
            State::Data { pages, classes, read_runs, write_runs } => (0..classes.size())
                .map(|_| {
                    let page_off = |page: u32| page as u64 * PAGE as u64;
                    match classes.deal(rng) {
                        DataClass::Read4k => Op::Pread {
                            off: page_off(rng.below(*pages as u64) as u32),
                            len: PAGE as u32,
                        },
                        DataClass::Read128k => {
                            Op::Pread { off: page_off(read_runs.deal(rng)), len: RUN_BYTES }
                        }
                        DataClass::Write4k => Op::Pwrite {
                            off: page_off(rng.below(*pages as u64) as u32),
                            pool_page: pool.pick_pages(rng, 1),
                            pages: 1,
                        },
                        DataClass::Write128k => Op::Pwrite {
                            off: page_off(write_runs.deal(rng)),
                            pool_page: pool.pick_pages(rng, RUN_PAGES),
                            pages: RUN_PAGES,
                        },
                    }
                })
                .collect(),
            State::Tree { round, shape, sizes, standing } => {
                tree_round(rng, pool, round, *shape, sizes, standing)
            }
            State::Cold { files, .. } => {
                let mut order: Vec<&String> = files.iter().collect();
                rng.shuffle(&mut order);
                order.into_iter().map(|path| Op::ReadWhole { path: path.clone() }).collect()
            }
        }
    }
}

fn mail_path(prefix: &str, next_id: &mut u64) -> String {
    let id = *next_id;
    *next_id += 1;
    format!("/{prefix}m{}/f{id}", id % MAIL_DIRS as u64)
}

fn pick<'a, T>(rng: &mut Rng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// One `tree_meta` round (untar / `git clone` shaped): tear down the tree
/// the previous round left standing, build a new two-level tree, fill it,
/// sync, stat and list everything, move some files across directories, and
/// sync again.  The syncs are inside the round so that ext4sim's write-back
/// is paid, not skipped.  A round *ends* with its tree standing, so every
/// end-of-pass verification has 512 files' bytes to check, and a mount is
/// never dropped right after a mass delete.
fn tree_round(
    rng: &mut Rng,
    pool: &Pool,
    round: &mut u64,
    shape: TreeShape,
    sizes: &mut Deck<u32>,
    standing: &mut Tree,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let old = std::mem::take(standing);
    let mut doomed = old.files;
    rng.shuffle(&mut doomed);
    ops.extend(doomed.into_iter().map(|path| Op::Unlink { path }));
    ops.extend(old.dirs.into_iter().rev().map(|path| Op::Rmdir { path }));

    let r = *round;
    *round += 1;
    let top_dirs: Vec<String> = (0..shape.tops).map(|a| format!("/t{r}_{a}")).collect();
    let leaf_dirs: Vec<String> = top_dirs
        .iter()
        .flat_map(|top| (0..shape.leaves).map(move |b| format!("{top}/d{b}")))
        .collect();
    for dir in top_dirs.iter().chain(&leaf_dirs) {
        ops.push(Op::Mkdir { path: dir.clone() });
    }
    // (leaf index, file name) of every file; the leaf changes on rename.
    let mut placed: Vec<(usize, String)> = Vec::with_capacity(shape.files as usize);
    let mut per_leaf = vec![0u32; leaf_dirs.len()];
    for i in 0..shape.files {
        let leaf = rng.below(leaf_dirs.len() as u64) as usize;
        let name = format!("f{i}");
        let len = sizes.deal(rng);
        ops.push(Op::Create {
            path: format!("{}/{name}", leaf_dirs[leaf]),
            pool_off: pool.pick(rng, len),
            len,
        });
        per_leaf[leaf] += 1;
        placed.push((leaf, name));
    }
    ops.push(Op::Sync);

    let path_of = |(leaf, name): &(usize, String)| format!("{}/{name}", leaf_dirs[*leaf]);
    let mut order: Vec<usize> = (0..placed.len()).collect();
    rng.shuffle(&mut order);
    ops.extend(order.iter().map(|&i| Op::Stat { path: path_of(&placed[i]) }));
    let mut listing: Vec<Op> = top_dirs
        .iter()
        .map(|top| Op::Readdir { path: top.clone(), entries: shape.leaves })
        .chain(
            leaf_dirs
                .iter()
                .zip(&per_leaf)
                .map(|(dir, &n)| Op::Readdir { path: dir.clone(), entries: n }),
        )
        .collect();
    rng.shuffle(&mut listing);
    ops.append(&mut listing);

    rng.shuffle(&mut order);
    for &i in order.iter().take(shape.renames as usize) {
        let from = path_of(&placed[i]);
        let leaf = &mut placed[i].0;
        *leaf = (*leaf + 1 + rng.below(leaf_dirs.len() as u64 - 1) as usize) % leaf_dirs.len();
        ops.push(Op::Rename { from, to: path_of(&placed[i]) });
    }
    ops.push(Op::Sync);

    standing.files = placed.iter().map(path_of).collect();
    standing.dirs = top_dirs.into_iter().chain(leaf_dirs).collect();
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Namespace;

    /// FNV-1a over the debug rendering of an op list.
    fn fingerprint(ops: &[Op]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for op in ops {
            for byte in format!("{op:?}").bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    fn stream(workload: Workload, seed: u64, small: bool) -> Vec<Op> {
        let pool = Pool::new(seed);
        let mut gen = Generator::new(workload, seed, small);
        let mut ops = gen.populate(&pool);
        ops.extend(gen.warmup(&pool));
        for _ in 0..3 {
            ops.extend(gen.unit(&pool));
        }
        ops
    }

    #[test]
    fn same_seed_gives_the_same_ops_and_another_seed_does_not() {
        for workload in Workload::ALL {
            for small in [false, true] {
                let a = fingerprint(&stream(workload, 42, small));
                assert_eq!(a, fingerprint(&stream(workload, 42, small)), "{workload:?}");
                assert_ne!(a, fingerprint(&stream(workload, 7, small)), "{workload:?}");
            }
        }
    }

    #[test]
    fn unit_ops_matches_the_generators() {
        for workload in Workload::ALL {
            for small in [false, true] {
                let pool = Pool::new(1);
                let mut gen = Generator::new(workload, 1, small);
                gen.populate(&pool);
                assert_eq!(gen.unit(&pool).len() as u32, workload.unit_ops(small), "{workload:?}");
            }
        }
    }

    #[test]
    fn class_mix_is_the_same_on_every_seed() {
        let count = |seed| {
            let pool = Pool::new(seed);
            let mut gen = Generator::new(Workload::MailSync, seed, false);
            gen.populate(&pool);
            let mut counts = std::collections::BTreeMap::new();
            for op in (0..10).flat_map(|_| gen.unit(&pool)) {
                *counts.entry(op.class()).or_insert(0u32) += 1;
            }
            counts
        };
        assert_eq!(count(1), count(2));
        assert_eq!(count(1)["deliver"], 50);
    }

    #[test]
    fn file_sets_stay_bounded() {
        // mail_sync keeps exactly its live set and tree_meta exactly one
        // tree; so however many units a fast stack completes, the image
        // never fills.
        let pool = Pool::new(5);
        let mut ns = Namespace::default();
        let mut mail = Generator::new(Workload::MailSync, 5, false);
        mail.populate(&pool).iter().for_each(|op| ns.apply(op));
        for _ in 0..200 {
            mail.unit(&pool).iter().for_each(|op| ns.apply(op));
        }
        assert_eq!(ns.files.len(), MAIL_FILES);

        let mut ns = Namespace::default();
        let mut tree = Generator::new(Workload::TreeMeta, 5, false);
        tree.populate(&pool).iter().for_each(|op| ns.apply(op));
        for _ in 0..3 {
            tree.unit(&pool).iter().for_each(|op| ns.apply(op));
            assert_eq!((ns.files.len(), ns.dirs.len()), (512, 20));
        }
    }
}
