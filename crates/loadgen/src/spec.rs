//! Declarative workload models: file-set shape + weighted op mix + who
//! addresses what, turned into seeded per-worker op scripts.
//!
//! A [`WorkloadSpec`] is the filebench-personality analogue: it describes a
//! file population (directory tree shape, file count, size distribution),
//! a weighted mix of operations with Zipfian file popularity, and a
//! [`Layout`] saying how workers address the population.
//! [`WorkloadSpec::script`] turns a spec into one worker's fixed-length op
//! script in the `workloads::op` vocabulary; the driver in
//! [`crate::driver`] runs the scripts against any mounted stack.  Shipped
//! specs cover the load personalities ([`WorkloadSpec::varmail`],
//! [`WorkloadSpec::fileserver`], [`WorkloadSpec::webserver`],
//! [`WorkloadSpec::namespace_churn`], [`WorkloadSpec::untar_replay`]) and
//! the paper's microbenchmarks ([`WorkloadSpec::io`],
//! [`WorkloadSpec::createfiles`], [`WorkloadSpec::create_crossdir`],
//! [`WorkloadSpec::deletefiles`]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use simkernel::vfs::OpenFlags;
use workloads::{generate_linux_like_manifest, Op, UntarManifest};

pub use workloads::OpKind;

use crate::zipf::Zipfian;

/// The byte scripted writes carry.
const FILL: u8 = 0x6C;

/// Size of the record the fsync op class appends before syncing.
const FSYNC_RECORD_BYTES: u64 = 512;

/// A weighted op mix: each sampled operation is drawn with probability
/// proportional to its weight.
#[derive(Debug, Clone)]
pub struct OpMix {
    entries: Vec<(OpKind, u32)>,
    total: u32,
}

impl OpMix {
    /// Builds a mix from `(op, weight)` pairs; zero-weight entries are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero.
    pub fn new(weights: &[(OpKind, u32)]) -> Self {
        match Self::try_new(weights) {
            Ok(mix) => mix,
            Err(_) => panic!("op mix needs at least one nonzero weight"),
        }
    }

    /// Fallible [`OpMix::new`], for mixes built from external input (a
    /// config file, an experiment sweep): an empty or all-zero-weight list
    /// is reported as [`simkernel::error::Errno::Inval`] instead of a
    /// panic deep inside a load run.
    ///
    /// # Errors
    ///
    /// [`simkernel::error::Errno::Inval`] when no entry has a nonzero
    /// weight.
    pub fn try_new(weights: &[(OpKind, u32)]) -> simkernel::error::KernelResult<Self> {
        let entries: Vec<(OpKind, u32)> = weights.iter().copied().filter(|(_, w)| *w > 0).collect();
        let total = entries.iter().map(|(_, w)| w).sum();
        if total == 0 {
            return Err(simkernel::error::KernelError::with_context(
                simkernel::error::Errno::Inval,
                "loadgen: op mix is empty or all weights are zero",
            ));
        }
        Ok(OpMix { entries, total })
    }

    /// Draws one op class.
    pub fn sample(&self, rng: &mut SmallRng) -> OpKind {
        let mut roll = rng.gen_range(0..self.total);
        for (kind, weight) in &self.entries {
            if roll < *weight {
                return *kind;
            }
            roll -= weight;
        }
        self.entries[self.entries.len() - 1].0
    }

    /// The weight of `kind` in this mix (0 when absent).
    pub fn weight(&self, kind: OpKind) -> u32 {
        self.entries.iter().find(|(k, _)| *k == kind).map(|(_, w)| *w).unwrap_or(0)
    }

    /// The `(op, weight)` pairs of this mix.
    pub fn entries(&self) -> &[(OpKind, u32)] {
        &self.entries
    }
}

/// File size distributions.
#[derive(Debug, Clone, Copy)]
pub enum SizeDist {
    /// Every file is exactly this many bytes.
    Fixed(u64),
    /// Uniform over `[min, max]`.
    Uniform {
        /// Smallest file size.
        min: u64,
        /// Largest file size.
        max: u64,
    },
}

impl SizeDist {
    /// Draws one file size.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform { min, max } => rng.gen_range(min..=max),
        }
    }

    /// The mean file size (used for offset spans on pre-existing files).
    pub fn mean(&self) -> u64 {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform { min, max } => (min + max) / 2,
        }
    }

    /// The largest file size.
    pub fn max(&self) -> u64 {
        match *self {
            SizeDist::Fixed(n) | SizeDist::Uniform { max: n, .. } => n,
        }
    }
}

/// The file population: a directory tree of fixed width/depth with files
/// spread round-robin across the leaf directories.
#[derive(Debug, Clone, Copy)]
pub struct FileSetSpec {
    /// Subdirectories per directory at every level.
    pub dir_width: usize,
    /// Directory levels below the base (`0` = files directly in the base).
    pub depth: usize,
    /// Number of pre-created files.
    pub files: usize,
    /// Size distribution of the pre-created files.
    pub size: SizeDist,
}

impl FileSetSpec {
    /// Every directory path under `base`, parents before children.
    pub fn dir_paths(&self, base: &str) -> Vec<String> {
        let base = base.trim_end_matches('/');
        let mut all = Vec::new();
        let mut level: Vec<String> = vec![base.to_string()];
        for d in 0..self.depth {
            let mut next = Vec::with_capacity(level.len() * self.dir_width);
            for parent in &level {
                for w in 0..self.dir_width {
                    let path = format!("{parent}/d{d}-{w}");
                    all.push(path.clone());
                    next.push(path);
                }
            }
            level = next;
        }
        all
    }

    /// The deepest directory level under `base` (`base` itself when
    /// `depth` is 0), where files and creates go.
    pub fn leaf_paths(&self, base: &str) -> Vec<String> {
        if self.depth == 0 {
            return vec![base.trim_end_matches('/').to_string()];
        }
        let mut all = self.dir_paths(base);
        all.split_off(all.len() - self.dir_width.pow(self.depth as u32))
    }

    /// Every file path under `base`: file `i` lives in leaf `i % leaves`.
    pub fn file_paths(&self, base: &str) -> Vec<String> {
        let leaves = self.leaf_paths(base);
        (0..self.files).map(|i| format!("{}/f{}", leaves[i % leaves.len()], i)).collect()
    }
}

/// Sequential or uniformly random access offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Offsets advance linearly, wrapping at end of file.
    Sequential,
    /// Offsets are uniformly random, aligned to the I/O size.
    Random,
}

impl AccessPattern {
    /// Short label used in figure rows ("seq" / "rnd").
    pub fn label(self) -> &'static str {
        match self {
            AccessPattern::Sequential => "seq",
            AccessPattern::Random => "rnd",
        }
    }
}

/// How the workers of a run address the file population.
#[derive(Debug, Clone)]
pub enum Layout {
    /// Every worker addresses the whole fileset by path: reads, writes,
    /// appends, fsyncs and stats go to Zipf-popular files, creates go
    /// round-robin into the leaf directories under fresh names, and
    /// deletes and renames act on the worker's own creates.
    Shared,
    /// As [`Layout::Shared`], except that worker `t` of `n` owns the leaf
    /// directories whose index is `t` mod `n` and the files in them: its
    /// creates go only there, and its deletes take its own precreated
    /// files too.
    Partitioned,
    /// Worker `t` holds one descriptor on fileset file `t % files` for the
    /// whole run and issues its reads and writes as `pread`/`pwrite` of
    /// `io_size` bytes at offsets that follow the pattern.
    Held(AccessPattern),
    /// The manifest's ops, dealt round-robin to the workers and applied in
    /// order, creating missing parents (the op mix is ignored).
    Replay(UntarManifest),
}

/// A complete declarative workload: population + op mix + popularity skew
/// + layout.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Personality name (BENCH row label).
    pub name: String,
    /// The file population.
    pub fileset: FileSetSpec,
    /// The weighted op mix.
    pub mix: OpMix,
    /// Zipfian skew over file popularity (0 = uniform; filebench ≈ 0.99).
    pub zipf_theta: f64,
    /// Read/write I/O size in bytes.
    pub io_size: usize,
    /// Append size in bytes.
    pub append_size: usize,
    /// How the workers address the population.
    pub layout: Layout,
}

impl WorkloadSpec {
    /// The mail-server personality: small files, heavy create/delete churn,
    /// fsync on every delivery (filebench `varmail`).
    pub fn varmail() -> Self {
        WorkloadSpec {
            name: "varmail".to_string(),
            fileset: FileSetSpec {
                dir_width: 4,
                depth: 1,
                files: 200,
                size: SizeDist::Uniform { min: 2 * 1024, max: 16 * 1024 },
            },
            mix: OpMix::new(&[
                (OpKind::Create, 4),
                (OpKind::Delete, 4),
                (OpKind::Append, 4),
                (OpKind::Fsync, 8),
                (OpKind::Read, 8),
                (OpKind::Stat, 4),
            ]),
            zipf_theta: 0.99,
            io_size: 8 * 1024,
            append_size: 4 * 1024,
            layout: Layout::Shared,
        }
    }

    /// The file-server personality: whole-file writes and reads, appends,
    /// occasional deletes and renames over a larger population (filebench
    /// `fileserver`).
    pub fn fileserver() -> Self {
        WorkloadSpec {
            name: "fileserver".to_string(),
            fileset: FileSetSpec {
                dir_width: 5,
                depth: 2,
                files: 300,
                size: SizeDist::Uniform { min: 8 * 1024, max: 64 * 1024 },
            },
            mix: OpMix::new(&[
                (OpKind::Create, 4),
                (OpKind::Read, 8),
                (OpKind::Write, 6),
                (OpKind::Append, 4),
                (OpKind::Stat, 4),
                (OpKind::Delete, 3),
                (OpKind::Rename, 1),
            ]),
            zipf_theta: 0.8,
            io_size: 16 * 1024,
            append_size: 8 * 1024,
            layout: Layout::Shared,
        }
    }

    /// The web-server personality: overwhelmingly reads of popular small
    /// objects plus a log append (filebench `webserver`).
    pub fn webserver() -> Self {
        WorkloadSpec {
            name: "webserver".to_string(),
            fileset: FileSetSpec {
                dir_width: 8,
                depth: 1,
                files: 400,
                size: SizeDist::Uniform { min: 1024, max: 32 * 1024 },
            },
            mix: OpMix::new(&[
                (OpKind::Read, 20),
                (OpKind::Stat, 4),
                (OpKind::Append, 2),
                (OpKind::Fsync, 1),
            ]),
            zipf_theta: 1.1,
            io_size: 8 * 1024,
            append_size: 512,
            layout: Layout::Shared,
        }
    }

    /// The namespace-churn personality: create/rename/delete dominated
    /// traffic over a wide directory tree — the workload class the
    /// per-directory namespace locks (`simkernel::nslock`) exist for.
    /// Renames in a multi-directory fileset are cross-directory (see the
    /// driver), so this leans on the pair-locked two-parent path
    /// constantly, from every argument order.
    pub fn namespace_churn() -> Self {
        WorkloadSpec {
            name: "namespace-churn".to_string(),
            fileset: FileSetSpec {
                dir_width: 12,
                depth: 1,
                files: 240,
                size: SizeDist::Uniform { min: 1024, max: 8 * 1024 },
            },
            mix: OpMix::new(&[
                (OpKind::Create, 6),
                (OpKind::Rename, 8),
                (OpKind::Delete, 5),
                (OpKind::Stat, 3),
                (OpKind::Read, 2),
            ]),
            zipf_theta: 0.6,
            io_size: 4 * 1024,
            append_size: 2 * 1024,
            layout: Layout::Shared,
        }
    }

    /// The untar-replay personality: replays a deterministic Linux-like
    /// manifest (reusing `workloads::untar`'s generator) with per-op
    /// latency, instead of sampling a steady-state mix.
    pub fn untar_replay(files: usize, seed: u64) -> Self {
        WorkloadSpec {
            name: "untar-replay".to_string(),
            fileset: FileSetSpec { dir_width: 1, depth: 0, files: 0, size: SizeDist::Fixed(0) },
            // Replay ignores the mix, but a spec always carries a valid one.
            mix: OpMix::new(&[(OpKind::Create, 1)]),
            zipf_theta: 0.0,
            io_size: 64 * 1024,
            append_size: 0,
            layout: Layout::Replay(generate_linux_like_manifest(files / 6, files, seed)),
        }
    }

    /// The five shipped personalities at the given untar scale.
    pub fn personalities(untar_files: usize) -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::varmail(),
            WorkloadSpec::fileserver(),
            WorkloadSpec::webserver(),
            WorkloadSpec::untar_replay(untar_files, 42),
            WorkloadSpec::namespace_churn(),
        ]
    }

    /// The filebench read (or, `write`, write) microbenchmark: each worker
    /// holds a descriptor on a `file_size`-byte file and issues `io_size`
    /// preads (pwrites) at `pattern` offsets.  One file is shared by all
    /// workers; `.with_files(workers)` gives each its own.
    pub fn io(write: bool, file_size: u64, io_size: usize, pattern: AccessPattern) -> Self {
        let kind = if write { OpKind::Write } else { OpKind::Read };
        WorkloadSpec {
            name: format!("{}-{}k-{}", kind.label(), io_size / 1024, pattern.label()),
            fileset: FileSetSpec {
                dir_width: 1,
                depth: 0,
                files: 1,
                size: SizeDist::Fixed(file_size),
            },
            mix: OpMix::new(&[(kind, 1)]),
            zipf_theta: 0.0,
            io_size,
            append_size: 0,
            layout: Layout::Held(pattern),
        }
    }

    /// The filebench `createfiles` microbenchmark: each of `workers`
    /// workers creates `file_size`-byte files under fresh names in its own
    /// directory.
    pub fn createfiles(file_size: u64, workers: usize) -> Self {
        WorkloadSpec {
            name: "createfiles".to_string(),
            fileset: FileSetSpec {
                dir_width: workers.max(1),
                depth: 1,
                files: 0,
                size: SizeDist::Fixed(file_size),
            },
            mix: OpMix::new(&[(OpKind::Create, 1)]),
            zipf_theta: 0.0,
            io_size: 4096,
            append_size: 0,
            layout: Layout::Partitioned,
        }
    }

    /// Like [`WorkloadSpec::createfiles`] but over a **shared** pool of
    /// `2 * workers` directories: worker `t` puts its `i`-th file in
    /// directory `(t + i) % pool`, so every directory is hit by every
    /// worker.  Under per-directory namespace locks the workers contend
    /// only when they land on the same directory at the same instant.
    pub fn create_crossdir(file_size: u64, workers: usize) -> Self {
        let mut spec = WorkloadSpec::createfiles(file_size, 2 * workers.max(1));
        spec.name = "create-crossdir".to_string();
        spec.layout = Layout::Shared;
        spec
    }

    /// The filebench `deletefiles` microbenchmark: `per_worker` files of
    /// `file_size` bytes are precreated in each worker's own directory, and
    /// the measured ops delete them.
    pub fn deletefiles(per_worker: usize, file_size: u64, workers: usize) -> Self {
        WorkloadSpec {
            name: "deletefiles".to_string(),
            fileset: FileSetSpec {
                dir_width: workers.max(1),
                depth: 1,
                files: per_worker * workers.max(1),
                size: SizeDist::Fixed(file_size),
            },
            mix: OpMix::new(&[(OpKind::Delete, 1)]),
            zipf_theta: 0.0,
            io_size: 4096,
            append_size: 0,
            layout: Layout::Partitioned,
        }
    }

    /// Scales the pre-created file count (builder style) so smoke tests can
    /// shrink a personality without redefining it.
    #[must_use]
    pub fn with_files(mut self, files: usize) -> Self {
        self.fileset.files = files;
        self
    }

    /// Worker `t` of `workers`, seeded from `seed`: an unmeasured prologue
    /// (the open of a held descriptor) and up to `ops` measured ops.  A
    /// replay deals the manifest instead and ignores `ops`.  The script
    /// never leaves more than `creates` files of its own behind: at that
    /// budget it deletes one of its own files instead of creating one, or,
    /// with no delete in its mix, ends early (which the driver refuses).
    pub fn script(
        &self,
        t: usize,
        workers: usize,
        ops: u64,
        creates: u64,
        seed: u64,
    ) -> (Vec<Op>, Vec<Op>) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0x9e37 * (t as u64 + 1)));
        let files = self.fileset.file_paths("/");
        let io = self.io_size as u64;
        let span = self.fileset.size.mean().saturating_sub(io).max(1);
        match &self.layout {
            Layout::Replay(manifest) => {
                (Vec::new(), manifest.ops.iter().skip(t).step_by(workers.max(1)).cloned().collect())
            }
            Layout::Held(pattern) => {
                let Some(path) = files.get(t % files.len().max(1)) else {
                    return (Vec::new(), Vec::new()); // no file to hold
                };
                let open = Op::Open { slot: 0, path: path.clone(), flags: OpenFlags::RDWR };
                let body = (0..ops)
                    .map(|i| {
                        let offset = match pattern {
                            AccessPattern::Sequential => i * io % span,
                            AccessPattern::Random => rng.gen_range(0..span) / io * io,
                        };
                        match self.mix.sample(&mut rng) {
                            OpKind::Write => Op::Pwrite { slot: 0, offset, len: io, fill: FILL },
                            _ => Op::Pread { slot: 0, offset, len: io },
                        }
                    })
                    .collect();
                (vec![open], body)
            }
            Layout::Shared | Layout::Partitioned => {
                (Vec::new(), self.mix_script(t, workers.max(1), ops, creates, &mut rng, &files))
            }
        }
    }

    fn mix_script(
        &self,
        t: usize,
        workers: usize,
        ops: u64,
        creates: u64,
        rng: &mut SmallRng,
        files: &[String],
    ) -> Vec<Op> {
        let leaves = self.fileset.leaf_paths("/");
        let dirs = self.fileset.dir_paths("/");
        // The leaves this worker creates into, and the files it may delete
        // or rename: its own share under a partitioned layout.
        let owns = |leaf: usize| match self.layout {
            Layout::Partitioned => leaf % workers == t,
            _ => true,
        };
        let mine: Vec<&String> =
            (0..leaves.len()).filter(|&l| owns(l)).map(|l| &leaves[l]).collect();
        let mut own: Vec<String> = match self.layout {
            Layout::Partitioned => (0..files.len())
                .filter(|&i| owns(i % leaves.len()))
                .map(|i| files[i].clone())
                .collect(),
            _ => Vec::new(),
        };
        let zipf = (!files.is_empty()).then(|| Zipfian::new(files.len(), self.zipf_theta));
        let io = self.io_size as u64;
        let span = self.fileset.size.mean().saturating_sub(io).max(1);
        // Files this worker created and has not deleted: the inodes it holds.
        let mut live = 0u64;
        let mut script = Vec::with_capacity(ops as usize);
        for i in 0..ops {
            let kind = self.mix.sample(rng);
            let target = match kind {
                OpKind::Delete | OpKind::Rename => own.pop(),
                _ => None,
            };
            let popular = match kind {
                OpKind::Read | OpKind::Write | OpKind::Append | OpKind::Fsync | OpKind::Stat => {
                    zipf.as_ref().map(|z| files[z.sample(rng)].clone())
                }
                _ => None,
            };
            let op = match (kind, target, popular) {
                (OpKind::Delete, Some(victim), _) => {
                    live = live.saturating_sub(1);
                    Op::Unlink(victim)
                }
                (OpKind::Rename, Some(old), _) => {
                    // Cross-directory when the fileset has directories: the
                    // two-parent rename path, pair-locked by inum order in
                    // the xv6 stacks.
                    let new = match dirs.len() {
                        0 => format!("{old}.r"),
                        n => format!("{}/mv-{t}-{i}", dirs[i as usize % n]),
                    };
                    own.push(new.clone());
                    Op::Rename(old, new)
                }
                (OpKind::Read, _, Some(path)) => {
                    Op::Read { path, offset: rng.gen_range(0..span) / io * io, len: io }
                }
                (OpKind::Write, _, Some(path)) => {
                    let offset = rng.gen_range(0..span) / io * io;
                    Op::Write { path, offset, len: io, fill: FILL }
                }
                (OpKind::Append, _, Some(path)) => {
                    Op::Append { path, len: self.append_size as u64, fill: FILL, fsync: false }
                }
                (OpKind::Fsync, _, Some(path)) => {
                    Op::Append { path, len: FSYNC_RECORD_BYTES, fill: FILL, fsync: true }
                }
                (OpKind::Stat, _, Some(path)) => Op::Stat(path),
                // At the budget a mix that deletes gives an inode back
                // instead of taking one; a create-only script ends.
                _ if live >= creates || mine.is_empty() => match own.pop() {
                    Some(victim) if live > 0 && self.mix.weight(OpKind::Delete) > 0 => {
                        live -= 1;
                        Op::Unlink(victim)
                    }
                    _ => break,
                },
                // A create; also what a delete or rename with nothing of its
                // own to act on does (it feeds them).
                _ => {
                    live += 1;
                    let dir = mine[(t + i as usize) % mine.len()];
                    let path = format!("{dir}/n{t}-{i}");
                    own.push(path.clone());
                    Op::Create { path, len: self.fileset.size.sample(rng), fill: FILL }
                }
            };
            script.push(op);
        }
        script
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mix_sampling_tracks_weights() {
        let mix = OpMix::new(&[(OpKind::Read, 3), (OpKind::Write, 1)]);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut reads = 0;
        for _ in 0..4000 {
            if mix.sample(&mut rng) == OpKind::Read {
                reads += 1;
            }
        }
        // 3:1 mix → ~75% reads.
        assert!((2700..=3300).contains(&reads), "reads {reads} out of proportion");
        assert_eq!(mix.weight(OpKind::Read), 3);
        assert_eq!(mix.weight(OpKind::Delete), 0);
    }

    #[test]
    fn empty_or_zero_weight_mixes_are_rejected_early() {
        let err = OpMix::try_new(&[]).unwrap_err();
        assert_eq!(err.errno(), simkernel::error::Errno::Inval);
        let err = OpMix::try_new(&[(OpKind::Read, 0), (OpKind::Write, 0)]).unwrap_err();
        assert_eq!(err.errno(), simkernel::error::Errno::Inval);
        assert!(OpMix::try_new(&[(OpKind::Read, 0), (OpKind::Write, 1)]).is_ok());
    }

    #[test]
    #[should_panic(expected = "op mix needs at least one nonzero weight")]
    fn new_still_panics_on_an_all_zero_mix() {
        let _ = OpMix::new(&[(OpKind::Read, 0)]);
    }

    #[test]
    fn fileset_paths_cover_every_leaf() {
        let spec = FileSetSpec { dir_width: 3, depth: 2, files: 20, size: SizeDist::Fixed(1024) };
        let dirs = spec.dir_paths("/");
        assert_eq!(dirs.len(), 3 + 9, "3 level-0 dirs + 9 leaves");
        assert!(dirs[0].starts_with("/d0-"));
        let files = spec.file_paths("/");
        assert_eq!(files.len(), 20);
        // Files land only in leaf directories and round-robin across all 9.
        let leaves: std::collections::HashSet<&str> =
            files.iter().map(|f| f.rsplit_once('/').unwrap().0).collect();
        assert_eq!(leaves.len(), 9);
    }

    #[test]
    fn depth_zero_puts_files_in_base() {
        let spec = FileSetSpec { dir_width: 4, depth: 0, files: 3, size: SizeDist::Fixed(10) };
        assert!(spec.dir_paths("/").is_empty());
        assert_eq!(spec.file_paths("/"), vec!["/f0", "/f1", "/f2"]);
    }

    #[test]
    fn personalities_are_shaped_as_documented() {
        let all = WorkloadSpec::personalities(120);
        assert_eq!(all.len(), 5);
        let varmail = &all[0];
        assert!(varmail.mix.weight(OpKind::Fsync) > 0, "varmail must fsync");
        let webserver = &all[2];
        assert!(
            webserver.mix.weight(OpKind::Read) > 3 * webserver.mix.weight(OpKind::Append),
            "webserver must be read-dominated"
        );
        let Layout::Replay(manifest) = &all[3].layout else {
            panic!("untar-replay carries a manifest");
        };
        assert_eq!(manifest.file_count(), 120);
        // Deterministic: same seed, same manifest.
        let Layout::Replay(again) = WorkloadSpec::untar_replay(120, 42).layout else {
            panic!("untar-replay carries a manifest");
        };
        assert_eq!(again, *manifest);
        let churn = &all[4];
        assert_eq!(churn.name, "namespace-churn");
        assert!(
            churn.mix.weight(OpKind::Rename) >= churn.mix.weight(OpKind::Create),
            "namespace churn must be rename-heavy"
        );
        assert!(
            !churn.fileset.dir_paths("/").is_empty(),
            "namespace churn needs directories for cross-directory renames"
        );
    }

    #[test]
    fn scripts_are_seeded_and_sized() {
        let spec = WorkloadSpec::varmail().with_files(40);
        let (prologue, body) = spec.script(1, 4, 300, u64::MAX, 9);
        assert!(prologue.is_empty());
        assert_eq!(body.len(), 300);
        assert_eq!(spec.script(1, 4, 300, u64::MAX, 9).1, body, "same seed, same script");
        assert_ne!(spec.script(2, 4, 300, u64::MAX, 9).1, body, "workers differ");
        // Deletes and renames only ever touch this worker's own creates.
        for op in &body {
            if let Op::Unlink(path) | Op::Rename(path, _) = op {
                assert!(path.contains("/n1-") || path.contains("/mv-1-"), "{op:?}");
            }
        }
    }

    #[test]
    fn create_scripts_stop_at_the_create_budget() {
        let spec = WorkloadSpec::createfiles(4096, 8);
        let (_, body) = spec.script(3, 8, 1000, 25, 1);
        assert_eq!(body.len(), 25, "a create-only script ends at its budget");
        // Each worker creates in its own directory.
        assert!(body.iter().all(|op| op.path().is_some_and(|p| p.starts_with("/d0-3/n3-"))));
        // A delete-paired mix keeps running: deletes give inodes back.
        let churn = WorkloadSpec::namespace_churn().with_files(40);
        let (_, body) = churn.script(0, 2, 2000, 5, 1);
        assert_eq!(body.len(), 2000);
        let mut live = 0i64;
        for op in &body {
            match op {
                Op::Create { .. } => live += 1,
                Op::Unlink(_) => live -= 1,
                _ => {}
            }
            assert!(live <= 5, "more than the budget of own files alive");
        }
    }

    #[test]
    fn partitioned_deletes_take_each_precreated_file_once() {
        let spec = WorkloadSpec::deletefiles(30, 1024, 4);
        let mut deleted: Vec<String> = (0..4)
            .flat_map(|t| spec.script(t, 4, 30, u64::MAX, 5).1)
            .map(|op| match op {
                Op::Unlink(path) => path,
                other => panic!("a delete micro only deletes: {other:?}"),
            })
            .collect();
        deleted.sort();
        let mut files = spec.fileset.file_paths("/");
        files.sort();
        assert_eq!(deleted, files);
    }

    #[test]
    fn held_io_scripts_open_once_and_walk_offsets() {
        let spec =
            WorkloadSpec::io(false, 64 * 1024, 4096, AccessPattern::Sequential).with_files(2);
        let (prologue, body) = spec.script(3, 4, 20, 0, 1);
        assert_eq!(
            prologue,
            vec![Op::Open { slot: 0, path: "/f1".into(), flags: OpenFlags::RDWR }]
        );
        let offsets: Vec<u64> = body
            .iter()
            .map(|op| match op {
                Op::Pread { slot: 0, offset, len: 4096 } => *offset,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(offsets[..3], [0, 4096, 8192]);
        assert!(offsets.iter().all(|&o| o + 4096 <= 64 * 1024));
        let write = WorkloadSpec::io(true, 64 * 1024, 8192, AccessPattern::Random);
        assert_eq!(write.name, "write-8k-rnd");
        assert!(write
            .script(0, 1, 50, 0, 2)
            .1
            .iter()
            .all(|op| matches!(op, Op::Pwrite { offset, .. } if offset % 8192 == 0)));
    }
}
