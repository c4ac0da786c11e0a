//! N-way sharded concurrent maps and striped counters — the concurrency
//! substrate under the simulated kernel's hot paths.
//!
//! The Bento paper's evaluation drives every file system with up to 32
//! threads (§6.4).  A single `Mutex<HashMap>` in front of the buffer cache,
//! the page cache, or the fd table serializes *all* of those threads on one
//! cache line even when they touch disjoint keys.  This module provides the
//! standard kernel answer: hash the key into one of N independent shards,
//! each guarded by its own reader/writer lock, so operations on different
//! keys almost never contend (the same split the xv6 lineage applies to its
//! buffer cache, and what Linux does with its per-bucket locks).
//!
//! Two primitives live here:
//!
//! * [`ShardedMap`] — an N-way sharded `HashMap` with per-key operations,
//!   whole-map sweeps ([`ShardedMap::retain`], [`ShardedMap::for_each`])
//!   that lock one shard at a time, and a per-shard escape hatch
//!   ([`ShardedMap::with_shard_mut`]) for compound read-modify-write
//!   operations that must be atomic per key.
//! * [`StripedCounter`] — a statistics counter split across
//!   cache-line-padded cells so hot-path increments from different threads
//!   do not bounce one cache line between cores.
//!
//! Shard selection uses an unkeyed [`DefaultHasher`], so a key maps to the
//! same shard for the lifetime of the process — eviction and invalidation
//! sweeps can rely on that stability.  The shards hash with it too, so a
//! sweep visits the keys in an order that depends only on the map's
//! history, never on a per-process random seed: page-cache write-back, and
//! with it the order of the commits it issues, repeats from run to run.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

/// Default shard count used when a knob is left at `0` ("pick for me").
///
/// Sixteen shards keep the sweep cost trivial while making contention
/// between the paper's 32 threads on *random* keys unlikely.
pub const DEFAULT_SHARDS: usize = 16;

/// Resolves a shard-count knob: `0` means [`DEFAULT_SHARDS`], anything else
/// is rounded up to the next power of two (so shard picking is a mask).
pub fn resolve_shards(requested: usize) -> usize {
    let n = if requested == 0 { DEFAULT_SHARDS } else { requested };
    n.next_power_of_two()
}

/// The shard `key` maps to among `mask + 1` shards (a power of two).  The
/// one shard hash every sharded structure here uses.
pub fn shard_of<K: Hash + ?Sized>(key: &K, mask: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) & mask
}

/// Aggregate statistics over a [`ShardedMap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Total entries across all shards.
    pub entries: usize,
    /// Entries in the most loaded shard (skew diagnostic).
    pub max_shard_entries: usize,
}

/// An N-way sharded hash map: per-shard `RwLock<HashMap>`, shard chosen by
/// key hash.
///
/// All operations lock exactly one shard, except the sweeps
/// ([`ShardedMap::len`], [`ShardedMap::retain`], [`ShardedMap::for_each`],
/// [`ShardedMap::clear`], [`ShardedMap::keys`], [`ShardedMap::any`]) which
/// visit shards one at a time — they never hold more than one shard lock at
/// once, so they cannot deadlock against per-key operations.
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    mask: usize,
}

/// One shard: a `HashMap` with the unkeyed hasher (see the module docs).
pub type Shard<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

impl<K, V> std::fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap").field("shards", &self.shards.len()).finish_non_exhaustive()
    }
}

impl<K: Hash + Eq, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap::new(DEFAULT_SHARDS)
    }
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// Creates a map with `shards` shards (`0` = default; rounded up to a
    /// power of two).
    pub fn new(shards: usize) -> Self {
        let count = resolve_shards(shards);
        ShardedMap {
            shards: (0..count).map(|_| RwLock::new(Shard::default())).collect(),
            mask: count - 1,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a key maps to (stable for the process lifetime).
    pub fn shard_index(&self, key: &K) -> usize {
        shard_of(key, self.mask)
    }

    fn shard(&self, key: &K) -> &RwLock<Shard<K, V>> {
        &self.shards[self.shard_index(key)]
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard(key).read().contains_key(key)
    }

    /// Clones out the value for `key`.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard(key).read().get(key).cloned()
    }

    /// Inserts, returning the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard(&key).write().insert(key, value)
    }

    /// Removes, returning the previous value.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard(key).write().remove(key)
    }

    /// Returns the value for `key`, inserting `make()` under the shard's
    /// write lock if absent.  The insert is atomic per key: two racing
    /// callers observe the same value.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V
    where
        V: Clone,
    {
        let shard = self.shard(&key);
        if let Some(v) = shard.read().get(&key) {
            return v.clone();
        }
        shard.write().entry(key).or_insert_with(make).clone()
    }

    /// Runs `f` on the value for `key`, inserting `V::default()` first if
    /// absent.  The whole read-modify-write holds the shard's write lock.
    pub fn update_or_default<R>(&self, key: K, f: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        f(self.shard(&key).write().entry(key).or_default())
    }

    /// Runs `f` on the shard map owning `key` under its write lock — the
    /// escape hatch for compound operations (conditional removal,
    /// decrement-and-prune) that must be atomic for that key.
    pub fn with_shard_mut<R>(&self, key: &K, f: impl FnOnce(&mut Shard<K, V>) -> R) -> R {
        f(&mut self.shard(key).write())
    }

    /// Decrements the counter for `key` (saturating), removing the entry
    /// when it reaches zero.  Returns the remaining count (`0` when the key
    /// was absent).  The whole read-modify-remove is atomic under the
    /// owning shard's write lock — the open-handle tables of both xv6
    /// variants share this for their release paths.
    pub fn decrement_and_prune(&self, key: &K) -> V
    where
        V: Counter,
    {
        self.with_shard_mut(key, |shard| match shard.get_mut(key) {
            Some(count) => {
                *count = count.decrement();
                let remaining = *count;
                if remaining.is_zero() {
                    shard.remove(key);
                }
                remaining
            }
            None => V::ZERO,
        })
    }

    /// Total entries (locks shards one at a time; a racing insert may or
    /// may not be counted, as with any concurrent map).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Removes every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    /// Keeps only entries for which `f` returns `true`, one shard at a time.
    pub fn retain(&self, mut f: impl FnMut(&K, &mut V) -> bool) {
        for shard in &self.shards {
            shard.write().retain(|k, v| f(k, v));
        }
    }

    /// Visits every entry under shared locks, one shard at a time.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            for (k, v) in shard.read().iter() {
                f(k, v);
            }
        }
    }

    /// Whether any entry satisfies `f` (shard-at-a-time shared locks).
    pub fn any(&self, mut f: impl FnMut(&K, &V) -> bool) -> bool {
        for shard in &self.shards {
            if shard.read().iter().any(|(k, v)| f(k, v)) {
                return true;
            }
        }
        false
    }

    /// Snapshot of all keys.
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().keys().cloned());
        }
        out
    }

    /// Aggregate statistics (entry counts per shard).
    pub fn stats(&self) -> ShardStats {
        let mut stats = ShardStats { shards: self.shards.len(), ..ShardStats::default() };
        for shard in &self.shards {
            let len = shard.read().len();
            stats.entries += len;
            stats.max_shard_entries = stats.max_shard_entries.max(len);
        }
        stats
    }
}

/// Unsigned counter values usable with
/// [`ShardedMap::decrement_and_prune`].
pub trait Counter: Copy {
    /// The zero value.
    const ZERO: Self;
    /// Saturating decrement by one.
    fn decrement(self) -> Self;
    /// Whether the value is zero.
    fn is_zero(self) -> bool;
}

macro_rules! impl_counter {
    ($($t:ty),*) => {$(
        impl Counter for $t {
            const ZERO: Self = 0;
            fn decrement(self) -> Self {
                self.saturating_sub(1)
            }
            fn is_zero(self) -> bool {
                self == 0
            }
        }
    )*};
}

impl_counter!(u32, u64, usize);

// ---------------------------------------------------------------------------
// Striped counters
// ---------------------------------------------------------------------------

/// An `AtomicU64` alone on its cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter striped across cache-line-padded
/// cells: increments from different threads usually hit different lines, so
/// a hot statistic does not serialize the hot path.
///
/// Reads ([`StripedCounter::get`]) sum the cells; they are exact with
/// respect to all increments that happened-before the read.
#[derive(Debug)]
pub struct StripedCounter {
    cells: Vec<PaddedU64>,
    mask: usize,
}

impl Default for StripedCounter {
    fn default() -> Self {
        StripedCounter::new(0)
    }
}

impl StripedCounter {
    /// Creates a counter with `stripes` cells (`0` = default; rounded up to
    /// a power of two).
    pub fn new(stripes: usize) -> Self {
        let count = resolve_shards(stripes);
        StripedCounter {
            cells: (0..count).map(|_| PaddedU64::default()).collect(),
            mask: count - 1,
        }
    }

    fn cell(&self) -> &AtomicU64 {
        // Derive a stable per-thread stripe from the thread id.
        thread_local! {
            static STRIPE: usize = {
                let mut hasher = DefaultHasher::new();
                std::thread::current().id().hash(&mut hasher);
                hasher.finish() as usize
            };
        }
        let stripe = STRIPE.with(|s| *s);
        &self.cells[stripe & self.mask].0
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.cell().fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sums all stripes.
    pub fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Resets the counter so that [`StripedCounter::get`] returns `value`.
    ///
    /// Not atomic with respect to concurrent increments — callers quiesce
    /// the counter first (the online-upgrade state transfer runs with the
    /// mount drained).
    pub fn reset(&self, value: u64) {
        for (i, cell) in self.cells.iter().enumerate() {
            cell.0.store(if i == 0 { value } else { 0 }, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn equal_histories_sweep_in_equal_order() {
        let maps: [ShardedMap<u64, ()>; 2] = [ShardedMap::new(4), ShardedMap::new(4)];
        for map in &maps {
            for key in (0..400).map(|k| k * 7919 % 1000) {
                map.insert(key, ());
            }
            map.retain(|key, _| key % 3 != 0);
        }
        assert_eq!(maps[0].keys(), maps[1].keys());
    }

    #[test]
    fn shard_count_is_resolved_to_powers_of_two() {
        assert_eq!(ShardedMap::<u64, u64>::new(0).shard_count(), DEFAULT_SHARDS);
        assert_eq!(ShardedMap::<u64, u64>::new(1).shard_count(), 1);
        assert_eq!(ShardedMap::<u64, u64>::new(5).shard_count(), 8);
        assert_eq!(ShardedMap::<u64, u64>::new(32).shard_count(), 32);
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let map: ShardedMap<u64, ()> = ShardedMap::new(8);
        for key in 0..1000u64 {
            let first = map.shard_index(&key);
            assert!(first < map.shard_count());
            for _ in 0..10 {
                assert_eq!(map.shard_index(&key), first, "shard index must be stable");
            }
        }
        // Keys must actually spread: with 1000 keys over 8 shards, every
        // shard should own some.
        let mut seen = vec![false; map.shard_count()];
        for key in 0..1000u64 {
            seen[map.shard_index(&key)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards should receive keys");
    }

    #[test]
    fn basic_map_operations() {
        let map: ShardedMap<u64, String> = ShardedMap::new(4);
        assert!(map.is_empty());
        assert_eq!(map.insert(1, "a".into()), None);
        assert_eq!(map.insert(1, "b".into()), Some("a".into()));
        map.insert(2, "c".into());
        assert_eq!(map.get(&1), Some("b".into()));
        assert!(map.contains_key(&2));
        assert_eq!(map.len(), 2);
        assert_eq!(map.remove(&1), Some("b".into()));
        assert_eq!(map.get(&1), None);
        map.clear();
        assert!(map.is_empty());
    }

    #[test]
    fn get_or_insert_with_is_atomic_per_key() {
        let map: Arc<ShardedMap<u64, Arc<u64>>> = Arc::new(ShardedMap::new(4));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let map = Arc::clone(&map);
            handles.push(thread::spawn(move || {
                let mut ptrs = Vec::new();
                for key in 0..64 {
                    ptrs.push(map.get_or_insert_with(key, || Arc::new(t)));
                }
                ptrs
            }));
        }
        let results: Vec<Vec<Arc<u64>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread must have observed the same Arc per key.
        for key in 0..64usize {
            let first = &results[0][key];
            for other in &results[1..] {
                assert!(Arc::ptr_eq(first, &other[key]), "racing inserts must converge");
            }
        }
    }

    #[test]
    fn update_or_default_counts_atomically() {
        let map: Arc<ShardedMap<u32, u64>> = Arc::new(ShardedMap::new(4));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let map = Arc::clone(&map);
            handles.push(thread::spawn(move || {
                for key in 0..16u32 {
                    for _ in 0..100 {
                        map.update_or_default(key, |c| *c += 1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for key in 0..16u32 {
            assert_eq!(map.get(&key), Some(800));
        }
    }

    #[test]
    fn retain_under_concurrent_insert() {
        // retain sweeps shard-by-shard while other threads keep inserting;
        // the sweep must terminate, never deadlock, and every key that was
        // present for the whole sweep and matches the predicate must
        // survive.
        let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(8));
        for key in 0..512u64 {
            map.insert(key, key);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..4u64 {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            writers.push(thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Insert churn keys well away from the stable range.
                    map.insert(10_000 + t * 1_000_000 + i, i);
                    i += 1;
                }
            }));
        }
        for _ in 0..50 {
            // Drop odd stable keys and all churn keys; keep even stable keys.
            map.retain(|k, _| *k < 512 && *k % 2 == 0);
            assert!(map.len() >= 256, "even stable keys must survive");
            for key in (0..512u64).step_by(2) {
                assert_eq!(map.get(&key), Some(key), "even key {key} must survive retain");
            }
            // Re-add the odd keys for the next round.
            for key in (1..512u64).step_by(2) {
                map.insert(key, key);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn sweeps_and_stats() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(4);
        for key in 0..100 {
            map.insert(key, key * 2);
        }
        let mut sum = 0u64;
        map.for_each(|_, v| sum += *v);
        assert_eq!(sum, (0..100u64).map(|k| k * 2).sum());
        assert!(map.any(|k, _| *k == 99));
        assert!(!map.any(|k, _| *k == 100));
        let stats = map.stats();
        assert_eq!(stats.entries, 100);
        assert_eq!(stats.shards, 4);
        assert!(stats.max_shard_entries >= 25);
        let mut keys = map.keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn decrement_and_prune_counts_down_and_removes() {
        let map: ShardedMap<u32, u32> = ShardedMap::new(4);
        map.insert(7, 2);
        assert_eq!(map.decrement_and_prune(&7), 1);
        assert_eq!(map.get(&7), Some(1));
        assert_eq!(map.decrement_and_prune(&7), 0);
        assert!(!map.contains_key(&7), "entry is pruned at zero");
        assert_eq!(map.decrement_and_prune(&7), 0, "absent key decrements to zero");
        assert_eq!(map.decrement_and_prune(&99), 0);
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let counter = Arc::new(StripedCounter::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    counter.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.get(), 80_000);
    }
}
