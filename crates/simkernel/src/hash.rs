//! Small, dependency-free hashing: content checksums for on-disk records,
//! and [`FxHasher`] for in-memory maps keyed by integers and short names.
//!
//! On-disk structures that must survive torn or reordered sector writes
//! (log commit records and the payload they name)
//! carry a [`Digest64`] so recovery can tell a fully persisted structure
//! from a partial one.  The digest is not cryptographic — it only needs to
//! make an accidental match between a stale/torn block and a freshly
//! computed digest vanishingly unlikely — but it sits on the commit path
//! of every transaction, so it consumes input a 64-byte stripe at a time
//! in eight independent 64-bit lanes, one multiply per word, instead of a
//! byte at a time.
//!
//! Every step is a bijection of the state it updates (xor, multiplication
//! by an odd constant, rotation), for any fixed input and for any fixed
//! state, so two inputs of equal length differing in a single word always
//! digest differently; wider differences collide with probability about
//! 2⁻⁶⁴.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;

const LANES: usize = 8;
/// Bytes consumed per round of the lanes.
const STRIPE: usize = 8 * LANES;

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Folds `input` into `state`.
fn fold(state: u64, input: u64) -> u64 {
    (state ^ input).wrapping_mul(PRIME_1).rotate_left(29)
}

/// Incremental seeded 64-bit digest.  Feeding the same bytes in any split
/// yields the same digest as one [`digest64`] call; the seed separates the
/// digest's users so a block valid under one can never validate under
/// another.
#[derive(Debug, Clone)]
pub struct Digest64 {
    lanes: [u64; LANES],
    total: u64,
    /// Input not yet forming a whole stripe.
    tail: [u8; STRIPE],
    tail_len: usize,
}

impl Digest64 {
    /// Creates a digest in its initial state for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut lanes = [0u64; LANES];
        let mut state = seed ^ PRIME_3;
        for lane in &mut lanes {
            state = fold(state, PRIME_2);
            *lane = state;
        }
        Digest64 { lanes, total: 0, tail: [0; STRIPE], tail_len: 0 }
    }

    fn consume(lanes: &mut [u64; LANES], stripes: &[u8]) {
        let mut l = *lanes;
        for stripe in stripes.chunks_exact(STRIPE) {
            for (lane, bytes) in l.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = fold(*lane, word(bytes));
            }
        }
        *lanes = l;
    }

    /// Feeds `bytes` into the digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return;
            }
            Self::consume(&mut self.lanes, &self.tail);
            self.tail_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        Self::consume(&mut self.lanes, &bytes[..whole]);
        let rest = &bytes[whole..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Returns the digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut h =
            self.lanes.iter().fold(self.total.wrapping_mul(PRIME_2), |h, &lane| fold(h, lane));
        let mut words = self.tail[..self.tail_len].chunks_exact(8);
        for w in &mut words {
            h = fold(h, word(w));
        }
        for &byte in words.remainder() {
            h = fold(h, byte as u64);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME_3);
        h ^ (h >> 32)
    }
}

/// One-shot [`Digest64`] of `bytes` under `seed`.
pub fn digest64(seed: u64, bytes: &[u8]) -> u64 {
    let mut d = Digest64::new(seed);
    d.update(bytes);
    d.finish()
}

/// A multiply-rotate hasher (the FxHash step) for the hot in-memory maps:
/// block numbers in the journal and the buffer cache, names and inode
/// numbers in the dentry cache.  One multiply per word, where SipHash
/// costs more than the map operation it serves.  Unkeyed, so not for maps
/// an outsider can fill with colliding keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` on [`FxHasher`] (build with `FxHashMap::default()`).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// 12 KiB of non-repeating bytes: three distinct 4 KiB blocks.
    fn sample() -> Vec<u8> {
        (0..3 * 4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // The digest is an on-disk format: these values may never change.
        assert_eq!(digest64(0, b""), 0xA6FE_9F4F_21A0_F2D5);
        assert_eq!(digest64(0, b"abc"), 0x263C_0A4D_147F_C1B5);
        assert_eq!(digest64(42, &sample()), 0x9758_3B2E_346E_5AF0);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = &sample()[..200];
        let whole = digest64(7, data);
        for split in 0..=data.len() {
            let mut d = Digest64::new(7);
            d.update(&data[..split]);
            d.update(&data[split..]);
            assert_eq!(d.finish(), whole, "split at {split}");
        }
        // Many small feeds, the shape the commit-record checksum uses.
        let mut d = Digest64::new(7);
        for chunk in data.chunks(4) {
            d.update(chunk);
        }
        assert_eq!(d.finish(), whole);
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut block = vec![0u8; 4096];
        let clean = digest64(0, &block);
        for bit in 0..4096 * 8 {
            block[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(digest64(0, &block), clean, "bit {bit}");
            block[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn swapping_two_blocks_changes_the_digest() {
        let data = sample();
        let mut swapped = data.clone();
        swapped[..4096].copy_from_slice(&data[4096..8192]);
        swapped[4096..8192].copy_from_slice(&data[..4096]);
        assert_ne!(digest64(0, &data), digest64(0, &swapped));
    }

    #[test]
    fn length_is_part_of_the_digest() {
        // Zero-filled inputs differ only in length.
        let zeros = vec![0u8; 2 * 4096];
        let digests: Vec<u64> = [0, 1, 7, 8, 63, 64, 65, 4095, 4096, 8192]
            .iter()
            .map(|&n| digest64(0, &zeros[..n]))
            .collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn seed_separates_users() {
        let data = sample();
        assert_ne!(digest64(1, &data), digest64(2, &data));
        assert_ne!(digest64(1, b""), digest64(2, b""));
    }
}
