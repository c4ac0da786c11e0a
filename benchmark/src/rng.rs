//! The benchmark's own seeded generator.
//!
//! Inputs must depend on `--seed` and on nothing else, and must not move
//! when the measured program's vendored `rand` stand-in is refactored, so
//! the benchmark carries its own SplitMix64.

/// SplitMix64: tiny, fast, and good enough to shuffle decks and pick files.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream derived from this seed and `tag`, so each
    /// workload, stack and client draws from its own sequence.
    pub fn fork(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).  The modulo bias is below 2^-40 for the
    /// small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A deck deals every item once per pass in shuffled order, then reshuffles.
///
/// Sampling op classes and sizes from decks instead of independently keeps
/// the *mix* identical on every seed (exactly 5 delivers per 20 ops, every
/// size once per deck) while the *order* still depends on the seed, so a
/// metric's spread over seeds reflects the program, not the sample.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>) -> Self {
        assert!(!items.is_empty(), "a deck needs at least one card");
        let next = items.len();
        Deck { items, next }
    }

    /// Cards in the deck.
    pub fn size(&self) -> usize {
        self.items.len()
    }

    pub fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..4).map(|_| 0).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).map(|_| 0).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
    }

    #[test]
    fn deck_deals_each_card_once_per_pass() {
        let mut rng = Rng::new(1);
        let mut deck = Deck::new(vec![1, 2, 3, 4, 5]);
        for _ in 0..3 {
            let mut pass: Vec<i32> = (0..5).map(|_| deck.deal(&mut rng)).collect();
            pass.sort_unstable();
            assert_eq!(pass, vec![1, 2, 3, 4, 5]);
        }
    }
}
