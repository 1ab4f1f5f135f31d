//! Deterministic weighted class mix: each round holds every class as many
//! times as its frozen weight, in an order shuffled from the workload seed.

/// SplitMix64: a tiny, seedable generator (same seed, same stream).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An endless sequence of weighted rounds over class indices.
#[derive(Debug, Clone)]
pub struct Mix {
    weights: Vec<u32>,
    rng: SplitMix64,
}

impl Mix {
    /// A mix over `weights[i]` copies of class `i` per round.
    pub fn new(weights: &[u32], seed: u64) -> Self {
        Self {
            weights: weights.to_vec(),
            rng: SplitMix64::new(seed),
        }
    }

    /// The next round: a Fisher–Yates shuffle of the weighted bag.
    pub fn next_round(&mut self) -> Vec<usize> {
        let mut bag: Vec<usize> = self
            .weights
            .iter()
            .enumerate()
            .flat_map(|(class, &w)| std::iter::repeat_n(class, w as usize))
            .collect();
        for i in (1..bag.len()).rev() {
            let j = self.rng.below(i + 1);
            bag.swap(i, j);
        }
        bag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order() {
        let weights = [25, 2, 1];
        let mut a = Mix::new(&weights, 7);
        let mut b = Mix::new(&weights, 7);
        for _ in 0..5 {
            assert_eq!(a.next_round(), b.next_round());
        }
        let mut c = Mix::new(&weights, 8);
        let first_a = Mix::new(&weights, 7).next_round();
        assert_ne!(first_a, c.next_round(), "another seed gives another order");
    }

    #[test]
    fn every_round_holds_the_weights() {
        let weights = [7, 4, 12, 14, 10];
        let mut mix = Mix::new(&weights, 3);
        for _ in 0..4 {
            let round = mix.next_round();
            assert_eq!(round.len(), 47);
            for (class, &w) in weights.iter().enumerate() {
                assert_eq!(round.iter().filter(|&&c| c == class).count(), w as usize);
            }
        }
    }
}
