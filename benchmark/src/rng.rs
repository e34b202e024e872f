//! Seeded input generation: a SplitMix64 stream, so the same `--seed`
//! always produces the same workload and nothing depends on an external
//! crate or on `HashMap` iteration order.

/// SplitMix64 pseudo-random generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; distinct streams of
    /// the same seed are independent (templates, unit order, data).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (multiply-shift, no modulo bias worth
    /// caring about at these ranges).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn below_stays_in_range_and_shuffle_permutes() {
        let mut r = Rng::new(1, 0);
        for n in [1usize, 2, 3, 8, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
        assert_ne!(v, sorted);
    }
}
