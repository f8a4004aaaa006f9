//! A small, fast, deterministic PRNG (SplitMix64 core with an xoshiro256++
//! output stage), offering the subset of the `rand` API this workspace
//! uses: seeding, ranges, Bernoulli draws and slice shuffling.
//!
//! The generator is *not* cryptographic. It exists so that fault-injection
//! models, randomised schedulers and property tests are reproducible from a
//! single `u64` seed with no external dependencies.

/// Deterministic pseudo-random number generator.
///
/// # Examples
/// ```
/// use kpt_testkit::Rng;
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

/// One round of SplitMix64, used for seeding and stream splitting.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Seed the generator from a single `u64` (mirrors
    /// `rand::SeedableRng::seed_from_u64`).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent generator for a sub-task (e.g. one property
    /// test case) without disturbing this generator's stream.
    #[must_use]
    pub fn split(&self, index: u64) -> Rng {
        Rng::seed_from_u64(
            self.s[0] ^ self.s[2].rotate_left(17) ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
        )
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `0..bound` (`bound > 0`), via Lemire rejection.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is empty");
        // Widening-multiply rejection sampling: unbiased and branch-light.
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform draw from a `Range<u64>` (mirrors `rand::Rng::gen_range`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range");
        range.start + self.below(range.end - range.start)
    }

    /// Uniform draw from a `usize` range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn gen_range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53-bit uniform in [0,1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Fisher–Yates shuffle (mirrors `rand::seq::SliceRandom::shuffle`).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues reached");
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = Rng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = r.gen_range(10..20);
            assert!((10..20).contains(&x));
        }
        assert_eq!(r.gen_range(5..6), 5);
    }

    #[test]
    fn gen_bool_extremes_and_balance() {
        let mut r = Rng::seed_from_u64(3);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With overwhelming probability the order changed.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_and_split() {
        let mut r = Rng::seed_from_u64(5);
        assert_eq!(r.choose::<u8>(&[]), None);
        let v = [1u8, 2, 3];
        assert!(v.contains(r.choose(&v).unwrap()));
        let mut s1 = r.split(0);
        let mut s2 = r.split(1);
        assert_ne!(s1.next_u64(), s2.next_u64());
    }
}
