//! Small, dependency-free pseudo-random number generators.
//!
//! The workspace must build and test fully offline, so instead of the
//! `rand` crate it carries these two classic generators:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. Used to expand
//!   a single `u64` seed into well-distributed state words.
//! * [`Xoshiro256StarStar`] — Blackman & Vigna's xoshiro256** generator,
//!   the workhorse behind every stochastic traffic source and randomized
//!   test in the workspace.
//!
//! Both are deterministic functions of their seed, which is exactly what
//! the simulator needs: every experiment is reproducible from a `u64`.
//!
//! # Examples
//!
//! ```
//! use ssq_types::rng::Xoshiro256StarStar;
//!
//! let mut a = Xoshiro256StarStar::seed_from_u64(7);
//! let mut b = Xoshiro256StarStar::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let f = a.f64();
//! assert!((0.0..1.0).contains(&f));
//! assert!(a.below(10) < 10);
//! ```

/// The SplitMix64 generator: a 64-bit state advanced by a Weyl sequence
/// and finalized with two xor-shift-multiply rounds.
///
/// Primarily a seed expander — its output stream has no correlations
/// between nearby seeds, so it safely turns one `u64` into the four
/// state words [`Xoshiro256StarStar`] needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub const fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator: 256 bits of state, period `2^256 − 1`,
/// and excellent statistical quality for simulation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator whose state is expanded from `seed` with
    /// [`SplitMix64`], the seeding procedure recommended by the xoshiro
    /// authors.
    #[must_use]
    pub const fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64-bit value.
    pub const fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        self.s = [s0, s1, s2 ^ t, s3.rotate_left(45)];
        result
    }

    /// A uniform `f64` in `[0, 1)`, built from the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        // 53-bit mantissa; dividing by 2^53 keeps the result below 1.
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// A uniform `u64` in `[0, bound)`, bias-free via rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Reject the tail of the u64 range that does not divide evenly.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// A uniform index in `[0, len)` — the destination-pattern helper.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        usize::try_from(self.below(len as u64)).expect("bound fits usize")
    }

    /// A uniform `u64` in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "inverted range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0, from the reference implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256StarStar::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval_and_covers_it() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut low = false;
        let mut high = false;
        for _ in 0..10_000 {
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f), "{f} outside [0,1)");
            low |= f < 0.1;
            high |= f > 0.9;
        }
        assert!(low && high, "unit interval not covered");
    }

    #[test]
    fn f64_mean_is_about_half() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mean: f64 = (0..100_000).map(|_| rng.f64()).sum::<f64>() / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.index(8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_000..11_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn range_is_inclusive() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1_000 {
            let v = rng.range(4, 7);
            assert!((4..=7).contains(&v));
            seen_lo |= v == 4;
            seen_hi |= v == 7;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_rejects_zero_bound() {
        let _ = Xoshiro256StarStar::seed_from_u64(0).below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        assert!(!(0..1_000).any(|_| rng.chance(0.0)));
        assert!((0..1_000).all(|_| rng.chance(1.0)));
    }
}
