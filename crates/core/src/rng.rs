//! Deterministic pseudo-random number generation.
//!
//! The whole workspace draws randomness from one in-tree generator so
//! simulation runs are bit-for-bit reproducible from a single `u64`
//! seed, on every platform, with no external crates. The generator is
//! xoshiro256++ (Blackman & Vigna), seeded through SplitMix64 so that
//! consecutive integer seeds yield decorrelated streams.
//!
//! The trait surface deliberately mirrors the call-site vocabulary the
//! repository already uses (`gen`, `gen_range`, `gen_bool`, `sample`,
//! `shuffle`), so swapping generators never requires touching callers.
//!
//! ```
//! use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};
//!
//! let mut rng = Xoshiro256pp::seed_from_u64(7);
//! let x: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&x));
//! let k = rng.gen_range(0..10usize);
//! assert!(k < 10);
//! ```

/// SplitMix64: a tiny, very fast generator used only to expand a
/// single `u64` seed into the 256-bit xoshiro state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the expander from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace generator: xoshiro256++.
///
/// 256 bits of state, period 2^256 − 1, passes BigCrush; ~1 ns per
/// draw. All simulator, NN-init, workload and scenario randomness goes
/// through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

/// Construction of a generator from a seed, split out as a trait so
/// generic code can stay generator-agnostic.
pub trait SeedableRng: Sized {
    /// Builds the generator from a single `u64` seed via SplitMix64
    /// state expansion.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // The all-zero state is a fixed point; SplitMix64 cannot emit
        // four consecutive zeros, but guard anyway.
        debug_assert!(s.iter().any(|&w| w != 0));
        Self { s }
    }
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

/// The raw 64-bit source every higher-level method builds on.
pub trait RngCore {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;
}

impl RngCore for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = rotl(s[0].wrapping_add(s[3]), 23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        result
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be drawn uniformly from their "standard" domain:
/// full range for integers, `[0, 1)` for floats, fair coin for bools.
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for usize {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// The `[0, 1)` double `gen::<f64>()` makes of one raw output: its top
/// 53 bits over 2⁵³, exactly — so it is monotone in `raw`, and a caller
/// holding the raw word can reason about the double in integers.
#[inline]
pub fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl StandardSample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Uniform `u64` below `n` without modulo bias (Lemire's method).
#[inline]
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    let mut lo = m as u64;
    if lo < n {
        let threshold = n.wrapping_neg() % n;
        while lo < threshold {
            m = u128::from(rng.next_u64()) * u128::from(n);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Ranges a value can be drawn from: `lo..hi` and `lo..=hi` over the
/// numeric types the workspace uses.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = uniform_u64_below(rng, span);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Whole-domain range: a raw draw is already uniform.
                    return rng.next_u64() as $t;
                }
                let off = uniform_u64_below(rng, span as u64);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            /// Uniform in `[lo, hi)`.
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                let v = self.start + (self.end - self.start) * u;
                // Guard the open upper bound against rounding.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            /// Uniform in `[lo, hi]`.
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                lo + (hi - lo) * u
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// A distribution values can be sampled from via [`Rng::sample`].
pub trait Distribution<T> {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Gaussian distribution sampled by the Box–Muller transform.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// A normal distribution with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "std_dev must be finite and non-negative"
        );
        Self { mean, std_dev }
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// One standard-normal draw (Box–Muller, cosine branch).
pub fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 1 - u keeps the argument of ln strictly positive.
    let u1: f64 = 1.0 - f64::sample_standard(rng);
    let u2: f64 = f64::sample_standard(rng);
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// The user-facing generator interface; blanket-implemented for every
/// [`RngCore`] so `&mut R` call-through works everywhere.
pub trait Rng: RngCore {
    /// Draws a standard value: full-range integer, `[0, 1)` float, or
    /// fair-coin bool.
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from `lo..hi` or `lo..=hi`.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        f64::sample_standard(self) < p
    }

    /// Draws from an explicit distribution.
    #[inline]
    fn sample<T, D: Distribution<T>>(&mut self, dist: &D) -> T {
        dist.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// In-place random permutation of slices (Fisher–Yates).
pub trait SliceRandom {
    /// Uniformly shuffles the slice in place.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_u64_below(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    #[test]
    fn splitmix_reference_values() {
        // Known-answer vector: SplitMix64 seeded with 0 emits
        // 0xE220A8397B1DCDAF first (same expansion as Java's
        // SplittableRandom).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng(42);
        let mut b = rng(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = rng(1);
        let mut b = rng(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_f64_mean_and_variance() {
        let mut r = rng(7);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gen::<f64>()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        // E = 1/2, Var = 1/12 ≈ 0.0833.
        assert!((mean - 0.5).abs() < 5e-3, "uniform mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 5e-3, "uniform variance {var}");
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn uniform_f32_in_unit_interval() {
        let mut r = rng(8);
        for _ in 0..100_000 {
            let x: f32 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_mean_and_variance() {
        let mut r = rng(9);
        let dist = Normal::new(3.0, 2.0);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.sample(&dist)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "normal mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "normal variance {var}");
    }

    #[test]
    fn gen_range_exclusive_excludes_upper_bound() {
        let mut r = rng(10);
        let mut hit_lo = false;
        for _ in 0..20_000 {
            let k = r.gen_range(0..4usize);
            assert!(k < 4);
            hit_lo |= k == 0;
        }
        assert!(hit_lo, "lower bound never drawn");
    }

    #[test]
    fn gen_range_inclusive_hits_both_bounds() {
        let mut r = rng(11);
        let (mut lo, mut hi) = (false, false);
        for _ in 0..20_000 {
            let k = r.gen_range(-2i32..=2);
            assert!((-2..=2).contains(&k));
            lo |= k == -2;
            hi |= k == 2;
        }
        assert!(lo && hi, "inclusive endpoints must both be reachable");
    }

    #[test]
    fn gen_range_float_stays_in_bounds() {
        let mut r = rng(12);
        for _ in 0..50_000 {
            let x = r.gen_range(-0.5f32..0.5);
            assert!((-0.5..0.5).contains(&x), "{x}");
            let y = r.gen_range(-1.0f64..=1.0);
            assert!((-1.0..=1.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform_over_buckets() {
        let mut r = rng(13);
        let n = 120_000;
        let mut counts = [0usize; 6];
        for _ in 0..n {
            counts[r.gen_range(0..6usize)] += 1;
        }
        let expect = n / 6;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expect}");
        }
    }

    #[test]
    fn gen_bool_frequency_matches_p() {
        let mut r = rng(14);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.gen_bool(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "gen_bool(0.3) freq {freq}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = rng(15);
        let original: Vec<u32> = (0..257).collect();
        let mut shuffled = original.clone();
        shuffled.shuffle(&mut r);
        assert_ne!(
            shuffled, original,
            "257 elements should not shuffle to identity"
        );
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, original, "shuffle must preserve the multiset");
    }

    #[test]
    fn shuffle_moves_every_position_eventually() {
        // Over many shuffles each position should see many distinct values.
        let mut r = rng(16);
        let mut seen_at_zero = std::collections::HashSet::new();
        for _ in 0..200 {
            let mut v: Vec<u8> = (0..8).collect();
            v.shuffle(&mut r);
            seen_at_zero.insert(v[0]);
        }
        assert_eq!(seen_at_zero.len(), 8);
    }
}
