//! Deterministic mergeable log-bucket quantile sketch — the registry's
//! one distribution type.
//!
//! The layout is global and value-independent: every positive `f64`
//! maps to a bucket index derived from its bit pattern (exponent and
//! the top [`MANTISSA_BITS`] mantissa bits), so two sketches built on
//! different workers — or merged in any order — always agree
//! bucket-for-bucket. That makes the merge exact: merging is per-index
//! counter addition, and every read on a merged sketch is
//! byte-identical to the read on a sketch built from the concatenated
//! stream. There is no layout to choose and none to mismatch.
//!
//! Bucket width is relative: with 7 mantissa bits each bucket spans a
//! `1 + 2⁻⁷ ≈ 0.8 %` ratio, so a quantile read is within `2⁻⁷` of the
//! order statistic it names and the mean within `2⁻⁸` of the exact
//! mean, at any magnitude from `1e-300` to `1e300`. All arithmetic is
//! integer or exact `f64` bit manipulation — no transcendental calls —
//! so reads are bitwise deterministic across platforms.

/// Mantissa bits kept in the bucket index: the log-bucket resolution.
pub const MANTISSA_BITS: u32 = 7;

const SHIFT: u32 = 52 - MANTISSA_BITS;

/// A deterministic mergeable quantile sketch over non-negative samples.
///
/// Values `<= 0` (and exact zeros) land in a dedicated zero bucket;
/// non-finite values are counted apart ([`Sketch::nonfinite`]) and
/// touch nothing else. The bucket layout is a pure function of the
/// value bits, identical for every sketch instance, which is what makes
/// [`Sketch::merge`] worker-count invariant.
///
/// # Examples
///
/// ```
/// use adrias_obs::sketch::Sketch;
///
/// let mut a = Sketch::new();
/// let mut b = Sketch::new();
/// for v in [1.0, 2.0, 3.0] {
///     a.observe(v);
/// }
/// for v in [4.0, 5.0] {
///     b.observe(v);
/// }
/// a.merge(&b);
/// assert_eq!(a.count(), 5);
/// let p50 = a.quantile(0.5);
/// assert!((p50 - 3.0).abs() / 3.0 < 0.01, "p50 {p50}");
/// assert!((a.mean() - 3.0).abs() / 3.0 < 0.004);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    /// Occupied log buckets as `(index, count)`, sorted by index.
    buckets: Vec<(u32, u64)>,
    zero: u64,
    count: u64,
    nonfinite: u64,
    min: f64,
    max: f64,
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index of a strictly positive finite value: the top bits
/// of its IEEE-754 representation. Monotone in the value, so bucket
/// order equals value order.
fn bucket_index(v: f64) -> u32 {
    (v.to_bits() >> SHIFT) as u32
}

/// Lower edge of bucket `idx` (the smallest value mapping to it).
fn bucket_lo(idx: u32) -> f64 {
    f64::from_bits(u64::from(idx) << SHIFT)
}

/// Upper edge of bucket `idx` (exclusive).
fn bucket_hi(idx: u32) -> f64 {
    f64::from_bits(u64::from(idx + 1) << SHIFT)
}

impl Sketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            zero: 0,
            count: 0,
            nonfinite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Values `<= 0` count into the zero bucket;
    /// NaN and infinities only bump [`Sketch::nonfinite`].
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            return;
        }
        self.count += 1;
        let clamped = v.max(0.0);
        self.min = self.min.min(clamped);
        self.max = self.max.max(clamped);
        if v <= 0.0 {
            self.zero += 1;
        } else {
            self.add(bucket_index(v), 1);
        }
    }

    fn add(&mut self, idx: u32, c: u64) {
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += c,
            Err(pos) => self.buckets.insert(pos, (idx, c)),
        }
    }

    /// Total recorded (finite) samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// NaN and ±∞ samples offered to [`Sketch::observe`]: counted so a
    /// diverged producer stays visible, excluded from every other read.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// Samples that landed in the zero bucket (`v <= 0`).
    pub fn zero_count(&self) -> u64 {
        self.zero
    }

    /// Number of occupied log buckets (the zero bucket excluded).
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Smallest recorded sample (clamped at 0), or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (clamped at 0), or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Whether nothing was offered, finite or not.
    pub fn is_empty(&self) -> bool {
        self.count == 0 && self.nonfinite == 0
    }

    /// Folds `other` into `self`: per-index counter addition. The
    /// layout is global, so the merge is exact and order-independent —
    /// a merged sketch answers every read byte-identically to one built
    /// from the concatenated sample stream.
    pub fn merge(&mut self, other: &Sketch) {
        for &(idx, c) in &other.buckets {
            self.add(idx, c);
        }
        self.zero += other.zero;
        self.count += other.count;
        self.nonfinite += other.nonfinite;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The mean, estimated from the bucket counts alone (Σ count ×
    /// bucket midpoint; the zero bucket contributes 0) and clamped to
    /// the observed `[min, max]`. A sample sits within `2⁻⁸` of its
    /// bucket's midpoint, so the estimate is within `2⁻⁸` of the exact
    /// mean; reading it off the counts keeps [`Sketch::merge`] exact.
    /// Returns 0 for an empty sketch.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .map(|&(idx, c)| {
                let lo = bucket_lo(idx);
                c as f64 * (lo + 0.5 * (bucket_hi(idx) - lo))
            })
            .sum();
        (sum / self.count as f64).clamp(self.min, self.max)
    }

    /// The `q`-quantile (`q` in `[0, 1]`): the order statistic of rank
    /// `⌈q·(n−1)⌉`, placed inside its bucket by its position among the
    /// bucket's samples and clamped to the observed `[min, max]`.
    /// Rounding the rank up keeps tail reads conservative on small
    /// samples (p95 of two samples is the larger, never below the
    /// mean). Returns 0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).ceil() as u64;
        if rank < self.zero {
            return 0.0;
        }
        let mut seen = self.zero;
        for &(idx, c) in &self.buckets {
            if rank < seen + c {
                let frac = ((rank - seen) as f64 + 0.5) / c as f64;
                let lo = bucket_lo(idx);
                return (lo + frac * (bucket_hi(idx) - lo)).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_reads_zero() {
        let s = Sketch::new();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s, Sketch::default());
    }

    #[test]
    fn bucket_index_is_monotone_in_the_value() {
        let values = [1e-9, 0.003, 0.5, 1.0, 1.001, 2.0, 99.7, 1e6, 1e12];
        for w in values.windows(2) {
            assert!(
                bucket_index(w[0]) <= bucket_index(w[1]),
                "index order inverted between {} and {}",
                w[0],
                w[1]
            );
        }
        for v in values {
            let idx = bucket_index(v);
            assert!(
                bucket_lo(idx) <= v && v < bucket_hi(idx),
                "{v} outside its bucket"
            );
        }
    }

    #[test]
    fn quantiles_carry_subpercent_relative_error() {
        let mut s = Sketch::new();
        for i in 1..=10_000u64 {
            s.observe(i as f64 * 0.01);
        }
        for (q, exact) in [(0.5, 50.0), (0.95, 95.0), (0.99, 99.0)] {
            let got = s.quantile(q);
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.01, "q{q}: {got} vs {exact} (rel {rel:.4})");
        }
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let samples: Vec<f64> = (0..500).map(|i| 0.1 + (i as f64) * 0.37).collect();
        let mut whole = Sketch::new();
        for &v in &samples {
            whole.observe(v);
        }
        // Split across three "workers", merged in two different orders.
        let parts: Vec<Sketch> = samples
            .chunks(167)
            .map(|chunk| {
                let mut s = Sketch::new();
                for &v in chunk {
                    s.observe(v);
                }
                s
            })
            .collect();
        let mut fwd = Sketch::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Sketch::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(fwd.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
    }

    #[test]
    fn zero_and_negative_samples_land_in_the_zero_bucket() {
        let mut s = Sketch::new();
        for v in [0.0, -3.5, 0.0, 4.0] {
            s.observe(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.zero_count(), 3);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.min(), 0.0);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut s = Sketch::new();
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        s.observe(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.nonfinite(), 2);
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.mean(), 2.0);
        // The count survives a merge, and a sketch that saw only
        // non-finite samples is not "empty": it must reach the export.
        let mut only_nan = Sketch::new();
        only_nan.observe(f64::NEG_INFINITY);
        assert!(!only_nan.is_empty());
        s.merge(&only_nan);
        assert_eq!((s.count(), s.nonfinite()), (1, 3));
    }

    #[test]
    fn single_sample_quantiles_return_that_sample() {
        let mut s = Sketch::new();
        s.observe(7.25);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 7.25, "q{q}");
        }
        assert_eq!(s.mean(), 7.25);
    }

    #[test]
    fn merge_into_empty_equals_clone() {
        let mut src = Sketch::new();
        for v in [1.0, 10.0, 100.0] {
            src.observe(v);
        }
        let mut dst = Sketch::new();
        dst.merge(&src);
        assert_eq!(dst, src);
        // Merging an empty sketch is a no-op.
        dst.merge(&Sketch::new());
        assert_eq!(dst, src);
    }

    fn sketch_of(samples: &[f64]) -> Sketch {
        let mut s = Sketch::new();
        for &v in samples {
            s.observe(v);
        }
        s
    }

    adrias_core::proptest! {
        /// Every read against an exact sort: a quantile is within one
        /// bucket width (2⁻⁷) of the order statistic it names, the mean
        /// within half a width (2⁻⁸) of the exact mean.
        #[test]
        fn quantiles_and_mean_track_an_exact_sort(
            samples in adrias_core::prop::collection::vec(1e-3f64..1e6, 1..=200),
        ) {
            let s = sketch_of(&samples);
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                let exact = sorted[(q * (n - 1) as f64).ceil() as usize];
                let got = s.quantile(q);
                adrias_core::prop_assert!(
                    (got - exact).abs() <= exact / 128.0,
                    "n={n} q{q}: {got} vs {exact}"
                );
            }
            let exact = sorted.iter().sum::<f64>() / n as f64;
            adrias_core::prop_assert!(
                (s.mean() - exact).abs() <= exact / 256.0,
                "n={n} mean {} vs {exact}",
                s.mean()
            );
        }

        /// The `n = 2` read that used to come out under the mean: the
        /// p95 of two samples is the larger one.
        #[test]
        fn p95_of_two_samples_is_not_below_their_mean(
            a in 1e-3f64..1e6,
            b in 1e-3f64..1e6,
        ) {
            let s = sketch_of(&[a, b]);
            adrias_core::prop_assert!(
                s.quantile(0.95) >= s.mean() * (1.0 - 1.0 / 128.0),
                "p95 {} under mean {}",
                s.quantile(0.95),
                s.mean()
            );
        }

        /// Random splits merged in random order equal the sketch of the
        /// concatenated stream, down to the bits of the mean.
        #[test]
        fn merge_of_random_splits_equals_the_concatenated_stream(
            samples in adrias_core::prop::collection::vec(-1.0f64..1e4, 1..=200),
            cuts in adrias_core::prop::collection::vec(0usize..200, 0..5),
            order in adrias_core::prop::collection::vec(0usize..60, 6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (samples.len() + 1)).collect();
            cuts.extend([0, samples.len()]);
            cuts.sort_unstable();
            let mut parts: Vec<Sketch> = cuts
                .windows(2)
                .map(|w| sketch_of(&samples[w[0]..w[1]]))
                .collect();
            for i in (1..parts.len()).rev() {
                parts.swap(i, order[i] % (i + 1));
            }
            let mut merged = Sketch::new();
            for p in &parts {
                merged.merge(p);
            }
            let whole = sketch_of(&samples);
            adrias_core::prop_assert_eq!(&merged, &whole);
            adrias_core::prop_assert_eq!(merged.mean().to_bits(), whole.mean().to_bits());
        }
    }
}
