//! Statistics used throughout the Adrias evaluation.
//!
//! Everything the paper reports is expressed through a handful of
//! estimators: means, percentiles (tail latency), Pearson's correlation
//! coefficient (Fig. 6), the coefficient of determination `R²` (Table I,
//! Figs. 13–15) and the mean absolute error (Figs. 13c, 14a).

/// Arithmetic mean; `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(adrias_telemetry::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let sum: f64 = xs.iter().map(|&x| f64::from(x)).sum();
    (sum / xs.len() as f64) as f32
}

/// Population variance; `0.0` for slices with fewer than two samples.
pub fn variance(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = f64::from(mean(xs));
    let ss: f64 = xs.iter().map(|&x| (f64::from(x) - m).powi(2)).sum();
    (ss / xs.len() as f64) as f32
}

/// Population standard deviation.
pub fn std_dev(xs: &[f32]) -> f32 {
    variance(xs).sqrt()
}

/// Median (50th percentile).
pub fn median(xs: &[f32]) -> f32 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile using linear interpolation between order
/// statistics, matching the behaviour of `numpy.percentile`.
///
/// Returns `0.0` for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`, or if `xs` holds a NaN.
///
/// # Examples
///
/// ```
/// use adrias_telemetry::stats::percentile;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// ```
pub fn percentile(xs: &[f32], p: f64) -> f32 {
    let [v] = percentiles_in_place(&mut xs.to_vec(), [p]);
    v
}

/// [`percentile`] at each of the ascending `ps`, reordering `xs` instead
/// of copying it — for a caller that owns its samples and reads several
/// quantiles of them. Panics as [`percentiles_of_top`] does.
pub fn percentiles_in_place<const N: usize>(xs: &mut [f32], ps: [f64; N]) -> [f32; N] {
    percentiles_of_top(xs, xs.len(), ps).expect("a whole population holds every rank")
}

/// [`percentiles_in_place`] of `n` samples of which `top` holds only the
/// `top.len()` largest; `None` when `ps[0]` reads a rank below them.
///
/// Order statistics are read by selection, not by sorting: one O(n)
/// partition at the first rank, and each later rank found inside the
/// upper partition the one before it left. The values returned are the
/// ones a full sort would give (samples that compare equal are the same
/// bits, `±0.0` aside).
///
/// # Panics
///
/// Panics if a `p` is outside `[0, 100]`, if `ps` is not ascending, if
/// `top` holds a NaN or is longer than `n`.
pub fn percentiles_of_top<const N: usize>(
    top: &mut [f32],
    n: usize,
    ps: [f64; N],
) -> Option<[f32; N]> {
    let cmp = |a: &f32, b: &f32| a.partial_cmp(b).expect("non-NaN samples");
    let below = n.checked_sub(top.len()).expect("top is part of n");
    let mut out = [0.0; N];
    // `top[..base]` holds the `base` smallest samples of the slice.
    let mut base = 0;
    for (out, p) in out.iter_mut().zip(ps) {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if n == 0 {
            continue;
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let floor = rank.floor() as usize;
        let lo = floor.checked_sub(below)?;
        assert!(lo >= base, "percentiles must be ascending");
        let (_, &mut at_lo, above) = top[base..].select_nth_unstable_by(lo - base, cmp);
        base = lo;
        *out = if rank.ceil() as usize == floor {
            at_lo
        } else {
            let at_hi = above.iter().copied().min_by(cmp).expect("rank below n - 1");
            let frac = (rank - floor as f64) as f32;
            at_lo * (1.0 - frac) + at_hi * frac
        };
    }
    Some(out)
}

/// Pearson's linear correlation coefficient between `xs` and `ys`.
///
/// Returns `0.0` when either input is constant (undefined correlation).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use adrias_telemetry::stats::pearson;
///
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((pearson(&x, &y) - 1.0).abs() < 1e-6);
/// ```
pub fn pearson(xs: &[f32], ys: &[f32]) -> f32 {
    assert_eq!(xs.len(), ys.len(), "pearson inputs must align");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = f64::from(mean(xs));
    let my = f64::from(mean(ys));
    let mut cov = 0.0f64;
    let mut vx = 0.0f64;
    let mut vy = 0.0f64;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = f64::from(x) - mx;
        let dy = f64::from(y) - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())) as f32
}

/// Coefficient of determination `R²` of predictions against truth.
///
/// `1.0` is a perfect fit; values can be negative when the model is worse
/// than predicting the mean. Returns `0.0` when the truth is constant.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
///
/// # Examples
///
/// ```
/// use adrias_telemetry::stats::r2_score;
///
/// let truth = [3.0, -0.5, 2.0, 7.0];
/// let pred = [2.5, 0.0, 2.0, 8.0];
/// assert!((r2_score(&truth, &pred) - 0.9486).abs() < 1e-3);
/// ```
pub fn r2_score(truth: &[f32], pred: &[f32]) -> f32 {
    assert_eq!(truth.len(), pred.len(), "r2 inputs must align");
    assert!(!truth.is_empty(), "r2 needs at least one sample");
    let m = f64::from(mean(truth));
    let mut ss_res = 0.0f64;
    let mut ss_tot = 0.0f64;
    for (&t, &p) in truth.iter().zip(pred) {
        ss_res += (f64::from(t) - f64::from(p)).powi(2);
        ss_tot += (f64::from(t) - m).powi(2);
    }
    if ss_tot == 0.0 {
        return 0.0;
    }
    (1.0 - ss_res / ss_tot) as f32
}

/// Mean absolute error of predictions against truth.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mae(truth: &[f32], pred: &[f32]) -> f32 {
    assert_eq!(truth.len(), pred.len(), "mae inputs must align");
    assert!(!truth.is_empty(), "mae needs at least one sample");
    let sum: f64 = truth
        .iter()
        .zip(pred)
        .map(|(&t, &p)| (f64::from(t) - f64::from(p)).abs())
        .sum();
    (sum / truth.len() as f64) as f32
}

/// Running mean/variance accumulator (Welford's algorithm).
///
/// Used where a full sample vector would be wasteful, e.g. per-metric
/// normalization statistics over long traces.
///
/// # Examples
///
/// ```
/// use adrias_telemetry::stats::OnlineStats;
///
/// let mut st = OnlineStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     st.push(x);
/// }
/// assert_eq!(st.mean(), 4.0);
/// assert_eq!(st.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f32) {
        self.count += 1;
        let delta = f64::from(x) - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (f64::from(x) - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `0.0` before the first observation.
    pub fn mean(&self) -> f32 {
        self.mean as f32
    }

    /// Running population variance.
    pub fn variance(&self) -> f32 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64) as f32
        }
    }

    /// Running population standard deviation.
    pub fn std_dev(&self) -> f32 {
        self.variance().sqrt()
    }

    /// Folds another accumulator into this one (Chan et al. parallel
    /// Welford update), as if every observation of `other` had been
    /// pushed here. Deterministic for a fixed merge order.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n = self.count + other.count;
        let delta = other.mean - self.mean;
        let nb = other.count as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * nb / n as f64;
        self.mean += delta * nb / n as f64;
        self.count = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn online_merge_matches_sequential_push() {
        let xs = [2.0f32, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..3] {
            left.push(x);
        }
        for &x in &xs[3..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-6);
        assert!((left.variance() - whole.variance()).abs() < 1e-6);
        // Merging an empty accumulator is a no-op in both directions.
        let mut empty = OnlineStats::new();
        empty.merge(&whole);
        assert_eq!(empty.mean(), whole.mean());
        whole.merge(&OnlineStats::new());
        assert_eq!(whole.count(), xs.len() as u64);
    }

    #[test]
    fn variance_and_std_dev_match() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-6);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn percentile_handles_single_sample() {
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0];
        let p50 = percentile(&xs, 50.0);
        let p90 = percentile(&xs, 90.0);
        let p99 = percentile(&xs, 99.0);
        assert!(p50 <= p90 && p90 <= p99);
        assert_eq!(median(&xs), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn percentile_panics_on_a_nan_wherever_it_sits() {
        for at in [0, 1, 500, 998, 999] {
            for p in [0.0, 37.5, 99.0, 100.0] {
                let mut xs: Vec<f32> = (0..1000).map(|i| (i * 7 % 1000) as f32).collect();
                xs[at] = f32::NAN;
                let caught = std::panic::catch_unwind(|| percentile(&xs, p));
                assert!(caught.is_err(), "NaN at {at} slipped through p{p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be ascending")]
    fn percentiles_in_place_rejects_descending_ranks() {
        let _ = percentiles_in_place(&mut [1.0, 2.0, 3.0, 4.0, 5.0], [90.0, 10.0]);
    }

    #[test]
    fn pearson_detects_anticorrelation() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_of_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn r2_of_perfect_prediction_is_one() {
        let t = [1.0, 2.0, 3.0];
        assert!((r2_score(&t, &t) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn r2_can_be_negative_for_bad_models() {
        let truth = [1.0, 2.0, 3.0];
        let pred = [10.0, -10.0, 10.0];
        assert!(r2_score(&truth, &pred) < 0.0);
    }

    #[test]
    fn mae_is_average_absolute_gap() {
        assert_eq!(mae(&[1.0, 2.0], &[2.0, 0.0]), 1.5);
    }

    #[test]
    fn online_stats_match_batch_stats() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut st = OnlineStats::new();
        for &x in &xs {
            st.push(x);
        }
        assert!((st.mean() - mean(&xs)).abs() < 1e-6);
        assert!((st.variance() - variance(&xs)).abs() < 1e-5);
    }
}
