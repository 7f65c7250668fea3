//! Per-metric z-score normalization.

use adrias_telemetry::stats::OnlineStats;
use adrias_telemetry::{Metric, MetricVec, METRIC_COUNT};

/// Per-metric z-score normalizer fitted on training data.
///
/// Deep models are fed normalized metric values; predictions are mapped
/// back through [`Normalizer::denormalize`]. Metrics with (near-)zero
/// variance normalize to zero instead of blowing up.
///
/// # Examples
///
/// ```
/// use adrias_predictor::Normalizer;
/// use adrias_telemetry::{Metric, MetricVec};
///
/// let mut rows = Vec::new();
/// for i in 0..10 {
///     let mut v = MetricVec::zero();
///     v.set(Metric::LlcLoads, i as f32);
///     rows.push(v);
/// }
/// let norm = Normalizer::fit(&rows);
/// let z = norm.normalize(&rows[9]);
/// let back = norm.denormalize(&z);
/// assert!((back.get(Metric::LlcLoads) - 9.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mean: [f32; METRIC_COUNT],
    std: [f32; METRIC_COUNT],
}

impl Normalizer {
    /// Smallest standard deviation treated as non-degenerate.
    const MIN_STD: f32 = 1e-6;
    /// A metric whose std is below this fraction of its mean magnitude is
    /// treated as constant — counters of magnitude 1e8 carry no signal in
    /// their last few floating-point digits.
    const MIN_REL_STD: f32 = 1e-4;
    /// Normalized values are clamped to this band so out-of-distribution
    /// inputs cannot blow up the models.
    const MAX_Z: f32 = 10.0;

    fn degenerate_floor(mean: f32) -> f32 {
        Self::MIN_STD + Self::MIN_REL_STD * mean.abs()
    }

    /// Fits the normalizer on a set of metric rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn fit(rows: &[MetricVec]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a normalizer on no data");
        let mut accs = [OnlineStats::new(); METRIC_COUNT];
        for row in rows {
            for m in Metric::ALL {
                accs[m.index()].push(row.get(m));
            }
        }
        let mut mean = [0.0; METRIC_COUNT];
        let mut std = [0.0; METRIC_COUNT];
        for m in Metric::ALL {
            mean[m.index()] = accs[m.index()].mean();
            std[m.index()] = accs[m.index()].std_dev();
        }
        Self { mean, std }
    }

    /// Rebuilds a normalizer from persisted per-metric statistics, each
    /// array in canonical metric order — exactly the values
    /// [`Normalizer::mean`] / [`Normalizer::std`] report.
    pub fn from_parts(mean: [f32; METRIC_COUNT], std: [f32; METRIC_COUNT]) -> Self {
        Self { mean, std }
    }

    /// Fits on every row of a collection of windows.
    ///
    /// # Panics
    ///
    /// Panics if there are no rows in total.
    pub fn fit_windows<'a>(windows: impl IntoIterator<Item = &'a [MetricVec]>) -> Self {
        let rows: Vec<MetricVec> = windows.into_iter().flatten().copied().collect();
        Self::fit(&rows)
    }

    /// Mean for `metric`.
    pub fn mean(&self, metric: Metric) -> f32 {
        self.mean[metric.index()]
    }

    /// Standard deviation for `metric`.
    pub fn std(&self, metric: Metric) -> f32 {
        self.std[metric.index()]
    }

    /// Normalizes one metric row.
    pub fn normalize(&self, row: &MetricVec) -> MetricVec {
        let mut out = MetricVec::zero();
        for m in Metric::ALL {
            let mean = self.mean[m.index()];
            let s = self.std[m.index()];
            let v = if s < Self::degenerate_floor(mean) {
                0.0
            } else {
                ((row.get(m) - mean) / s).clamp(-Self::MAX_Z, Self::MAX_Z)
            };
            out.set(m, v);
        }
        out
    }

    /// Inverts [`Normalizer::normalize`].
    pub fn denormalize(&self, row: &MetricVec) -> MetricVec {
        let mut out = MetricVec::zero();
        for m in Metric::ALL {
            let mean = self.mean[m.index()];
            let s = self.std[m.index()];
            let v = if s < Self::degenerate_floor(mean) {
                // Degenerate metric: the normalized value was forced to
                // zero, so the best reconstruction is the mean.
                mean
            } else {
                row.get(m) * s + mean
            };
            out.set(m, v);
        }
        out
    }

    /// Normalizes a whole window.
    pub fn normalize_window(&self, rows: &[MetricVec]) -> Vec<MetricVec> {
        rows.iter().map(|r| self.normalize(r)).collect()
    }
}

/// A z-score normalizer for a scalar target (e.g. log execution time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarNormalizer {
    mean: f32,
    std: f32,
}

impl ScalarNormalizer {
    /// Rebuilds a normalizer from persisted statistics.
    ///
    /// # Panics
    ///
    /// Panics if `std` is not strictly positive.
    pub fn from_parts(mean: f32, std: f32) -> Self {
        assert!(std > 0.0, "std must be positive");
        Self { mean, std }
    }

    /// The fitted mean.
    pub fn mean(&self) -> f32 {
        self.mean
    }

    /// The fitted standard deviation.
    pub fn std(&self) -> f32 {
        self.std
    }

    /// Fits on scalar samples.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn fit(values: &[f32]) -> Self {
        assert!(!values.is_empty(), "cannot fit on no data");
        let mean = adrias_telemetry::stats::mean(values);
        let std = adrias_telemetry::stats::std_dev(values).max(Normalizer::MIN_STD);
        Self { mean, std }
    }

    /// Normalizes a value.
    pub fn normalize(&self, v: f32) -> f32 {
        (v - self.mean) / self.std
    }

    /// Inverts normalization.
    pub fn denormalize(&self, z: f32) -> f32 {
        z * self.std + self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(load: f32, lat: f32) -> MetricVec {
        let mut v = MetricVec::zero();
        v.set(Metric::LlcLoads, load);
        v.set(Metric::LinkLatency, lat);
        v
    }

    #[test]
    fn normalized_data_has_zero_mean_unit_std() {
        let rows: Vec<MetricVec> = (0..100).map(|i| row(i as f32, 350.0 + i as f32)).collect();
        let norm = Normalizer::fit(&rows);
        let z: Vec<f32> = rows
            .iter()
            .map(|r| norm.normalize(r).get(Metric::LlcLoads))
            .collect();
        assert!(adrias_telemetry::stats::mean(&z).abs() < 1e-4);
        assert!((adrias_telemetry::stats::std_dev(&z) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn constant_metric_normalizes_to_zero() {
        let rows: Vec<MetricVec> = (0..10).map(|_| row(5.0, 350.0)).collect();
        let norm = Normalizer::fit(&rows);
        let z = norm.normalize(&rows[0]);
        assert_eq!(z.get(Metric::LlcLoads), 0.0);
        assert_eq!(z.get(Metric::MemStores), 0.0);
    }

    #[test]
    fn round_trip_for_varying_metric() {
        let rows: Vec<MetricVec> = (0..20).map(|i| row(i as f32 * 3.0, 350.0)).collect();
        let norm = Normalizer::fit(&rows);
        let back = norm.denormalize(&norm.normalize(&rows[7]));
        assert!((back.get(Metric::LlcLoads) - 21.0).abs() < 1e-3);
    }

    #[test]
    fn fit_windows_flattens() {
        let w1 = vec![row(1.0, 350.0), row(3.0, 350.0)];
        let w2 = vec![row(5.0, 350.0)];
        let norm = Normalizer::fit_windows([w1.as_slice(), w2.as_slice()]);
        assert!((norm.mean(Metric::LlcLoads) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn scalar_normalizer_round_trips() {
        let n = ScalarNormalizer::fit(&[10.0, 20.0, 30.0]);
        assert!((n.denormalize(n.normalize(25.0)) - 25.0).abs() < 1e-4);
        assert!(n.normalize(20.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn fit_on_empty_panics() {
        let _ = Normalizer::fit(&[]);
    }
}
