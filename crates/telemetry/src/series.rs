//! Time-series storage for Watcher samples.

use crate::metrics::{Metric, MetricSample, MetricVec, METRIC_COUNT};

/// A growable scalar time series sampled at a fixed cadence.
///
/// Used for collected traces (training data, figure series). For the
/// bounded on-line history kept by the Watcher see [`MetricRing`].
///
/// # Examples
///
/// ```
/// use adrias_telemetry::TimeSeries;
///
/// let mut ts = TimeSeries::new(1.0);
/// ts.push(3.0);
/// ts.push(5.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.mean(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    cadence: f64,
    values: Vec<f32>,
}

impl TimeSeries {
    /// Creates an empty series sampled every `cadence` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is not strictly positive.
    pub fn new(cadence: f64) -> Self {
        assert!(cadence > 0.0, "cadence must be positive, got {cadence}");
        Self {
            cadence,
            values: Vec::new(),
        }
    }

    /// Sampling cadence in seconds.
    pub fn cadence(&self) -> f64 {
        self.cadence
    }

    /// Appends one sample.
    pub fn push(&mut self, value: f32) {
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All samples, oldest first.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The samples in `[start, end)` expressed in seconds.
    ///
    /// Returns an empty slice when the range lies outside the series.
    #[cfg(test)]
    pub fn slice_seconds(&self, start: f64, end: f64) -> &[f32] {
        let lo = ((start / self.cadence).floor().max(0.0) as usize).min(self.values.len());
        let hi = ((end / self.cadence).ceil().max(0.0) as usize).min(self.values.len());
        &self.values[lo..hi.max(lo)]
    }

    /// Arithmetic mean of all samples; `0.0` for an empty series.
    pub fn mean(&self) -> f32 {
        crate::stats::mean(&self.values)
    }
}

impl Extend<f32> for TimeSeries {
    fn extend<T: IntoIterator<Item = f32>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

/// A bounded ring buffer of [`MetricSample`]s — the Watcher's history.
///
/// Keeps the most recent `capacity` samples (the paper uses a 120 s
/// history at 1 Hz). Pushing beyond capacity evicts the oldest sample.
///
/// # Examples
///
/// ```
/// use adrias_telemetry::{MetricRing, MetricSample};
///
/// let mut ring = MetricRing::new(3);
/// for t in 0..5 {
///     ring.push(MetricSample::zero(t as f64));
/// }
/// assert_eq!(ring.len(), 3);
/// assert_eq!(ring.iter().next().unwrap().time(), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct MetricRing {
    capacity: usize,
    buf: Vec<MetricSample>,
    head: usize,
}

impl MetricRing {
    /// Creates a ring holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        Self {
            capacity,
            buf: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a sample, evicting the oldest if the ring is full.
    pub fn push(&mut self, sample: MetricSample) {
        if self.buf.len() < self.capacity {
            self.buf.push(sample);
        } else {
            self.buf[self.head] = sample;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Iterates over retained samples from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &MetricSample> + '_ {
        let (older, newer) = self.buf.split_at(self.head);
        newer.iter().chain(older.iter())
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<&MetricSample> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < self.capacity {
            self.buf.last()
        } else {
            let idx = (self.head + self.capacity - 1) % self.capacity;
            Some(&self.buf[idx])
        }
    }

    /// Copies the metric rows of the newest `n` samples into `out`
    /// (oldest first), replacing its contents. Returns `false` (leaving
    /// `out` untouched) if fewer than `n` samples are retained.
    ///
    /// Allocation-free once `out` has capacity `n` — the decision fast
    /// lane reuses one buffer across calls instead of materializing a
    /// fresh window per decision.
    pub fn last_n_rows_into(&self, n: usize, out: &mut Vec<MetricVec>) -> bool {
        if self.buf.len() < n {
            return false;
        }
        out.clear();
        out.extend(self.iter().skip(self.buf.len() - n).map(|s| *s.vec()));
        true
    }

    /// Per-metric mean over every retained sample.
    pub fn mean_vec(&self) -> MetricVec {
        if self.buf.is_empty() {
            return MetricVec::zero();
        }
        let mut acc = [0.0f64; METRIC_COUNT];
        for s in self.buf.iter() {
            for m in Metric::ALL {
                acc[m.index()] += f64::from(s.get(m));
            }
        }
        let n = self.buf.len() as f64;
        let mut out = MetricVec::zero();
        for m in Metric::ALL {
            out.set(m, (acc[m.index()] / n) as f32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, v: f32) -> MetricSample {
        let mut s = MetricSample::zero(t);
        s.set(Metric::LlcLoads, v);
        s
    }

    #[test]
    fn series_slice_seconds_selects_samples() {
        let mut ts = TimeSeries::new(1.0);
        ts.extend((0..10).map(|i| i as f32));
        assert_eq!(ts.slice_seconds(2.0, 5.0), &[2.0, 3.0, 4.0]);
        assert!(ts.slice_seconds(20.0, 30.0).is_empty());
    }

    #[test]
    fn series_slice_handles_non_unit_cadence() {
        let mut ts = TimeSeries::new(2.0);
        ts.extend([0.0, 1.0, 2.0, 3.0]);
        // [2s, 6s) covers sample indices 1 and 2.
        assert_eq!(ts.slice_seconds(2.0, 6.0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn series_rejects_zero_cadence() {
        let _ = TimeSeries::new(0.0);
    }

    #[test]
    fn ring_keeps_only_newest_samples() {
        let mut ring = MetricRing::new(4);
        for t in 0..10 {
            ring.push(sample(t as f64, t as f32));
        }
        let times: Vec<f64> = ring.iter().map(|s| s.time()).collect();
        assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(ring.latest().unwrap().time(), 9.0);
    }

    #[test]
    fn ring_latest_before_wraparound() {
        let mut ring = MetricRing::new(4);
        ring.push(sample(0.0, 0.0));
        ring.push(sample(1.0, 1.0));
        assert_eq!(ring.latest().unwrap().time(), 1.0);
        assert!(ring.len() < ring.capacity());
    }

    #[test]
    fn ring_last_n_returns_newest_in_order() {
        let mut ring = MetricRing::new(5);
        for t in 0..7 {
            ring.push(sample(t as f64, t as f32));
        }
        let mut last3 = Vec::new();
        assert!(ring.last_n_rows_into(3, &mut last3));
        let loads: Vec<f32> = last3.iter().map(|r| r.get(Metric::LlcLoads)).collect();
        assert_eq!(loads, vec![4.0, 5.0, 6.0]);
        assert!(!ring.last_n_rows_into(6, &mut last3));
        assert_eq!(last3.len(), 3, "a failed copy leaves the buffer alone");
    }

    #[test]
    fn ring_mean_vec_averages_per_metric() {
        let mut ring = MetricRing::new(8);
        ring.push(sample(0.0, 2.0));
        ring.push(sample(1.0, 4.0));
        let mean = ring.mean_vec();
        assert_eq!(mean.get(Metric::LlcLoads), 3.0);
        assert_eq!(mean.get(Metric::MemStores), 0.0);
    }

    #[test]
    fn empty_ring_reports_empty() {
        let ring = MetricRing::new(2);
        assert!(ring.is_empty());
        assert!(ring.latest().is_none());
        assert_eq!(ring.mean_vec(), MetricVec::zero());
    }
}
