//! The Watcher: Adrias' monitoring front-end.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{Metric, MetricSample, MetricVec, METRIC_COUNT};
use crate::series::MetricRing;

/// Process-wide counter handing every [`Watcher`] a distinct source id,
/// so stamps from different Watchers (or a cloned Watcher that then
/// diverges) never compare equal.
static NEXT_SOURCE: AtomicU64 = AtomicU64::new(1);

/// Identity of one Watcher history-window state.
///
/// A stamp is `(source, version)`: `source` names the Watcher instance
/// and `version` counts its [`Watcher::record`] calls. Two equal stamps
/// therefore guarantee the underlying window contents are identical,
/// which is what lets the orchestrator memoise its system-state
/// forecast — the cache key is the stamp, and any new sample (or a
/// different Watcher) produces a different stamp, invalidating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowStamp {
    /// Watcher instance id (process-unique).
    pub source: u64,
    /// Monotonic count of samples recorded by that Watcher.
    pub version: u64,
}

/// A fixed-length history window of the system state.
///
/// This is the two-dimensional feature vector `S` from the paper: one row
/// per sampling instant (1 Hz), one column per monitored metric, oldest
/// row first.
#[derive(Debug, Clone, PartialEq)]
pub struct StateWindow {
    rows: Vec<MetricVec>,
}

impl StateWindow {
    /// Creates a window from rows ordered oldest-first.
    pub fn new(rows: Vec<MetricVec>) -> Self {
        Self { rows }
    }

    /// Number of sampling instants in the window.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the window holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows ordered oldest-first.
    pub fn rows(&self) -> &[MetricVec] {
        &self.rows
    }

    /// Per-metric mean over the window.
    pub fn mean_vec(&self) -> MetricVec {
        if self.rows.is_empty() {
            return MetricVec::zero();
        }
        let mut acc = [0.0f64; METRIC_COUNT];
        for row in &self.rows {
            for m in Metric::ALL {
                acc[m.index()] += f64::from(row.get(m));
            }
        }
        let mut out = MetricVec::zero();
        for m in Metric::ALL {
            out.set(m, (acc[m.index()] / self.rows.len() as f64) as f32);
        }
        out
    }

    /// The column of values for one metric, oldest first.
    pub fn column(&self, metric: Metric) -> Vec<f32> {
        self.rows.iter().map(|r| r.get(metric)).collect()
    }

    /// Downsamples the window by averaging consecutive groups of `factor`
    /// rows; a trailing partial group is averaged as well.
    ///
    /// The predictor feeds 120 s windows to its LSTMs at a coarser step to
    /// keep sequence lengths manageable.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn downsample(&self, factor: usize) -> StateWindow {
        assert!(factor > 0, "downsample factor must be non-zero");
        let rows = self
            .rows
            .chunks(factor)
            .map(|chunk| {
                let mut acc = MetricVec::zero();
                for r in chunk {
                    acc = acc.add(r);
                }
                acc.scale(1.0 / chunk.len() as f32)
            })
            .collect();
        StateWindow { rows }
    }
}

/// The monitoring component of Adrias (§V-A).
///
/// A `Watcher` ingests one [`MetricSample`] per second from the testbed
/// and retains the most recent `capacity` of them, exposing:
///
/// * [`Watcher::history_window`] — the feature matrix `S` handed to the
///   system-state model (history length `r`, 120 s in the paper), and
/// * [`Watcher::latest`] / [`Watcher::mean_over_last`] — point queries
///   used by the orchestration logic and the evaluation harness.
///
/// # Examples
///
/// ```
/// use adrias_telemetry::{Metric, MetricSample, Watcher};
///
/// let mut w = Watcher::new(120);
/// for t in 0..120 {
///     w.record(MetricSample::zero(t as f64));
/// }
/// assert!(w.history_window(120).is_some());
/// assert!(w.history_window(121).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Watcher {
    ring: MetricRing,
    source: u64,
    version: u64,
}

impl Watcher {
    /// Creates a Watcher retaining at most `capacity` 1 Hz samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: MetricRing::new(capacity),
            source: NEXT_SOURCE.fetch_add(1, Ordering::Relaxed),
            version: 0,
        }
    }

    /// Ingests one sample (call once per simulated second).
    pub fn record(&mut self, sample: MetricSample) {
        self.ring.push(sample);
        self.version += 1;
    }

    /// The stamp identifying the current window state (see
    /// [`WindowStamp`]). Changes on every [`Watcher::record`] call.
    pub fn stamp(&self) -> WindowStamp {
        WindowStamp {
            source: self.source,
            version: self.version,
        }
    }

    /// The stamp [`Watcher::history_fill`] would return for a window of
    /// `r` rows, without copying them: `Some` exactly when `r > 0` and
    /// at least `r` samples are recorded. A caller that kept the rows of
    /// an earlier fill refills only when this differs from the stamp it
    /// kept.
    pub fn window_stamp(&self, r: usize) -> Option<WindowStamp> {
        (r > 0 && self.ring.len() >= r).then(|| self.stamp())
    }

    /// Allocation-free [`Watcher::history_window`]: copies the last `r`
    /// rows (oldest first) into `out`, replacing its contents, and
    /// returns the current [`WindowStamp`]. Returns `None` — leaving
    /// `out` untouched — until at least `r` samples are recorded, and
    /// always for `r = 0`: a zero window is no window, so a decision
    /// handed it takes the warm-up rule rather than an empty matrix.
    pub fn history_fill(&self, r: usize, out: &mut Vec<MetricVec>) -> Option<WindowStamp> {
        if r > 0 && self.ring.last_n_rows_into(r, out) {
            Some(self.stamp())
        } else {
            None
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<&MetricSample> {
        self.ring.latest()
    }

    /// The last `r` samples as a [`StateWindow`], oldest-first.
    ///
    /// Returns `None` until at least `r` samples have been recorded, i.e.
    /// the orchestrator falls back to a default policy during warm-up.
    pub fn history_window(&self, r: usize) -> Option<StateWindow> {
        let samples = self.ring.last_n(r)?;
        Some(StateWindow::new(
            samples.into_iter().map(|s| *s.vec()).collect(),
        ))
    }

    /// Per-metric mean over the last `n` samples (or `None` if fewer).
    pub fn mean_over_last(&self, n: usize) -> Option<MetricVec> {
        let samples = self.ring.last_n(n)?;
        let window = StateWindow::new(samples.into_iter().map(|s| *s.vec()).collect());
        Some(window.mean_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, load: f32) -> MetricSample {
        let mut s = MetricSample::zero(t);
        s.set(Metric::LlcLoads, load);
        s.set(Metric::LinkLatency, 350.0);
        s
    }

    #[test]
    fn window_unavailable_until_filled() {
        let mut w = Watcher::new(10);
        for t in 0..5 {
            w.record(sample(t as f64, t as f32));
        }
        assert!(w.history_window(6).is_none());
        assert_eq!(w.history_window(5).unwrap().len(), 5);
    }

    #[test]
    fn window_rows_are_oldest_first() {
        let mut w = Watcher::new(4);
        for t in 0..8 {
            w.record(sample(t as f64, t as f32));
        }
        let win = w.history_window(4).unwrap();
        let col = win.column(Metric::LlcLoads);
        assert_eq!(col, vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn stamp_changes_per_record_and_per_watcher() {
        let mut a = Watcher::new(4);
        let mut b = Watcher::new(4);
        assert_ne!(a.stamp(), b.stamp(), "distinct Watchers share a stamp");
        let s0 = a.stamp();
        a.record(sample(0.0, 1.0));
        let s1 = a.stamp();
        assert_ne!(s0, s1, "recording must change the stamp");
        assert_eq!(s1, a.stamp(), "stamp is stable between records");
        b.record(sample(0.0, 1.0));
        assert_ne!(a.stamp(), b.stamp());
        // A clone shares the stamp until either side diverges.
        let mut c = a.clone();
        assert_eq!(c.stamp(), a.stamp());
        c.record(sample(1.0, 2.0));
        assert_ne!(c.stamp(), a.stamp());
    }

    #[test]
    fn history_fill_matches_history_window() {
        let mut w = Watcher::new(6);
        let mut buf = Vec::new();
        assert!(w.history_fill(1, &mut buf).is_none());
        assert!(w.window_stamp(1).is_none());
        for t in 0..9 {
            w.record(sample(t as f64, t as f32));
        }
        let stamp = w.history_fill(4, &mut buf).expect("window available");
        assert_eq!(stamp, w.stamp());
        assert_eq!(w.window_stamp(4), Some(stamp));
        assert_eq!(buf, w.history_window(4).unwrap().rows());
        // Refilling with a shorter window replaces the contents.
        w.history_fill(2, &mut buf).expect("window available");
        assert_eq!(buf, w.history_window(2).unwrap().rows());
        assert!(w.history_fill(7, &mut buf).is_none());
        assert!(
            w.window_stamp(7).is_none(),
            "Some exactly when a fill succeeds"
        );
        assert_eq!(buf.len(), 2, "failed fill must leave the buffer alone");
    }

    #[test]
    fn a_zero_window_is_no_window() {
        let mut w = Watcher::new(4);
        let mut buf = vec![MetricVec::zero()];
        for t in 0..3 {
            assert_eq!(w.window_stamp(0), None);
            assert_eq!(w.history_fill(0, &mut buf), None);
            w.record(sample(t as f64, 1.0));
        }
        assert_eq!(buf.len(), 1, "failed fill must leave the buffer alone");
    }

    #[test]
    fn mean_over_last_matches_window_mean() {
        let mut w = Watcher::new(8);
        for t in 0..8 {
            w.record(sample(t as f64, t as f32));
        }
        let mean = w.mean_over_last(4).unwrap();
        assert_eq!(mean.get(Metric::LlcLoads), 5.5);
        assert_eq!(mean.get(Metric::LinkLatency), 350.0);
    }

    #[test]
    fn downsample_averages_groups() {
        let rows = (0..6)
            .map(|i| {
                let mut v = MetricVec::zero();
                v.set(Metric::MemLoads, i as f32);
                v
            })
            .collect();
        let win = StateWindow::new(rows);
        let ds = win.downsample(2);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.column(Metric::MemLoads), vec![0.5, 2.5, 4.5]);
    }

    #[test]
    fn downsample_handles_partial_tail() {
        let rows = (0..5)
            .map(|i| {
                let mut v = MetricVec::zero();
                v.set(Metric::MemLoads, i as f32);
                v
            })
            .collect();
        let ds = StateWindow::new(rows).downsample(2);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.column(Metric::MemLoads), vec![0.5, 2.5, 4.0]);
    }

    #[test]
    fn empty_window_mean_is_zero() {
        let win = StateWindow::new(Vec::new());
        assert!(win.is_empty());
        assert_eq!(win.mean_vec(), MetricVec::zero());
    }

    #[test]
    fn empty_window_downsample_and_column_are_empty() {
        let win = StateWindow::new(Vec::new());
        assert!(win.downsample(3).is_empty());
        assert!(win.column(Metric::LlcLoads).is_empty());
    }

    #[test]
    fn single_row_window_is_its_own_mean() {
        let mut v = MetricVec::zero();
        v.set(Metric::MemStores, 7.5);
        v.set(Metric::LinkLatency, 410.0);
        let win = StateWindow::new(vec![v]);
        assert_eq!(win.len(), 1);
        assert_eq!(win.mean_vec(), v);
        // Downsampling by more than the length collapses to one row.
        let ds = win.downsample(10);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.rows()[0], v);
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let rows: Vec<MetricVec> = (0..4)
            .map(|i| {
                let mut v = MetricVec::zero();
                v.set(Metric::LinkFlitsTx, i as f32);
                v
            })
            .collect();
        let win = StateWindow::new(rows.clone());
        assert_eq!(win.downsample(1).rows(), &rows[..]);
    }

    #[test]
    #[should_panic(expected = "factor must be non-zero")]
    fn downsample_zero_factor_panics() {
        let _ = StateWindow::new(Vec::new()).downsample(0);
    }

    #[test]
    fn window_of_zero_rows_is_always_available() {
        // `r = 0` is a degenerate but legal request: an empty window.
        let w = Watcher::new(4);
        let win = w.history_window(0).expect("zero-length window");
        assert!(win.is_empty());
        assert_eq!(w.mean_over_last(0).unwrap(), MetricVec::zero());
    }

    #[test]
    fn mean_is_stable_for_large_magnitudes() {
        // Accumulation runs in f64, so summing many large f32 counters
        // (LLC loads sit near 1e8 per second) must not lose the small
        // per-row variation.
        let mut w = Watcher::new(2048);
        for t in 0..2048 {
            w.record(sample(t as f64, 1e8 + t as f32));
        }
        let mean = w.mean_over_last(2048).unwrap().get(Metric::LlcLoads);
        let expected = 1e8 + (2047.0 / 2.0);
        assert!(
            (f64::from(mean) - expected).abs() < 64.0,
            "mean drifted: {mean} vs {expected}"
        );
    }
}
