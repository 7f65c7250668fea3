//! The Watcher: Adrias' monitoring front-end.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{MetricSample, MetricVec};
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

/// The monitoring component of Adrias (§V-A).
///
/// A `Watcher` ingests one [`MetricSample`] per second from the testbed
/// and retains the most recent `capacity` of them, exposing:
///
/// * [`Watcher::history_fill`] — the feature matrix `S` handed to the
///   system-state model (history length `r`, 120 s in the paper), one
///   row per second oldest first, copied into a buffer the caller
///   reuses, with the [`WindowStamp`] that names it, and
/// * [`Watcher::latest`] — the newest sample.
///
/// # Examples
///
/// ```
/// use adrias_telemetry::{MetricSample, Watcher};
///
/// let mut w = Watcher::new(120);
/// let mut rows = Vec::new();
/// for t in 0..120 {
///     w.record(MetricSample::zero(t as f64));
/// }
/// assert_eq!(w.history_fill(120, &mut rows), Some(w.stamp()));
/// assert_eq!(rows.len(), 120);
/// assert!(w.history_fill(121, &mut rows).is_none());
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

    /// The history window `S`: copies the last `r` rows (oldest first)
    /// into `out`, replacing its contents without allocating once `out`
    /// has capacity `r`, and returns the current [`WindowStamp`].
    /// Returns `None` — leaving `out` untouched — until at least `r`
    /// samples are recorded, and always for `r = 0`: a zero window is no
    /// window, so a decision handed it takes the warm-up rule rather
    /// than an empty matrix.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    fn sample(t: f64, load: f32) -> MetricSample {
        let mut s = MetricSample::zero(t);
        s.set(Metric::LlcLoads, load);
        s.set(Metric::LinkLatency, 350.0);
        s
    }

    #[test]
    fn window_unavailable_until_filled() {
        let mut w = Watcher::new(10);
        let mut buf = Vec::new();
        for t in 0..5 {
            w.record(sample(t as f64, t as f32));
        }
        assert!(w.history_fill(6, &mut buf).is_none());
        assert!(w.history_fill(5, &mut buf).is_some());
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn window_rows_are_oldest_first() {
        let mut w = Watcher::new(4);
        let mut buf = Vec::new();
        for t in 0..8 {
            w.record(sample(t as f64, t as f32));
        }
        w.history_fill(4, &mut buf).expect("window available");
        let col: Vec<f32> = buf.iter().map(|r| r.get(Metric::LlcLoads)).collect();
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
    fn history_fill_replaces_the_buffer_or_leaves_it() {
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
        let loads = |buf: &[MetricVec]| -> Vec<f32> {
            buf.iter().map(|r| r.get(Metric::LlcLoads)).collect()
        };
        assert_eq!(loads(&buf), vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(buf[0].get(Metric::LinkLatency), 350.0);
        // Refilling with a shorter window replaces the contents.
        w.history_fill(2, &mut buf).expect("window available");
        assert_eq!(loads(&buf), vec![7.0, 8.0]);
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
}
