//! SLO burn-rate monitor: rolling multi-window QoS-violation rates.
//!
//! A single QoS violation is noise; a *rate* of violations is an
//! incident. The monitor watches every latency-critical completion and
//! maintains, per rolling window (60 s and 300 s by default, the
//! classic fast/slow burn pair), the fraction of completions whose p99
//! exceeded the QoS target. When a violating completion pushes a
//! window's rate to or above the alert threshold, one typed
//! [`BurnEvent`] fires (edge-triggered: the window must cool below the
//! threshold before it can alert again).
//!
//! Everything is computed from sim-clock completion instants and
//! integer counts, so the emitted events — exported as `slo_burn`
//! instants in the trace and surfaced in the report — are bitwise
//! deterministic across decision lanes and worker counts.

use std::collections::VecDeque;

/// Configuration for [`SloBurnMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnConfig {
    /// Rolling window lengths, seconds (fast, slow).
    pub windows_s: [f64; 2],
    /// Violation-rate threshold in `[0, 1]` at which a window alerts.
    pub threshold: f64,
    /// Minimum completions in a window before it may alert (guards the
    /// first-sample `1/1 = 100 %` degenerate rate).
    pub min_samples: u64,
}

impl Default for BurnConfig {
    fn default() -> Self {
        Self {
            windows_s: [60.0, 300.0],
            threshold: 0.5,
            min_samples: 4,
        }
    }
}

/// One burn alert: a window crossed the violation-rate threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnEvent {
    /// Completion instant that triggered the alert, sim seconds.
    pub at_s: f64,
    /// The window that crossed, seconds.
    pub window_s: f64,
    /// Violation rate in the window at trigger time.
    pub rate: f64,
    /// Violating completions in the window.
    pub violations: u64,
    /// Total LC completions in the window.
    pub total: u64,
}

#[derive(Debug, Clone)]
struct Window {
    window_s: f64,
    /// `(finished_s, violated)` per LC completion still inside the
    /// window.
    events: VecDeque<(f64, bool)>,
    violations: u64,
    alerting: bool,
}

impl Window {
    fn observe(&mut self, at_s: f64, violated: bool, cfg: &BurnConfig) -> Option<BurnEvent> {
        self.events.push_back((at_s, violated));
        if violated {
            self.violations += 1;
        }
        while let Some(&(t, v)) = self.events.front() {
            if t >= at_s - self.window_s {
                break;
            }
            self.events.pop_front();
            if v {
                self.violations -= 1;
            }
        }
        let total = self.events.len() as u64;
        let rate = self.violations as f64 / total as f64;
        if rate >= cfg.threshold && total >= cfg.min_samples {
            if !self.alerting && violated {
                self.alerting = true;
                return Some(BurnEvent {
                    at_s,
                    window_s: self.window_s,
                    rate,
                    violations: self.violations,
                    total,
                });
            }
        } else {
            self.alerting = false;
        }
        None
    }

    fn rate(&self) -> f64 {
        if self.events.is_empty() {
            0.0
        } else {
            self.violations as f64 / self.events.len() as f64
        }
    }
}

/// Rolling multi-window QoS burn-rate monitor over LC completions.
///
/// # Examples
///
/// ```
/// use adrias_obs::burn::{BurnConfig, SloBurnMonitor};
///
/// let mut m = SloBurnMonitor::new(5.0, BurnConfig::default());
/// let mut alerts = Vec::new();
/// for i in 0..8 {
///     alerts.extend(m.observe(i as f64, 9.0)); // every p99 violates
/// }
/// assert!(!alerts.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SloBurnMonitor {
    qos_p99_ms: f32,
    cfg: BurnConfig,
    windows: Vec<Window>,
}

impl SloBurnMonitor {
    /// Creates a monitor against the given QoS p99 target.
    pub fn new(qos_p99_ms: f32, cfg: BurnConfig) -> Self {
        let windows = cfg
            .windows_s
            .iter()
            .map(|&window_s| Window {
                window_s,
                events: VecDeque::new(),
                violations: 0,
                alerting: false,
            })
            .collect();
        Self {
            qos_p99_ms,
            cfg,
            windows,
        }
    }

    /// The QoS target the monitor compares against, milliseconds.
    pub fn qos_p99_ms(&self) -> f32 {
        self.qos_p99_ms
    }

    /// Feeds one LC completion (`p99_ms` realized) at `at_s`. Returns
    /// the burn events triggered, in window order.
    pub fn observe(&mut self, at_s: f64, p99_ms: f32) -> Vec<BurnEvent> {
        let violated = p99_ms > self.qos_p99_ms;
        let cfg = self.cfg;
        self.windows
            .iter_mut()
            .filter_map(|w| w.observe(at_s, violated, &cfg))
            .collect()
    }

    /// Current violation rate per window, `(window_s, rate)` pairs.
    pub fn rates(&self) -> Vec<(f64, f64)> {
        self.windows
            .iter()
            .map(|w| (w.window_s, w.rate()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> SloBurnMonitor {
        SloBurnMonitor::new(5.0, BurnConfig::default())
    }

    #[test]
    fn clean_completions_never_alert() {
        let mut m = monitor();
        for i in 0..100 {
            assert!(m.observe(i as f64, 1.0).is_empty());
        }
        assert!(m.rates().iter().all(|&(_, r)| r == 0.0));
    }

    #[test]
    fn sustained_violations_alert_once_per_window_edge() {
        let mut m = monitor();
        let mut events = Vec::new();
        for i in 0..10 {
            events.extend(m.observe(i as f64, 9.0));
        }
        // Both windows fire exactly once (edge-triggered).
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].window_s, 60.0);
        assert_eq!(events[1].window_s, 300.0);
        assert!(events.iter().all(|e| e.rate >= 0.5));
        // Still violating: no re-alerts while hot.
        assert!(m.observe(10.0, 9.0).is_empty());
    }

    #[test]
    fn window_cools_and_can_realert() {
        let cfg = BurnConfig {
            windows_s: [10.0, 300.0],
            ..BurnConfig::default()
        };
        let mut m = SloBurnMonitor::new(5.0, cfg);
        let mut first = Vec::new();
        for i in 0..5 {
            first.extend(m.observe(i as f64, 9.0));
        }
        assert!(first.iter().any(|e| e.window_s == 10.0));
        // A long clean stretch ages the violations out of the fast
        // window and drops its rate below threshold.
        for i in 5..30 {
            assert!(m.observe(i as f64, 1.0).is_empty());
        }
        let fast_rate = m.rates()[0].1;
        assert!(fast_rate < 0.5, "fast window still hot: {fast_rate}");
        // A fresh burst re-alerts the fast window.
        let mut again = Vec::new();
        for i in 30..40 {
            again.extend(m.observe(i as f64, 9.0));
        }
        assert!(again.iter().any(|e| e.window_s == 10.0));
    }

    #[test]
    fn min_samples_guards_the_first_violation() {
        let mut m = monitor();
        // 1/1 and 2/2 are 100 % rates but below min_samples.
        assert!(m.observe(0.0, 9.0).is_empty());
        assert!(m.observe(1.0, 9.0).is_empty());
        assert!(m.observe(2.0, 9.0).is_empty());
        // The 4th sample reaches min_samples and alerts.
        assert_eq!(m.observe(3.0, 9.0).len(), 2);
    }

    #[test]
    fn boundary_p99_equal_to_target_is_not_a_violation() {
        let mut m = monitor();
        for i in 0..20 {
            assert!(m.observe(i as f64, 5.0).is_empty());
        }
    }
}
