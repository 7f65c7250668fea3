//! The performance events monitored by the Watcher.
//!
//! The paper (§V-A) monitors seven low-level events that describe the data
//! flowing through the memory hierarchy of the borrower node and through
//! the ThymesisFlow communication channel.

use std::fmt;
use std::str::FromStr;

/// Number of monitored performance events.
pub const METRIC_COUNT: usize = 7;

/// A low-level performance event monitored by the Watcher.
///
/// These are the seven events of §V-A / Table I of the paper: chip-level
/// cache events, local-DRAM controller events and ThymesisFlow link
/// events (flits are 32-byte units).
///
/// # Examples
///
/// ```
/// use adrias_telemetry::Metric;
///
/// assert_eq!(Metric::ALL.len(), 7);
/// assert_eq!(Metric::LinkLatency.index(), 6);
/// assert_eq!("RMT_lat".parse::<Metric>().unwrap(), Metric::LinkLatency);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Last-level cache loads (`LLC_ld`).
    LlcLoads,
    /// Last-level cache misses (`LLC_mis`).
    LlcMisses,
    /// Local DRAM memory loads (`MEM_ld`).
    MemLoads,
    /// Local DRAM memory stores (`MEM_st`).
    MemStores,
    /// 32-byte flits transmitted on the ThymesisFlow link (`RMT_tx`).
    LinkFlitsTx,
    /// 32-byte flits received on the ThymesisFlow link (`RMT_rx`).
    LinkFlitsRx,
    /// Average latency on the ThymesisFlow channel, in cycles (`RMT_lat`).
    LinkLatency,
}

impl Metric {
    /// All monitored metrics, in canonical (feature-vector) order.
    pub const ALL: [Metric; METRIC_COUNT] = [
        Metric::LlcLoads,
        Metric::LlcMisses,
        Metric::MemLoads,
        Metric::MemStores,
        Metric::LinkFlitsTx,
        Metric::LinkFlitsRx,
        Metric::LinkLatency,
    ];

    /// Position of this metric in the canonical feature-vector order.
    pub fn index(self) -> usize {
        match self {
            Metric::LlcLoads => 0,
            Metric::LlcMisses => 1,
            Metric::MemLoads => 2,
            Metric::MemStores => 3,
            Metric::LinkFlitsTx => 4,
            Metric::LinkFlitsRx => 5,
            Metric::LinkLatency => 6,
        }
    }

    /// Short name used in the paper's tables (e.g. `LLC_ld`).
    pub fn short_name(self) -> &'static str {
        match self {
            Metric::LlcLoads => "LLC_ld",
            Metric::LlcMisses => "LLC_mis",
            Metric::MemLoads => "MEM_ld",
            Metric::MemStores => "MEM_st",
            Metric::LinkFlitsTx => "RMT_tx",
            Metric::LinkFlitsRx => "RMT_rx",
            Metric::LinkLatency => "RMT_lat",
        }
    }

    /// Whether this metric describes the remote (ThymesisFlow) channel.
    #[cfg(test)]
    pub fn is_link_metric(self) -> bool {
        matches!(
            self,
            Metric::LinkFlitsTx | Metric::LinkFlitsRx | Metric::LinkLatency
        )
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Error returned when parsing a [`Metric`] from an unknown name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMetricError {
    name: String,
}

impl fmt::Display for ParseMetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown metric name `{}`", self.name)
    }
}

impl std::error::Error for ParseMetricError {}

impl FromStr for Metric {
    type Err = ParseMetricError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Metric::ALL
            .iter()
            .copied()
            .find(|m| m.short_name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseMetricError { name: s.to_owned() })
    }
}

/// A dense vector with one entry per monitored metric.
///
/// This is the element type of the system-state feature matrix `S` used by
/// the Predictor: one `MetricVec` per sampling instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricVec {
    values: [f32; METRIC_COUNT],
}

impl MetricVec {
    /// Creates a vector with every metric set to zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Creates a vector from values in canonical metric order.
    pub fn from_array(values: [f32; METRIC_COUNT]) -> Self {
        Self { values }
    }

    /// Value for `metric`.
    pub fn get(&self, metric: Metric) -> f32 {
        self.values[metric.index()]
    }

    /// Sets the value for `metric`.
    pub fn set(&mut self, metric: Metric, value: f32) {
        self.values[metric.index()] = value;
    }

    /// Values in canonical metric order.
    pub fn as_array(&self) -> &[f32; METRIC_COUNT] {
        &self.values
    }

    /// Element-wise sum with `other`.
    pub fn add(&self, other: &MetricVec) -> MetricVec {
        let mut out = *self;
        for i in 0..METRIC_COUNT {
            out.values[i] += other.values[i];
        }
        out
    }

    /// Element-wise scaling by `factor`.
    pub fn scale(&self, factor: f32) -> MetricVec {
        let mut out = *self;
        for v in &mut out.values {
            *v *= factor;
        }
        out
    }
}

/// One timestamped Watcher sample: a [`MetricVec`] plus the sampling time.
///
/// # Examples
///
/// ```
/// use adrias_telemetry::{Metric, MetricSample};
///
/// let mut s = MetricSample::zero(12.0);
/// s.set(Metric::MemLoads, 5.0e8);
/// assert_eq!(s.get(Metric::MemLoads), 5.0e8);
/// assert_eq!(s.time(), 12.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricSample {
    time: f64,
    vec: MetricVec,
}

impl MetricSample {
    /// Creates a sample at `time` with every metric set to zero.
    pub fn zero(time: f64) -> Self {
        Self {
            time,
            vec: MetricVec::zero(),
        }
    }

    /// Creates a sample at `time` from a prepared metric vector.
    pub fn new(time: f64, vec: MetricVec) -> Self {
        Self { time, vec }
    }

    /// Sampling time in seconds since the start of the run.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Value recorded for `metric`.
    pub fn get(&self, metric: Metric) -> f32 {
        self.vec.get(metric)
    }

    /// Sets the value recorded for `metric`.
    pub fn set(&mut self, metric: Metric, value: f32) {
        self.vec.set(metric, value);
    }

    /// The underlying metric vector.
    pub fn vec(&self) -> &MetricVec {
        &self.vec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_indices_match_canonical_order() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "metric {m} out of order");
        }
    }

    #[test]
    fn metric_round_trips_through_name() {
        for m in Metric::ALL {
            let parsed: Metric = m.short_name().parse().expect("parses back");
            assert_eq!(parsed, m);
        }
    }

    #[test]
    fn metric_parse_is_case_insensitive() {
        assert_eq!("llc_ld".parse::<Metric>().unwrap(), Metric::LlcLoads);
    }

    #[test]
    fn metric_parse_rejects_unknown_names() {
        let err = "bogus".parse::<Metric>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn link_metrics_are_flagged() {
        assert!(Metric::LinkLatency.is_link_metric());
        assert!(Metric::LinkFlitsRx.is_link_metric());
        assert!(!Metric::LlcLoads.is_link_metric());
        assert!(!Metric::MemStores.is_link_metric());
    }

    #[test]
    fn metric_vec_get_set_round_trip() {
        let mut v = MetricVec::zero();
        v.set(Metric::LinkLatency, 900.0);
        assert_eq!(v.get(Metric::LinkLatency), 900.0);
        assert_eq!(v.get(Metric::LlcLoads), 0.0);
    }

    #[test]
    fn metric_vec_add_and_scale() {
        let mut a = MetricVec::zero();
        a.set(Metric::LlcLoads, 1.0);
        let mut b = MetricVec::zero();
        b.set(Metric::LlcLoads, 2.0);
        b.set(Metric::MemLoads, 4.0);
        let sum = a.add(&b);
        assert_eq!(sum.get(Metric::LlcLoads), 3.0);
        assert_eq!(sum.get(Metric::MemLoads), 4.0);
        let scaled = sum.scale(0.5);
        assert_eq!(scaled.get(Metric::LlcLoads), 1.5);
    }

    #[test]
    fn sample_stores_time_and_values() {
        let mut s = MetricSample::zero(3.5);
        s.set(Metric::LinkFlitsTx, 7.0);
        assert_eq!(s.time(), 3.5);
        assert_eq!(s.get(Metric::LinkFlitsTx), 7.0);
        assert_eq!(s.vec().get(Metric::LinkFlitsTx), 7.0);
    }
}
