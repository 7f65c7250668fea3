//! The 1 Hz metric trace of one engine run, kept by an observer.
//!
//! The engine itself keeps nothing per simulated second: the Watcher's
//! window is all a policy reads. Trace collection, record harvesting,
//! signature capture and forecast scoring read the whole trace, so they
//! attach a [`Trace`] to the run (alone, or beside other observers as a
//! pair) and read it afterwards.

use adrias_sim::StepReport;
use adrias_telemetry::MetricVec;

use crate::engine::EngineObserver;

/// Every Watcher sample of one run, one row per simulated second: row
/// `i` is the sample taken at second `i + 1` (the engine samples once a
/// second from the first step on, so the time needs no storage).
///
/// ```
/// # use adrias_orchestrator::{run_stream_hooked, EngineConfig, RoundRobinPolicy, ScheduleStream, ScheduledArrival, Trace};
/// # use adrias_sim::TestbedConfig;
/// # use adrias_workloads::spark;
/// let arrivals = [ScheduledArrival::new(0.0, spark::by_name("gmm").unwrap())];
/// let mut trace = Trace::default();
/// let report = run_stream_hooked(
///     TestbedConfig::noiseless(),
///     EngineConfig::default(),
///     &mut ScheduleStream::new(&arrivals),
///     &[],
///     &mut RoundRobinPolicy::new(),
///     &mut trace,
/// );
/// assert_eq!(trace.len(), report.end_time_s as usize);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    rows: Vec<MetricVec>,
}

impl Trace {
    /// The rows, oldest first.
    pub fn rows(&self) -> &[MetricVec] {
        &self.rows
    }

    /// Number of rows (simulated seconds sampled).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no second was sampled.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The 1 Hz history window (`window_s` rows) preceding `at_s`, if the
    /// trace covers it. Used to extract model inputs for trace records.
    pub fn history_before(&self, at_s: f64, window_s: usize) -> Option<Vec<MetricVec>> {
        let end = at_s.floor() as usize;
        if end < window_s || end > self.rows.len() {
            return None;
        }
        Some(self.rows[end - window_s..end].to_vec())
    }

    /// Mean metric vector over `[from_s, to_s)`, if the trace covers at
    /// least one sample of it.
    pub fn mean_between(&self, from_s: f64, to_s: f64) -> Option<MetricVec> {
        let lo = (from_s.floor() as usize).min(self.rows.len());
        let hi = (to_s.ceil() as usize).min(self.rows.len());
        if lo >= hi {
            return None;
        }
        let mut acc = MetricVec::zero();
        for r in &self.rows[lo..hi] {
            acc = acc.add(r);
        }
        Some(acc.scale(1.0 / (hi - lo) as f32))
    }
}

impl EngineObserver for Trace {
    fn on_step(&mut self, report: &StepReport) {
        self.rows.push(*report.sample.vec());
    }
}
