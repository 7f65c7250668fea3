//! Trace collection: the offline data-acquisition phase (§V-B1).

use adrias_core::thread::map_chunks;
use adrias_orchestrator::engine::RunReport;
use adrias_orchestrator::{harvest_perf_records, RandomPolicy, Trace};
use adrias_predictor::dataset::PerfRecord;
use adrias_sim::TestbedConfig;
use adrias_telemetry::MetricVec;
use adrias_workloads::{TraceSource, WorkloadCatalog, WorkloadClass};

use crate::runner::Replay;
use crate::schedule::PlacementStyle;
use crate::spec::ScenarioSpec;

/// The collected traces of a scenario corpus: one engine report and
/// one 1 Hz [`Trace`] per scenario.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    reports: Vec<RunReport>,
    traces: Vec<Trace>,
}

impl TraceBundle {
    /// Builds a bundle from engine reports and the traces that rode the
    /// same runs, in the same order.
    ///
    /// # Panics
    ///
    /// Panics if the two differ in length.
    pub fn new(reports: Vec<RunReport>, traces: Vec<Trace>) -> Self {
        assert_eq!(reports.len(), traces.len(), "one trace per report");
        Self { reports, traces }
    }

    /// Number of collected scenarios.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether no scenarios were collected.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The underlying engine reports.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// The 1 Hz metric rows, one borrowed slice per scenario (input to
    /// `SystemStateDataset::from_traces`).
    pub fn system_traces(&self) -> Vec<&[MetricVec]> {
        self.traces.iter().map(Trace::rows).collect()
    }

    /// The arrival instants of every completed application in scenario
    /// `idx`, sorted ascending — outcomes are stored in completion
    /// order, so this re-sorts by arrival.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn arrival_times(&self, idx: usize) -> Vec<f64> {
        let mut times: Vec<f64> = self.reports[idx]
            .outcomes
            .iter()
            .map(|o| o.arrived_s)
            .collect();
        times.sort_by(f64::total_cmp);
        times
    }

    /// Replays scenario `idx`'s observed arrival instants as an
    /// [`adrias_workloads::ArrivalSource`] — the bridge from a
    /// collected trace back into the event engine's generated-traffic
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn trace_source(&self, idx: usize) -> TraceSource {
        TraceSource::new(self.arrival_times(idx))
    }

    /// Performance records of one workload class over every outcome of
    /// every scenario (see [`harvest_perf_records`]).
    pub fn perf_records(&self, class: WorkloadClass) -> Vec<PerfRecord> {
        self.reports
            .iter()
            .zip(&self.traces)
            .flat_map(|(r, t)| harvest_perf_records(r, t, class, |_| true))
            .collect()
    }
}

/// Runs every scenario with random placement and collects the traces.
///
/// Scenarios run in parallel across `threads` worker threads (1 for
/// fully sequential).
///
/// # Panics
///
/// Panics if `specs` is empty or `threads` is zero.
pub fn collect_traces(
    testbed_cfg: TestbedConfig,
    catalog: &WorkloadCatalog,
    specs: &[ScenarioSpec],
    threads: usize,
) -> TraceBundle {
    assert!(!specs.is_empty(), "no scenarios to collect");
    assert!(threads > 0, "need at least one worker thread");
    let runs: Vec<(RunReport, Trace)> = map_chunks(specs, threads, |chunk| {
        chunk
            .iter()
            .map(|&spec| {
                let replay = Replay {
                    style: PlacementStyle::RandomForced,
                    ..Replay::new(testbed_cfg, catalog, spec)
                };
                let mut trace = Trace::default();
                let report = replay.run(&mut RandomPolicy::new(spec.seed), &mut trace);
                (report, trace)
            })
            .collect()
    });
    let (reports, traces) = runs.into_iter().unzip();
    TraceBundle::new(reports, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_predictor::dataset::HISTORY_S;

    fn small_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new(5.0, 20.0, 700.0, 1),
            ScenarioSpec::new(5.0, 40.0, 700.0, 2),
        ]
    }

    #[test]
    fn collects_one_report_per_scenario() {
        let bundle = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &small_specs(),
            2,
        );
        assert_eq!(bundle.len(), 2);
        assert!(!bundle.is_empty());
        for trace in bundle.system_traces() {
            assert!(trace.len() >= 700, "trace too short: {}", trace.len());
        }
    }

    #[test]
    fn perf_records_have_full_windows() {
        let bundle = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &small_specs(),
            1,
        );
        let be = bundle.perf_records(WorkloadClass::BestEffort);
        assert!(!be.is_empty(), "no BE records collected");
        for r in &be {
            assert_eq!(r.history.len(), HISTORY_S);
            assert!(r.perf > 0.0);
        }
        // Early arrivals (before 120 s) are dropped.
        let reports = bundle.reports();
        let early = reports[0]
            .outcomes
            .iter()
            .filter(|o| o.arrived_s < HISTORY_S as f64 && o.class == WorkloadClass::BestEffort)
            .count();
        let total = reports[0]
            .outcomes
            .iter()
            .filter(|o| o.class == WorkloadClass::BestEffort)
            .count();
        let first_report_records = bundle
            .perf_records(WorkloadClass::BestEffort)
            .iter()
            .filter(|r| {
                reports[0]
                    .outcomes
                    .iter()
                    .any(|o| o.name == r.app.as_str() && (o.runtime_s as f32 - r.perf).abs() < 1e-3)
            })
            .count();
        assert!(first_report_records <= total);
        let _ = early;
    }

    #[test]
    fn lc_records_use_p99() {
        let bundle = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &small_specs(),
            2,
        );
        let lc = bundle.perf_records(WorkloadClass::LatencyCritical);
        for r in &lc {
            assert!(r.app == "redis" || r.app == "memcached");
            // p99 in milliseconds — plausible range.
            assert!((0.05..250.0).contains(&r.perf), "{}: {}", r.app, r.perf);
        }
    }

    #[test]
    fn trace_source_replays_sorted_arrivals() {
        use adrias_workloads::ArrivalSource;
        let bundle = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &small_specs(),
            1,
        );
        let times = bundle.arrival_times(0);
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let mut src = bundle.trace_source(0);
        let mut replayed = Vec::new();
        while let Some(t) = src.next_time() {
            replayed.push(t);
        }
        assert_eq!(replayed, times);
        assert!(src.exhausted());
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let specs = small_specs();
        let seq = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs,
            1,
        );
        let par = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs,
            2,
        );
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.reports().iter().zip(par.reports()) {
            assert_eq!(a.outcomes.len(), b.outcomes.len());
            assert_eq!(a.link_bytes, b.link_bytes);
        }
        assert_eq!(seq.system_traces(), par.system_traces());
    }
}
