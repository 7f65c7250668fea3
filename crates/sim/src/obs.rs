//! Observability hooks for the testbed: accumulates [`StepReport`]s
//! into sim metrics for an [`adrias_obs::Registry`].
//!
//! The engine observes every simulated second, so the per-step path
//! must stay cheap: [`SimMetrics`] is a plain struct of counters and
//! histograms — no name lookups, no allocation except the first
//! completion of each app — and [`SimMetrics::flush`] pays the registry
//! accesses once per run. Everything recorded here is derived from
//! simulator state, so the resulting exports inherit the testbed's
//! determinism.

use std::collections::BTreeMap;

use adrias_core::Name;
use adrias_obs::registry::default_buckets;
use adrias_obs::{Histogram, Registry};
use adrias_telemetry::Metric;

use crate::testbed::StepReport;

/// Bucket bounds for contention-slowdown histograms: slowdown factors
/// from "no interference" (1×) up to heavily degraded (≥3×).
pub const SLOWDOWN_BUCKETS: [f64; 9] = [1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0];

/// Bucket bounds for pressure/utilization histograms (fractions).
const UTIL_BUCKETS: [f64; 10] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0];

/// Per-run accumulator for simulator metrics: the step counter,
/// interconnect traffic and latency, resource-pressure histograms, and
/// per-app contention slowdowns for applications that finished.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    steps: u64,
    time_s: f64,
    flits_tx: u64,
    flits_rx: u64,
    completions: u64,
    latency_cycles: Histogram,
    link_utilization: Histogram,
    mem_bw: Histogram,
    llc: Histogram,
    slowdown: Histogram,
    slowdown_bounds: Vec<f64>,
    slowdown_per_app: BTreeMap<Name, Histogram>,
}

impl Default for SimMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMetrics {
    /// Creates an empty accumulator with the default
    /// [`SLOWDOWN_BUCKETS`] layout.
    pub fn new() -> Self {
        Self::with_slowdown_buckets(SLOWDOWN_BUCKETS.to_vec())
    }

    /// Creates an empty accumulator whose slowdown histograms (global
    /// and per-app) use the given bucket layout instead of the default
    /// [`SLOWDOWN_BUCKETS`]. Long rack-scale runs can pick a layout
    /// matching their contention regime (e.g. finer resolution below
    /// 1.5×); the default layout is unchanged, so existing golden
    /// exports stay bitwise-stable.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_slowdown_buckets(bounds: Vec<f64>) -> Self {
        Self {
            steps: 0,
            time_s: 0.0,
            flits_tx: 0,
            flits_rx: 0,
            completions: 0,
            latency_cycles: Histogram::new(default_buckets()),
            link_utilization: Histogram::new(UTIL_BUCKETS.to_vec()),
            mem_bw: Histogram::new(UTIL_BUCKETS.to_vec()),
            llc: Histogram::new(UTIL_BUCKETS.to_vec()),
            slowdown: Histogram::new(bounds.clone()),
            slowdown_bounds: bounds,
            slowdown_per_app: BTreeMap::new(),
        }
    }

    /// Records one simulation step.
    pub fn record(&mut self, report: &StepReport) {
        self.steps += 1;
        self.time_s = report.time_s;

        let vec = report.sample.vec();
        self.flits_tx += vec.get(Metric::LinkFlitsTx) as u64;
        self.flits_rx += vec.get(Metric::LinkFlitsRx) as u64;
        self.latency_cycles
            .observe(f64::from(vec.get(Metric::LinkLatency)));

        let p = &report.pressure;
        self.link_utilization.observe(f64::from(p.link_utilization));
        self.mem_bw.observe(f64::from(p.mem_bw));
        self.llc.observe(f64::from(p.llc));

        for done in &report.finished {
            self.completions += 1;
            let slowdown = f64::from(done.mean_slowdown);
            self.slowdown.observe(slowdown);
            self.slowdown_per_app
                .entry(done.profile.name_handle().clone())
                .or_insert_with(|| Histogram::new(self.slowdown_bounds.clone()))
                .observe(slowdown);
        }
    }

    /// Number of steps recorded so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Folds the accumulated metrics into `registry` under the `sim.*`
    /// names (per-app slowdowns under `sim.slowdown.app.<name>`).
    /// Call once at the end of a run; repeated flushes double-count.
    pub fn flush(&self, registry: &mut Registry) {
        registry.counter_add("sim.steps", self.steps);
        registry.gauge_set("sim.time_s", self.time_s);
        registry.counter_add("sim.link.flits_tx", self.flits_tx);
        registry.counter_add("sim.link.flits_rx", self.flits_rx);
        registry.counter_add("sim.completions", self.completions);
        registry.merge_histogram("sim.link.latency_cycles", &self.latency_cycles);
        registry.merge_histogram("sim.pressure.link_utilization", &self.link_utilization);
        registry.merge_histogram("sim.pressure.mem_bw", &self.mem_bw);
        registry.merge_histogram("sim.pressure.llc", &self.llc);
        registry.merge_histogram("sim.slowdown", &self.slowdown);
        for (name, h) in &self.slowdown_per_app {
            registry.merge_histogram(&format!("sim.slowdown.app.{name}"), h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Testbed, TestbedConfig};
    use adrias_obs::export::to_jsonl_metrics;
    use adrias_obs::{validate_jsonl_metrics, Observer};
    use adrias_workloads::{spark, MemoryMode};

    /// Runs a deterministic co-located scenario and feeds every step to
    /// each accumulator, so layouts can be compared on identical data.
    fn record_run(sims: &mut [&mut SimMetrics]) {
        let mut tb = Testbed::new(TestbedConfig::noiseless(), 1);
        tb.deploy_for(spark::by_name("gmm").unwrap(), MemoryMode::Remote, 5.0);
        tb.deploy_for(spark::by_name("kmeans").unwrap(), MemoryMode::Remote, 5.0);
        tb.deploy_for(spark::by_name("lda").unwrap(), MemoryMode::Local, 5.0);
        for _ in 0..40 {
            let report = tb.step();
            for sim in sims.iter_mut() {
                sim.record(&report);
            }
        }
    }

    fn export(sim: &SimMetrics) -> String {
        let mut obs = Observer::default();
        sim.flush(&mut obs.registry);
        to_jsonl_metrics(&obs)
    }

    #[test]
    fn custom_slowdown_layout_round_trips_export_and_validation() {
        // Finer resolution below 1.5x than the default layout offers.
        let custom = vec![1.0, 1.05, 1.1, 1.15, 1.2, 1.3, 1.4, 1.5, 2.0, 4.0];
        let mut fine = SimMetrics::with_slowdown_buckets(custom);
        let mut coarse = SimMetrics::new();
        record_run(&mut [&mut fine, &mut coarse]);
        assert!(fine.steps() >= 40);

        let fine_text = export(&fine);
        let coarse_text = export(&coarse);
        let validated = validate_jsonl_metrics(&fine_text).expect("custom layout exports validate");
        assert_eq!(validated, fine_text.lines().count());
        assert!(fine_text.contains(r#""name":"sim.slowdown""#));

        // The layout only reshapes the slowdown histograms: counters and
        // gauges are identical, and the slowdown quantile estimates (which
        // interpolate within buckets) differ between layouts.
        let non_slowdown = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| !l.contains("sim.slowdown"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(non_slowdown(&fine_text), non_slowdown(&coarse_text));
        assert_ne!(
            fine_text.lines().find(|l| l.contains(r#""sim.slowdown""#)),
            coarse_text
                .lines()
                .find(|l| l.contains(r#""sim.slowdown""#)),
            "a finer layout must change the interpolated quantiles"
        );
    }

    #[test]
    fn default_layout_matches_the_golden_buckets_bitwise() {
        // Golden layout predating the configurable constructor: the
        // default export must stay bitwise-stable for existing dashboards.
        assert_eq!(
            SLOWDOWN_BUCKETS,
            [1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0]
        );
        let mut a = SimMetrics::new();
        let mut b = SimMetrics::with_slowdown_buckets(SLOWDOWN_BUCKETS.to_vec());
        record_run(&mut [&mut a, &mut b]);
        assert_eq!(export(&a), export(&b));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_layouts_are_rejected() {
        let _ = SimMetrics::with_slowdown_buckets(vec![1.0, 2.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn empty_layouts_are_rejected() {
        let _ = SimMetrics::with_slowdown_buckets(Vec::new());
    }

    #[test]
    fn steps_and_completions_are_counted() {
        let mut sim = SimMetrics::new();
        let mut tb = Testbed::new(TestbedConfig::noiseless(), 1);
        let gmm = spark::by_name("gmm").unwrap();
        tb.deploy_for(gmm, MemoryMode::Remote, 5.0);
        let mut completions = 0;
        for _ in 0..10 {
            let report = tb.step();
            completions += report.finished.len();
            sim.record(&report);
            if completions > 0 {
                break;
            }
        }
        let mut registry = Registry::new();
        sim.flush(&mut registry);
        assert!(registry.counter("sim.steps") >= 5);
        assert_eq!(registry.counter("sim.completions"), 1);
        assert!(registry.counter("sim.link.flits_tx") > 0);
        let h = registry.histogram("sim.slowdown.app.gmm").unwrap();
        assert_eq!(h.count(), 1);
        assert!(h.mean() >= 1.0);
        assert_eq!(
            registry
                .histogram("sim.link.latency_cycles")
                .unwrap()
                .count(),
            sim.steps()
        );
    }
}
