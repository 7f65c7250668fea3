//! Observability hooks for the testbed: accumulates [`StepReport`]s
//! into sim metrics for an [`adrias_obs::Registry`].
//!
//! The engine observes every simulated second, so the per-step path
//! must stay cheap: [`SimMetrics`] is a plain struct of counters and
//! sketches — no name lookups, no allocation except a sketch's first
//! sample in a new bucket — and [`SimMetrics::flush`] pays the registry
//! accesses once per run. Everything recorded here is derived from
//! simulator state, so the resulting exports inherit the testbed's
//! determinism.

use std::collections::BTreeMap;

use adrias_core::Name;
use adrias_obs::{Registry, Sketch};
use adrias_telemetry::Metric;

use crate::testbed::StepReport;

/// Per-run accumulator for simulator metrics: the step counter,
/// interconnect traffic and latency, resource-pressure distributions,
/// and per-app contention slowdowns for applications that finished.
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    steps: u64,
    time_s: f64,
    flits_tx: u64,
    flits_rx: u64,
    completions: u64,
    latency_cycles: Sketch,
    link_utilization: Sketch,
    mem_bw: Sketch,
    llc: Sketch,
    slowdown: Sketch,
    slowdown_per_app: BTreeMap<Name, Sketch>,
}

impl SimMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
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
                .or_default()
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
        registry.merge_sketch("sim.link.latency_cycles", &self.latency_cycles);
        registry.merge_sketch("sim.pressure.link_utilization", &self.link_utilization);
        registry.merge_sketch("sim.pressure.mem_bw", &self.mem_bw);
        registry.merge_sketch("sim.pressure.llc", &self.llc);
        registry.merge_sketch("sim.slowdown", &self.slowdown);
        for (name, h) in &self.slowdown_per_app {
            registry.merge_sketch(&format!("sim.slowdown.app.{name}"), h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Testbed, TestbedConfig};
    use adrias_workloads::{spark, MemoryMode};

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
        let h = registry.sketch("sim.slowdown.app.gmm").unwrap();
        assert_eq!(h.count(), 1);
        assert!(h.mean() >= 1.0);
        assert_eq!(registry.sketch("sim.slowdown"), Some(h));
        assert_eq!(
            registry.sketch("sim.link.latency_cycles").unwrap().count(),
            sim.steps()
        );
    }
}
