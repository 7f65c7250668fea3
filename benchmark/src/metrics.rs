//! The metric catalogue: the single statement of every metric's name,
//! unit and direction. `BENCHMARK.json` mirrors it for the driver
//! (`tests/catalogue.rs` checks they agree).

use std::collections::BTreeMap;

use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric: reported by every workload from untraced
/// passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// A per-layer metric: reported by every workload from the traced run,
/// `0` where the layer does not run on that workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, prefixed with the crate (layer) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// `true` when the value is a count or a simulated statistic that
    /// repeats exactly for a seed, so two commits compare exactly.
    pub deterministic: bool,
}

/// The gated end-to-end metrics.
///
/// The bounds on the timings are as wide as the driver allows. The
/// sandbox host shares its cores and memory system with other tenants:
/// identical compute there takes anywhere between 1× and 2× its quiet
/// time, changing every few tens of milliseconds, with minutes when the
/// whole host is slower. The segment floor (`stats::SegmentFloor`) removes
/// the first kind and nothing removes the second; a tighter bound would
/// reject unchanged code.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_wall_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
];

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        deterministic: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        deterministic: true,
    }
}

/// The per-layer metrics, grouped by layer in budget order.
pub const PER_LAYER: [PerLayer; 65] = [
    timing("workloads.arrival.ns_per_decision", "ns"),
    exact("workloads.arrival.calls", "count", Lower),
    timing("workloads.tail_latency.ns_per_sample", "ns"),
    exact("workloads.tail_latency.lc_completions", "count", Lower),
    timing("workloads.tail_latency.est_ns_per_decision", "ns"),
    timing("orchestrator.heap.push_ns_per_decision", "ns"),
    timing("orchestrator.heap.pop_ns_per_decision", "ns"),
    exact("orchestrator.heap.events", "count", Lower),
    timing("orchestrator.decide.self_ns_per_decision", "ns"),
    exact("orchestrator.decide.fast_calls", "count", Lower),
    exact("orchestrator.decide.forced_calls", "count", Lower),
    timing("orchestrator.decide.latency_us_p50", "us"),
    timing("orchestrator.decide.latency_us_p99", "us"),
    exact("orchestrator.decide.latency_samples", "count", Higher),
    timing("predictor.forward.ns_per_decision", "ns"),
    timing("predictor.forward.ns_per_miss", "ns"),
    exact("predictor.forward.misses", "count", Lower),
    exact("predictor.forecast_cache.hit_ratio", "ratio", Higher),
    timing("predictor.system_predict.standalone_ns", "ns"),
    exact("sim.steps", "count", Lower),
    exact("sim.residents_mean", "count", Lower),
    timing("sim.sample.ns_per_step", "ns"),
    timing("sim.sample.ns_per_decision", "ns"),
    timing("sim.sample.ns_per_resident_step", "ns"),
    timing("sim.step.standalone_ns_at_20", "ns"),
    timing("telemetry.history_fill.standalone_ns", "ns"),
    timing("telemetry.record.standalone_ns", "ns"),
    timing("obs.record.ns_per_decision", "ns"),
    timing("obs.record.on_step_ns_per_step", "ns"),
    timing("obs.export.render_ns_per_decision", "ns"),
    timing("obs.export.validate_ns_per_decision", "ns"),
    exact("obs.export.bytes_per_decision", "bytes", Lower),
    exact("obs.trace.dropped", "count", Lower),
    exact("obs.spans.dropped", "count", Lower),
    exact("obs.trace.retained_ratio", "ratio", Higher),
    timing("orchestrator.engine.unattributed_ns_per_decision", "ns"),
    timing("orchestrator.engine.unattributed_frac", "fraction"),
    timing("trace.overhead_x", "x"),
    timing("scenarios.collect_signatures.wall_s", "s"),
    timing("scenarios.collect_traces.wall_s", "s"),
    timing("predictor.dataset_build.wall_s", "s"),
    timing("predictor.system_train.wall_s", "s"),
    PerLayer {
        better: Higher,
        ..timing("predictor.system_train.samples_per_s", "1/s")
    },
    timing("predictor.be_train.wall_s", "s"),
    PerLayer {
        better: Higher,
        ..timing("predictor.be_train.samples_per_s", "1/s")
    },
    timing("predictor.lc_train.wall_s", "s"),
    PerLayer {
        better: Higher,
        ..timing("predictor.lc_train.samples_per_s", "1/s")
    },
    timing("predictor.eval.wall_s", "s"),
    timing("predictor.train.stage_closure_frac", "fraction"),
    timing("nn.lstm_forward.standalone_ns", "ns"),
    timing("nn.lstm_forward_backward.standalone_ns", "ns"),
    timing("nn.bwd_to_fwd_x", "x"),
    // Workload-specific results a user of the system sees. They are not
    // defined on every workload, so the driver cannot gate them; they
    // ride with the per-layer metrics instead.
    PerLayer {
        better: Higher,
        ..timing("sim_s_per_wall_s", "sim_s/s")
    },
    timing("obs_overhead_x", "x"),
    timing("export_wall_s", "s"),
    exact("be_slowdown_mean_x", "x", Lower),
    exact("offload_frac", "fraction", Higher),
    exact("lc_qos_violation_frac", "fraction", Lower),
    exact("system_r2", "r2", Higher),
    exact("be_r2", "r2", Higher),
    exact("lc_r2", "r2", Higher),
    // Grows with the reps the budget had time for.
    PerLayer {
        deterministic: false,
        ..exact("ops_attempted", "count", Higher)
    },
    exact("ops_failed", "count", Lower),
    timing("untraced_run_wall_s", "s"),
    timing("traced_run_wall_s", "s"),
];

/// Measured values by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue, or was already set.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not in the catalogue"
        );
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}
