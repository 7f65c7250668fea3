//! Standalone probes: single public functions timed in isolation, as
//! cross-checks for the in-run per-layer numbers. They take about half a
//! second in total and run once per traced run.

use std::hint::black_box;
use std::time::Instant;

use adrias_core::rng::{SeedableRng, Xoshiro256pp};
use adrias_nn::{Lstm, Tensor};
use adrias_orchestrator::engine::lc_load_spec;
use adrias_orchestrator::EngineConfig;
use adrias_predictor::SystemStateModel;
use adrias_sim::{Testbed, TestbedConfig};
use adrias_telemetry::{MetricSample, MetricVec, Watcher, METRIC_COUNT};
use adrias_workloads::keyvalue::{self, tail_latency};
use adrias_workloads::{LatencyEnv, MemoryMode, WorkloadCatalog, WorkloadProfile};

use crate::metrics::Values;
use crate::stats::fastest;

/// The fastest of `batches` batches, as the mean wall-clock ns of the
/// batch's `iters` calls of `f`, after one untimed batch: the quiet-host
/// cost, like every other time here. (The on-CPU clock of [`crate::host`]
/// advances in scheduler ticks, too coarse for a batch.)
fn time_ns(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut batch = || {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e9 / iters as f64
    };
    batch();
    let walls: Vec<f64> = (0..batches).map(|_| batch()).collect();
    fastest(&walls)
}

/// Wall ns of one `keyvalue::tail_latency` measurement of `profile` at
/// the engine's shipped sample count.
fn tail_latency_call_ns(profile: &WorkloadProfile) -> f64 {
    let samples = EngineConfig::default().lc_latency_samples;
    let spec = lc_load_spec(profile);
    let env = LatencyEnv::idle(MemoryMode::Remote);
    let mut rng = Xoshiro256pp::seed_from_u64(0x7A11);
    time_ns(20, 10, || {
        black_box(tail_latency(profile, &spec, &env, samples, &mut rng));
    })
}

/// Standalone cost of the LC tail-latency measurement, ns per call, for
/// `(redis, memcached)`.
pub fn tail_latency_ns() -> (f64, f64) {
    (
        tail_latency_call_ns(&keyvalue::redis()),
        tail_latency_call_ns(&keyvalue::memcached()),
    )
}

fn sample_at(second: usize) -> MetricSample {
    let mut row = [0.0f32; METRIC_COUNT];
    for (m, v) in row.iter_mut().enumerate() {
        *v = (second * METRIC_COUNT + m) as f32;
    }
    MetricSample::new(second as f64, MetricVec::from_array(row))
}

/// Runs every probe and records its metric. `system_model` is the
/// trained forecaster of the run's stack.
pub fn run(system_model: &mut SystemStateModel, tail_ns: (f64, f64), values: &mut Values) {
    let samples = EngineConfig::default().lc_latency_samples as f64;
    values.set(
        "workloads.tail_latency.ns_per_sample",
        0.5 * (tail_ns.0 + tail_ns.1) / samples,
    );

    let window_s = EngineConfig::default().history_window_s;
    let mut watcher = Watcher::new(window_s);
    for s in 0..window_s {
        watcher.record(sample_at(s));
    }
    let mut rows = Vec::with_capacity(window_s);
    values.set(
        "telemetry.history_fill.standalone_ns",
        time_ns(20, 5_000, || {
            black_box(watcher.history_fill(window_s, &mut rows));
        }),
    );
    let mut second = window_s;
    values.set(
        "telemetry.record.standalone_ns",
        time_ns(20, 20_000, || {
            second += 1;
            watcher.record(sample_at(second));
        }),
    );
    values.set(
        "predictor.system_predict.standalone_ns",
        time_ns(20, 50, || {
            black_box(system_model.predict(&rows));
        }),
    );

    let mut testbed = Testbed::new(TestbedConfig::paper(), 1);
    let catalog = WorkloadCatalog::paper();
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    for i in 0..20 {
        let mode = if i % 2 == 0 {
            MemoryMode::Local
        } else {
            MemoryMode::Remote
        };
        // Residents that outlive the probe.
        testbed.deploy_for(catalog.pick(&mut rng).clone(), mode, 1.0e9);
    }
    values.set(
        "sim.step.standalone_ns_at_20",
        time_ns(20, 2_000, || {
            black_box(testbed.step());
        }),
    );

    // The `bench_stack` system-model shape: 7 metrics in, hidden 48,
    // 24 pooled steps, one minibatch of 32.
    let mut lstm = Lstm::new(METRIC_COUNT, 48, &mut rng);
    let seq: Vec<Tensor> = (0..24)
        .map(|_| adrias_nn::init::uniform(32, METRIC_COUNT, 1.0, &mut rng))
        .collect();
    let forward = time_ns(20, 10, || {
        black_box(lstm.forward_last(&seq));
    });
    let forward_backward = time_ns(20, 2, || {
        let out = lstm.forward_last(&seq);
        lstm.zero_grad();
        black_box(lstm.backward_last(&out));
    });
    values.set("nn.lstm_forward.standalone_ns", forward);
    values.set("nn.lstm_forward_backward.standalone_ns", forward_backward);
    values.set("nn.bwd_to_fwd_x", (forward_backward - forward) / forward);
}
