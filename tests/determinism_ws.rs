//! Workspace-level determinism: the scenario runner must be a pure
//! function of its seeds. Same seed ⇒ bit-identical decision traces
//! and counter series (across thread counts too); different seeds ⇒
//! different traces. This is the contract that makes every figure in
//! the reproduction replayable.

use adrias::core_util::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias::core_util::thread::map_chunks;
use adrias::nn::{GradModel, SERIAL_BATCH_FLOOR};
use adrias::orchestrator::engine::RunReport;
use adrias::orchestrator::{Policy, RandomPolicy, RoundRobinPolicy, Trace};
use adrias::predictor::{
    PerfDataset, PerfModel, PerfModelConfig, PerfRecord, SystemStateDataset, SystemStateModel,
    SystemStateModelConfig,
};
use adrias::scenarios::{run_comparison, PolicyOutcome, Replay, ScenarioSpec};
use adrias::sim::TestbedConfig;
use adrias::telemetry::{Metric, MetricVec, METRIC_COUNT};
use adrias::workloads::{AppSignature, MemoryMode, WorkloadCatalog};

fn specs(seed: u64) -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(5.0, 25.0, 700.0, seed),
        ScenarioSpec::new(5.0, 45.0, 700.0, seed ^ 0xABCD),
    ]
}

fn policy(i: usize) -> Box<dyn Policy + Send> {
    match i {
        0 => Box::new(RandomPolicy::new(99)),
        _ => Box::new(RoundRobinPolicy::new()),
    }
}

fn run_once(seed: u64, threads: usize) -> Vec<PolicyOutcome> {
    run_comparison(
        TestbedConfig::noiseless(),
        &WorkloadCatalog::paper(),
        &specs(seed),
        2,
        Some(5.0),
        threads,
        policy,
    )
}

/// The same comparison replayed with a [`Trace`] attached to every run:
/// per policy, per scenario, the report and its 1 Hz counter series.
fn traced_once(seed: u64, threads: usize) -> Vec<Vec<(RunReport, Trace)>> {
    let catalog = WorkloadCatalog::paper();
    (0..2)
        .map(|i| {
            map_chunks(&specs(seed), threads, |chunk| {
                chunk
                    .iter()
                    .map(|&spec| {
                        let replay = Replay {
                            qos_p99_ms: Some(5.0),
                            ..Replay::new(TestbedConfig::noiseless(), &catalog, spec)
                        };
                        let mut trace = Trace::default();
                        let report = replay.run(&mut policy(i), &mut trace);
                        (report, trace)
                    })
                    .collect()
            })
        })
        .collect()
}

/// The decision trace of one report: who ran, when, where.
fn decision_trace(r: &RunReport) -> Vec<(&str, MemoryMode, f64, f64)> {
    r.outcomes
        .iter()
        .map(|o| (&*o.name, o.mode, o.arrived_s, o.runtime_s))
        .collect()
}

fn assert_outcomes_identical(a: &[PolicyOutcome], b: &[PolicyOutcome]) {
    assert_eq!(a.len(), b.len());
    for (oa, ob) in a.iter().zip(b) {
        assert_eq!(oa.policy, ob.policy);
        assert_eq!(oa.reports.len(), ob.reports.len());
        for (ra, rb) in oa.reports.iter().zip(&ob.reports) {
            // Decision traces: bit-identical placement sequences.
            assert_eq!(decision_trace(ra), decision_trace(rb));
            assert_eq!(ra.link_bytes, rb.link_bytes);
        }
    }
}

/// Counter series: bit-identical 1 Hz metric rows, from runs whose
/// placements are the comparison's own.
fn assert_traces_identical(
    a: &[Vec<(RunReport, Trace)>],
    b: &[Vec<(RunReport, Trace)>],
    compared: &[PolicyOutcome],
) {
    assert_eq!(a.len(), b.len());
    for ((pa, pb), outcome) in a.iter().zip(b).zip(compared) {
        assert_eq!(pa.len(), outcome.reports.len());
        for (((ra, ta), (rb, tb)), r) in pa.iter().zip(pb).zip(&outcome.reports) {
            assert_eq!(decision_trace(ra), decision_trace(r));
            assert_eq!(decision_trace(rb), decision_trace(r));
            assert!(!ta.is_empty());
            assert_eq!(ta.len(), tb.len());
            for (sa, sb) in ta.rows().iter().zip(tb.rows()) {
                let bits = |v: &MetricVec| v.as_array().map(f32::to_bits);
                assert_eq!(bits(sa), bits(sb), "counter series diverged");
            }
        }
    }
}

#[test]
fn same_seed_same_traces() {
    let first = run_once(7, 2);
    let second = run_once(7, 2);
    assert_outcomes_identical(&first, &second);
    assert_traces_identical(&traced_once(7, 2), &traced_once(7, 2), &first);
}

#[test]
fn thread_count_does_not_change_results() {
    let sequential = run_once(7, 1);
    let parallel = run_once(7, 4);
    assert_outcomes_identical(&sequential, &parallel);
    assert_traces_identical(&traced_once(7, 1), &traced_once(7, 4), &sequential);
}

/// A small deterministic telemetry corpus for training-loop tests: two
/// traces of slow sine-wave metrics with seeded jitter, long enough for
/// a couple dozen history→horizon windows.
fn synthetic_traces(seed: u64) -> Vec<Vec<MetricVec>> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..2u32)
        .map(|trace| {
            (0..600u32)
                .map(|t| {
                    let mut values = [0.0f32; METRIC_COUNT];
                    for (i, v) in values.iter_mut().enumerate() {
                        let phase = t as f32 * 0.05 + trace as f32 + i as f32 * 0.7;
                        *v = phase.sin().abs() + rng.gen::<f32>() * 0.2;
                    }
                    MetricVec::from_array(values)
                })
                .collect()
        })
        .collect()
}

/// The system-state dataset over `synthetic_traces(41)` at `stride`.
fn synthetic_dataset(stride: usize) -> SystemStateDataset {
    let traces = synthetic_traces(41);
    let rows: Vec<&[MetricVec]> = traces.iter().map(Vec::as_slice).collect();
    SystemStateDataset::from_traces(&rows, stride)
}

fn loss_trace_with_workers(workers: usize) -> Vec<u32> {
    let dataset = synthetic_dataset(30);
    assert!(!dataset.is_empty(), "synthetic corpus produced no samples");
    let cfg = SystemStateModelConfig {
        hidden: 8,
        block_width: 8,
        epochs: 3,
        batch_size: 16,
        seed: 42,
        workers,
        grad_chunk: 4,
        ..Default::default()
    };
    let mut model = SystemStateModel::new(cfg);
    // Compare IEEE-754 bit patterns: the contract is bit-identity, not
    // "close enough".
    model.train(&dataset).iter().map(|l| l.to_bits()).collect()
}

#[test]
fn training_loss_trace_is_worker_count_invariant() {
    let sequential = loss_trace_with_workers(1);
    assert_eq!(sequential.len(), 3, "expected one loss per epoch");
    for workers in [2, 8] {
        assert_eq!(
            loss_trace_with_workers(workers),
            sequential,
            "loss trace diverged with {workers} training workers"
        );
    }
}

/// FNV-1a over the bit patterns of every parameter, then every running
/// buffer, of `model`.
fn state_digest<M: GradModel>(model: &mut M) -> u64 {
    let mut state = Vec::new();
    model.visit_params(&mut |p, _| state.extend_from_slice(p.data()));
    model.visit_buffers(&mut |b| state.extend_from_slice(b.data()));
    state
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Minibatches of this many samples sit above `SERIAL_BATCH_FLOOR`, so
/// with two or more workers their gradient chunks run on threads.
const THREADED_BATCH: usize = 272;

/// The system model trained at [`THREADED_BATCH`]: its loss trace and
/// final-state digest.
fn system_run_above_floor(workers: usize) -> (Vec<u32>, u64) {
    // Stride 2 over two 600 s traces: 362 windows, so minibatches of
    // 272 and a ragged 90.
    let dataset = synthetic_dataset(2);
    assert!(dataset.len() > THREADED_BATCH);
    let cfg = SystemStateModelConfig {
        hidden: 8,
        block_width: 8,
        epochs: 2,
        batch_size: THREADED_BATCH,
        seed: 42,
        workers,
        grad_chunk: 16,
        ..Default::default()
    };
    let mut model = SystemStateModel::new(cfg);
    let losses = model.train(&dataset).iter().map(|l| l.to_bits()).collect();
    (losses, state_digest(&mut model))
}

/// A perf dataset of `n` deployments of three apps whose time depends
/// on mode and load, with their signatures.
fn synthetic_perf_dataset(n: usize) -> (PerfDataset, Vec<Option<MetricVec>>) {
    let mut rng = Xoshiro256pp::seed_from_u64(43);
    let apps = ["alpha", "beta", "gamma"];
    let records: Vec<PerfRecord> = (0..n)
        .map(|i| {
            let a = i % apps.len();
            let mode = if rng.gen_bool(0.5) {
                MemoryMode::Local
            } else {
                MemoryMode::Remote
            };
            let load = rng.gen_range(0.0f32..2.0);
            let history = (0..120)
                .map(|t| {
                    let mut v = MetricVec::zero();
                    let x = load + 0.1 * (t as f32 * 0.2).sin();
                    v.set(Metric::LlcLoads, 1e8 * (1.0 + x));
                    v.set(Metric::LinkLatency, 350.0 + 250.0 * x);
                    v
                })
                .collect();
            let mut future = MetricVec::zero();
            future.set(Metric::LlcLoads, 1e8 * (1.0 + load));
            let slow = match mode {
                MemoryMode::Local => 1.0 + 0.3 * load,
                MemoryMode::Remote => (1.2 + 0.3 * a as f32) * (1.0 + 0.6 * load),
            };
            PerfRecord {
                app: apps[a].to_owned(),
                mode,
                history,
                future_120: future,
                future_exec: future,
                perf: (40.0 + 20.0 * a as f32) * slow,
            }
        })
        .collect();
    let s_hats = records.iter().map(|r| Some(r.future_120)).collect();
    let signatures: Vec<AppSignature> = apps
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let rows = (0..40)
                .map(|t| {
                    let mut v = MetricVec::zero();
                    v.set(Metric::MemLoads, 2e7 * ((t % 5) as f32 + i as f32));
                    v
                })
                .collect();
            AppSignature::new(*name, rows)
        })
        .collect();
    (PerfDataset::new(records, &signatures), s_hats)
}

/// The perf model trained at [`THREADED_BATCH`]: its loss trace and
/// final-state digest.
fn perf_run_above_floor(workers: usize) -> (Vec<u32>, u64) {
    // Minibatches of 272 and a ragged 28.
    let (dataset, s_hats) = synthetic_perf_dataset(300);
    let cfg = PerfModelConfig {
        hidden: 6,
        block_width: 8,
        epochs: 2,
        batch_size: THREADED_BATCH,
        workers,
        grad_chunk: 16,
        ..PerfModelConfig::default()
    };
    let mut model = PerfModel::new(cfg);
    let losses = model.train(&dataset, &s_hats);
    let losses = losses.iter().map(|l| l.to_bits()).collect();
    (losses, state_digest(&mut model))
}

/// The test above trains below `SERIAL_BATCH_FLOOR`, where every worker
/// count runs its chunks on the calling thread; this one trains both
/// models where workers 2 and 8 really spawn threads.
#[test]
fn training_above_the_serial_floor_is_worker_count_invariant() {
    const { assert!(THREADED_BATCH >= SERIAL_BATCH_FLOOR) };
    let system = system_run_above_floor(1);
    let perf = perf_run_above_floor(1);
    assert_eq!((system.0.len(), perf.0.len()), (2, 2));
    for workers in [2, 8] {
        assert_eq!(
            system_run_above_floor(workers),
            system,
            "system model diverged with {workers} training workers"
        );
        assert_eq!(
            perf_run_above_floor(workers),
            perf,
            "perf model diverged with {workers} training workers"
        );
    }
}

#[test]
fn different_seeds_different_traces() {
    let a = run_once(7, 2);
    let b = run_once(8, 2);
    // Arrival schedules are seed-derived, so the decision traces of at
    // least one policy must differ somewhere.
    let differs = a.iter().zip(&b).any(|(oa, ob)| {
        oa.reports.len() != ob.reports.len()
            || oa
                .reports
                .iter()
                .zip(&ob.reports)
                .any(|(ra, rb)| decision_trace(ra) != decision_trace(rb))
    });
    assert!(differs, "seeds 7 and 8 produced identical corpora");
}
