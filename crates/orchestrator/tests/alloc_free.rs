//! The steady-state Adrias decision path makes zero heap allocations.
//!
//! Installs the counting allocator from `adrias_core::alloc` as the
//! binary's global allocator and asserts that, after one warm-up
//! decision, `decide_explained` allocates nothing on any of its lanes:
//! cache hit (repeated stamp), cache miss (bumped stamp), warm-up
//! (no history) and unknown-app remote-first. A second test pins the
//! numeric floor under the policy: `Lstm::forward_seq_scratch` and the
//! SIMD kernels (both the native dispatch and the forced-scalar
//! fallback) run allocation-free in steady state.

use adrias_core::alloc::{start_counting, stop_counting, CountingAllocator};
use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias_nn::{kernels, set_force_scalar, Lstm, LstmScratch, Tensor};
use adrias_orchestrator::{AdriasPolicy, DecisionContext, Policy};
use adrias_predictor::dataset::{PerfRecord, HISTORY_S};
use adrias_predictor::{
    PerfDataset, PerfModel, PerfModelConfig, SystemStateDataset, SystemStateModel,
    SystemStateModelConfig,
};
use adrias_telemetry::{Metric, MetricSample, MetricVec, WindowStamp};
use adrias_workloads::{spark, AppSignature, MemoryMode, WorkloadProfile};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn metric_row(x: f32) -> MetricVec {
    let mut v = MetricVec::zero();
    v.set(Metric::LlcLoads, 1e8 * (1.0 + x));
    v.set(Metric::MemLoads, 4e7 * (1.0 + x));
    v.set(Metric::LinkLatency, 350.0 + 100.0 * x);
    v
}

/// A minimal trained policy (tiny models, synthetic traces) — only the
/// decision path matters here, not predictive quality.
fn tiny_policy() -> AdriasPolicy {
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let trace: Vec<MetricSample> = (0..400)
        .map(|t| MetricSample::new(t as f64, metric_row(((t as f32) * 0.02).sin() * 0.2)))
        .collect();
    let sys_ds = SystemStateDataset::from_traces(&[trace], 10);
    let mut system_model = SystemStateModel::new(SystemStateModelConfig {
        epochs: 2,
        hidden: 6,
        block_width: 8,
        ..SystemStateModelConfig::tiny()
    });
    system_model.train(&sys_ds);

    let apps: Vec<(WorkloadProfile, f32)> = vec![
        (spark::by_name("gmm").unwrap(), 1.05),
        (spark::by_name("nweight").unwrap(), 2.0),
    ];
    let mut records = Vec::new();
    for _ in 0..20 {
        let (app, penalty) = &apps[rng.gen_range(0..apps.len())];
        let x: f32 = rng.gen_range(-0.2..0.2);
        for mode in MemoryMode::BOTH {
            let perf = app.base_runtime_s()
                * if mode == MemoryMode::Remote {
                    *penalty
                } else {
                    1.0
                }
                * (1.0 + 0.1 * (x + 0.2));
            records.push(PerfRecord {
                app: app.name().to_owned(),
                mode,
                history: vec![metric_row(x); HISTORY_S],
                future_120: metric_row(x),
                future_exec: metric_row(x),
                perf,
            });
        }
    }
    let signatures = vec![
        AppSignature::new("gmm", vec![metric_row(0.1); 20]),
        AppSignature::new("nweight", vec![metric_row(0.9); 20]),
    ];
    let ds = PerfDataset::new(records, &signatures);
    let cfg = PerfModelConfig {
        epochs: 4,
        hidden: 8,
        block_width: 12,
        dropout: 0.0,
        ..PerfModelConfig::tiny()
    };
    let hats: Vec<Option<MetricVec>> = ds.records().iter().map(|r| Some(r.future_120)).collect();
    let mut be_model = PerfModel::new(cfg);
    be_model.train(&ds, &hats);
    let mut lc_model = PerfModel::new(cfg);
    lc_model.train(&ds, &hats);

    AdriasPolicy::new(system_model, be_model, lc_model, signatures, 0.8, 2.0)
}

#[test]
fn decision_fast_lane_is_allocation_free() {
    let mut policy = tiny_policy();
    let gmm = spark::by_name("gmm").unwrap();
    let unknown = spark::by_name("pca").unwrap();
    let history = vec![metric_row(0.05); HISTORY_S];
    let stamp = |version: u64| WindowStamp {
        source: u64::MAX,
        version,
    };
    let ctx = |profile, stamp| DecisionContext {
        profile,
        history: Some(&history),
        qos_p99_ms: None,
        stamp: Some(stamp),
    };

    // Warm-up: the first decision may touch lazily-sized buffers.
    let warm = policy.decide_explained(&ctx(&gmm, stamp(1)));
    assert!(warm.pred_local.is_some(), "fast lane produced predictions");

    // Cache-hit lane: same stamp ⇒ memoised forecast, zero allocations.
    start_counting();
    for _ in 0..16 {
        let d = policy.decide_explained(&ctx(&gmm, stamp(1)));
        assert_eq!(d, warm);
    }
    let (hit_allocs, hit_bytes) = stop_counting();
    assert_eq!(
        (hit_allocs, hit_bytes),
        (0, 0),
        "cache-hit decisions must not allocate"
    );

    // Cache-miss lane: bumped stamp ⇒ fresh forecast through the
    // preallocated scratch, still zero allocations.
    start_counting();
    for v in 2..18 {
        let d = policy.decide_explained(&ctx(&gmm, stamp(v)));
        assert_eq!(d, warm, "identical window ⇒ identical decision");
    }
    let (miss_allocs, miss_bytes) = stop_counting();
    assert_eq!(
        (miss_allocs, miss_bytes),
        (0, 0),
        "cache-miss decisions must not allocate"
    );

    // Degenerate lanes stay allocation-free too.
    start_counting();
    for _ in 0..8 {
        // Unknown app: remote-first, no model work.
        policy.decide_explained(&ctx(&unknown, stamp(1)));
        // Watcher warm-up: no history window.
        policy.decide_explained(&DecisionContext {
            profile: &gmm,
            history: None,
            qos_p99_ms: None,
            stamp: None,
        });
    }
    let (degenerate_allocs, _) = stop_counting();
    assert_eq!(degenerate_allocs, 0, "degenerate lanes must not allocate");
}

/// The vectorised numeric floor never allocates: after the scratch is
/// built, repeated `forward_seq_scratch` passes and every public SIMD
/// kernel run with zero heap traffic — on the native dispatch path and
/// on the forced-scalar fallback alike.
#[test]
fn lstm_scratch_forward_and_simd_kernels_are_allocation_free() {
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let lstm = Lstm::new(6, 16, &mut rng);
    let seq: Vec<Tensor> = (0..12)
        .map(|t| {
            let mut x = Tensor::zeros(4, 6);
            x.data_mut()
                .iter_mut()
                .enumerate()
                .for_each(|(i, v)| *v = ((t * 31 + i) as f32 * 0.37).sin());
            x
        })
        .collect();
    let mut scratch = LstmScratch::new(&lstm, 4, 12);
    // Warm-up sizes any lazily-grown buffer.
    lstm.forward_seq_scratch(&seq, &mut scratch);

    let mut a = vec![0.25f32; 37];
    let b = vec![0.5f32; 37];
    let bias = vec![0.125f32; 37];
    let rows = vec![0.75f32; 5 * 37];
    let mut sums = vec![0.0f32; 5];
    let z_row = vec![0.3f32; 64];
    let c_prev = vec![0.1f32; 16];
    let mut c_state = vec![0.0f32; 16];
    let mut h_state = vec![0.0f32; 16];

    for force_scalar in [false, true] {
        set_force_scalar(force_scalar);
        start_counting();
        for _ in 0..4 {
            let hidden = lstm.forward_seq_scratch(&seq, &mut scratch);
            assert_eq!(hidden.len(), 12);
            let _ = kernels::dot(&a, &b);
            kernels::dot_rows(&a, &rows, &mut sums);
            kernels::axpy(0.5, &b, &mut a);
            kernels::add2_bias_rows(&mut a, &b, &bias);
            kernels::relu(&mut a);
            kernels::bn_affine(&mut a, &bias, &b, &bias, &b);
            kernels::lstm_gates_eval_batch(&z_row, &c_prev, 16, &mut c_state, &mut h_state);
        }
        let (allocs, bytes) = stop_counting();
        set_force_scalar(false);
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "numeric floor allocated (force_scalar = {force_scalar})"
        );
    }
}
