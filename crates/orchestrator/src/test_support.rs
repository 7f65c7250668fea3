//! Shared test fixtures: a tiny trained policy over synthetic data
//! where "remote is `penalty`× slower", so decision-path tests behave
//! predictably. Training happens once per test binary; policies are
//! built from clones.

use std::sync::OnceLock;

use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias_predictor::dataset::{PerfRecord, HISTORY_S};
use adrias_predictor::{
    PerfDataset, PerfModel, PerfModelConfig, SystemStateDataset, SystemStateModel,
    SystemStateModelConfig,
};
use adrias_telemetry::{Metric, MetricVec};
use adrias_workloads::{spark, AppSignature, MemoryMode, WorkloadProfile};

use crate::adrias::AdriasPolicy;

/// One synthetic Watcher row at background-load level `x`.
pub(crate) fn metric_row(x: f32) -> MetricVec {
    let mut v = MetricVec::zero();
    v.set(Metric::LlcLoads, 1e8 * (1.0 + x));
    v.set(Metric::MemLoads, 4e7 * (1.0 + x));
    v.set(Metric::LinkLatency, 350.0 + 100.0 * x);
    v
}

pub(crate) type TrainedParts = (SystemStateModel, PerfModel, PerfModel, Vec<AppSignature>);

/// The lazily-trained models + signature store shared by every test in
/// the binary.
pub(crate) fn trained_parts() -> &'static TrainedParts {
    static PARTS: OnceLock<TrainedParts> = OnceLock::new();
    PARTS.get_or_init(train_parts)
}

/// Builds a policy over the shared trained parts.
pub(crate) fn policy_with_beta(beta: f32) -> AdriasPolicy {
    let (system_model, be_model, lc_model, signatures) = trained_parts();
    AdriasPolicy::new(
        system_model.clone(),
        be_model.clone(),
        lc_model.clone(),
        signatures.clone(),
        beta,
        2.0,
    )
}

/// A small BE capture-style dataset over the same synthetic
/// distribution as [`trained_parts`] but an independent RNG stream, so
/// adaptation tests can fine-tune and gate without disturbing the
/// shared models.
pub(crate) fn small_be_dataset() -> PerfDataset {
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    let apps: Vec<(WorkloadProfile, f32)> = vec![
        (spark::by_name("gmm").unwrap(), 1.05),
        (spark::by_name("nweight").unwrap(), 2.0),
    ];
    let mut records = Vec::new();
    for _ in 0..15 {
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
    let signatures: Vec<AppSignature> = vec![
        AppSignature::new("gmm", vec![metric_row(0.1); 20]),
        AppSignature::new("nweight", vec![metric_row(0.9); 20]),
    ];
    PerfDataset::new(records, &signatures)
}

fn train_parts() -> TrainedParts {
    let mut rng = Xoshiro256pp::seed_from_u64(0);

    // System model on a flat synthetic trace.
    let trace: Vec<MetricVec> = (0..400)
        .map(|t| metric_row(((t as f32) * 0.02).sin() * 0.2))
        .collect();
    let sys_ds = SystemStateDataset::from_traces(&[&trace], 10);
    let mut system_model = SystemStateModel::new(SystemStateModelConfig {
        epochs: 4,
        hidden: 6,
        block_width: 8,
        ..SystemStateModelConfig::tiny()
    });
    system_model.train(&sys_ds);

    // Perf datasets: gmm cheap remote (1.05×), nweight costly (2×);
    // redis p99 1.2 local / 2.4 remote.
    let be_apps: Vec<(WorkloadProfile, f32)> = vec![
        (spark::by_name("gmm").unwrap(), 1.05),
        (spark::by_name("nweight").unwrap(), 2.0),
    ];
    // Records vary in background load `x`, which shows up in the
    // history window, the future state and (mildly) the performance —
    // mirroring the structure of real traces so the Ŝ input weights
    // are properly constrained during training.
    let mut be_records = Vec::new();
    for _ in 0..60 {
        let (app, penalty) = &be_apps[rng.gen_range(0..be_apps.len())];
        let x: f32 = rng.gen_range(-0.2..0.2);
        for mode in MemoryMode::BOTH {
            let perf = app.base_runtime_s()
                * if mode == MemoryMode::Remote {
                    *penalty
                } else {
                    1.0
                }
                * (1.0 + 0.1 * (x + 0.2));
            be_records.push(PerfRecord {
                app: app.name().to_owned(),
                mode,
                history: vec![metric_row(x); HISTORY_S],
                future_120: metric_row(x),
                future_exec: metric_row(x),
                perf,
            });
        }
    }
    let mut lc_records = Vec::new();
    for _ in 0..40 {
        let x: f32 = rng.gen_range(-0.2..0.2);
        for mode in MemoryMode::BOTH {
            lc_records.push(PerfRecord {
                app: "redis".to_owned(),
                mode,
                history: vec![metric_row(x); HISTORY_S],
                future_120: metric_row(x),
                future_exec: metric_row(x),
                perf: (if mode == MemoryMode::Remote { 2.4 } else { 1.2 })
                    * (1.0 + 0.1 * (x + 0.2)),
            });
        }
    }
    let signatures: Vec<AppSignature> = vec![
        AppSignature::new("gmm", vec![metric_row(0.1); 20]),
        AppSignature::new("nweight", vec![metric_row(0.9); 20]),
        AppSignature::new("redis", vec![metric_row(0.5); 20]),
    ];
    let be_ds = PerfDataset::new(be_records, &signatures);
    let lc_ds = PerfDataset::new(lc_records, &signatures);
    let cfg = PerfModelConfig {
        epochs: 80,
        hidden: 8,
        block_width: 12,
        learning_rate: 4e-3,
        dropout: 0.0,
        ..PerfModelConfig::tiny()
    };
    let be_hats: Vec<Option<MetricVec>> =
        be_ds.records().iter().map(|r| Some(r.future_120)).collect();
    let lc_hats: Vec<Option<MetricVec>> =
        lc_ds.records().iter().map(|r| Some(r.future_120)).collect();
    let mut be_model = PerfModel::new(cfg);
    be_model.train(&be_ds, &be_hats);
    let mut lc_model = PerfModel::new(cfg);
    lc_model.train(&lc_ds, &lc_hats);

    (system_model, be_model, lc_model, signatures)
}
