//! The fixture the orchestrator's integration tests share.

use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias_orchestrator::AdriasPolicy;
use adrias_predictor::dataset::{PerfRecord, HISTORY_S};
use adrias_predictor::{
    PerfDataset, PerfModel, PerfModelConfig, SystemStateDataset, SystemStateModel,
    SystemStateModelConfig,
};
use adrias_telemetry::{Metric, MetricVec};
use adrias_workloads::{spark, AppSignature, MemoryMode, WorkloadProfile};

/// One synthetic Watcher row at background-load level `x`.
pub fn metric_row(x: f32) -> MetricVec {
    let mut v = MetricVec::zero();
    v.set(Metric::LlcLoads, 1e8 * (1.0 + x));
    v.set(Metric::MemLoads, 4e7 * (1.0 + x));
    v.set(Metric::LinkLatency, 350.0 + 100.0 * x);
    v
}

/// A minimal trained policy (tiny models, synthetic traces) — only the
/// decision path matters here, not predictive quality.
pub fn tiny_policy() -> AdriasPolicy {
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let trace: Vec<MetricVec> = (0..400)
        .map(|t| metric_row(((t as f32) * 0.02).sin() * 0.2))
        .collect();
    let sys_ds = SystemStateDataset::from_traces(&[&trace], 10);
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
