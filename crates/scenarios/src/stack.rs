//! One-call training of the full Adrias model stack.
//!
//! Bundles the whole offline phase: collect signatures, run the trace
//! corpus, build datasets, train the system-state model and both
//! performance models — and keep the datasets around for the accuracy
//! benches.

use adrias_core::rng::SeedableRng;
use adrias_core::rng::Xoshiro256pp;

use adrias_obs::Observer;
use adrias_orchestrator::AdriasPolicy;
use adrias_predictor::{
    PerfDataset, PerfModel, PerfModelConfig, SHatSource, SystemStateDataset, SystemStateModel,
    SystemStateModelConfig,
};
use adrias_sim::TestbedConfig;
use adrias_workloads::{AppSignature, WorkloadCatalog, WorkloadClass};

use crate::signatures::collect_signatures;
use crate::spec::{scaled_corpus, ScenarioSpec};
use crate::traces::{collect_traces, TraceBundle};

/// Options controlling the offline phase.
#[derive(Debug, Clone)]
pub struct StackOptions {
    /// The testbed model.
    pub testbed: TestbedConfig,
    /// The trace-collection corpus.
    pub corpus: Vec<ScenarioSpec>,
    /// Sliding-window stride for the system-state dataset, seconds.
    pub system_stride_s: usize,
    /// System-state model hyper-parameters.
    pub system_cfg: SystemStateModelConfig,
    /// Performance-model hyper-parameters (shared by BE and LC).
    pub perf_cfg: PerfModelConfig,
    /// Train fraction of the 60/40 split.
    pub train_frac: f64,
    /// How many times each LC service appears in the *trace-collection*
    /// catalog. The paper's 72-hour corpus yields thousands of LC
    /// deployments; at reduced scale the LC model would starve on a
    /// uniform catalog, so trace scenarios oversample the two stores
    /// (evaluation scenarios always use the unmodified catalog).
    pub lc_oversample: usize,
    /// Worker threads for trace collection.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for StackOptions {
    fn default() -> Self {
        Self {
            testbed: TestbedConfig::paper(),
            corpus: scaled_corpus(12, 1500.0),
            system_stride_s: 10,
            system_cfg: SystemStateModelConfig {
                epochs: 50,
                hidden: 48,
                block_width: 64,
                ..SystemStateModelConfig::default()
            },
            perf_cfg: PerfModelConfig::default(),
            train_frac: 0.6,
            lc_oversample: 3,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            seed: 0x57ACB,
        }
    }
}

impl StackOptions {
    /// A fast configuration for tests: few short scenarios, tiny models.
    ///
    /// The performance models are trained on actual 120 s future means
    /// and served with the propagated `Ŝ`, so the system model must be
    /// trained well enough to keep `Ŝ` in-distribution even here.
    pub fn quick() -> Self {
        Self {
            corpus: scaled_corpus(4, 900.0),
            system_cfg: SystemStateModelConfig {
                epochs: 30,
                ..SystemStateModelConfig::tiny()
            },
            perf_cfg: PerfModelConfig {
                epochs: 25,
                ..PerfModelConfig::tiny()
            },
            testbed: TestbedConfig::noiseless(),
            ..Self::default()
        }
    }
}

/// The trained Adrias stack plus everything the evaluation needs.
#[derive(Debug, Clone)]
pub struct TrainedStack {
    /// The trace bundle the stack was trained on.
    pub traces: TraceBundle,
    /// Captured application signatures.
    pub signatures: Vec<AppSignature>,
    /// Trained system-state forecaster.
    pub system_model: SystemStateModel,
    /// Trained universal BE performance model.
    pub be_model: PerfModel,
    /// Trained universal LC performance model.
    pub lc_model: PerfModel,
    /// System-state train/test datasets.
    pub system_split: (SystemStateDataset, SystemStateDataset),
    /// BE performance train/test datasets.
    pub be_split: (PerfDataset, PerfDataset),
    /// LC performance train/test datasets (`None` when too few LC
    /// records were collected for a split).
    pub lc_split: Option<(PerfDataset, PerfDataset)>,
    /// Per-epoch training losses of the three models.
    pub train_losses: TrainLosses,
}

/// Per-epoch training losses from the offline phase, one vector per
/// model, in training order.
#[derive(Debug, Clone, Default)]
pub struct TrainLosses {
    /// System-state forecaster epoch losses.
    pub system: Vec<f32>,
    /// Best-effort performance model epoch losses.
    pub be: Vec<f32>,
    /// Latency-critical performance model epoch losses.
    pub lc: Vec<f32>,
}

impl TrainedStack {
    /// Instantiates the Adrias policy with slack `beta` and the given
    /// default QoS constraint.
    pub fn policy(&self, beta: f32, qos_p99_ms: f32) -> AdriasPolicy {
        AdriasPolicy::new(
            self.system_model.clone(),
            self.be_model.clone(),
            self.lc_model.clone(),
            self.signatures.clone(),
            beta,
            qos_p99_ms,
        )
    }

    /// Records the offline phase's training counters and per-epoch
    /// losses into `obs` under `predictor.system` / `predictor.be` /
    /// `predictor.lc`.
    pub fn record_obs(&self, obs: &mut Observer) {
        for (prefix, stats, losses) in [
            (
                "predictor.system",
                self.system_model.last_train_stats(),
                self.train_losses.system.as_slice(),
            ),
            (
                "predictor.be",
                self.be_model.last_train_stats(),
                self.train_losses.be.as_slice(),
            ),
            (
                "predictor.lc",
                self.lc_model.last_train_stats(),
                self.train_losses.lc.as_slice(),
            ),
        ] {
            if let Some(stats) = stats {
                obs.record_train_stats(prefix, &stats, losses);
            }
        }
    }
}

/// Runs the full offline phase (§V-B) and returns the trained stack.
///
/// Training order follows the paper's best practice from Fig. 13b
/// (`{120, Ŝ}`): the system-state model is trained first, the
/// performance models are trained with the **actual** 120 s future
/// means, and at run time they consume the `Ŝ` **propagated** from the
/// system-state model.
///
/// # Panics
///
/// Panics if the corpus yields no usable records (scenarios too short).
pub fn train_stack(catalog: &WorkloadCatalog, opts: &StackOptions) -> TrainedStack {
    let signatures = collect_signatures(opts.testbed, catalog, opts.seed);
    // Oversample LC services in the trace catalog (see `lc_oversample`).
    let trace_catalog = {
        let mut entries = catalog.entries().to_vec();
        let lc: Vec<_> = catalog.latency_critical().cloned().collect();
        for _ in 1..opts.lc_oversample.max(1) {
            entries.extend(lc.iter().cloned());
        }
        WorkloadCatalog::from_profiles(entries)
    };
    let traces = collect_traces(opts.testbed, &trace_catalog, &opts.corpus, opts.threads);

    let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);
    let system_ds = SystemStateDataset::from_traces(&traces.system_traces(), opts.system_stride_s);
    let (sys_train, sys_test) = system_ds.split(opts.train_frac, &mut rng);
    let mut system_model = SystemStateModel::new(opts.system_cfg);
    let system_losses = system_model.train(&sys_train);

    let be_records = traces.perf_records(WorkloadClass::BestEffort);
    let be_ds = PerfDataset::new(be_records, &signatures);
    let (be_train, be_test) = be_ds.split(opts.train_frac, &mut rng);
    let be_train_hats = SHatSource::Actual120.materialize(&be_train, None);
    let mut be_model = PerfModel::new(opts.perf_cfg);
    let be_losses = be_model.train(&be_train, &be_train_hats);

    let lc_records = traces.perf_records(WorkloadClass::LatencyCritical);
    // The LC dataset is much smaller than the BE one, so give the LC
    // model extra epochs (cheap at that size).
    let mut lc_model = PerfModel::new(PerfModelConfig {
        seed: opts.perf_cfg.seed ^ 0x1C,
        epochs: opts.perf_cfg.epochs + opts.perf_cfg.epochs / 2,
        ..opts.perf_cfg
    });
    let (lc_split, lc_losses) = if lc_records.len() >= 5 {
        let lc_ds = PerfDataset::new(lc_records, &signatures);
        let (lc_train, lc_test) = lc_ds.split(opts.train_frac, &mut rng);
        let lc_train_hats = SHatSource::Actual120.materialize(&lc_train, None);
        let losses = lc_model.train(&lc_train, &lc_train_hats);
        (Some((lc_train, lc_test)), losses)
    } else {
        // Too few LC records for a meaningful split: train on everything.
        let lc_ds = PerfDataset::new(lc_records, &signatures);
        let hats = SHatSource::Actual120.materialize(&lc_ds, None);
        let losses = lc_model.train(&lc_ds, &hats);
        (None, losses)
    };

    TrainedStack {
        traces,
        signatures,
        system_model,
        be_model,
        lc_model,
        system_split: (sys_train, sys_test),
        be_split: (be_train, be_test),
        lc_split,
        train_losses: TrainLosses {
            system: system_losses,
            be: be_losses,
            lc: lc_losses,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_predictor::persist::{
        load_perf_model, load_system_model, save_perf_model, save_system_model,
    };
    use std::sync::OnceLock;

    fn stack() -> &'static TrainedStack {
        static STACK: OnceLock<TrainedStack> = OnceLock::new();
        STACK.get_or_init(|| train_stack(&WorkloadCatalog::paper(), &StackOptions::quick()))
    }

    #[test]
    fn quick_stack_trains_end_to_end() {
        let stack = stack();
        assert!(stack.system_model.is_trained());
        assert!(stack.be_model.is_trained());
        assert!(stack.lc_model.is_trained());
        assert_eq!(stack.signatures.len(), 19, "17 Spark + 2 LC signatures");
        assert!(!stack.traces.is_empty());
        assert!(!stack.be_split.0.is_empty());

        let policy = stack.policy(0.8, 5.0);
        assert_eq!(policy.beta(), 0.8);
        assert!(policy.knows("gmm"));
        assert!(policy.knows("redis"));

        // The offline phase reports its training work to an observer.
        assert!(!stack.train_losses.system.is_empty());
        let mut obs = Observer::default();
        stack.record_obs(&mut obs);
        assert!(obs.registry.counter("predictor.system.epochs") > 0);
        assert!(obs.registry.counter("predictor.be.minibatches") > 0);
        assert!(obs.registry.counter("predictor.lc.grad_chunks") > 0);
        assert_eq!(
            obs.registry
                .sketch("predictor.system.epoch_loss")
                .unwrap()
                .count() as usize,
            stack.train_losses.system.len()
        );
        assert!(obs.registry.gauge("predictor.be.final_loss").is_some());
    }

    /// A `visit_storage` callback asserting that every non-empty buffer
    /// starts on a 32-byte boundary; counts what it saw.
    fn assert_aligned<'a>(
        what: &'a str,
        seen: &'a mut usize,
    ) -> impl FnMut(&'static str, &[f32]) + 'a {
        move |name, buf| {
            if !buf.is_empty() {
                *seen += 1;
                let phase = buf.as_ptr() as usize % 32;
                assert_eq!(phase, 0, "{what}: {name} starts at phase {phase}");
            }
        }
    }

    /// Every buffer the forecast reads or writes is 32-byte aligned
    /// however its owner came to be: trained in place, cloned into a
    /// policy, cloned again, or parsed back from a saved model.
    #[test]
    fn every_buffer_of_a_trained_stack_is_32_byte_aligned() {
        let stack = stack();
        let mut seen = 0;
        stack
            .system_model
            .visit_storage(&mut assert_aligned("trained system model", &mut seen));
        stack
            .be_model
            .visit_storage(&mut assert_aligned("trained BE model", &mut seen));
        stack
            .lc_model
            .visit_storage(&mut assert_aligned("trained LC model", &mut seen));
        // 3 models of ≥ 2 LSTMs with weights, gradients, transposes and
        // a used workspace each: the walk is not vacuous.
        assert!(seen > 150, "only {seen} buffers visited");

        // `policy` clones the three models and builds their scratches.
        // Allocations of odd sizes in between shift where the next
        // clone's buffers land.
        let policy = stack.policy(0.8, 5.0);
        let _spacers: Vec<Vec<u8>> = (1..40).map(|n| vec![0u8; 8 * n + 4]).collect();
        let second = stack.policy(0.8, 5.0);
        let mut seen = 0;
        policy.visit_storage(&mut assert_aligned("policy", &mut seen));
        second.visit_storage(&mut assert_aligned("second policy", &mut seen));
        assert!(seen > 400, "only {seen} buffers visited");

        let clone_of_clone = stack.system_model.clone().clone();
        clone_of_clone.visit_storage(&mut assert_aligned("clone of a clone", &mut seen));
        let scratch = clone_of_clone.make_scratch().clone();
        scratch.visit_storage(&mut assert_aligned("cloned scratch", &mut seen));

        // Save → load: every tensor is parsed into storage of its own.
        let text = save_system_model(&mut stack.system_model.clone()).expect("trained");
        let loaded = load_system_model(&text).expect("round trip");
        loaded.visit_storage(&mut assert_aligned("loaded system model", &mut seen));
        let text = save_perf_model(&mut stack.be_model.clone()).expect("trained");
        let loaded = load_perf_model(&text).expect("round trip");
        loaded.visit_storage(&mut assert_aligned("loaded BE model", &mut seen));
        loaded
            .make_scratch()
            .visit_storage(&mut assert_aligned("loaded BE scratch", &mut seen));
    }
}
