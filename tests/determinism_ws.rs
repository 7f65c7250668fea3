//! Workspace-level determinism: the scenario runner must be a pure
//! function of its seeds. Same seed ⇒ bit-identical decision traces
//! and counter series (across thread counts too); different seeds ⇒
//! different traces. This is the contract that makes every figure in
//! the reproduction replayable.

use adrias::core_util::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias::orchestrator::engine::RunReport;
use adrias::orchestrator::{Policy, RandomPolicy, RoundRobinPolicy};
use adrias::predictor::{SystemStateDataset, SystemStateModel, SystemStateModelConfig};
use adrias::scenarios::{run_comparison, PolicyOutcome, ScenarioSpec};
use adrias::sim::TestbedConfig;
use adrias::telemetry::{MetricSample, MetricVec, METRIC_COUNT};
use adrias::workloads::{MemoryMode, WorkloadCatalog};

fn specs(seed: u64) -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(5.0, 25.0, 700.0, seed),
        ScenarioSpec::new(5.0, 45.0, 700.0, seed ^ 0xABCD),
    ]
}

fn run_once(seed: u64, threads: usize) -> Vec<PolicyOutcome> {
    run_comparison(
        TestbedConfig::noiseless(),
        &WorkloadCatalog::paper(),
        &specs(seed),
        2,
        Some(5.0),
        threads,
        |i| -> Box<dyn Policy + Send> {
            match i {
                0 => Box::new(RandomPolicy::new(99)),
                _ => Box::new(RoundRobinPolicy::new()),
            }
        },
    )
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
            // Counter series: bit-identical 1 Hz metric samples.
            assert_eq!(ra.samples.len(), rb.samples.len());
            for (sa, sb) in ra.samples.iter().zip(&rb.samples) {
                assert_eq!(sa, sb, "counter series diverged");
            }
            assert_eq!(ra.link_bytes, rb.link_bytes);
        }
    }
}

#[test]
fn same_seed_same_traces() {
    let first = run_once(7, 2);
    let second = run_once(7, 2);
    assert_outcomes_identical(&first, &second);
}

#[test]
fn thread_count_does_not_change_results() {
    let sequential = run_once(7, 1);
    let parallel = run_once(7, 4);
    assert_outcomes_identical(&sequential, &parallel);
}

/// A small deterministic telemetry corpus for training-loop tests: two
/// traces of slow sine-wave metrics with seeded jitter, long enough for
/// a couple dozen history→horizon windows.
fn synthetic_traces(seed: u64) -> Vec<Vec<MetricSample>> {
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
                    MetricSample::new(f64::from(t), MetricVec::from_array(values))
                })
                .collect()
        })
        .collect()
}

fn loss_trace_with_workers(workers: usize) -> Vec<u32> {
    let dataset = SystemStateDataset::from_traces(&synthetic_traces(41), 30);
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
