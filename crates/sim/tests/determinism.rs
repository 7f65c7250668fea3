//! Simulator determinism and cross-module consistency.

use adrias_sim::{Metric, Testbed, TestbedConfig};
use adrias_workloads::{ibench, keyvalue, spark, IbenchKind, MemoryMode};

#[test]
fn same_seed_replays_identically() {
    let run = || {
        let mut tb = Testbed::new(TestbedConfig::paper(), 1234);
        tb.deploy(spark::by_name("sort").unwrap(), MemoryMode::Remote);
        tb.deploy(spark::by_name("gmm").unwrap(), MemoryMode::Local);
        tb.deploy_for(keyvalue::redis(), MemoryMode::Remote, 120.0);
        let mut samples = Vec::new();
        let mut finished = Vec::new();
        for _ in 0..200 {
            let r = tb.step();
            samples.push(r.sample);
            finished.extend(
                r.finished
                    .into_iter()
                    .map(|c| (c.profile.name().to_owned(), c.finished_s)),
            );
        }
        (samples, finished, tb.link_bytes_total())
    };
    let (s1, f1, b1) = run();
    let (s2, f2, b2) = run();
    assert_eq!(s1, s2, "metric streams must replay identically");
    assert_eq!(f1, f2, "completions must replay identically");
    assert_eq!(b1, b2);
}

#[test]
fn different_seeds_only_perturb_noise() {
    // With noise enabled, different seeds change samples but not the
    // deterministic progress/completion logic.
    let run = |seed| {
        let mut tb = Testbed::new(TestbedConfig::paper(), seed);
        let id = tb.deploy(spark::by_name("wordcount").unwrap(), MemoryMode::Local);
        loop {
            let r = tb.step();
            if let Some(c) = r.finished.into_iter().find(|c| c.id == id) {
                return c.finished_s;
            }
        }
    };
    assert_eq!(
        run(1),
        run(2),
        "completion time must not depend on noise seed"
    );
}

#[test]
fn counters_compose_additively_across_apps() {
    let cfg = TestbedConfig::noiseless();
    let sample_of = |apps: &[(&str, MemoryMode)]| {
        let mut tb = Testbed::new(cfg, 0);
        for (name, mode) in apps {
            tb.deploy(spark::by_name(name).unwrap(), *mode);
        }
        tb.step().sample
    };
    let a = sample_of(&[("gmm", MemoryMode::Local)]);
    let b = sample_of(&[("pca", MemoryMode::Local)]);
    let both = sample_of(&[("gmm", MemoryMode::Local), ("pca", MemoryMode::Local)]);
    // LLC loads are per-app demand driven and should add up when
    // contention is negligible (two small apps).
    let sum = a.get(Metric::LlcLoads) + b.get(Metric::LlcLoads);
    let rel = (both.get(Metric::LlcLoads) - sum).abs() / sum;
    assert!(rel < 0.05, "LLC loads should compose: {rel}");
}

#[test]
fn mixed_mode_colocations_split_traffic() {
    let cfg = TestbedConfig::noiseless();
    let mut tb = Testbed::new(cfg, 0);
    tb.deploy_for(
        ibench::profile(IbenchKind::MemBw),
        MemoryMode::Local,
        1000.0,
    );
    tb.deploy_for(
        ibench::profile(IbenchKind::MemBw),
        MemoryMode::Remote,
        1000.0,
    );
    let r = tb.step();
    // Remote stressor drives the link; local stressor only local DRAM.
    assert!(r.sample.get(Metric::LinkFlitsRx) > 0.0);
    assert!(r.pressure.link_utilization > 0.0);
    // Local traffic includes both the local stressor and the delivered
    // remote traffic (R3).
    assert!(
        r.pressure.local_traffic_gbps > r.pressure.link_delivered_gbps,
        "local traffic must include the local stressor too"
    );
}

#[test]
fn long_runs_do_not_accumulate_state_errors() {
    let mut tb = Testbed::new(TestbedConfig::noiseless(), 3);
    // Deploy/complete many waves of applications.
    for wave in 0..10 {
        let id = tb.deploy(spark::by_name("wordcount").unwrap(), MemoryMode::Local);
        loop {
            let r = tb.step();
            if r.finished.iter().any(|c| c.id == id) {
                break;
            }
        }
        assert_eq!(tb.resident_count(), 0, "wave {wave} left residue");
    }
    // After all waves the testbed is idle again.
    let p = tb.pressure();
    assert_eq!(p.llc, 0.0);
    assert_eq!(p.link_utilization, 0.0);
}
