//! Workspace-level adaptation contract: the drift loop's exports —
//! capture audits, drift events, swap records — are byte-identical
//! across same-seed runs and training worker counts, the disabled
//! loop is bit-identical to a plain observed run, and a tracker riding
//! along adds its residual sketches to the exports and nothing else.

use adrias::obs::{export, ObsConfig, Observer};
use adrias::scenarios::{
    degraded_testbed, run_drift_phases, train_stack, DriftPhase, DriftRunConfig, Replay,
    ScenarioSpec, StackOptions, TrainedStack,
};
use adrias::sim::TestbedConfig;
use adrias::workloads::WorkloadCatalog;

/// A short stable→degraded corpus: long enough for residual joins and
/// Page–Hinkley warm-up, short enough for a test.
fn phases(seed: u64) -> Vec<DriftPhase> {
    vec![
        DriftPhase::new(
            TestbedConfig::noiseless(),
            ScenarioSpec::new(5.0, 25.0, 900.0, seed),
        ),
        DriftPhase::new(
            degraded_testbed(),
            ScenarioSpec::new(5.0, 30.0, 900.0, seed ^ 0x2),
        ),
    ]
}

/// Trains the quick stack with an explicit data-parallel worker count
/// for all three models, so worker invariance is checked through
/// training, fine-tuning and the gate's evaluation passes.
fn stack_with_workers(workers: usize) -> TrainedStack {
    let mut opts = StackOptions::quick();
    opts.system_cfg.workers = workers;
    opts.perf_cfg.workers = workers;
    train_stack(&WorkloadCatalog::paper(), &opts)
}

/// Runs the full drift loop and returns the five export documents.
fn exports(stack: &TrainedStack, seed: u64) -> (Observer, [String; 5]) {
    let catalog = WorkloadCatalog::paper();
    let mut policy = stack.policy(0.8, 5.0);
    let mut obs = Observer::new(ObsConfig::default());
    let _ = run_drift_phases(
        &catalog,
        &phases(seed),
        &mut policy,
        &DriftRunConfig::default(),
        &mut obs,
    );
    let docs = [
        export::to_jsonl_events(&obs),
        export::to_jsonl_decisions(&obs),
        export::to_jsonl_metrics(&obs),
        export::to_jsonl_adaptation(&obs),
        export::to_chrome_trace(&obs),
    ];
    (obs, docs)
}

#[test]
fn adaptation_exports_are_seed_stable_and_worker_invariant() {
    let base_stack = stack_with_workers(1);
    for seed in [0u64, 1, 2] {
        let (obs, base) = exports(&base_stack, seed);
        assert!(
            !obs.adapt.drifts().is_empty(),
            "seed {seed}: the stable→degraded corpus must fire drift"
        );
        assert!(
            !obs.adapt.swaps().is_empty(),
            "seed {seed}: drift must reach the swap gate"
        );
        adrias::obs::validate_jsonl_adaptation(&base[3]).expect("adaptation export validates");

        let (_, again) = exports(&base_stack, seed);
        assert_eq!(base, again, "seed {seed}: same-seed rerun diverged");

        for workers in [2usize, 8] {
            let stack = stack_with_workers(workers);
            let (_, docs) = exports(&stack, seed);
            assert_eq!(
                base, docs,
                "seed {seed}: exports diverged at {workers} training workers"
            );
        }
    }
}

#[test]
fn disabled_loop_exports_match_a_plain_observed_run() {
    let stack = stack_with_workers(1);
    let catalog = WorkloadCatalog::paper();
    let corpus = phases(5);

    let mut looped_policy = stack.policy(0.8, 5.0);
    let mut looped_obs = Observer::new(ObsConfig::default());
    let looped = run_drift_phases(
        &catalog,
        &corpus,
        &mut looped_policy,
        &DriftRunConfig::disabled(),
        &mut looped_obs,
    );

    let mut plain_policy = stack.policy(0.8, 5.0);
    let mut plain_obs = Observer::new(ObsConfig::default());
    let mut plain_reports = Vec::new();
    for phase in &corpus {
        let replay = Replay::new(phase.testbed, &catalog, phase.spec);
        plain_reports.push(replay.run(&mut plain_policy, &mut replay.observed(&mut plain_obs)));
    }

    for (a, b) in looped.phases.iter().map(|p| &p.report).zip(&plain_reports) {
        assert_eq!(a.end_time_s.to_bits(), b.end_time_s.to_bits());
        assert_eq!(a.link_bytes.to_bits(), b.link_bytes.to_bits());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.runtime_s.to_bits(), y.runtime_s.to_bits());
        }
    }
    for (a, b) in [
        export::to_jsonl_events(&looped_obs),
        export::to_jsonl_decisions(&looped_obs),
        export::to_jsonl_metrics(&looped_obs),
        export::to_jsonl_adaptation(&looped_obs),
        export::to_chrome_trace(&looped_obs),
    ]
    .iter()
    .zip([
        export::to_jsonl_events(&plain_obs),
        export::to_jsonl_decisions(&plain_obs),
        export::to_jsonl_metrics(&plain_obs),
        export::to_jsonl_adaptation(&plain_obs),
        export::to_chrome_trace(&plain_obs),
    ]) {
        assert_eq!(*a, b, "disabled loop must export identical bytes");
    }

    // A tracker riding along adds and removes nothing but its own
    // residual sketches. One stable-link phase with the detectors'
    // threshold out of reach (a firing detector legitimately adds a
    // drift event to the trace), a QoS target set so the burn monitor
    // runs, tracked vs untracked.
    let stable = &corpus[..1];
    let run = |track: bool| {
        let mut cfg = DriftRunConfig {
            track,
            adapt: false,
            qos_p99_ms: Some(5.0),
            ..DriftRunConfig::default()
        };
        cfg.residual.drift.lambda = f64::MAX;
        let mut policy = stack.policy(0.8, 5.0);
        let mut obs = Observer::new(ObsConfig::default());
        let result = run_drift_phases(&catalog, stable, &mut policy, &cfg, &mut obs);
        assert_eq!(result.total_drifts(), 0);
        (obs, result)
    };
    let (tracked, tracked_result) = run(true);
    let (untracked, _) = run(false);
    assert_eq!(
        export::to_jsonl_spans(&tracked),
        export::to_jsonl_spans(&untracked)
    );
    assert_eq!(
        export::to_jsonl_events(&tracked),
        export::to_jsonl_events(&untracked)
    );
    assert_eq!(
        export::to_jsonl_decisions(&tracked),
        export::to_jsonl_decisions(&untracked)
    );
    assert_eq!(
        export::to_chrome_trace(&tracked),
        export::to_chrome_trace(&untracked)
    );
    let tracked_metrics = export::to_jsonl_metrics(&tracked);
    let (residual, shared): (Vec<&str>, Vec<&str>) = tracked_metrics
        .lines()
        .partition(|l| l.contains(r#""name":"adapt.residual."#));
    assert!(!residual.is_empty(), "the tracker must have tracked");
    assert_eq!(
        shared,
        export::to_jsonl_metrics(&untracked)
            .lines()
            .collect::<Vec<_>>(),
        "tracking may only add adapt.residual.* sketches"
    );

    let report = &tracked_result.phases[0].report;
    let admissions = report.outcomes.len() + report.unfinished;
    for obs in [&tracked, &untracked] {
        assert_eq!(
            obs.registry.counter("engine.events_popped.arrival") as usize,
            admissions
        );
        let waits = obs.registry.sketch("orchestrator.queue_wait_s");
        assert_eq!(waits.map(|s| s.count() as usize), Some(admissions));
        assert_eq!(obs.spans.len(), report.outcomes.len());
        // The QoS target reaches the burn monitor on both branches.
        for window in ["slo.burn.rate.60s", "slo.burn.rate.300s"] {
            assert_eq!(
                obs.registry.gauge(window),
                tracked.registry.gauge(window),
                "{window}"
            );
            assert!(obs.registry.gauge(window).is_some(), "{window} missing");
        }
    }
}
