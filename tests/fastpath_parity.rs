//! Pins the decision fast lane end to end: a full engine run driven by
//! the Adrias policy with the fast lane on (cached `Ŝ` forecast,
//! register-blocked micro-kernels, allocation-free scratch) must
//! produce a report **byte-identical** to the slow lane's, for every
//! seed and worker count. This is the contract that lets the fast lane
//! replace the slow one without re-validating a single figure.

use std::sync::OnceLock;

use adrias::core_util::prop::prelude::*;
use adrias::orchestrator::engine::{run_stream_hooked, EngineConfig, ScheduleStream};
use adrias::orchestrator::{AdriasPolicy, DecisionContext};
use adrias::predictor::dataset::HISTORY_S;
use adrias::scenarios::schedule::PlacementStyle;
use adrias::scenarios::{build_schedule, train_stack, ScenarioSpec, StackOptions, TrainedStack};
use adrias::sim::TestbedConfig;
use adrias::telemetry::{MetricVec, WindowStamp, METRIC_COUNT};
use adrias::workloads::{spark, AppSignature, WorkloadCatalog};

fn trained() -> &'static (WorkloadCatalog, TrainedStack) {
    static STACK: OnceLock<(WorkloadCatalog, TrainedStack)> = OnceLock::new();
    STACK.get_or_init(|| {
        let catalog = WorkloadCatalog::paper();
        let stack = train_stack(&catalog, &StackOptions::quick());
        (catalog, stack)
    })
}

/// Builds the Adrias policy with the given inference worker count and
/// lane, without retraining.
fn policy(stack: &TrainedStack, workers: usize, fast: bool) -> AdriasPolicy {
    let mut system_model = stack.system_model.clone();
    let mut be_model = stack.be_model.clone();
    let mut lc_model = stack.lc_model.clone();
    system_model.set_workers(workers);
    be_model.set_workers(workers);
    lc_model.set_workers(workers);
    let mut policy = AdriasPolicy::new(
        system_model,
        be_model,
        lc_model,
        stack.signatures.clone(),
        0.8,
        5.0,
    );
    policy.set_fast_path(fast);
    policy
}

/// One full scenario run, rendered to its exact debug form — every
/// placement, runtime bit pattern and counter sample included.
fn report_bytes(
    stack: &TrainedStack,
    catalog: &WorkloadCatalog,
    seed: u64,
    workers: usize,
    fast: bool,
) -> String {
    let spec = ScenarioSpec::new(5.0, 30.0, 700.0, seed);
    let schedule = build_schedule(&spec, catalog, PlacementStyle::PolicyDecided);
    let engine = EngineConfig {
        seed: spec.seed ^ 0xE6E,
        qos_p99_ms: Some(5.0),
        ..EngineConfig::default()
    };
    let mut policy = policy(stack, workers, fast);
    let report = run_stream_hooked(
        TestbedConfig::noiseless(),
        engine,
        &mut ScheduleStream::new(&schedule),
        &[],
        &mut policy,
        &mut (),
    );
    format!("{report:?}")
}

/// Deterministic synthetic Watcher window: row `i`, metric `j` carry a
/// value derived from `seed`, so distinct seeds give distinct windows
/// and equal seeds give bit-identical ones.
fn synth_window(seed: u64) -> Vec<MetricVec> {
    (0..HISTORY_S)
        .map(|i| {
            let mut row = [0.0f32; METRIC_COUNT];
            for (j, v) in row.iter_mut().enumerate() {
                let h = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i * METRIC_COUNT + j) as u64);
                *v = (h % 997) as f32 / 100.0;
            }
            MetricVec::from_array(row)
        })
        .collect()
}

/// A replacement signature for `app` whose rows depend on `salt`.
fn synth_signature(app: &str, salt: u64) -> AppSignature {
    let rows: Vec<MetricVec> = synth_window(salt ^ 0x51617).into_iter().take(12).collect();
    AppSignature::new(app, rows)
}

/// Queries both lanes for the BE and LC probes and asserts bit-identical
/// predictions; returns the fast-lane values for staleness checks.
fn parity_probe(
    fast: &mut AdriasPolicy,
    slow: &mut AdriasPolicy,
    window: &[MetricVec],
    stamp: WindowStamp,
) -> Vec<Option<(f32, f32)>> {
    let be = spark::by_name("gmm").unwrap();
    let lc = adrias::workloads::keyvalue::memcached();
    let mut out = Vec::new();
    for profile in [&be, &lc] {
        let ctx = DecisionContext {
            profile,
            history: Some(window),
            qos_p99_ms: Some(5.0),
            stamp: Some(stamp),
        };
        let f = fast.predict_perf_both(&ctx);
        let s = slow.predict_perf_both(&ctx);
        assert_eq!(f, s, "lanes diverged for {}", profile.name());
        out.push(f);
    }
    out
}

/// The memoisation contract, spelled out: mutations that change what a
/// decision depends on — a replaced signature, a hot-swapped model, a
/// Watcher window under a bumped [`WindowStamp`] version — must each
/// force the fast lane off its caches. The slow lane recomputes from
/// scratch every call, so "fast == slow **and** the prediction moved"
/// proves the stale entry was actually dropped.
#[test]
fn signature_store_hot_swap_and_stamp_bump_invalidate_the_fast_lane() {
    let (_, stack) = trained();
    let mut fast = policy(stack, 1, true);
    let mut slow = policy(stack, 1, false);
    let window = synth_window(1);
    let stamp = WindowStamp {
        source: 7,
        version: 1,
    };

    let p0 = parity_probe(&mut fast, &mut slow, &window, stamp);
    // Re-query on the same stamp: served from cache, still in parity.
    let p0_cached = parity_probe(&mut fast, &mut slow, &window, stamp);
    assert_eq!(p0, p0_cached);

    // Replacing the BE probe's signature must invalidate its h_k
    // features even though the stamp (and thus Ŝ) is unchanged.
    fast.store_signature(synth_signature("gmm", 99));
    slow.store_signature(synth_signature("gmm", 99));
    let p1 = parity_probe(&mut fast, &mut slow, &window, stamp);
    assert_ne!(p0[0], p1[0], "BE prediction ignored the new signature");
    assert_eq!(p0[1], p1[1], "LC prediction must not depend on gmm");

    // Hot-swapping a perf model rebuilds everything derived from it.
    fast.swap_be_model(stack.lc_model.clone());
    slow.swap_be_model(stack.lc_model.clone());
    let p2 = parity_probe(&mut fast, &mut slow, &window, stamp);
    assert_ne!(p1[0], p2[0], "BE prediction ignored the swapped model");

    fast.swap_lc_model(stack.be_model.clone());
    slow.swap_lc_model(stack.be_model.clone());
    let p3 = parity_probe(&mut fast, &mut slow, &window, stamp);
    assert_ne!(p2[1], p3[1], "LC prediction ignored the swapped model");

    // A new window under a bumped stamp version must recompute the
    // memoised forecast — same source, higher version, different data.
    let window2 = synth_window(2);
    let stamp2 = WindowStamp {
        source: 7,
        version: 2,
    };
    let p4 = parity_probe(&mut fast, &mut slow, &window2, stamp2);
    assert_ne!(p3, p4, "predictions ignored the new Watcher window");
}

proptest! {
    /// Random interleavings of decisions and cache-relevant mutations
    /// keep the lanes bit-identical. The slow lane is the reference
    /// (it recomputes everything, every time), so any stale fast-lane
    /// cache entry surviving a mutation shows up as a parity break.
    #[test]
    fn fast_lane_stays_in_parity_under_random_mutation_sequences(
        ops in prop::collection::vec(
            (prop::sample::select(vec![0u8, 1, 2, 3, 4]), 0u64..1_000),
            1..8,
        ),
        window_seed in 0u64..1_000,
    ) {
        let (_, stack) = trained();
        let mut fast = policy(stack, 1, true);
        let mut slow = policy(stack, 1, false);
        let mut version = 1u64;
        let mut window = synth_window(window_seed);
        let mut swap_toggle = false;
        for (op, val) in ops {
            match op {
                // Watcher advanced: new window, bumped stamp version.
                1 => {
                    version += 1;
                    window = synth_window(window_seed ^ (version << 32) ^ val);
                }
                // Signature recaptured for the BE probe app.
                2 => {
                    fast.store_signature(synth_signature("gmm", val));
                    slow.store_signature(synth_signature("gmm", val));
                }
                // Model hot-swaps (alternating between the two trained
                // perf models so the swap always changes predictions).
                3 => {
                    let m = if swap_toggle { &stack.be_model } else { &stack.lc_model };
                    swap_toggle = !swap_toggle;
                    fast.swap_be_model(m.clone());
                    slow.swap_be_model(m.clone());
                }
                4 => {
                    let m = if swap_toggle { &stack.lc_model } else { &stack.be_model };
                    swap_toggle = !swap_toggle;
                    fast.swap_lc_model(m.clone());
                    slow.swap_lc_model(m.clone());
                }
                // 0 (and default): plain decision step.
                _ => {}
            }
            let stamp = WindowStamp { source: 7, version };
            let probes = parity_probe(&mut fast, &mut slow, &window, stamp);
            prop_assert!(probes.iter().all(Option::is_some));
        }
    }
}

#[test]
fn fast_lane_reports_are_byte_identical_to_slow_lane() {
    let (catalog, stack) = trained();
    for seed in [0u64, 1, 2] {
        let golden = report_bytes(stack, catalog, seed, 1, false);
        assert!(
            golden.contains("outcomes"),
            "slow-lane run produced no outcomes for seed {seed}"
        );
        for workers in [1usize, 2, 8] {
            let fast = report_bytes(stack, catalog, seed, workers, true);
            assert_eq!(
                golden, fast,
                "fast lane diverged from slow lane at seed {seed}, {workers} workers"
            );
        }
        // The slow lane itself is also worker-count invariant.
        let slow_w8 = report_bytes(stack, catalog, seed, 8, false);
        assert_eq!(
            golden, slow_w8,
            "slow lane diverged across workers at seed {seed}"
        );
    }
}
