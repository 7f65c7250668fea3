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
use adrias::workloads::{
    keyvalue, spark, AppSignature, WorkloadCatalog, WorkloadClass, WorkloadProfile,
};

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

/// One prediction as bit patterns, so "the same answer" means the same
/// bits.
fn predict_bits(
    policy: &mut AdriasPolicy,
    profile: &WorkloadProfile,
    window: &[MetricVec],
    stamp: Option<WindowStamp>,
) -> (u32, u32) {
    let (local, remote) = policy
        .predict_perf_both(&DecisionContext {
            profile,
            history: Some(window),
            qos_p99_ms: Some(5.0),
            stamp,
        })
        .expect("a known application and a window");
    (local.to_bits(), remote.to_bits())
}

/// A fast-lane policy built from scratch on the given perf models and
/// the stack's signatures with `replaced` swapped in: what a policy
/// that went through the same mutations must answer like.
fn fresh_policy(
    stack: &TrainedStack,
    be_model: &adrias::predictor::PerfModel,
    lc_model: &adrias::predictor::PerfModel,
    replaced: Option<&AppSignature>,
) -> AdriasPolicy {
    let signatures = stack
        .signatures
        .iter()
        .map(|s| match replaced {
            Some(r) if r.app_name() == s.app_name() => r.clone(),
            _ => s.clone(),
        })
        .collect();
    AdriasPolicy::new(
        stack.system_model.clone(),
        be_model.clone(),
        lc_model.clone(),
        signatures,
        0.8,
        5.0,
    )
}

/// The head's answer is memoised per `(stamp, application, class)`: a
/// repeat is served from the record and must be, bit for bit, what the
/// slow lane computes from scratch — for several applications
/// interleaved on one stamp, a BE and an LC profile among them that
/// share a *name* and so differ in nothing but the model that scores
/// them.
#[test]
fn a_repeated_stamp_and_app_answers_what_the_slow_lane_answers() {
    let (_, stack) = trained();
    let mut fast = policy(stack, 1, true);
    let mut slow = policy(stack, 1, false);
    let gmm = spark::by_name("gmm").unwrap();
    let gmm_as_lc = WorkloadProfile::builder("gmm", WorkloadClass::LatencyCritical).build();
    let apps = [
        gmm.clone(),
        spark::by_name("nweight").unwrap(),
        keyvalue::memcached(),
        gmm_as_lc.clone(),
    ];
    for version in 1..4 {
        let window = synth_window(version);
        let stamp = Some(WindowStamp { source: 7, version });
        let want: Vec<_> = apps
            .iter()
            .map(|app| predict_bits(&mut slow, app, &window, stamp))
            .collect();
        // First round fills the record, the next two are served from it.
        for round in 0..3 {
            for (app, want) in apps.iter().zip(&want) {
                let got = predict_bits(&mut fast, app, &window, stamp);
                assert_eq!(got, *want, "{} at round {round}", app.name());
            }
        }
        assert_ne!(
            predict_bits(&mut fast, &gmm, &window, stamp),
            predict_bits(&mut fast, &gmm_as_lc, &window, stamp),
            "a BE and an LC profile of one name share a record entry"
        );
    }
}

/// The record is keyed on the stamp alone, so whatever else an entry
/// depends on has to empty it: between two decisions on the *same*
/// stamp, a replaced signature and a swapped BE or LC model must each
/// turn the second answer into what a policy built from scratch that
/// way gives — not the first answer again.
#[test]
fn each_reset_point_turns_a_same_stamp_answer_into_a_fresh_policys() {
    let (_, stack) = trained();
    let mut subject = policy(stack, 1, true);
    let window = synth_window(3);
    let stamp = Some(WindowStamp {
        source: 7,
        version: 1,
    });
    let gmm = spark::by_name("gmm").unwrap();
    let memcached = keyvalue::memcached();
    let (be, lc) = (&stack.be_model, &stack.lc_model);

    let check = |subject: &mut AdriasPolicy,
                 what: &str,
                 mut fresh: AdriasPolicy,
                 moved: &WorkloadProfile,
                 before: [(u32, u32); 2]| {
        let after = [&gmm, &memcached].map(|app| predict_bits(subject, app, &window, stamp));
        let want = [&gmm, &memcached].map(|app| predict_bits(&mut fresh, app, &window, stamp));
        assert_eq!(after, want, "{what}: not a fresh policy's answer");
        let i = usize::from(moved.name() == "memcached");
        assert_ne!(after[i], before[i], "{what}: {} did not move", moved.name());
        assert_eq!(after[1 - i], before[1 - i], "{what}: the other one moved");
        after
    };

    let p0 = [&gmm, &memcached].map(|app| predict_bits(&mut subject, app, &window, stamp));

    let recaptured = synth_signature("gmm", 99);
    subject.store_signature(recaptured.clone());
    let fresh = fresh_policy(stack, be, lc, Some(&recaptured));
    let p1 = check(&mut subject, "store_signature", fresh, &gmm, p0);

    subject.swap_be_model(lc.clone());
    let fresh = fresh_policy(stack, lc, lc, Some(&recaptured));
    let p2 = check(&mut subject, "swap_be_model", fresh, &gmm, p1);

    subject.swap_lc_model(be.clone());
    let fresh = fresh_policy(stack, lc, be, Some(&recaptured));
    check(&mut subject, "swap_lc_model", fresh, &memcached, p2);
}

/// A context without a stamp vouches for nothing: it is never answered
/// from the record, and nothing it computes is kept for a later
/// decision to find.
#[test]
fn stamp_less_contexts_never_hit_and_never_fill() {
    let (_, stack) = trained();
    let mut fast = policy(stack, 1, true);
    let mut slow = policy(stack, 1, false);
    let gmm = spark::by_name("gmm").unwrap();
    let (w1, w2, w3) = (synth_window(1), synth_window(2), synth_window(3));
    let stamp = Some(WindowStamp {
        source: 7,
        version: 1,
    });
    let want = |slow: &mut AdriasPolicy, w: &[MetricVec]| predict_bits(slow, &gmm, w, None);
    let (a1, a2, a3) = (
        want(&mut slow, &w1),
        want(&mut slow, &w2),
        want(&mut slow, &w3),
    );
    assert!(
        a1 != a2 && a2 != a3 && a1 != a3,
        "windows too alike to tell"
    );

    // Stamp-less before anything is memoised, twice on different
    // windows: the second must not find the first.
    assert_eq!(predict_bits(&mut fast, &gmm, &w2, None), a2);
    assert_eq!(predict_bits(&mut fast, &gmm, &w3, None), a3);
    // A stamped decision next must not find either of them...
    assert_eq!(predict_bits(&mut fast, &gmm, &w1, stamp), a1);
    // ...a stamp-less one after it must not be served the stamped
    // answer...
    assert_eq!(predict_bits(&mut fast, &gmm, &w2, None), a2);
    // ...and must have left the record as it was: under the stamp's
    // promise, the memoised answer is served whatever rows come along.
    assert_eq!(predict_bits(&mut fast, &gmm, &w3, stamp), a1);
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
