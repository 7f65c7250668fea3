//! Pins the decision path against its oracle. A decision is memoised
//! three deep on the Watcher stamp (cached `Ŝ` forecast, history
//! features, the head's answer per application) and runs on
//! allocation-free scratch; the uncached, allocating
//! [`AdriasPolicy::predict_perf`] shares none of that. [`Checked`] wraps
//! a real policy and asserts on **every decision** that the two agree
//! bit for bit — over whole engine runs for every seed, and across
//! every mutation that must empty the memo.

use std::sync::OnceLock;

use adrias::core_util::prop::prelude::*;
use adrias::core_util::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias::orchestrator::{AdriasPolicy, DecisionContext, ExplainedDecision, Policy, Trace};
use adrias::predictor::dataset::HISTORY_S;
use adrias::scenarios::{train_stack, Replay, ScenarioSpec, StackOptions, TrainedStack};
use adrias::sim::TestbedConfig;
use adrias::telemetry::{MetricSample, MetricVec, Watcher, WindowStamp, METRIC_COUNT};
use adrias::workloads::{
    keyvalue, spark, AppSignature, MemoryMode, WorkloadCatalog, WorkloadClass, WorkloadProfile,
};

/// The oracle: a real [`AdriasPolicy`] whose every explained decision
/// must carry exactly what two uncached `predict_perf` calls answer for
/// the same context — `None` for `None` (warm-up, unknown application),
/// bit for bit otherwise. Anything stale in the memo fails the decision
/// that was served it.
struct Checked {
    inner: AdriasPolicy,
    /// Decisions that carried predictions, so a run can show the check
    /// was not vacuous.
    compared: usize,
}

impl Policy for Checked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> MemoryMode {
        self.decide_explained(ctx).mode
    }

    fn decide_explained(&mut self, ctx: &DecisionContext<'_>) -> ExplainedDecision {
        let got = self.inner.decide_explained(ctx);
        for (mode, pred) in [
            (MemoryMode::Local, got.pred_local),
            (MemoryMode::Remote, got.pred_remote),
        ] {
            let want = self.inner.predict_perf(ctx, mode);
            assert_eq!(
                pred.map(f32::to_bits),
                want.map(f32::to_bits),
                "{} {mode} under {:?}: decided on {pred:?}, the oracle says {want:?}",
                ctx.profile.name(),
                ctx.stamp,
            );
        }
        self.compared += usize::from(got.pred_local.is_some());
        got
    }

    fn lane(&self) -> &'static str {
        self.inner.lane()
    }
}

fn trained() -> &'static (WorkloadCatalog, TrainedStack) {
    static STACK: OnceLock<(WorkloadCatalog, TrainedStack)> = OnceLock::new();
    STACK.get_or_init(|| {
        let catalog = WorkloadCatalog::paper();
        let stack = train_stack(&catalog, &StackOptions::quick());
        (catalog, stack)
    })
}

fn policy(stack: &TrainedStack) -> AdriasPolicy {
    stack.policy(0.8, 5.0)
}

fn checked(stack: &TrainedStack) -> Checked {
    Checked {
        inner: policy(stack),
        compared: 0,
    }
}

/// One full scenario run under `policy`, rendered to its exact debug
/// form — every placement, runtime bit pattern and, from the run's
/// [`Trace`], every counter sample included.
fn report_bytes(catalog: &WorkloadCatalog, seed: u64, policy: &mut dyn Policy) -> String {
    let replay = Replay {
        qos_p99_ms: Some(5.0),
        ..Replay::new(
            TestbedConfig::noiseless(),
            catalog,
            ScenarioSpec::new(5.0, 30.0, 700.0, seed),
        )
    };
    let mut trace = Trace::default();
    let report = replay.run(policy, &mut trace);
    format!("{report:?} {trace:?}")
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

/// One decision's predictions as bit patterns, so "the same answer"
/// means the same bits. Under a [`Checked`] policy the decision is also
/// held against the oracle.
fn predict_bits(
    policy: &mut dyn Policy,
    profile: &WorkloadProfile,
    window: &[MetricVec],
    stamp: Option<WindowStamp>,
) -> (u32, u32) {
    let decision = policy.decide_explained(&DecisionContext {
        profile,
        history: Some(window),
        qos_p99_ms: Some(5.0),
        stamp,
    });
    let bits = |pred: Option<f32>| pred.expect("a known application and a window").to_bits();
    (bits(decision.pred_local), bits(decision.pred_remote))
}

/// Decides for the BE and the LC probe under the oracle; returns their
/// predictions for staleness checks.
fn probe(subject: &mut Checked, window: &[MetricVec], stamp: WindowStamp) -> [(u32, u32); 2] {
    [spark::by_name("gmm").unwrap(), keyvalue::memcached()]
        .map(|profile| predict_bits(subject, &profile, window, Some(stamp)))
}

/// The memoisation contract, spelled out: mutations that change what a
/// decision depends on — a replaced signature, a hot-swapped model, a
/// Watcher window under a bumped [`WindowStamp`] version — must each
/// force the decision off its memo. The oracle recomputes from scratch
/// every call, so "decision == oracle **and** the prediction moved"
/// proves the stale entry was actually dropped.
#[test]
fn signature_store_hot_swap_and_stamp_bump_invalidate_the_fast_lane() {
    let (_, stack) = trained();
    let mut subject = checked(stack);
    let window = synth_window(1);
    let stamp = WindowStamp {
        source: 7,
        version: 1,
    };

    let p0 = probe(&mut subject, &window, stamp);
    // Re-query on the same stamp: served from the memo, still the
    // oracle's answer.
    assert_eq!(p0, probe(&mut subject, &window, stamp));

    // Replacing the BE probe's signature must invalidate its head even
    // though the stamp (and thus Ŝ) is unchanged.
    subject.inner.store_signature(synth_signature("gmm", 99));
    let p1 = probe(&mut subject, &window, stamp);
    assert_ne!(p0[0], p1[0], "BE prediction ignored the new signature");
    assert_eq!(p0[1], p1[1], "LC prediction must not depend on gmm");

    // Hot-swapping a perf model rebuilds everything derived from it.
    subject.inner.swap_be_model(stack.lc_model.clone());
    let p2 = probe(&mut subject, &window, stamp);
    assert_ne!(p1[0], p2[0], "BE prediction ignored the swapped model");

    subject.inner.swap_lc_model(stack.be_model.clone());
    let p3 = probe(&mut subject, &window, stamp);
    assert_ne!(p2[1], p3[1], "LC prediction ignored the swapped model");

    // A new window under a bumped stamp version must recompute the
    // memoised forecast — same source, higher version, different data.
    let stamp2 = WindowStamp {
        source: 7,
        version: 2,
    };
    let p4 = probe(&mut subject, &synth_window(2), stamp2);
    assert_ne!(p3, p4, "predictions ignored the new Watcher window");
    assert_eq!(subject.compared, 12);
}

/// A policy built from scratch on the given perf models and the stack's
/// signatures with `replaced` swapped in: what a policy that went
/// through the same mutations must answer like.
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
/// oracle computes from scratch — for several applications interleaved
/// on one stamp, a BE and an LC profile among them that share a *name*
/// and so differ in nothing but the model that scores them.
#[test]
fn a_repeated_stamp_and_app_answers_what_the_oracle_answers() {
    let (_, stack) = trained();
    let mut subject = checked(stack);
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
        // First round fills the record, the next two are served from it.
        let rounds: Vec<Vec<_>> = (0..3)
            .map(|_| {
                apps.iter()
                    .map(|app| predict_bits(&mut subject, app, &window, stamp))
                    .collect()
            })
            .collect();
        assert_eq!(rounds[0], rounds[1]);
        assert_eq!(rounds[0], rounds[2]);
        assert_ne!(
            rounds[0][0], rounds[0][3],
            "a BE and an LC profile of one name share a record entry"
        );
    }
    assert_eq!(subject.compared, 3 * 3 * apps.len());
}

/// The record is keyed on the stamp alone, so whatever else an entry
/// depends on has to empty it: between two decisions on the *same*
/// stamp, a replaced signature and a swapped BE or LC model must each
/// turn the second answer into what a policy built from scratch that
/// way gives — not the first answer again.
#[test]
fn each_reset_point_turns_a_same_stamp_answer_into_a_fresh_policys() {
    let (_, stack) = trained();
    let mut subject = checked(stack);
    let window = synth_window(3);
    let stamp = Some(WindowStamp {
        source: 7,
        version: 1,
    });
    let gmm = spark::by_name("gmm").unwrap();
    let memcached = keyvalue::memcached();
    let (be, lc) = (&stack.be_model, &stack.lc_model);

    let check = |subject: &mut Checked,
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
    subject.inner.store_signature(recaptured.clone());
    let fresh = fresh_policy(stack, be, lc, Some(&recaptured));
    let p1 = check(&mut subject, "store_signature", fresh, &gmm, p0);

    subject.inner.swap_be_model(lc.clone());
    let fresh = fresh_policy(stack, lc, lc, Some(&recaptured));
    let p2 = check(&mut subject, "swap_be_model", fresh, &gmm, p1);

    subject.inner.swap_lc_model(be.clone());
    let fresh = fresh_policy(stack, lc, be, Some(&recaptured));
    check(&mut subject, "swap_lc_model", fresh, &memcached, p2);
}

/// A context without a stamp vouches for nothing: it is never answered
/// from the record, and nothing it computes is kept for a later
/// decision to find.
#[test]
fn stamp_less_contexts_never_hit_and_never_fill() {
    let (_, stack) = trained();
    // Unchecked: the last decision below hands a stamp a window it was
    // not issued for, which the oracle would rightly refuse.
    let mut subject = policy(stack);
    let gmm = spark::by_name("gmm").unwrap();
    let (w1, w2, w3) = (synth_window(1), synth_window(2), synth_window(3));
    let stamp = Some(WindowStamp {
        source: 7,
        version: 1,
    });
    let mut oracle = policy(stack);
    let [a1, a2, a3] = [&w1, &w2, &w3].map(|window| {
        let ctx = DecisionContext {
            profile: &gmm,
            history: Some(window),
            qos_p99_ms: Some(5.0),
            stamp: None,
        };
        let mut bits = |mode| oracle.predict_perf(&ctx, mode).unwrap().to_bits();
        (bits(MemoryMode::Local), bits(MemoryMode::Remote))
    });
    assert!(
        a1 != a2 && a2 != a3 && a1 != a3,
        "windows too alike to tell"
    );

    // Stamp-less before anything is memoised, twice on different
    // windows: the second must not find the first.
    assert_eq!(predict_bits(&mut subject, &gmm, &w2, None), a2);
    assert_eq!(predict_bits(&mut subject, &gmm, &w3, None), a3);
    // A stamped decision next must not find either of them...
    assert_eq!(predict_bits(&mut subject, &gmm, &w1, stamp), a1);
    // ...a stamp-less one after it must not be served the stamped
    // answer...
    assert_eq!(predict_bits(&mut subject, &gmm, &w2, None), a2);
    // ...and must have left the record as it was: under the stamp's
    // promise, the memoised answer is served whatever rows come along.
    assert_eq!(predict_bits(&mut subject, &gmm, &w3, stamp), a1);
}

proptest! {
    /// Random interleavings of decisions and memo-relevant mutations
    /// keep every decision on the oracle's answer. The oracle recomputes
    /// everything, every time, so any stale entry surviving a mutation
    /// fails the next decision it is served to.
    #[test]
    fn fast_lane_stays_in_parity_under_random_mutation_sequences(
        ops in prop::collection::vec(
            (prop::sample::select(vec![0u8, 1, 2, 3, 4]), 0u64..1_000),
            1..8,
        ),
        window_seed in 0u64..1_000,
    ) {
        let (_, stack) = trained();
        let mut subject = checked(stack);
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
                2 => subject.inner.store_signature(synth_signature("gmm", val)),
                // Model hot-swaps (alternating between the two trained
                // perf models so the swap always changes predictions).
                3 => {
                    let m = if swap_toggle { &stack.be_model } else { &stack.lc_model };
                    swap_toggle = !swap_toggle;
                    subject.inner.swap_be_model(m.clone());
                }
                4 => {
                    let m = if swap_toggle { &stack.lc_model } else { &stack.be_model };
                    swap_toggle = !swap_toggle;
                    subject.inner.swap_lc_model(m.clone());
                }
                // 0 (and default): plain decision step.
                _ => {}
            }
            probe(&mut subject, &window, WindowStamp { source: 7, version });
        }
    }

    /// Decisions stay on the oracle's answer across window-version
    /// boundaries as a live Watcher produces them, including the
    /// warm-up edge where no history window exists yet, the
    /// repeat-stamp case where the memoised forecast is served, and an
    /// application the policy holds no signature for.
    #[test]
    fn decisions_match_the_oracle_across_live_watcher_windows(
        seed in 0u64..1_000,
        steps in prop::collection::vec(0usize..4, 1..10),
    ) {
        const WINDOW: usize = 16;
        let (_, stack) = trained();
        let mut subject = checked(stack);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xFA57);
        let mut watcher = Watcher::new(WINDOW);
        let mut t = 0.0f64;
        let mut tick = |watcher: &mut Watcher| {
            let level: f32 = rng.gen_range(0.0..10.0);
            let row = std::array::from_fn(|j| level + j as f32);
            watcher.record(MetricSample::new(t, MetricVec::from_array(row)));
            t += 1.0;
        };
        // Sometimes start with a full window, sometimes from scratch.
        for _ in 0..(seed % 24) {
            tick(&mut watcher);
        }
        let apps = [
            spark::by_name("gmm").unwrap(),
            spark::by_name("nweight").unwrap(),
            keyvalue::redis(),
            WorkloadProfile::builder("never-profiled", WorkloadClass::BestEffort).build(),
        ];
        prop_assert!(!subject.inner.knows("never-profiled"));
        let mut history: Vec<MetricVec> = Vec::new();
        for (i, &n) in steps.iter().enumerate() {
            // `n == 0` leaves the stamp unchanged: the memoised
            // forecast is served and must still match.
            for _ in 0..n {
                tick(&mut watcher);
            }
            let stamp = watcher.history_fill(WINDOW, &mut history);
            let decision = subject.decide_explained(&DecisionContext {
                profile: &apps[i % apps.len()],
                history: stamp.map(|_| history.as_slice()),
                qos_p99_ms: if i % 2 == 0 { Some(5.0) } else { None },
                stamp,
            });
            let predicted = stamp.is_some() && i % apps.len() != 3;
            prop_assert_eq!(decision.pred_local.is_some(), predicted);
        }
    }
}

/// Seeds {0,1,2}: every decision of a whole engine run is the oracle's,
/// checked in place, and the oracle riding along moves nothing — the
/// report is byte-identical to an unchecked run's.
#[test]
fn every_decision_of_a_whole_run_matches_the_uncached_oracle() {
    let (catalog, stack) = trained();
    for seed in [0u64, 1, 2] {
        let golden = report_bytes(catalog, seed, &mut policy(stack));
        assert!(
            golden.contains("outcomes"),
            "run produced no outcomes for seed {seed}"
        );
        let mut subject = checked(stack);
        assert_eq!(
            golden,
            report_bytes(catalog, seed, &mut subject),
            "checked run diverged at seed {seed}"
        );
        assert!(
            subject.compared > 10,
            "seed {seed}: the oracle saw only {} predictions",
            subject.compared
        );
    }
}
