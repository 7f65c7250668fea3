//! The steady-state Adrias decision path makes zero heap allocations.
//!
//! Installs the counting allocator from `adrias_core::alloc` as the
//! binary's global allocator and asserts that, after one warm-up
//! decision, `decide_explained` allocates nothing on any of its lanes:
//! cache hit (repeated stamp), cache miss (bumped stamp), warm-up
//! (no history) and unknown-app remote-first — and nothing over a burst
//! of arrivals that share one stamp across a whole catalog. Another
//! test pins the numeric floor under the policy:
//! `Lstm::forward_seq_scratch` and the SIMD kernels (both the native
//! dispatch and the forced-scalar fallback) run allocation-free in
//! steady state. A further one pins the
//! engine's side of the same path: a workload's name is never copied
//! between arrival and completion, a simulated second in which
//! nothing arrives or finishes allocates nothing at all (nor does a
//! run allocate more for lasting longer), one in which
//! deployments finish allocates once and an arrival into a testbed that
//! has been this full before not at all — and an LC completion's
//! 8 000-sample tail measurement allocates its certified tail, not its
//! samples. The last one is not about allocation but
//! lives here with the other engine-surface pins: composed observers
//! see every hook.

use adrias_core::alloc::{start_counting, stop_counting, CountingAllocator};
use adrias_core::rng::{SeedableRng, Xoshiro256pp};
use adrias_nn::{kernels, set_force_scalar, Lstm, LstmScratch};
use adrias_orchestrator::policy::ExplainedDecision;
use adrias_orchestrator::{
    run_stream_hooked, AdriasPolicy, AppOutcome, DecisionContext, EngineConfig, EngineObserver,
    FaultEvent, Policy, RoundRobinPolicy, RunReport, ScheduleStream, ScheduledArrival,
};
use adrias_predictor::dataset::HISTORY_S;
use adrias_sim::{CompletedApp, DeploymentId, LinkConfig, StepReport, Testbed, TestbedConfig};
use adrias_telemetry::{MetricVec, WindowStamp};
use adrias_workloads::keyvalue::{self, tail_latency};
use adrias_workloads::{
    ibench, spark, AppSignature, LatencyEnv, LoadSpec, MemoryMode, WorkloadClass, WorkloadProfile,
};

mod common;
use common::{metric_row, tiny_policy};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

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

/// The first misses after a hot swap allocate nothing: a swap rebuilds
/// the model's scratch and empties the history features memoised
/// through the old model, keeping their capacity, so 16 misses through
/// a swapped-in BE model and then 16 through a swapped-in LC model run
/// on buffers the swap and the warm-up already sized.
#[test]
fn the_first_misses_after_a_hot_swap_allocate_nothing() {
    let mut policy = tiny_policy();
    policy.store_signature(AppSignature::new("redis", vec![metric_row(0.3); 20]));
    let gmm = spark::by_name("gmm").unwrap();
    let redis = keyvalue::redis();
    let history = vec![metric_row(0.05); HISTORY_S];
    let mut version = 0;
    let mut decide = |policy: &mut AdriasPolicy, profile: &WorkloadProfile| {
        version += 1;
        policy.decide_explained(&DecisionContext {
            profile,
            history: Some(&history),
            qos_p99_ms: None,
            stamp: Some(WindowStamp {
                source: u64::MAX,
                version,
            }),
        })
    };
    // Warm-up: one miss through each model.
    decide(&mut policy, &gmm);
    decide(&mut policy, &redis);
    for (lc, profile) in [(false, &gmm), (true, &redis)] {
        if lc {
            let other = policy.be_model().clone();
            policy.swap_lc_model(other);
        } else {
            let other = policy.lc_model().clone();
            policy.swap_be_model(other);
        }
        start_counting();
        for _ in 0..16 {
            assert!(decide(&mut policy, profile).pred_local.is_some());
        }
        assert_eq!(
            stop_counting(),
            (0, 0),
            "misses after a swap allocated (LC model swapped: {lc})"
        );
    }
}

/// A burst: 256 arrivals on one stamp, the 17 Spark applications taking
/// turns. The per-stamp record's head table grew to the catalog's size
/// under an earlier stamp and keeps that capacity when a new stamp
/// empties it, so neither the 17 first decisions of the burst (forecast,
/// history features and a head each) nor the 239 repeats allocate.
#[test]
fn a_burst_on_one_stamp_is_allocation_free() {
    let mut policy = tiny_policy();
    let apps = spark::suite();
    assert_eq!(apps.len(), 17);
    for (i, app) in apps.iter().enumerate() {
        let rows = vec![metric_row(i as f32 * 0.05); 20];
        policy.store_signature(AppSignature::new(app.name(), rows));
    }
    let history = vec![metric_row(0.05); HISTORY_S];
    let mut decide = |app, version| {
        policy.decide_explained(&DecisionContext {
            profile: app,
            history: Some(&history),
            qos_p99_ms: None,
            stamp: Some(WindowStamp {
                source: u64::MAX,
                version,
            }),
        })
    };
    // Warm-up: one pass over the catalog sizes the head table.
    let warm: Vec<ExplainedDecision> = apps.iter().map(|app| decide(app, 1)).collect();
    assert!(warm.iter().all(|d| d.pred_local.is_some()));
    start_counting();
    for (i, app) in apps.iter().cycle().take(256).enumerate() {
        let d = decide(app, 2);
        assert_eq!(d, warm[i % apps.len()], "identical window, {}", app.name());
    }
    assert_eq!(stop_counting(), (0, 0), "a burst on one stamp allocated");
}

/// The vectorised numeric floor never allocates: after the scratch is
/// built, repeated `forward_seq_scratch` passes and every public SIMD
/// kernel run with zero heap traffic — on the native dispatch path and
/// on the forced-scalar fallback alike.
#[test]
fn lstm_scratch_forward_and_simd_kernels_are_allocation_free() {
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let lstm = Lstm::new(6, 16, &mut rng);
    // 12 steps of a 4 x 6 batch, as one flat arena.
    let seq: Vec<f32> = (0..12 * 4 * 6)
        .map(|i| ((i / 24 * 31 + i % 24) as f32 * 0.37).sin())
        .collect();
    let mut scratch = LstmScratch::new(&lstm, 4, 12);
    // Warm-up sizes any lazily-grown buffer.
    lstm.forward_seq_scratch(&seq, 4, &mut scratch);

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
            let hidden = lstm.forward_seq_scratch(&seq, 4, &mut scratch);
            assert_eq!(hidden.len(), 12 * 4 * 16);
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

/// A workload's name is allocated once, when its profile is built:
/// cloning the profile and carrying it through one unobserved
/// arrival → completion cycle copies no name. Two runs that differ
/// only in the length of the workload's name must therefore allocate
/// the same number of blocks and bytes.
///
/// Measured on this schedule (64 arrivals, whole run): copying the name
/// 4 times per cycle (the stream's `ScheduledArrival` clone,
/// `deploy_for`, the engine's `decided` map, `to_owned` at completion)
/// allocated (467 blocks, 71 063 bytes) for the 8-byte name against
/// (467, 81 303) for the 48-byte one, 256 x 40 bytes apart; with names
/// and profiles as handles both runs allocate (88, 22 895). A process's
/// first run also interns the policy's name — one 16-byte entry, once
/// (`adrias_core::name`) — so an uncounted run goes first.
#[test]
fn names_are_never_copied_between_arrival_and_completion() {
    let profile = |name: String| {
        WorkloadProfile::builder(name, WorkloadClass::BestEffort)
            .base_runtime_s(3.0)
            .cpu_cores(2.0)
            .build()
    };
    let short = profile("w".repeat(8));
    let long = profile("w".repeat(48));

    start_counting();
    for _ in 0..16 {
        std::hint::black_box(long.clone());
    }
    assert_eq!(stop_counting(), (0, 0), "a profile clone must not allocate");

    let cycle_allocations = |profile: &WorkloadProfile| {
        let arrivals: Vec<ScheduledArrival> = (0..64)
            .map(|i| ScheduledArrival::new(f64::from(i) * 2.0, profile.clone()))
            .collect();
        let mut policy = RoundRobinPolicy::new();
        start_counting();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            EngineConfig::default(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        );
        let counted = stop_counting();
        assert_eq!(report.outcomes.len(), 64);
        assert_eq!(report.outcomes[0].name, profile.name());
        counted
    };
    cycle_allocations(&short);
    assert_eq!(cycle_allocations(&short), cycle_allocations(&long));
}

/// Counts allocations between two watcher ticks of a run. It reads
/// only `time_s`; `reads_samples` is what it declares.
struct SpanAllocations {
    from_s: f64,
    to_s: f64,
    ticks: u64,
    /// Of `ticks`, those whose sample was measured.
    sampled: u64,
    counted: Option<(u64, u64)>,
    reads_samples: bool,
}

impl EngineObserver for SpanAllocations {
    fn reads_samples(&self) -> bool {
        self.reads_samples
    }

    fn on_step(&mut self, report: &StepReport) {
        if report.time_s == self.from_s {
            start_counting();
        } else if report.time_s == self.to_s {
            self.counted = Some(stop_counting());
        } else if report.time_s > self.from_s && report.time_s < self.to_s {
            self.ticks += 1;
            self.sampled += u64::from(report.sampled);
        }
    }
}

/// A quiet second — one resident or none, nothing arriving, nothing
/// finishing — costs its noise draws and a watcher row: no heap event
/// and no allocation. `Testbed::step`'s `finished` vector stays empty
/// (an empty `Vec` owns no block), the engine takes the tick in place,
/// and nothing of the run grows with simulated time. The span, 1 100 →
/// 40 000 s, would have crossed five doublings of a per-second vector;
/// it runs first over a busy-but-quiet node, then over an idle one, each
/// with every second measured and with the seconds no decision reads
/// left unmeasured.
#[test]
fn quiet_ticks_allocate_nothing() {
    let lr = spark::by_name("lr").unwrap();
    let legs = [40_000.0, 10.0].map(|busy_s| [(busy_s, true), (busy_s, false)]);
    for (busy_s, reads_samples) in legs.into_iter().flatten() {
        let arrivals = [
            ScheduledArrival::new(0.0, lr.clone())
                .with_mode(MemoryMode::Remote)
                .with_duration(busy_s),
            ScheduledArrival::new(40_500.0, lr.clone()).with_duration(5.0),
        ];
        let mut span = SpanAllocations {
            from_s: 1_100.0,
            to_s: 40_000.0,
            ticks: 0,
            sampled: 0,
            counted: None,
            reads_samples,
        };
        let report = run_stream_hooked(
            TestbedConfig::paper(),
            EngineConfig {
                max_drain_s: 1.0e6,
                ..EngineConfig::default()
            },
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut RoundRobinPolicy::new(),
            &mut span,
        );
        assert_eq!((report.outcomes.len(), report.unfinished), (2, 0));
        assert_eq!(span.ticks, 38_899);
        // The next arrival is due 500 s after the span.
        let measured = if reads_samples { span.ticks } else { 0 };
        assert_eq!(span.sampled, measured);
        assert_eq!(span.counted, Some((0, 0)), "quiet ticks allocated");
    }
}

/// A whole run's allocations do not depend on how long it lasts: two
/// runs that differ only in the idle gap before their second arrival,
/// 10 000 against 200 000 simulated seconds, allocate the same number
/// of blocks and bytes. (An uncounted run goes first: a process's first
/// run interns the policy's name, once.)
#[test]
fn run_allocations_do_not_grow_with_simulated_time() {
    let lr = spark::by_name("lr").unwrap();
    let run_allocations = |gap_s: f64| {
        let arrivals = [
            ScheduledArrival::new(0.0, lr.clone()).with_duration(30.0),
            ScheduledArrival::new(gap_s, lr.clone()).with_duration(30.0),
        ];
        start_counting();
        let report = run_stream_hooked(
            TestbedConfig::paper(),
            EngineConfig::default(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut RoundRobinPolicy::new(),
            &mut (),
        );
        let counted = stop_counting();
        assert_eq!((report.outcomes.len(), report.unfinished), (2, 0));
        assert!(report.end_time_s > gap_s);
        counted
    };
    run_allocations(10_000.0);
    assert_eq!(run_allocations(10_000.0), run_allocations(200_000.0));
}

/// Thirty arrivals a second from the no-LC catalog, 3:1 remote:local,
/// asking for 2–6 s each.
fn arrive(tb: &mut Testbed, catalog: &[WorkloadProfile], second: usize) {
    for i in 0..30 {
        let n = second * 30 + i;
        let mode = MemoryMode::BOTH[usize::from(!n.is_multiple_of(4))];
        tb.deploy_for(
            catalog[n % catalog.len()].clone(),
            mode,
            2.0 + (n % 5) as f32,
        );
    }
}

/// A step that completes `k` deployments allocates once: its `finished`
/// report, sized before it is filled (the positions and instants it is
/// built from live in a scratch the testbed keeps). And a `deploy_for`
/// into a store that has held this many residents allocates nothing: the
/// id-ordered arrays keep their capacity, and cold slots, arrival-instant
/// sums and kin entries come back off their free lists — including for a
/// deployment that is removed in the tick it arrived in. The first wave
/// sizes everything; the node then drains, and the second wave — the same
/// population second for second, since population depends on nothing
/// random — is the one counted.
#[test]
fn a_completing_step_allocates_its_report_and_a_deploy_nothing() {
    let catalog: Vec<WorkloadProfile> = spark::suite()
        .into_iter()
        .chain(ibench::all_profiles())
        .collect();
    let mut tb = Testbed::new(TestbedConfig::paper(), 7);
    for second in 0..40 {
        arrive(&mut tb, &catalog, second);
        tb.step();
    }
    while tb.resident_count() > 0 {
        tb.step();
    }
    let (mut completing_steps, mut completions) = (0, 0);
    for second in 0..40 {
        start_counting();
        arrive(&mut tb, &catalog, second);
        let id = tb.deploy_for(
            catalog[second % catalog.len()].clone(),
            MemoryMode::Remote,
            9.0,
        );
        let removed = tb.remove(id);
        assert_eq!(
            stop_counting(),
            (0, 0),
            "second {second}: a deploy allocated"
        );
        assert!(removed.is_some());
        start_counting();
        let report = tb.step();
        let counted = stop_counting();
        let k = report.finished.len();
        let report_bytes = (k * std::mem::size_of::<CompletedApp>()) as u64;
        assert_eq!(counted, (u64::from(k > 0), report_bytes), "second {second}");
        completing_steps += usize::from(k > 1);
        completions += k;
    }
    assert!(completing_steps > 20 && completions > 400, "{completions}");
}

/// Counts the calls to each of the nine [`EngineObserver`] event hooks
/// and answers the tenth, `wall_profiling`, with `wants_wall`.
#[derive(Default, Debug, PartialEq)]
struct HookCounts {
    wants_wall: bool,
    decision: u64,
    step: u64,
    complete: u64,
    run_end: u64,
    admitted: u64,
    fault: u64,
    deadline: u64,
    stream: u64,
    wall: u64,
}

impl EngineObserver for HookCounts {
    fn on_decision(
        &mut self,
        _at_s: f64,
        _id: DeploymentId,
        _profile: &WorkloadProfile,
        _history: Option<&[MetricVec]>,
        _decision: &ExplainedDecision,
        _policy_name: &str,
    ) {
        self.decision += 1;
    }

    fn on_step(&mut self, _report: &StepReport) {
        self.step += 1;
    }

    fn on_complete(&mut self, _id: DeploymentId, _outcome: &AppOutcome) {
        self.complete += 1;
    }

    fn on_run_end(&mut self, _report: &RunReport, _last_arrival_s: f64) {
        self.run_end += 1;
    }

    fn on_admitted(
        &mut self,
        _id: DeploymentId,
        _arrived_s: f64,
        _decided_s: f64,
        _profile: &WorkloadProfile,
        _decision: &ExplainedDecision,
        _lane: &'static str,
    ) {
        self.admitted += 1;
    }

    fn on_fault(&mut self, _at_s: f64) {
        self.fault += 1;
    }

    fn on_deadline(&mut self, _at_s: f64) {
        self.deadline += 1;
    }

    fn on_stream(&mut self, _label: &'static str) {
        self.stream += 1;
    }

    fn wall_profiling(&self) -> bool {
        self.wants_wall
    }

    fn on_wall(&mut self, _label: &str, _ns: u64) {
        self.wall += 1;
    }
}

/// An observer sees the same calls on all ten hooks whether it runs
/// alone, on either side of a pair, or behind `&mut` — and wall
/// profiling reaches only the side of a pair that asked for it.
/// One LC completion's tail measurement at the engine's shipped sample
/// count holds only the draws it certified as the tail (≈ 120 of the
/// 8 000), not the 32 KB sample vector it used to fill — so a completion
/// no longer moves the allocator's layout under the run (the
/// `peak_rss_mb` note in EXPERIMENTS.md).
#[test]
fn an_lc_tail_measurement_allocates_its_tail_not_its_samples() {
    let samples = EngineConfig::default().lc_latency_samples;
    assert_eq!(samples, 8_000);
    let load = LoadSpec::default();
    for store in keyvalue::suite() {
        for mode in MemoryMode::BOTH {
            let env = LatencyEnv::idle(mode);
            let mut rng = Xoshiro256pp::seed_from_u64(0x1C);
            start_counting();
            let tl = tail_latency(&store, &load, &env, samples, &mut rng);
            let (allocs, bytes) = stop_counting();
            assert!(tl.p999_ms > tl.p99_ms);
            assert!(
                bytes < 8 * 1024,
                "{} {mode:?}: {bytes} bytes in {allocs} allocations",
                store.name()
            );
        }
    }
}

#[test]
fn composed_observers_see_every_hook() {
    // Two jobs that finish, a fault, and a stressor that outlives the
    // drain budget: every hook fires at least once.
    let gmm = spark::by_name("gmm").unwrap();
    let arrivals = [
        ScheduledArrival::new(0.0, gmm.clone()),
        ScheduledArrival::new(3.5, gmm.clone()).with_mode(MemoryMode::Remote),
        ScheduledArrival::new(4.0, gmm).with_duration(1.0e6),
    ];
    let faults = [FaultEvent {
        at_s: 2.0,
        link: LinkConfig::paper(),
    }];
    fn drive<O: EngineObserver>(arrivals: &[ScheduledArrival], faults: &[FaultEvent], obs: &mut O) {
        let engine = EngineConfig {
            max_drain_s: 300.0,
            ..EngineConfig::default()
        };
        let mut policy = RoundRobinPolicy::new();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine,
            &mut ScheduleStream::new(arrivals),
            faults,
            &mut policy,
            obs,
        );
        assert_eq!((report.outcomes.len(), report.unfinished), (2, 1));
    }
    let counts = |wants_wall| HookCounts {
        wants_wall,
        ..HookCounts::default()
    };

    for wants_wall in [false, true] {
        let mut alone = counts(wants_wall);
        drive(&arrivals, &faults, &mut alone);
        assert_eq!(
            (alone.decision, alone.admitted, alone.complete),
            (3, 3, 2),
            "{alone:?}"
        );
        assert!(alone.step > 300 && alone.fault == 1 && alone.deadline == 1);
        assert_eq!((alone.run_end, alone.stream), (1, 1));
        // heap push, heap pop, sample, and one decide frame per arrival
        // (round-robin has no model forward).
        assert_eq!(alone.wall, if wants_wall { 3 + 3 } else { 0 });

        let mut left = (counts(wants_wall), ());
        drive(&arrivals, &faults, &mut left);
        assert_eq!(left.0, alone);

        let mut right = ((), counts(wants_wall));
        drive(&arrivals, &faults, &mut right);
        assert_eq!(right.1, alone);

        let mut behind = counts(wants_wall);
        drive(&arrivals, &faults, &mut &mut behind);
        assert_eq!(behind, alone);
    }

    // One side asks for wall profiling, the other does not: both see
    // every event hook, only the asking side sees `on_wall`.
    let mut mixed = (counts(true), counts(false));
    drive(&arrivals, &faults, &mut mixed);
    let mut asked = counts(true);
    drive(&arrivals, &faults, &mut asked);
    assert_eq!(mixed.0, asked);
    assert_eq!(
        mixed.1,
        HookCounts {
            wants_wall: false,
            wall: 0,
            ..asked
        }
    );
}
