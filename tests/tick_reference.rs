//! The engine's in-place watcher ticks against the loop they replaced.
//!
//! `run_stream_hooked` takes a 1 Hz tick without a heap round trip
//! whenever nothing else is due first, and `Testbed::step` reuses what a
//! quiet second cannot have changed. The reference below is the engine
//! as it ran before either: every tick is a `WatcherSample` event pushed
//! and popped through the heap, one per simulated second, with no
//! observer and no profiling. The two must agree **bit for bit** on the
//! whole `RunReport` — outcomes, link bytes, end time, unfinished count —
//! and on every 1 Hz sample (the engine's through an attached `Trace`,
//! whose row `i` must be the reference's sample at second `i + 1`),
//! because skipping ahead is only a speed-up if nothing downstream can
//! tell. (ROADMAP item 4's "skip-ahead ≡
//! per-second" metamorphic oracle.)
//!
//! The reference also copies the history window on *every* arrival, as
//! the engine did before it keyed the copy on the Watcher stamp.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::OnceLock;

use adrias::core_util::rng::{SeedableRng, Xoshiro256pp};
use adrias::obs::DecisionRule;
use adrias::orchestrator::engine::lc_load_spec;
use adrias::orchestrator::{
    run_stream_hooked, AppOutcome, ArrivalStream, DecisionContext, EngineConfig, EngineObserver,
    EventHeap, EventKind, ExplainedDecision, FaultEvent, GeneratedStream, Policy, RandomPolicy,
    RoundRobinPolicy, RunReport, ScheduleStream, ScheduledArrival, Trace,
};
use adrias::scenarios::{load_corpus, train_stack, FuzzConfig, Replay, StackOptions, TrainedStack};
use adrias::sim::{CompletedApp, DeploymentId, LinkConfig, StepReport, Testbed, TestbedConfig};
use adrias::telemetry::{MetricSample, MetricVec, Watcher};
use adrias::workloads::keyvalue::{self, tail_latency};
use adrias::workloads::{spark, ClosedLoopSource, MemoryMode, WorkloadCatalog, WorkloadProfile};

enum Payload {
    Arrival(ScheduledArrival),
    Fault(LinkConfig),
    Sample,
    Finish,
    Deadline,
}

fn pull(
    heap: &mut EventHeap<Payload>,
    stream: &mut dyn ArrivalStream,
    floor_s: f64,
    arrivals_in_heap: &mut usize,
    last_pulled_s: &mut f64,
) {
    if let Some(a) = stream.next_arrival() {
        *last_pulled_s = last_pulled_s.max(a.at_s);
        let tick = a.at_s.ceil().max(floor_s);
        heap.push(tick, EventKind::Arrival, Payload::Arrival(a));
        *arrivals_in_heap += 1;
    }
}

fn outcome_of(
    done: CompletedApp,
    policy_decided: bool,
    cfg: &EngineConfig,
    lc_rng: &mut Xoshiro256pp,
) -> AppOutcome {
    let profile = &done.profile;
    let tl = profile.is_latency_critical().then(|| {
        let spec = lc_load_spec(profile);
        tail_latency(
            profile,
            &spec,
            &done.average_env,
            cfg.lc_latency_samples,
            lc_rng,
        )
    });
    AppOutcome {
        name: profile.name_handle().clone(),
        class: profile.class(),
        mode: done.mode,
        policy_decided,
        arrived_s: done.arrived_s,
        finished_s: done.finished_s,
        runtime_s: done.runtime_s,
        mean_slowdown: done.mean_slowdown,
        p99_ms: tl.map(|t| t.p99_ms),
        p999_ms: tl.map(|t| t.p999_ms),
        lc_total_time_s: tl.map(|t| t.total_time_s),
    }
}

/// The retired engine loop: one heap event per simulated second. It
/// keeps every sample with its time stamp, so a `Trace`'s implicit time
/// (row `i` is second `i + 1`) is checked too.
fn run_per_second(
    testbed_cfg: TestbedConfig,
    engine_cfg: EngineConfig,
    stream: &mut dyn ArrivalStream,
    faults: &[FaultEvent],
    policy: &mut dyn Policy,
) -> (RunReport, Vec<MetricSample>) {
    let mut testbed = Testbed::new(testbed_cfg, engine_cfg.seed);
    let mut watcher = Watcher::new(engine_cfg.history_window_s.max(1));
    let mut lc_rng = Xoshiro256pp::seed_from_u64(engine_cfg.seed ^ 0x1C);
    let mut outcomes = Vec::new();
    let mut samples = Vec::new();
    let mut history_buf: Vec<MetricVec> = Vec::new();
    let mut decided: Vec<bool> = Vec::new();
    let mut finishing: VecDeque<CompletedApp> = VecDeque::new();
    let final_hint = stream.final_arrival_hint();
    let (mut last_pulled_s, mut arrivals_in_heap) = (0.0_f64, 0usize);
    let (mut skipped, mut drained, mut stopped) = (0usize, 0usize, false);

    let mut heap: EventHeap<Payload> = EventHeap::new();
    for f in faults {
        heap.push(f.at_s.ceil(), EventKind::FaultApply, Payload::Fault(f.link));
    }
    pull(
        &mut heap,
        stream,
        0.0,
        &mut arrivals_in_heap,
        &mut last_pulled_s,
    );
    heap.push(0.0, EventKind::WatcherSample, Payload::Sample);

    heap.run_until_idle(|heap, ev| match ev.payload {
        Payload::Arrival(arrival) => {
            arrivals_in_heap -= 1;
            if stopped {
                skipped += 1;
            } else {
                let stamp = watcher.history_fill(engine_cfg.history_window_s, &mut history_buf);
                let history = stamp.map(|_| history_buf.as_slice());
                let decision = match arrival.forced_mode {
                    Some(mode) => ExplainedDecision {
                        rule: DecisionRule::Forced,
                        ..ExplainedDecision::bare(mode)
                    },
                    None => policy.decide_explained(&DecisionContext {
                        profile: &arrival.profile,
                        history,
                        qos_p99_ms: engine_cfg.qos_p99_ms,
                        stamp,
                    }),
                };
                let duration = arrival
                    .duration_s
                    .unwrap_or(arrival.profile.base_runtime_s());
                testbed.deploy_for(arrival.profile.clone(), decision.mode, duration);
                decided.push(arrival.forced_mode.is_none());
            }
            if !stopped && arrivals_in_heap == 0 {
                pull(
                    heap,
                    stream,
                    testbed.time_s(),
                    &mut arrivals_in_heap,
                    &mut last_pulled_s,
                );
            }
        }
        Payload::Fault(link) => {
            if !stopped {
                testbed.set_link(link);
            }
        }
        Payload::Sample => {
            let report = testbed.step();
            watcher.record(report.sample);
            samples.push(report.sample);
            for done in report.finished {
                finishing.push_back(done);
                heap.push(ev.time_s, EventKind::DeploymentFinish, Payload::Finish);
            }
            let pending = arrivals_in_heap > 0 || !stream.is_exhausted();
            let deadline_s = final_hint.unwrap_or(last_pulled_s) + engine_cfg.max_drain_s;
            if !pending && testbed.resident_count() == 0 {
                stopped = true;
            } else if testbed.time_s() >= deadline_s {
                stopped = true;
                heap.push(
                    testbed.time_s(),
                    EventKind::DrainDeadline,
                    Payload::Deadline,
                );
            } else {
                heap.push(testbed.time_s(), EventKind::WatcherSample, Payload::Sample);
            }
        }
        Payload::Finish => {
            let done = finishing.pop_front().expect("a completion per finish");
            let (policy_decided, finished_s) = (decided[done.id.index() as usize], done.finished_s);
            outcomes.push(outcome_of(done, policy_decided, &engine_cfg, &mut lc_rng));
            if stream.on_complete(finished_s) && !stopped {
                pull(
                    heap,
                    stream,
                    testbed.time_s(),
                    &mut arrivals_in_heap,
                    &mut last_pulled_s,
                );
            }
        }
        Payload::Deadline => drained = stream.drain_remaining(),
    });

    let report = RunReport {
        policy: policy.name().to_owned().into(),
        outcomes,
        link_bytes: testbed.link_bytes_total(),
        end_time_s: testbed.time_s(),
        unfinished: testbed.resident_count() + skipped + drained,
    };
    (report, samples)
}

/// Every field of the two reports and every sample, bit for bit.
fn assert_same_bits(
    what: &str,
    (got, trace): &(RunReport, Trace),
    (want, samples): &(RunReport, Vec<MetricSample>),
) {
    assert_eq!(got.policy, want.policy, "{what}: policy");
    assert_eq!(
        format!("{:?}", got.outcomes),
        format!("{:?}", want.outcomes),
        "{what}: outcomes"
    );
    assert_eq!(trace.len(), samples.len(), "{what}: sample count");
    for (i, (g, w)) in trace.rows().iter().zip(samples).enumerate() {
        let bits = |v: &MetricVec| v.as_array().map(f32::to_bits);
        assert_eq!(
            ((i + 1) as f64, bits(g)),
            (w.time(), bits(w.vec())),
            "{what}: row {i} against the sample at t = {}",
            w.time()
        );
    }
    assert_eq!(
        got.link_bytes.to_bits(),
        want.link_bytes.to_bits(),
        "{what}: link bytes"
    );
    assert_eq!(
        got.end_time_s.to_bits(),
        want.end_time_s.to_bits(),
        "{what}: end time"
    );
    assert_eq!(got.unfinished, want.unfinished, "{what}: unfinished");
}

/// Runs `arrivals` both ways under round-robin placement and compares.
fn check_schedule(
    what: &str,
    testbed_cfg: TestbedConfig,
    engine_cfg: EngineConfig,
    arrivals: &[ScheduledArrival],
    faults: &[FaultEvent],
) -> (RunReport, Trace) {
    let mut trace = Trace::default();
    let report = run_stream_hooked(
        testbed_cfg,
        engine_cfg,
        &mut ScheduleStream::new(arrivals),
        faults,
        &mut RoundRobinPolicy::new(),
        &mut trace,
    );
    let got = (report, trace);
    let want = run_per_second(
        testbed_cfg,
        engine_cfg,
        &mut ScheduleStream::new(arrivals),
        faults,
        &mut RoundRobinPolicy::new(),
    );
    assert_same_bits(what, &got, &want);
    got
}

fn degraded() -> LinkConfig {
    LinkConfig {
        effective_cap_gbps: 0.5,
        base_latency_cycles: 600.0,
        saturated_latency_cycles: 1400.0,
        ..LinkConfig::paper()
    }
}

#[test]
fn long_idle_gaps_between_arrivals() {
    let lr = spark::by_name("lr").unwrap();
    let arrivals = [
        ScheduledArrival::new(5.3, lr.clone()).with_duration(40.0),
        ScheduledArrival::new(2_000.0, lr.clone()).with_mode(MemoryMode::Remote),
        ScheduledArrival::new(9_000.7, lr).with_duration(15.0),
    ];
    for cfg in [TestbedConfig::paper(), TestbedConfig::noiseless()] {
        let (report, trace) =
            check_schedule("idle gaps", cfg, EngineConfig::default(), &arrivals, &[]);
        assert_eq!(report.outcomes.len(), 3);
        assert!(trace.len() > 9_000, "the gaps were simulated");
    }
}

#[test]
fn fault_and_arrival_land_on_the_tick_after_a_quiet_span() {
    let sort = spark::by_name("sort").unwrap();
    // A long remote job keeps the node busy but quiet; then a fault at
    // 299.2 (effective tick 300), a fault and two arrivals at exactly
    // 300, one arrival at 299.5 (tick 300), and a heal in the next span.
    let arrivals = [
        ScheduledArrival::new(0.0, sort.clone())
            .with_mode(MemoryMode::Remote)
            .with_duration(900.0),
        ScheduledArrival::new(299.5, sort.clone()).with_duration(30.0),
        ScheduledArrival::new(300.0, sort.clone()).with_mode(MemoryMode::Remote),
        ScheduledArrival::new(300.0, sort).with_duration(60.0),
    ];
    let faults = [
        FaultEvent {
            at_s: 299.2,
            link: degraded(),
        },
        FaultEvent {
            at_s: 300.0,
            link: LinkConfig {
                effective_cap_gbps: 0.2,
                ..degraded()
            },
        },
        FaultEvent {
            at_s: 650.0,
            link: LinkConfig::paper(),
        },
    ];
    let (report, _) = check_schedule(
        "fault + arrival after a span",
        TestbedConfig::paper(),
        EngineConfig::default(),
        &arrivals,
        &faults,
    );
    assert_eq!(report.outcomes.len(), 4);
}

#[test]
fn completions_inside_a_span_including_an_lc_tail_measurement() {
    let arrivals = [
        ScheduledArrival::new(0.0, spark::by_name("gmm").unwrap()),
        ScheduledArrival::new(1.0, keyvalue::redis())
            .with_mode(MemoryMode::Remote)
            .with_duration(333.0),
        ScheduledArrival::new(2.0, keyvalue::memcached()).with_duration(777.0),
        ScheduledArrival::new(5_000.0, spark::by_name("nweight").unwrap()),
    ];
    let (report, _) = check_schedule(
        "completion inside a span",
        TestbedConfig::paper(),
        EngineConfig::default(),
        &arrivals,
        &[],
    );
    assert_eq!(
        report
            .outcomes
            .iter()
            .filter(|o| o.p99_ms.is_some())
            .count(),
        2
    );
}

#[test]
fn closed_loop_stream() {
    let app = spark::by_name("lr").unwrap();
    let engine_cfg = EngineConfig::default();
    let stream = || {
        let source = ClosedLoopSource::new(3, 20.0, 400.0, 6_000.0, 17);
        let app = app.clone();
        GeneratedStream::new(source, move |_, t| {
            ScheduledArrival::new(t, app.clone()).with_duration(12.0)
        })
    };
    let (mut a, mut b) = (stream(), stream());
    let mut trace = Trace::default();
    let report = run_stream_hooked(
        TestbedConfig::paper(),
        engine_cfg,
        &mut a,
        &[],
        &mut RandomPolicy::new(5),
        &mut trace,
    );
    let got = (report, trace);
    let want = run_per_second(
        TestbedConfig::paper(),
        engine_cfg,
        &mut b,
        &[],
        &mut RandomPolicy::new(5),
    );
    assert_same_bits("closed loop", &got, &want);
    assert_eq!(a.issued(), b.issued());
    assert!(a.issued() > 20, "clients barely cycled: {}", a.issued());
}

#[test]
fn drain_deadline_expires_mid_span() {
    let engine_cfg = EngineConfig {
        max_drain_s: 250.0,
        ..EngineConfig::default()
    };
    let lr = spark::by_name("lr").unwrap();
    let arrivals = [
        ScheduledArrival::new(3.0, lr.clone()).with_duration(10_000.0),
        ScheduledArrival::new(40.0, lr).with_duration(20.0),
    ];
    let (report, _) = check_schedule(
        "deadline mid-span",
        TestbedConfig::paper(),
        engine_cfg,
        &arrivals,
        &[],
    );
    assert_eq!(report.unfinished, 1);
    assert_eq!(report.end_time_s, 290.0);
}

fn stack() -> &'static TrainedStack {
    static STACK: OnceLock<TrainedStack> = OnceLock::new();
    STACK.get_or_init(|| train_stack(&WorkloadCatalog::paper(), &StackOptions::quick()))
}

/// Keeps a Watcher of its own from the step reports and checks, at every
/// decision, that the engine handed out exactly the rows a fresh
/// `history_fill` on it returns (or no window, when that returns none).
struct FreshWindow {
    watcher: Watcher,
    window_s: usize,
    rows: Vec<MetricVec>,
    decisions: usize,
    with_window: usize,
}

impl EngineObserver for FreshWindow {
    fn on_step(&mut self, report: &StepReport) {
        self.watcher.record(report.sample);
    }

    fn on_decision(
        &mut self,
        at_s: f64,
        _id: DeploymentId,
        _profile: &WorkloadProfile,
        history: Option<&[MetricVec]>,
        _decision: &ExplainedDecision,
        _policy_name: &str,
    ) {
        let fresh = self.watcher.history_fill(self.window_s, &mut self.rows);
        let want = fresh.map(|_| self.rows.as_slice());
        let bits = |rows: &[MetricVec]| -> Vec<[u32; 7]> {
            rows.iter()
                .map(|r| r.as_array().map(f32::to_bits))
                .collect()
        };
        assert_eq!(history.map(bits), want.map(bits), "window at t = {at_s}");
        self.decisions += 1;
        self.with_window += usize::from(history.is_some());
    }
}

/// A burst on one stamp: the engine copies the window once, the
/// reference copies it per arrival; the policy answers repeats from its
/// per-stamp record under both.
/// 70 arrivals land on tick 200 — forced ones and repeats of the same
/// application among them — then a tick, 40 more on the next stamp, a
/// quiet tick, and a last few; a handful arrive before the window has
/// filled.
#[test]
fn a_burst_of_arrivals_on_one_tick() {
    let catalog = WorkloadCatalog::paper();
    let apps: Vec<&WorkloadProfile> = catalog.entries().iter().collect();
    let mut arrivals = vec![ScheduledArrival::new(0.0, spark::by_name("sort").unwrap())
        .with_mode(MemoryMode::Remote)
        .with_duration(400.0)];
    let mut burst = |from_s: f64, count: usize| {
        for i in 0..count {
            // Strictly inside (from_s, from_s + 1]: one tick.
            let at_s = from_s + (i + 1) as f64 / count as f64;
            let a = ScheduledArrival::new(at_s, apps[(i * 5) % apps.len()].clone())
                .with_duration(3.0 + (i % 7) as f32);
            arrivals.push(match i % 6 {
                0 => a.with_mode(MemoryMode::Local),
                3 => a.with_mode(MemoryMode::Remote),
                _ => a,
            });
        }
    };
    burst(50.0, 5);
    burst(199.0, 70);
    burst(200.0, 40);
    burst(202.0, 6);

    let engine_cfg = EngineConfig {
        qos_p99_ms: Some(5.0),
        ..EngineConfig::default()
    };
    let mut probe = FreshWindow {
        watcher: Watcher::new(engine_cfg.history_window_s),
        window_s: engine_cfg.history_window_s,
        rows: Vec::new(),
        decisions: 0,
        with_window: 0,
    };
    let mut trace = Trace::default();
    let report = run_stream_hooked(
        TestbedConfig::paper(),
        engine_cfg,
        &mut ScheduleStream::new(&arrivals),
        &[],
        &mut stack().policy(0.7, 5.0),
        &mut (&mut probe, &mut trace),
    );
    let got = (report, trace);
    assert_eq!((probe.decisions, probe.with_window), (122, 116));
    let want = run_per_second(
        TestbedConfig::paper(),
        engine_cfg,
        &mut ScheduleStream::new(&arrivals),
        &[],
        &mut stack().policy(0.7, 5.0),
    );
    assert_same_bits("burst", &got, &want);
    assert_eq!(got.0.outcomes.len(), 122);
}

#[test]
fn every_corpus_case_under_every_policy() {
    let stack = stack();
    let cfg = FuzzConfig::default();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = load_corpus(&dir).expect("committed corpus loads");
    assert!(!entries.is_empty());
    for entry in &entries {
        let case = &entry.case;
        let (catalog, faults) = (case.mix.catalog(), case.fault_events());
        // Both engines take their schedule and configuration from the
        // one description the fuzzer replays this case through.
        let replay = Replay {
            qos_p99_ms: Some(cfg.qos_p99_ms),
            faults: &faults,
            ..Replay::new(cfg.testbed, &catalog, case.spec())
        };
        let (schedule, engine_cfg) = (replay.schedule(), replay.engine_config());
        // The corpus' own (noiseless) testbed, and the paper's noise so
        // the draw-skipping path runs under the same traffic.
        for testbed_cfg in [cfg.testbed, TestbedConfig::paper()] {
            let mut policies: [(Box<dyn Policy>, Box<dyn Policy>); 3] = [
                (
                    Box::new(stack.policy(cfg.beta, cfg.qos_p99_ms)),
                    Box::new(stack.policy(cfg.beta, cfg.qos_p99_ms)),
                ),
                (
                    Box::new(RandomPolicy::new(case.seed ^ 0xBA5E)),
                    Box::new(RandomPolicy::new(case.seed ^ 0xBA5E)),
                ),
                (
                    Box::new(RoundRobinPolicy::new()),
                    Box::new(RoundRobinPolicy::new()),
                ),
            ];
            for (subject, reference) in &mut policies {
                let mut trace = Trace::default();
                let report = run_stream_hooked(
                    testbed_cfg,
                    engine_cfg,
                    &mut ScheduleStream::new(&schedule),
                    &faults,
                    subject.as_mut(),
                    &mut trace,
                );
                let got = (report, trace);
                let want = run_per_second(
                    testbed_cfg,
                    engine_cfg,
                    &mut ScheduleStream::new(&schedule),
                    &faults,
                    reference.as_mut(),
                );
                assert_same_bits(&format!("corpus case {}", entry.id), &got, &want);
            }
        }
    }
}
