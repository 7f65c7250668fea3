//! The engine measures a second's sample only where something can read
//! it (`run_stream_hooked`'s unread rule). This is its differential
//! oracle: every case runs twice under a recording observer whose two
//! runs differ only in `EngineObserver::reads_samples`, and the two must
//! agree on the whole `RunReport` and on every decision's history, bit
//! for bit — over the regression corpus, one run of each arrival
//! generator, a faulted schedule, and arrivals placed one second either
//! side of the window boundary after an idle and after a busy stretch.

use std::path::Path;
use std::sync::OnceLock;

use adrias::orchestrator::{
    run_stream_hooked, ArrivalStream, EngineConfig, EngineObserver, ExplainedDecision, FaultEvent,
    GeneratedStream, RoundRobinPolicy, RunReport, ScheduleStream, ScheduledArrival,
};
use adrias::scenarios::{load_corpus, train_stack, FuzzConfig, Replay, StackOptions, TrainedStack};
use adrias::sim::{DeploymentId, LinkConfig, StepReport, TestbedConfig};
use adrias::telemetry::MetricVec;
use adrias::workloads::{
    spark, ClosedLoopSource, DiurnalSource, MmppSource, PoissonSource, WorkloadCatalog,
    WorkloadProfile,
};

fn trained() -> &'static TrainedStack {
    static STACK: OnceLock<TrainedStack> = OnceLock::new();
    STACK.get_or_init(|| train_stack(&WorkloadCatalog::paper(), &StackOptions::quick()))
}

/// Every decision's history as bits, and how many steps were measured.
/// It reads no sample of its own; `reads` is only what it declares.
struct Recorder {
    reads: bool,
    histories: Vec<Option<Vec<u32>>>,
    steps: u64,
    sampled: u64,
}

impl EngineObserver for Recorder {
    fn on_decision(
        &mut self,
        _at_s: f64,
        _id: DeploymentId,
        _profile: &WorkloadProfile,
        history: Option<&[MetricVec]>,
        _decision: &ExplainedDecision,
        _policy_name: &str,
    ) {
        let bits = |rows: &[MetricVec]| {
            let row_bits = |row: &MetricVec| row.as_array().map(f32::to_bits);
            rows.iter().flat_map(row_bits).collect()
        };
        self.histories.push(history.map(bits));
    }

    fn on_step(&mut self, report: &StepReport) {
        self.steps += 1;
        self.sampled += u64::from(report.sampled);
    }

    fn reads_samples(&self) -> bool {
        self.reads
    }
}

/// Runs `case` with and without declared sample reads and checks the
/// two runs agree; returns `(steps, steps measured)` of the run that
/// declared none.
fn both_ways(label: &str, case: impl Fn(&mut Recorder) -> RunReport) -> (u64, u64) {
    let run = |reads| {
        let mut recorder = Recorder {
            reads,
            histories: Vec::new(),
            steps: 0,
            sampled: 0,
        };
        let report = case(&mut recorder);
        (format!("{report:?}"), recorder)
    };
    let (read, unread) = (run(true), run(false));
    assert_eq!(read.0, unread.0, "{label}: reports differ");
    assert!(
        read.1.histories == unread.1.histories,
        "{label}: a decision's history differs"
    );
    assert!(!read.1.histories.is_empty(), "{label}: nothing was decided");
    assert_eq!(read.1.steps, unread.1.steps, "{label}");
    assert_eq!(
        read.1.sampled, read.1.steps,
        "{label}: a read step unmeasured"
    );
    (unread.1.steps, unread.1.sampled)
}

fn engine() -> EngineConfig {
    EngineConfig {
        lc_latency_samples: 500,
        ..EngineConfig::default()
    }
}

/// One run of `stream` on the paper testbed under a fresh Adrias policy.
fn run_stream(
    stream: &mut dyn ArrivalStream,
    faults: &[FaultEvent],
    recorder: &mut Recorder,
) -> RunReport {
    let mut policy = trained().policy(0.7, 5.0);
    run_stream_hooked(
        TestbedConfig::paper(),
        engine(),
        stream,
        faults,
        &mut policy,
        recorder,
    )
}

/// Deals the paper catalog in turn, one arrival at each instant.
fn dealt(index: u64, at_s: f64) -> ScheduledArrival {
    let catalog = WorkloadCatalog::paper();
    let entries = catalog.entries();
    let profile = entries[index as usize % entries.len()].clone();
    ScheduledArrival::new(at_s, profile).with_duration(20.0 + (index % 7) as f32 * 15.0)
}

#[test]
fn every_corpus_case_reports_the_same_bits_measured_or_not() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = load_corpus(&dir).expect("the corpus loads");
    assert!(!entries.is_empty());
    let cfg = FuzzConfig::default();
    let mut unread = 0;
    for entry in &entries {
        let (catalog, faults) = (entry.case.mix.catalog(), entry.case.fault_events());
        // The corpus's own noiseless testbed, and the paper's noise.
        for testbed in [cfg.testbed, TestbedConfig::paper()] {
            let replay = Replay {
                qos_p99_ms: Some(cfg.qos_p99_ms),
                faults: &faults,
                ..Replay::new(testbed, &catalog, entry.case.spec())
            };
            let (steps, sampled) = both_ways(&entry.id, |recorder| {
                let mut policy = trained().policy(cfg.beta, cfg.qos_p99_ms);
                replay.run(&mut policy, recorder)
            });
            unread += steps - sampled;
        }
    }
    assert!(unread > 0, "no corpus second went unmeasured");
}

/// One run of a case under the recorder it is handed.
type Case<'a> = dyn Fn(&mut Recorder) -> RunReport + 'a;

#[test]
fn every_generator_reports_the_same_bits_measured_or_not() {
    const HORIZON_S: f64 = 12_000.0;
    let link = LinkConfig::paper();
    let faults = [
        FaultEvent {
            at_s: 700.0,
            link: LinkConfig {
                base_latency_cycles: link.base_latency_cycles * 3.0,
                saturated_latency_cycles: link.saturated_latency_cycles * 3.0,
                ..link
            },
        },
        FaultEvent {
            at_s: 4_321.5,
            link,
        },
    ];
    let cases: [(&str, &Case); 5] = [
        ("poisson", &|r| {
            let source = PoissonSource::new(1.0 / 200.0, HORIZON_S, 1);
            run_stream(&mut GeneratedStream::new(source, dealt), &[], r)
        }),
        ("diurnal", &|r| {
            let source = DiurnalSource::new(1.0 / 300.0, 0.9, HORIZON_S, HORIZON_S, 2);
            run_stream(&mut GeneratedStream::new(source, dealt), &[], r)
        }),
        ("mmpp", &|r| {
            let source = MmppSource::new([1.0 / 600.0, 1.0 / 15.0], [3_000.0, 200.0], HORIZON_S, 3);
            run_stream(&mut GeneratedStream::new(source, dealt), &[], r)
        }),
        ("closed_loop", &|r| {
            let source = ClosedLoopSource::new(2, 60.0, 900.0, HORIZON_S, 4);
            run_stream(&mut GeneratedStream::new(source, dealt), &[], r)
        }),
        ("faulted", &|r| {
            let schedule: Vec<ScheduledArrival> = [0.0, 250.5, 900.0, 1_500.0, 4_400.0]
                .iter()
                .enumerate()
                .map(|(i, &at_s)| dealt(i as u64, at_s))
                .collect();
            run_stream(&mut ScheduleStream::new(&schedule), &faults, r)
        }),
    ];
    for (label, case) in cases {
        let (steps, sampled) = both_ways(label, case);
        assert!(sampled < steps, "{label}: every second was measured");
    }
}

/// The next arrival `window − 1`, `window` and `window + 1` seconds
/// after an idle stretch begins (a 5 s job finished), and after the
/// previous arrival on a busy node (a resident outlives the arrivals).
/// Step `k` is unread iff `k + window < T`, so the idle stretch's first
/// second, and on the busy node the previous arrival's own second, is
/// unread only at `window + 1`: `window` puts it exactly on the
/// boundary, read.
#[test]
fn arrivals_at_the_window_boundary_report_the_same_bits() {
    let window = EngineConfig::default().history_window_s as f64;
    let lr = spark::by_name("lr").unwrap();
    for delta in [-1.0, 0.0, 1.0] {
        let gap_s = window + delta;
        let idle: Vec<ScheduledArrival> = (0..4)
            .map(|i| ScheduledArrival::new(300.0 + f64::from(i) * (5.0 + gap_s), lr.clone()))
            .map(|a| a.with_duration(5.0))
            .collect();
        let mut busy = vec![ScheduledArrival::new(0.0, lr.clone()).with_duration(2_000.0)];
        busy.extend((0..4).map(|i| {
            ScheduledArrival::new(300.0 + f64::from(i) * gap_s, lr.clone()).with_duration(3.0)
        }));
        for (stretch, schedule) in [("idle", &idle), ("busy", &busy)] {
            let label = format!("{stretch} stretch, gap {gap_s}");
            both_ways(&label, |recorder| {
                run_stream_hooked(
                    TestbedConfig::paper(),
                    engine(),
                    &mut ScheduleStream::new(schedule),
                    &[],
                    &mut RoundRobinPolicy::new(),
                    recorder,
                )
            });
        }
    }
}

/// A closed-loop stream that declares it cannot admit on a completion.
struct Undeclared<S>(S);

impl<S: ArrivalStream> ArrivalStream for Undeclared<S> {
    fn next_arrival(&mut self) -> Option<ScheduledArrival> {
        self.0.next_arrival()
    }

    fn on_complete(&mut self, finished_s: f64) -> bool {
        self.0.on_complete(finished_s)
    }

    fn is_exhausted(&self) -> bool {
        self.0.is_exhausted()
    }

    fn drain_remaining(&mut self) -> usize {
        self.0.drain_remaining()
    }
}

#[test]
#[should_panic(expected = "admitted on a completion after declaring it cannot")]
fn a_stream_that_admits_against_its_declaration_panics() {
    let source = ClosedLoopSource::new(1, 5.0, 10.0, 1_000.0, 9);
    let mut stream = Undeclared(GeneratedStream::new(source, dealt));
    let _ = run_stream_hooked(
        TestbedConfig::paper(),
        engine(),
        &mut stream,
        &[],
        &mut RoundRobinPolicy::new(),
        &mut (),
    );
}
