//! Pins the event-heap engine's determinism contract: every committed
//! corpus case must match its manifest digest, every seeded scenario
//! must produce byte-identical RunReports, audit trails, and JSONL
//! exports across repeated runs, the corpus replay harness must be
//! worker-count invariant, and the SIMD kernel layer must be bitwise
//! interchangeable with its forced-scalar fallback (the lane-order
//! accumulation contract, DESIGN.md §14). This is the harness that once pinned the event engine against
//! the retired 1 Hz step loop; the step loop is gone, so the oracle is
//! now the corpus manifest plus self-consistency.

use std::path::Path;
use std::sync::OnceLock;

use adrias::nn::set_force_scalar;
use adrias::obs::export::{to_jsonl_decisions, to_jsonl_events, to_jsonl_metrics, to_jsonl_spans};
use adrias::obs::Observer;
use adrias::orchestrator::Trace;
use adrias::scenarios::fuzz::replay_corpus;
use adrias::scenarios::{
    load_corpus, run_case, train_stack, FuzzConfig, Replay, ScenarioSpec, StackOptions,
    TrainedStack,
};
use adrias::sim::TestbedConfig;
use adrias::workloads::WorkloadCatalog;

fn trained() -> &'static (WorkloadCatalog, TrainedStack) {
    static STACK: OnceLock<(WorkloadCatalog, TrainedStack)> = OnceLock::new();
    STACK.get_or_init(|| {
        let catalog = WorkloadCatalog::paper();
        let stack = train_stack(&catalog, &StackOptions::quick());
        (catalog, stack)
    })
}

/// The byte streams of [`run_fingerprint`], in its order.
const STREAMS: [&str; 5] = ["report", "decisions", "events", "metrics", "spans"];

/// One full observed scenario run rendered to every byte stream the
/// determinism contract covers: the exact RunReport debug form with the
/// run's 1 Hz trace, the decision audit trail, the event log, the
/// metrics export, and the lifecycle spans.
fn run_fingerprint(stack: &TrainedStack, catalog: &WorkloadCatalog, seed: u64) -> [String; 5] {
    let spec = ScenarioSpec::new(5.0, 30.0, 700.0, seed);
    let replay = Replay {
        qos_p99_ms: Some(5.0),
        ..Replay::new(TestbedConfig::noiseless(), catalog, spec)
    };
    let mut obs = Observer::default();
    let mut trace = Trace::default();
    let report = replay.run(
        &mut stack.policy(0.8, 5.0),
        &mut (&mut trace, replay.observed(&mut obs)),
    );
    [
        format!("{report:?} {trace:?}"),
        to_jsonl_decisions(&obs),
        to_jsonl_events(&obs),
        to_jsonl_metrics(&obs),
        to_jsonl_spans(&obs),
    ]
}

/// The committed regression corpus replays with digests identical to
/// the manifest that gates CI — the engine has not drifted from the
/// corpus ground truth.
#[test]
fn committed_corpus_cases_match_their_manifest_digests() {
    let (_, stack) = trained();
    let cfg = FuzzConfig::default();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = load_corpus(&dir).expect("committed corpus loads");
    assert_eq!(entries.len(), 20, "corpus size changed; update this test");
    for entry in &entries {
        let outcome = run_case(stack, &cfg, &entry.case);
        assert_eq!(
            outcome.digest, entry.digest,
            "corpus case {} drifted from its manifest digest",
            entry.id
        );
    }
}

/// The replay harness itself (the CI gate) is worker-count invariant
/// and green against the committed manifest.
#[test]
fn corpus_replay_is_green_and_worker_invariant() {
    let (_, stack) = trained();
    let cfg = FuzzConfig::default();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = load_corpus(&dir).expect("committed corpus loads");
    let golden = replay_corpus(stack, &cfg, &entries, 1);
    assert!(
        golden.ok(),
        "corpus replay diverged at 1 worker: {:?}",
        golden.digest_mismatches()
    );
    for workers in [2usize, 8] {
        let replay = replay_corpus(stack, &cfg, &entries, workers);
        assert!(replay.ok(), "replay diverged at {workers} workers");
        assert_eq!(
            golden.verdict.suite_digest, replay.verdict.suite_digest,
            "suite digest drifted at {workers} workers"
        );
    }
}

/// Seeds {0,1,2}: a repeated run reproduces the RunReport and all four
/// JSONL exports exactly.
#[test]
fn engine_runs_are_byte_identical_across_repeats() {
    let (catalog, stack) = trained();
    for seed in [0u64, 1, 2] {
        let golden = run_fingerprint(stack, catalog, seed);
        assert!(
            golden[0].contains("outcomes"),
            "run produced no outcomes for seed {seed}"
        );
        assert!(
            !golden[1].is_empty() && !golden[2].is_empty() && !golden[3].is_empty(),
            "observed run exported nothing for seed {seed}"
        );
        assert!(
            golden[4].lines().count() > 1,
            "run closed no lifecycle spans for seed {seed}"
        );
        let again = run_fingerprint(stack, catalog, seed);
        for (i, stream) in STREAMS.iter().enumerate() {
            assert_eq!(
                golden[i], again[i],
                "engine diverged on {stream} at seed {seed}"
            );
        }
    }
}

/// The forced-scalar kernel path reproduces the native (SIMD where
/// available) byte streams exactly — the lane-order accumulation
/// contract holds end to end, from GEMM micro-kernels through LSTM
/// gates to the exported JSONL. The toggle is process-global; because
/// both paths are bit-identical, tests running concurrently under
/// either setting still agree.
#[test]
fn forced_scalar_kernels_reproduce_native_runs_byte_for_byte() {
    let (catalog, stack) = trained();
    let seed = 1u64;
    let native = run_fingerprint(stack, catalog, seed);
    set_force_scalar(true);
    let scalar = run_fingerprint(stack, catalog, seed);
    set_force_scalar(false);
    for (i, stream) in STREAMS.iter().enumerate() {
        assert_eq!(
            native[i], scalar[i],
            "forced-scalar diverged from native on {stream}"
        );
    }
}

/// Faulted runs (the fuzzer's engine path) are deterministic too: a
/// link collapse mid-scenario lands on the same tick with the same
/// bytes on every run.
#[test]
fn faulted_runs_are_deterministic() {
    use adrias::orchestrator::engine::FaultEvent;
    use adrias::sim::LinkConfig;
    let (catalog, stack) = trained();
    let faults = [
        FaultEvent {
            at_s: 120.0,
            link: LinkConfig {
                effective_cap_gbps: 0.5,
                remote_latency_ns: 2400.0,
                ..LinkConfig::paper()
            },
        },
        FaultEvent {
            at_s: 300.5,
            link: LinkConfig::paper(),
        },
    ];
    let replay = Replay {
        qos_p99_ms: Some(5.0),
        faults: &faults,
        ..Replay::new(
            TestbedConfig::noiseless(),
            catalog,
            ScenarioSpec::new(5.0, 25.0, 700.0, 3),
        )
    };
    let run = || {
        let mut obs = Observer::default();
        let report = replay.run(&mut stack.policy(0.8, 5.0), &mut replay.observed(&mut obs));
        (format!("{report:?}"), to_jsonl_events(&obs))
    };
    assert_eq!(run(), run());
}
