//! Scenario generation, trace collection and evaluation runners.
//!
//! The offline phase of Adrias (§V-B1) simulates 72 one-hour scenarios
//! with randomized arrivals (spawn intervals from `{5, 20}` up to
//! `{5, 60}` seconds), random benchmark choice and random local/remote
//! placement, recording both the Watcher metric streams and every
//! application's performance. This crate reproduces that pipeline on the
//! testbed simulator:
//!
//! * [`spec`] — scenario specifications and the 72-scenario corpus;
//! * [`schedule`] — deterministic arrival-schedule generation;
//! * [`traces`] — trace collection and conversion into the predictor's
//!   datasets;
//! * [`signatures`] — application-signature capture (isolated remote
//!   runs);
//! * [`stack`] — one-call training of the full Adrias model stack;
//! * [`runner`] — the one scenario replay every caller goes through,
//!   and the orchestration-evaluation loop comparing policies across
//!   scenarios (Figs. 16–17), with parallel execution;
//! * [`drift`] — the drifting-workload runner closing the §V-C online
//!   loop: residual tracking, drift detection and audited hot-swaps;
//! * [`fuzz`] — the adversarial scenario fuzzer: property-driven
//!   generation of app mixes, arrival bursts and link-fault schedules,
//!   gated by differential QoS oracles with shrinking;
//! * [`corpus`] — the versioned on-disk regression corpus the fuzzer's
//!   promoted cases and shrunk counterexamples persist into.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod drift;
pub mod fuzz;
pub mod runner;
pub mod schedule;
pub mod signatures;
pub mod spec;
pub mod stack;
pub mod traces;

pub use corpus::{
    load_corpus, save_corpus, CorpusEntry, CorpusError, CorpusOrigin, CORPUS_FORMAT_VERSION,
};
pub use drift::{
    degraded_testbed, demo_phases, run_drift_phases, DriftPhase, DriftRunConfig, DriftRunResult,
    PhaseOutcome,
};
pub use fuzz::{
    case_strategy, find_qos_counterexample, generate_cases, replay_corpus, run_case, run_suite,
    AppMix, ArrivalShape, CaseOutcome, FaultKind, FaultSpec, FuzzCase, FuzzConfig, ReplayReport,
    SuiteReport, SuiteVerdict,
};
pub use runner::{run_comparison, PolicyOutcome, Replay};
pub use schedule::build_schedule;
pub use signatures::collect_signatures;
pub use spec::{paper_corpus, scaled_corpus, ScenarioSpec};
pub use stack::{train_stack, StackOptions, TrainLosses, TrainedStack};
pub use traces::{collect_traces, TraceBundle};
