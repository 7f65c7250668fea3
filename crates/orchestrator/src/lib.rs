//! The Adrias *Orchestrator* (§V-C of the paper) and its evaluation
//! engine.
//!
//! When a workload arrives, the orchestrator decides between **local**
//! and **remote** memory:
//!
//! * best-effort apps use the β-slack rule — deploy local iff
//!   `t̂_local < β · t̂_remote`, where β encodes the performance loss the
//!   operator will tolerate to exploit disaggregated memory;
//! * latency-critical apps deploy remote iff the predicted 99th
//!   percentile under remote mode still meets the QoS constraint;
//! * applications with no stored signature are scheduled remote-first so
//!   a signature can be captured.
//!
//! The crate provides the [`Policy`] trait, the deep-learning-driven
//! [`AdriasPolicy`], the paper's comparison baselines (Random,
//! Round-Robin, All-Local, plus All-Remote), QoS-level derivation and a
//! deployment [`engine`] that replays an arrival schedule on the testbed
//! simulator and records per-application outcomes and link traffic; a
//! run's 1 Hz metric trace is kept only by an attached [`Trace`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod adrias;
pub mod baselines;
pub mod engine;
pub mod engine_obs;
pub mod event;
pub mod online;
pub mod policy;
pub mod qos;
#[cfg(test)]
pub(crate) mod test_support;
pub mod trace;

pub use adapt::{
    fine_tune_candidate, gate_swap, harvest_perf_records, GateConfig, ModelTarget, ResidualConfig,
    ResidualTracker,
};
pub use adrias::{be_rule, lc_rule, AdriasPolicy};
pub use baselines::{AllLocalPolicy, AllRemotePolicy, RandomPolicy, RoundRobinPolicy};
pub use engine::{
    run_stream_hooked, AppOutcome, ArrivalStream, EngineConfig, EngineObserver, FaultEvent,
    GeneratedStream, RunReport, ScheduleStream, ScheduledArrival,
};
pub use engine_obs::ObservedRun;
pub use event::{Event, EventHeap, EventKind};
pub use online::{
    absorb_signatures, absorb_signatures_observed, capture_unknown_signatures,
    capture_unknown_signatures_audited,
};
pub use policy::{DecisionContext, ExplainedDecision, Policy};
pub use qos::qos_levels;
pub use trace::Trace;
