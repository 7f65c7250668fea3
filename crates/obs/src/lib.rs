//! Observability subsystem for the Adrias reproduction.
//!
//! Adrias' claim is that placement decisions follow from observed
//! low-level system state; this crate makes that chain inspectable.
//! Three pillars, all zero-dependency and deterministic:
//!
//! * [`trace`] — structured spans and instants stamped with the **sim
//!   clock** (never the wall clock), held in a bounded [`Ring`] — the
//!   one ring under the tracer, the lifecycle spans and the flight
//!   recorder. Two same-seed runs produce byte-identical traces at any
//!   worker count.
//! * [`registry`] — named counters, gauges, and distributions (one
//!   type: the mergeable [`Sketch`]) registered by the sim (testbed
//!   steps, contention slowdowns, interconnect traffic), the
//!   orchestrator (decisions per policy, drain time) and the
//!   predictor/nn layers (epoch loss, minibatch throughput,
//!   gradient-chunk counts).
//! * [`audit`] — one [`DecisionRecord`] per orchestration decision:
//!   the Watcher window the policy saw, the predicted local/remote
//!   performance, the β-slack or QoS margin, and whether the decision
//!   was within a configurable *near-flip* band.
//!
//! [`export`] renders all three as JSONL and as Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` or Perfetto), [`validate`]
//! re-checks exported files against the schema (used by CI), and
//! [`report`] renders a human-readable run summary.
//!
//! # Examples
//!
//! ```
//! use adrias_obs::{export, Observer, ObsConfig};
//!
//! let mut obs = Observer::new(ObsConfig::default());
//! obs.tracer.span("engine.run", "engine", 0.0, 120.0, 0, vec![]);
//! obs.registry.counter_add("sim.steps", 120);
//! let jsonl = export::to_jsonl_events(&obs);
//! assert!(jsonl.starts_with("{\"type\":\"meta\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod audit;
pub mod burn;
pub mod export;
pub mod flight;
pub mod json;
pub mod observer;
pub mod registry;
pub mod report;
pub mod ring;
pub mod sketch;
pub mod spans;
pub mod trace;
pub mod validate;

pub use adapt::{
    AdaptationLog, CaptureRecord, CaptureSkip, DriftConfig, DriftEvent, ModelSwapRecord,
    PageHinkley, PageHinkleyState, SwapVerdict,
};
pub use audit::{AuditTrail, DecisionInput, DecisionRecord, DecisionRule, WindowSummary};
pub use burn::{BurnConfig, BurnEvent, SloBurnMonitor};
pub use export::{
    to_jsonl_qos_counterexamples, write_all, write_flamegraph, write_post_mortem, ExportError,
    ExportPaths,
};
pub use flight::{FlightEntry, FlightRecorder};
pub use observer::{ObsConfig, Observer};
pub use registry::Registry;
pub use report::render_report;
pub use ring::Ring;
pub use sketch::Sketch;
pub use spans::{LifecycleSpan, SpanStore};
pub use trace::{ArgValue, TraceEvent, TraceKind, Tracer};
pub use validate::{
    validate_chrome_trace, validate_jsonl_adaptation, validate_jsonl_decisions,
    validate_jsonl_events, validate_jsonl_metrics, validate_jsonl_spans, ValidateError,
};
