//! Adrias-in-the-loop perf ledger.
//!
//! Four workloads drive the trained Adrias stack through the event
//! engine (or the offline training phase) and report end-to-end
//! numbers from untraced passes plus a per-layer wall-time budget from
//! one separate traced pass. Every layer is measured from outside,
//! through public functions only — see `README.md` for the method, the
//! metric glossary and the list of public functions this crate calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine_run;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod probes;
pub mod repeat;
pub mod report;
pub mod spec;
pub mod stats;
pub mod train_run;
pub mod wrappers;
