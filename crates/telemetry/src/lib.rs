//! Telemetry substrate for the Adrias reproduction.
//!
//! This crate implements the *Watcher* component of Adrias (§V-A of the
//! paper) together with the supporting machinery it needs:
//!
//! * [`Metric`] — the seven low-level performance events monitored on the
//!   ThymesisFlow testbed (LLC loads/misses, local DRAM loads/stores, link
//!   flits transmitted/received and link latency);
//! * [`TimeSeries`] and [`MetricRing`] — fixed-capacity, 1 Hz sample
//!   storage with window extraction;
//! * [`Watcher`] — the sampling front-end that exposes the history window
//!   `S` and horizon statistics consumed by the Predictor;
//! * [`stats`] — Pearson correlation, `R²`, MAE, percentiles and the other
//!   statistics used throughout the evaluation;
//! * [`dist`] — seeded samplers for the normal / lognormal / exponential
//!   distributions used by the workload and interconnect models.
//!
//! # Examples
//!
//! ```
//! use adrias_telemetry::{Metric, MetricSample, Watcher};
//!
//! let mut watcher = Watcher::new(120);
//! for t in 0..130 {
//!     let mut s = MetricSample::zero(t as f64);
//!     s.set(Metric::LlcLoads, 1.0e6 + t as f32);
//!     watcher.record(s);
//! }
//! let mut window = Vec::new();
//! watcher.history_fill(120, &mut window).expect("window is full");
//! assert_eq!(window.len(), 120);
//! assert_eq!(window[119].get(Metric::LlcLoads), 1.0e6 + 129.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod metrics;
pub mod series;
pub mod stats;
pub mod watcher;

pub use metrics::{Metric, MetricSample, MetricVec, METRIC_COUNT};
pub use series::{MetricRing, TimeSeries};
pub use watcher::{Watcher, WindowStamp};
