//! The Adrias *Predictor* (§V-B of the paper).
//!
//! Adrias stacks two deep models:
//!
//! 1. a **system-state model** ([`SystemStateModel`]) that receives the
//!    Watcher's history window `S` (120 s × 7 metrics) and forecasts the
//!    mean of every monitored metric over the next 120 s (`Ŝ`);
//! 2. a **performance model** ([`PerfModel`]) that receives `S`, `Ŝ`, the
//!    candidate memory mode and the application signature `k`, and
//!    predicts the execution time (best-effort) or the 99th-percentile
//!    response time (latency-critical) of the arriving application under
//!    that mode.
//!
//! Both follow the paper's architecture: two stacked LSTM layers feeding
//! a triplet of non-linear blocks (Linear→ReLU→BatchNorm→Dropout) and a
//! linear read-out, trained with Adam on MSE. That shape is written
//! once, in the private `parts` module: the system-state model is one
//! `Encoder` and a `Head`, the performance model two encoders (history,
//! signature) and a head; both train through [`adrias_nn::fit`] and
//! persist through one save/load pair ([`persist`]) that restores a
//! model bit for bit.
//!
//! The crate also hosts the evaluation machinery for the accuracy section
//! of the paper: train/test splits ([`dataset`]), `R²`/MAE reports
//! ([`eval`]), the stacked-model input ablation of Fig. 13b
//! ([`ablation`]) and leave-one-out generalization of Fig. 15
//! ([`ablation::leave_one_out`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod dataset;
pub mod eval;
pub mod norm;
mod parts;
pub mod perf_model;
pub mod persist;
pub mod scratch;
pub mod system_model;

pub use ablation::SHatSource;
pub use adrias_nn::Tensor;
pub use dataset::{PerfDataset, PerfRecord, SystemStateDataset};
pub use eval::RegressionReport;
pub use norm::Normalizer;
pub use perf_model::{PerfModel, PerfModelConfig};
pub use persist::{
    load_perf_model, load_system_model, save_perf_model, save_system_model, LoadModelError,
    SaveModelError,
};
pub use scratch::{PerfScratch, SystemScratch};
pub use system_model::{SystemStateModel, SystemStateModelConfig};

/// FNV-1a over the bit patterns of `values`: what the golden tests pin
/// loss traces and parameter sets to.
#[cfg(test)]
pub(crate) fn digest_bits(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every parameter, then every running buffer, of `model` in
/// [`adrias_nn::GradModel`] order.
#[cfg(test)]
pub(crate) fn model_state<M: adrias_nn::GradModel>(model: &mut M) -> Vec<f32> {
    let mut state = Vec::new();
    model.visit_params(&mut |p, _| state.extend_from_slice(p.data()));
    model.visit_buffers(&mut |b| state.extend_from_slice(b.data()));
    state
}
