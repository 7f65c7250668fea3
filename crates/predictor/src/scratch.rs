//! Reusable inference scratch for the decision fast lane.
//!
//! The steady-state orchestrator path calls the two predictor models on
//! every application arrival. The general-purpose `predict*` entry
//! points allocate their pooled windows, sequence tensors and LSTM
//! activations per call; at decision rates that allocation churn
//! dominates. This module holds the buffer bundles —
//! [`SystemScratch`] and [`PerfScratch`] — that
//! [`crate::SystemStateModel::predict_into`] and
//! [`crate::PerfModel::predict_both_into`] reuse across calls so the
//! hot path performs **zero heap allocations** (asserted by the
//! orchestrator's `alloc_free` test with a counting global allocator).
//!
//! A scratch is built from a *trained* model
//! ([`crate::SystemStateModel::make_scratch`] /
//! [`crate::PerfModel::make_scratch`]) and captures shape information
//! plus the batch-norm evaluation scales (`1/√(running_var+eps)`) of
//! that model; using it with a different or re-trained model panics on
//! the shape checks or silently mixes statistics, so rebuild scratches
//! after any training step. Outputs are bit-identical to the
//! allocating entry points — every kernel the fast lane uses computes
//! the exact per-element expressions of its allocating counterpart.

use adrias_nn::{LstmScratch, Tensor};
use adrias_telemetry::{MetricVec, METRIC_COUNT};

/// Writes one window into `seq` as the flat `rows.len() × METRIC_COUNT`
/// input arena of a batch-1 [`adrias_nn::Lstm::forward_seq_scratch`] —
/// the values `seq_tensors` stacks for that window.
pub(crate) fn fill_seq(rows: &[MetricVec], seq: &mut [f32]) {
    assert_eq!(seq.len(), rows.len() * METRIC_COUNT, "window length");
    for (slot, row) in seq.chunks_exact_mut(METRIC_COUNT).zip(rows) {
        slot.copy_from_slice(row.as_array());
    }
}

/// Reusable buffers for [`crate::SystemStateModel::predict_into`]
/// (batch 1).
///
/// Build with [`crate::SystemStateModel::make_scratch`] after training.
#[derive(Debug, Clone)]
pub struct SystemScratch {
    /// Pooled-and-normalized history window ([`crate::dataset::SEQ_LEN`] rows).
    pub(crate) pooled: Vec<MetricVec>,
    /// The window as the LSTM's flat input arena
    /// ([`crate::dataset::SEQ_LEN`] steps of `METRIC_COUNT`).
    pub(crate) seq: Vec<f32>,
    /// Activation scratch for the first stacked LSTM.
    pub(crate) lstm1: LstmScratch,
    /// Activation scratch for the second stacked LSTM.
    pub(crate) lstm2: LstmScratch,
    /// The last hidden state as the blocks' `1 × hidden` input.
    pub(crate) h2: Tensor,
    /// Per-block batch-norm evaluation scales, captured at build time.
    pub(crate) inv_std: Vec<Vec<f32>>,
    /// Ping-pong activation buffer for the non-linear blocks.
    pub(crate) x0: Tensor,
    /// Ping-pong activation buffer for the non-linear blocks.
    pub(crate) x1: Tensor,
    /// Read-out staging (`1 × METRIC_COUNT`).
    pub(crate) out: Tensor,
}

/// Reusable buffers for [`crate::PerfModel::predict_both_into`]: the
/// two LSTM branches at batch 1 (there is one history window and one
/// signature), the head at batch 2 (one row per candidate memory mode).
///
/// Build with [`crate::PerfModel::make_scratch`] after training.
#[derive(Debug, Clone)]
pub struct PerfScratch {
    /// Pooled-and-normalized history window ([`crate::dataset::SEQ_LEN`] rows).
    pub(crate) pooled: Vec<MetricVec>,
    /// The history window as a flat LSTM input arena
    /// ([`crate::dataset::SEQ_LEN`] steps of `METRIC_COUNT`).
    pub(crate) seq_s: Vec<f32>,
    /// The signature window, likewise.
    pub(crate) seq_k: Vec<f32>,
    /// Activation scratch for the first history LSTM.
    pub(crate) s1: LstmScratch,
    /// Activation scratch for the second history LSTM.
    pub(crate) s2: LstmScratch,
    /// Activation scratch for the first signature LSTM.
    pub(crate) k1: LstmScratch,
    /// Activation scratch for the second signature LSTM.
    pub(crate) k2: LstmScratch,
    /// Per-block batch-norm evaluation scales, captured at build time.
    pub(crate) inv_std: Vec<Vec<f32>>,
    /// Concatenated `[h_s | h_k | side]` block input.
    pub(crate) concat: Tensor,
    /// Ping-pong activation buffer for the non-linear blocks.
    pub(crate) x0: Tensor,
    /// Ping-pong activation buffer for the non-linear blocks.
    pub(crate) x1: Tensor,
    /// Read-out staging (`2 × 1`).
    pub(crate) out: Tensor,
}
