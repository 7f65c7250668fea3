//! Reusable inference scratch for each model's one inference route.
//!
//! Every prediction a model makes — a decision, `predict`, `evaluate`,
//! the `Ŝ` the ablations feed — runs one route:
//! [`crate::SystemStateModel::predict_into`], and [`crate::PerfModel`]'s
//! `*_features_into` → [`crate::PerfModel::predict_both_from_features`].
//! This module holds the buffer bundles that route reuses across calls —
//! [`SystemScratch`] and [`PerfScratch`], each the model's input staging
//! plus one `EncoderScratch` per encoder and a `HeadScratch` (see
//! `parts`) — so the decision path performs **zero heap allocations**
//! (asserted by the orchestrator's `alloc_free` test with a counting
//! global allocator), and a scoring loop allocates one scratch for all
//! its rows. The history entry points take the Watcher window already
//! pooled to [`SEQ_LEN`] rows ([`crate::dataset::pool_rows_into`]): both
//! models read the same pooled rows, so a decision pools once for the
//! two.
//!
//! A scratch is built from a *trained* model
//! ([`crate::SystemStateModel::make_scratch`] /
//! [`crate::PerfModel::make_scratch`]) and captures shape information
//! plus the batch-norm evaluation scales (`1/√(running_var+eps)`) of
//! that model; using it with a different or re-trained model panics on
//! the shape checks or silently mixes statistics, so rebuild scratches
//! after any training step. Outputs are bit-identical to a row of the
//! batched training-path forward in evaluation mode — every kernel the
//! route uses computes the exact per-element expressions of its batched
//! counterpart (pinned by each model's tests).

use adrias_nn::{AlignedVec, Tensor};
use adrias_telemetry::{MetricVec, METRIC_COUNT};

use crate::dataset::SEQ_LEN;
use crate::norm::Normalizer;
use crate::parts::{EncoderScratch, HeadScratch};

/// Writes one window into `seq` as the flat `rows.len() × METRIC_COUNT`
/// input arena of a batch-1 [`adrias_nn::Lstm::forward_seq_scratch`] —
/// the values `seq_tensors` stacks for that window.
pub(crate) fn fill_seq(rows: &[MetricVec], seq: &mut [f32]) {
    assert_eq!(seq.len(), rows.len() * METRIC_COUNT, "window length");
    for (slot, row) in seq.chunks_exact_mut(METRIC_COUNT).zip(rows) {
        slot.copy_from_slice(row.as_array());
    }
}

/// Stages a history window pooled to [`SEQ_LEN`] rows (by
/// [`crate::dataset::pool_rows_into`]) for an encoder: each row
/// normalized under `norm` and written into `seq`.
///
/// # Panics
///
/// Panics if `pooled` does not hold [`SEQ_LEN`] rows.
pub(crate) fn fill_pooled(pooled: &[MetricVec], norm: &Normalizer, seq: &mut [f32]) {
    assert_eq!(pooled.len(), SEQ_LEN, "a pooled window has SEQ_LEN rows");
    for (slot, row) in seq.chunks_exact_mut(METRIC_COUNT).zip(pooled) {
        slot.copy_from_slice(norm.normalize(row).as_array());
    }
}

/// Reusable buffers for [`crate::SystemStateModel::predict_into`]
/// (batch 1).
///
/// Build with [`crate::SystemStateModel::make_scratch`] after training.
#[derive(Debug, Clone)]
pub struct SystemScratch {
    /// The pooled window as the encoder's flat input arena.
    pub(crate) seq: AlignedVec,
    pub(crate) encoder: EncoderScratch,
    /// The encoder's feature row as the head's `1 × hidden` input.
    pub(crate) h2: Tensor,
    pub(crate) head: HeadScratch,
}

impl SystemScratch {
    /// Visits every `f32` buffer the scratch owns, by name (see
    /// [`adrias_nn::Lstm::visit_storage`]).
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        f("system_scratch.seq", &self.seq);
        self.encoder.visit_storage(f);
        f("system_scratch.h2", self.h2.data());
        self.head.visit_storage(f);
    }
}

/// Reusable buffers for [`crate::PerfModel`]'s route: the two
/// encoders at batch 1 (there is one history window and one signature),
/// the head at batch 2 (one row per candidate memory mode).
///
/// Build with [`crate::PerfModel::make_scratch`] after training.
#[derive(Debug, Clone)]
pub struct PerfScratch {
    /// The pooled history window as a flat encoder input arena.
    pub(crate) seq_s: AlignedVec,
    /// The signature window, likewise.
    pub(crate) seq_k: AlignedVec,
    pub(crate) history: EncoderScratch,
    pub(crate) signature: EncoderScratch,
    /// Concatenated `[h_s | h_k | side]` head input (`2 × …`).
    pub(crate) concat: Tensor,
    pub(crate) head: HeadScratch,
}

impl PerfScratch {
    /// Visits every `f32` buffer the scratch owns, by name (see
    /// [`adrias_nn::Lstm::visit_storage`]).
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        f("perf_scratch.seq_s", &self.seq_s);
        f("perf_scratch.seq_k", &self.seq_k);
        self.history.visit_storage(f);
        self.signature.visit_storage(f);
        f("perf_scratch.concat", self.concat.data());
        self.head.visit_storage(f);
    }
}
