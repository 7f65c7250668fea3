//! The application-performance prediction model (Fig. 11b).
//!
//! Inputs per deployment: the history window `S`, the application
//! signature `k` (both LSTM-encoded), the candidate memory mode (one-hot)
//! and the predicted future system state `Ŝ`. Output: predicted execution
//! time (BE) or p99 (LC), modeled in log space.
//!
//! The paper trains one *universal* BE model over all 17 Spark apps and
//! one LC model over Redis + Memcached, rather than one model per
//! application (§V-B2).

use std::collections::BTreeMap;

use adrias_core::rng::{SeedableRng, Xoshiro256pp};

use adrias_nn::{fit, AlignedVec, FitPlan, GradModel, MseLoss, Tensor, TrainStats};
use adrias_telemetry::{Metric, MetricVec, METRIC_COUNT};
use adrias_workloads::{AppSignature, MemoryMode};

use crate::dataset::{pool_rows, seq_tensors, PerfDataset, SEQ_LEN};
use crate::eval::RegressionReport;
use crate::norm::{Normalizer, ScalarNormalizer};
use crate::parts::{Encoder, Head};
use crate::scratch::{fill_pooled, fill_seq, PerfScratch};

/// Width of the non-sequence side input: mode one-hot (2) + `Ŝ` (7).
const SIDE_WIDTH: usize = 2 + METRIC_COUNT;

/// Hyper-parameters for [`PerfModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModelConfig {
    /// Hidden width of each LSTM stream.
    pub hidden: usize,
    /// Width of the non-linear blocks.
    pub block_width: usize,
    /// Dropout probability inside the blocks.
    pub dropout: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Data-parallel worker threads for training. `0` means auto: the
    /// `ADRIAS_WORKERS` environment variable, else the available cores.
    /// The loss trace is bit-identical for every value.
    pub workers: usize,
    /// Samples per gradient chunk (ghost batch). Chunk boundaries
    /// depend only on this value — never on `workers` — which is what
    /// makes the parallel loss trace deterministic. Batch-norm runs on
    /// ghost-chunk statistics, so very small chunks degrade accuracy;
    /// 16 is stable at this corpus scale.
    pub grad_chunk: usize,
}

impl Default for PerfModelConfig {
    fn default() -> Self {
        Self {
            hidden: 24,
            block_width: 48,
            dropout: 0.1,
            learning_rate: 2e-3,
            epochs: 40,
            batch_size: 32,
            seed: 0xBEEF,
            workers: 0,
            grad_chunk: 16,
        }
    }
}

impl PerfModelConfig {
    /// A tiny configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            hidden: 10,
            block_width: 16,
            dropout: 0.05,
            epochs: 20,
            batch_size: 16,
            ..Self::default()
        }
    }
}

/// The universal performance predictor: a history `Encoder` and a
/// signature `Encoder` whose feature rows, concatenated with the side
/// input, feed a one-output `Head`.
#[derive(Debug, Clone)]
pub struct PerfModel {
    cfg: PerfModelConfig,
    history: Encoder,
    signature: Encoder,
    head: Head,
    pub(crate) metric_norm: Option<Normalizer>,
    pub(crate) target_norm: Option<ScalarNormalizer>,
    train_stats: Option<TrainStats>,
    version: u64,
}

/// A head output (normalized log performance) in original units.
fn to_perf(target_norm: &ScalarNormalizer, z: f32) -> f32 {
    target_norm.denormalize(z.clamp(-10.0, 10.0)).exp()
}

/// The `(seq_s, seq_k, side)` input tensors of `rows` rows under `norm`.
///
/// `windows(b)` returns row `b`'s raw 1 Hz history and its signature
/// already resampled to [`SEQ_LEN`] rows; the history is pooled, both
/// are normalized and stacked per time step. `side(b)` returns its
/// memory mode and raw `Ŝ`; the side row is the mode one-hot followed by
/// the normalized `Ŝ` (zeros for `None`).
fn inputs<'a>(
    norm: &Normalizer,
    rows: usize,
    windows: impl Fn(usize) -> (&'a [MetricVec], &'a [MetricVec]),
    side: impl Fn(usize) -> (MemoryMode, Option<&'a MetricVec>),
) -> (Vec<Tensor>, Vec<Tensor>, Tensor) {
    let windows_s: Vec<_> = (0..rows)
        .map(|b| norm.normalize_window(&pool_rows(windows(b).0, SEQ_LEN)))
        .collect();
    let windows_k: Vec<_> = (0..rows)
        .map(|b| norm.normalize_window(windows(b).1))
        .collect();
    let (seq_s, seq_k) = (seq_tensors(&windows_s), seq_tensors(&windows_k));
    let side = Tensor::from_fn(rows, SIDE_WIDTH, |b, c| {
        let (mode, s_hat) = side(b);
        if c < 2 {
            mode.one_hot()[c]
        } else {
            s_hat.map_or(0.0, |v| norm.normalize(v).get(Metric::ALL[c - 2]))
        }
    });
    (seq_s, seq_k, side)
}

impl PerfModel {
    /// Creates an untrained model.
    pub fn new(cfg: PerfModelConfig) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        Self {
            cfg,
            history: Encoder::new(cfg.hidden, &mut rng),
            signature: Encoder::new(cfg.hidden, &mut rng),
            head: Head::new(
                2 * cfg.hidden + SIDE_WIDTH,
                cfg.block_width,
                1,
                cfg.dropout,
                &mut rng,
            ),
            metric_norm: None,
            target_norm: None,
            train_stats: None,
            version: 0,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &PerfModelConfig {
        &self.cfg
    }

    /// Whether [`PerfModel::train`] has run.
    pub fn is_trained(&self) -> bool {
        self.metric_norm.is_some()
    }

    /// Work counters from the most recent [`PerfModel::train`] call
    /// (`None` before training, and for models restored from a
    /// persisted snapshot).
    pub fn last_train_stats(&self) -> Option<TrainStats> {
        self.train_stats
    }

    /// The model's version id. `0` for a freshly constructed model;
    /// the online-adaptation loop bumps it on every fine-tuned
    /// candidate so swap audits can name incumbent and candidate.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Sets the version id (used when deriving a fine-tuned candidate
    /// from an incumbent).
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Overrides the epoch budget for subsequent [`PerfModel::train`]
    /// calls — online fine-tuning passes run far fewer epochs than the
    /// original offline fit.
    pub fn set_epochs(&mut self, epochs: usize) {
        self.cfg.epochs = epochs;
    }

    fn forward(
        &mut self,
        seq_s: &[Tensor],
        seq_k: &[Tensor],
        side: &Tensor,
        train: bool,
    ) -> Tensor {
        let h_s = self.history.forward(seq_s);
        let h_k = self.signature.forward(seq_k);
        self.head.forward(h_s.hcat(&h_k).hcat(side), train)
    }

    fn backward(&mut self, grad_out: &Tensor) {
        let g = self.head.backward(grad_out);
        let h = self.cfg.hidden;
        let d_h_s = g.columns(0, h);
        let d_h_k = g.columns(h, 2 * h);
        self.history.backward(&d_h_s);
        self.signature.backward(&d_h_k);
    }

    /// Input and target tensors of the records `idxs` of `ds`.
    fn batch(
        ds: &PerfDataset,
        idxs: &[usize],
        s_hats: &[Option<MetricVec>],
    ) -> (Vec<Tensor>, Vec<Tensor>, Tensor, Tensor) {
        let record = |b: usize| &ds.records()[idxs[b]];
        let (seq_s, seq_k, side) = inputs(
            ds.metric_norm(),
            idxs.len(),
            |b| {
                let r = record(b);
                let signature = ds.signature(&r.app).expect("records keep known apps");
                (r.history.as_slice(), signature)
            },
            |b| (record(b).mode, s_hats[idxs[b]].as_ref()),
        );
        let target = Tensor::from_fn(idxs.len(), 1, |b, _| ds.target(idxs[b]));
        (seq_s, seq_k, side, target)
    }

    /// Trains on `dataset` with [`adrias_nn::fit`], feeding `s_hats[i]`
    /// as the `Ŝ` input of record `i` (`None` ⇒ zeros, the `{None,·}`
    /// ablation variant). Returns the mean loss per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `s_hats.len() != dataset.len()`.
    pub fn train(&mut self, dataset: &PerfDataset, s_hats: &[Option<MetricVec>]) -> Vec<f32> {
        assert_eq!(
            s_hats.len(),
            dataset.len(),
            "one Ŝ entry required per record"
        );
        self.metric_norm = Some(dataset.metric_norm().clone());
        self.target_norm = Some(*dataset.target_norm());
        let c = self.cfg;
        let plan = FitPlan {
            epochs: c.epochs,
            batch_size: c.batch_size,
            grad_chunk: c.grad_chunk,
            workers: c.workers,
            learning_rate: c.learning_rate,
            seed: c.seed,
            shuffle_salt: 0x7EA1,
        };
        let (losses, stats) = fit(self, dataset.len(), &plan, &|m, dropout_seed, idxs| {
            m.head.reseed_dropout(dropout_seed);
            let (seq_s, seq_k, side, target) = Self::batch(dataset, idxs, s_hats);
            let mut loss_fn = MseLoss::new();
            let pred = m.forward(&seq_s, &seq_k, &side, true);
            let l = loss_fn.forward(&pred, &target);
            let grad = loss_fn.backward();
            m.backward(&grad);
            l
        });
        self.train_stats = Some(stats);
        losses
    }

    /// Evaluates on a test dataset, returning the report in original
    /// performance units (seconds / milliseconds).
    ///
    /// # Panics
    ///
    /// Panics if untrained, the dataset is empty, or `s_hats` misaligns.
    pub fn evaluate(
        &mut self,
        dataset: &PerfDataset,
        s_hats: &[Option<MetricVec>],
    ) -> RegressionReport {
        assert!(self.is_trained(), "evaluate before train");
        assert!(!dataset.is_empty(), "empty evaluation dataset");
        assert_eq!(s_hats.len(), dataset.len(), "Ŝ misalignment");
        let target_norm = self.target_norm.expect("trained");
        let mut truth = Vec::with_capacity(dataset.len());
        let mut pred = Vec::with_capacity(dataset.len());
        let idx: Vec<usize> = (0..dataset.len()).collect();
        for chunk in idx.chunks(self.cfg.batch_size.max(1)) {
            let (seq_s, seq_k, side, _) = Self::batch(dataset, chunk, s_hats);
            let out = self.forward(&seq_s, &seq_k, &side, false);
            for (b, &i) in chunk.iter().enumerate() {
                truth.push(dataset.records()[i].perf);
                pred.push(to_perf(&target_norm, out.get(b, 0)));
            }
        }
        RegressionReport::new(&truth, &pred)
    }

    /// Per-application evaluation (MAE plots of Figs. 13c / 14a).
    pub fn evaluate_per_app(
        &mut self,
        dataset: &PerfDataset,
        s_hats: &[Option<MetricVec>],
    ) -> Vec<(String, RegressionReport)> {
        let overall = self.evaluate(dataset, s_hats);
        let mut by_app: BTreeMap<&str, (Vec<f32>, Vec<f32>)> = BTreeMap::new();
        for (r, &(truth, pred)) in dataset.records().iter().zip(&overall.pairs) {
            let (truths, preds) = by_app.entry(&r.app).or_default();
            truths.push(truth);
            preds.push(pred);
        }
        by_app
            .into_iter()
            .map(|(app, (truths, preds))| (app.to_owned(), RegressionReport::new(&truths, &preds)))
            .collect()
    }

    /// Predicts the performance of one arriving application, in original
    /// units.
    ///
    /// `history_1hz` is the raw Watcher window, `signature` the stored
    /// isolated-remote signature, `s_hat` the (raw) predicted future
    /// state from the system model, `None` to omit it.
    ///
    /// # Panics
    ///
    /// Panics if untrained or the inputs are empty.
    pub fn predict(
        &mut self,
        history_1hz: &[MetricVec],
        signature: &AppSignature,
        mode: MemoryMode,
        s_hat: Option<&MetricVec>,
    ) -> f32 {
        self.predict_batch(&[PerfQuery {
            history: history_1hz,
            signature,
            mode,
            s_hat,
        }])
        .pop()
        .expect("non-empty batch yields a prediction")
    }

    /// [`PerfModel::predict`] on `&self`, for a model that is shared:
    /// the one query runs through the inference lane
    /// ([`PerfModel::history_features_into`],
    /// [`PerfModel::signature_features_into`],
    /// [`PerfModel::predict_both_from_features`]) on a scratch built for
    /// the call, and is bit-identical to `predict` (pinned by tests).
    ///
    /// # Panics
    ///
    /// Panics if untrained or the inputs are empty.
    pub fn predict_eval(
        &self,
        history_1hz: &[MetricVec],
        signature: &AppSignature,
        mode: MemoryMode,
        s_hat: Option<&MetricVec>,
    ) -> f32 {
        let mut scratch = self.make_scratch();
        let h_s = self
            .history_features_into(&pool_rows(history_1hz, SEQ_LEN), &mut scratch)
            .to_vec();
        let h_k = self
            .signature_features_into(&self.normalized_signature_window(signature), &mut scratch)
            .to_vec();
        self.predict_both_from_features(&h_s, &h_k, [mode; 2], s_hat, &mut scratch)[0]
    }

    /// Batched [`PerfModel::predict`]: stacks all queries into one
    /// forward pass. Entry `i` of the result is bit-identical to
    /// `predict` on `queries[i]`. This is the allocating reference the
    /// orchestrator's scratch lane is held to.
    ///
    /// # Panics
    ///
    /// Panics if untrained, `queries` is empty, or any input is empty.
    pub fn predict_batch(&mut self, queries: &[PerfQuery<'_>]) -> Vec<f32> {
        assert!(!queries.is_empty(), "empty prediction batch");
        let metric_norm = self
            .metric_norm
            .clone()
            .expect("PerfModel::predict before train");
        let target_norm = self.target_norm.expect("trained");
        let signatures: Vec<AppSignature> = queries
            .iter()
            .map(|q| q.signature.resampled(SEQ_LEN))
            .collect();
        let (seq_s, seq_k, side) = inputs(
            &metric_norm,
            queries.len(),
            |b| (queries[b].history, signatures[b].rows()),
            |b| (queries[b].mode, queries[b].s_hat),
        );
        let out = self.forward(&seq_s, &seq_k, &side, false);
        (0..queries.len())
            .map(|b| to_perf(&target_norm, out.get(b, 0)))
            .collect()
    }

    /// Builds the reusable inference scratch for the fast lane
    /// ([`PerfModel::history_features_into`],
    /// [`PerfModel::signature_features_into`],
    /// [`PerfModel::predict_both_from_features`]), capturing this
    /// model's shapes and batch-norm evaluation scales.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained (the scratch snapshots the
    /// batch-norm running statistics, which training mutates).
    pub fn make_scratch(&self) -> PerfScratch {
        assert!(self.is_trained(), "make_scratch before train");
        PerfScratch {
            seq_s: AlignedVec::filled(SEQ_LEN * METRIC_COUNT, 0.0),
            seq_k: AlignedVec::filled(SEQ_LEN * METRIC_COUNT, 0.0),
            history: self.history.make_scratch(),
            signature: self.signature.make_scratch(),
            concat: Tensor::zeros(2, 2 * self.cfg.hidden + SIDE_WIDTH),
            head: self.head.make_scratch(2),
        }
    }

    /// Visits every `f32` buffer the model owns, by name (see
    /// [`adrias_nn::Lstm::visit_storage`]).
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        self.history.visit_storage(f);
        self.signature.visit_storage(f);
        self.head.visit_storage(f);
    }

    /// Normalizes a stored signature to the [`SEQ_LEN`]-row window the
    /// model consumes — the exact rows [`PerfModel::predict_batch`]
    /// derives per query. The orchestrator precomputes this once per
    /// known application so the per-decision path never resamples or
    /// allocates the signature again.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained.
    pub fn normalized_signature_window(&self, signature: &AppSignature) -> Vec<MetricVec> {
        let metric_norm = self
            .metric_norm
            .as_ref()
            .expect("PerfModel::predict before train");
        metric_norm.normalize_window(signature.resampled(SEQ_LEN).rows())
    }

    /// Runs the **history branch** (normalize → history encoder, on the
    /// one window there is) into `scratch`, returning the `1 × hidden`
    /// feature row `h_s`. `pooled` is the raw 1 Hz window pooled to
    /// [`SEQ_LEN`] rows by [`crate::dataset::pool_rows_into`] — the rows
    /// [`crate::SystemStateModel::predict_into`] reads too. The result
    /// depends only on the window — not on the application, memory mode
    /// or `Ŝ` — so the orchestrator memoises it per Watcher
    /// `WindowStamp` and skips the whole branch on a stamp hit.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained or `pooled` does not hold
    /// [`SEQ_LEN`] rows.
    pub fn history_features_into<'a>(
        &self,
        pooled: &[MetricVec],
        scratch: &'a mut PerfScratch,
    ) -> &'a [f32] {
        let metric_norm = self
            .metric_norm
            .as_ref()
            .expect("PerfModel::predict before train");
        let PerfScratch { seq_s, history, .. } = scratch;
        fill_pooled(pooled, metric_norm, seq_s);
        self.history.features_into(seq_s, history)
    }

    /// Runs the **signature branch** (signature encoder) into `scratch`,
    /// returning the `1 × hidden` feature row `h_k`. The result depends
    /// only on the stored application signature, so the orchestrator
    /// computes it once per known application at signature-store time
    /// and never re-runs this branch on the decision path.
    ///
    /// `sig_window` must come from
    /// [`PerfModel::normalized_signature_window`] on this model.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained or `sig_window` has the wrong
    /// length.
    pub fn signature_features_into<'a>(
        &self,
        sig_window: &[MetricVec],
        scratch: &'a mut PerfScratch,
    ) -> &'a [f32] {
        assert_eq!(
            sig_window.len(),
            SEQ_LEN,
            "signature window must be normalized_signature_window output"
        );
        let PerfScratch {
            seq_k, signature, ..
        } = scratch;
        fill_seq(sig_window, seq_k);
        self.signature.features_into(seq_k, signature)
    }

    /// The prediction **head** on precomputed branch features, scoring
    /// both candidate memory modes at batch 2 without allocating: manual
    /// `[h_s | h_k | side]` concatenation (both candidate rows share the
    /// feature rows and differ in the mode one-hot), the batch-norm MLP
    /// blocks and the read-out. `h_s`/`h_k` must be (copies of) the
    /// outputs of [`PerfModel::history_features_into`] /
    /// [`PerfModel::signature_features_into`] on this model; the result
    /// is then bit-identical to [`PerfModel::predict_batch`] over the
    /// equivalent two queries (pinned by tests).
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained or the feature widths mismatch.
    pub fn predict_both_from_features(
        &self,
        h_s: &[f32],
        h_k: &[f32],
        modes: [MemoryMode; 2],
        s_hat: Option<&MetricVec>,
        scratch: &mut PerfScratch,
    ) -> [f32; 2] {
        let metric_norm = self
            .metric_norm
            .as_ref()
            .expect("PerfModel::predict before train");
        let target_norm = self.target_norm.expect("trained");
        let h = self.cfg.hidden;
        let cw = 2 * h + SIDE_WIDTH;
        let side = s_hat.map_or([0.0; METRIC_COUNT], |v| {
            *metric_norm.normalize(v).as_array()
        });
        let PerfScratch { concat, head, .. } = scratch;
        // Manual `h_s ++ h_k ++ side` concatenation (what `hcat` does,
        // without the two intermediate tensors); the one feature row
        // goes into both candidate rows.
        for (row, mode) in concat.data_mut().chunks_exact_mut(cw).zip(modes) {
            row[..h].copy_from_slice(h_s);
            row[h..2 * h].copy_from_slice(h_k);
            row[2 * h..2 * h + 2].copy_from_slice(&mode.one_hot());
            row[2 * h + 2..].copy_from_slice(&side);
        }
        let out = self.head.forward_eval(concat, head);
        [0, 1].map(|b| to_perf(&target_norm, out.get(b, 0)))
    }
}

/// One inference request for [`PerfModel::predict_batch`].
#[derive(Debug, Clone, Copy)]
pub struct PerfQuery<'a> {
    /// Raw 1 Hz Watcher history window.
    pub history: &'a [MetricVec],
    /// Stored application signature.
    pub signature: &'a AppSignature,
    /// Candidate memory mode.
    pub mode: MemoryMode,
    /// Predicted future system state (raw); `None` to omit.
    pub s_hat: Option<&'a MetricVec>,
}

/// Parameter order — history encoder, signature encoder (each layer 1
/// then 2), the three blocks, the read-out, then the blocks' batch-norm
/// buffers — is also the `p0, p1, …` order of a saved model (see
/// [`crate::persist`]).
impl GradModel for PerfModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.history.visit_params(f);
        self.signature.visit_params(f);
        self.head.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.head.visit_buffers(f);
    }

    fn zero_grad(&mut self) {
        self.history.zero_grad();
        self.signature.zero_grad();
        self.head.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{PerfRecord, HISTORY_S};
    use adrias_core::rng::Rng;

    /// Builds a synthetic perf dataset whose target is a deterministic
    /// function of (app, mode, future state) — the structure the real
    /// traces have.
    fn synthetic_dataset(n: usize, seed: u64) -> (PerfDataset, Vec<Option<MetricVec>>) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let apps = ["alpha", "beta", "gamma"];
        let base = [40.0f32, 80.0, 60.0];
        let penalty = [1.1f32, 1.9, 1.3];
        let mut records = Vec::new();
        for _ in 0..n {
            let a = rng.gen_range(0..apps.len());
            let mode = if rng.gen_bool(0.5) {
                MemoryMode::Local
            } else {
                MemoryMode::Remote
            };
            let load = rng.gen_range(0.0f32..2.0);
            let mut history = Vec::with_capacity(HISTORY_S);
            for t in 0..HISTORY_S {
                let mut v = MetricVec::zero();
                let x = load + 0.1 * ((t as f32) * 0.2).sin();
                v.set(Metric::LlcLoads, 1e8 * (1.0 + x));
                v.set(Metric::MemLoads, 4e7 * (1.0 + x));
                v.set(Metric::LinkLatency, 350.0 + 250.0 * x);
                history.push(v);
            }
            let mut future = MetricVec::zero();
            future.set(Metric::LlcLoads, 1e8 * (1.0 + load));
            future.set(Metric::MemLoads, 4e7 * (1.0 + load));
            future.set(Metric::LinkLatency, 350.0 + 250.0 * load);
            let slow = match mode {
                MemoryMode::Local => 1.0 + 0.3 * load,
                MemoryMode::Remote => penalty[a] * (1.0 + 0.6 * load),
            };
            records.push(PerfRecord {
                app: apps[a].to_owned(),
                mode,
                history,
                future_120: future,
                future_exec: future,
                perf: base[a] * slow,
            });
        }
        let signatures: Vec<AppSignature> = apps
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let rows: Vec<MetricVec> = (0..40)
                    .map(|t| {
                        let mut v = MetricVec::zero();
                        v.set(Metric::LlcLoads, 1e8 * (i as f32 + 1.0));
                        v.set(Metric::MemLoads, 2e7 * ((t % 5) as f32 + i as f32));
                        v
                    })
                    .collect();
                AppSignature::new(*name, rows)
            })
            .collect();
        let ds = PerfDataset::new(records, &signatures);
        let s_hats: Vec<Option<MetricVec>> =
            ds.records().iter().map(|r| Some(r.future_120)).collect();
        (ds, s_hats)
    }

    #[test]
    fn training_learns_mode_and_app_structure() {
        let (ds, s_hats) = synthetic_dataset(240, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let (train, test) = ds.split(0.6, &mut rng);
        let train_hats: Vec<Option<MetricVec>> =
            train.records().iter().map(|r| Some(r.future_120)).collect();
        let test_hats: Vec<Option<MetricVec>> =
            test.records().iter().map(|r| Some(r.future_120)).collect();
        let _ = s_hats;
        let mut model = PerfModel::new(PerfModelConfig::tiny());
        let losses = model.train(&train, &train_hats);
        assert!(losses.last().unwrap() < &(losses[0] * 0.5), "{losses:?}");
        let stats = model.last_train_stats().expect("trained");
        assert_eq!(stats.epochs as usize, model.config().epochs);
        assert_eq!(stats.samples as usize, train.len() * model.config().epochs);
        let report = model.evaluate(&test, &test_hats);
        assert!(report.r2 > 0.7, "R² too low: {}", report.r2);
    }

    #[test]
    fn per_app_reports_cover_all_apps() {
        let (ds, s_hats) = synthetic_dataset(120, 6);
        let mut model = PerfModel::new(PerfModelConfig::tiny());
        model.train(&ds, &s_hats);
        let per_app = model.evaluate_per_app(&ds, &s_hats);
        let names: Vec<&str> = per_app.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
        for (_, r) in &per_app {
            assert!(!r.is_empty());
        }
    }

    #[test]
    fn predict_distinguishes_local_from_remote() {
        let (ds, s_hats) = synthetic_dataset(240, 7);
        let mut model = PerfModel::new(PerfModelConfig::tiny());
        model.train(&ds, &s_hats);
        // "beta" has a 1.9× remote penalty in the generator.
        let rec = ds
            .records()
            .iter()
            .find(|r| r.app == "beta")
            .expect("beta present");
        let sig_rows = ds.signature("beta").unwrap().to_vec();
        let sig = AppSignature::new("beta", sig_rows);
        let local = model.predict(&rec.history, &sig, MemoryMode::Local, Some(&rec.future_120));
        let remote = model.predict(
            &rec.history,
            &sig,
            MemoryMode::Remote,
            Some(&rec.future_120),
        );
        assert!(
            remote > 1.2 * local,
            "remote {remote} should clearly exceed local {local} for beta"
        );
    }

    /// The scratch lane as the policy runs it — history branch,
    /// signature branch, head at batch 2 — against the allocating
    /// reference.
    #[test]
    fn predict_both_from_features_is_bit_identical_to_predict_batch() {
        let (ds, s_hats) = synthetic_dataset(120, 11);
        let mut model = PerfModel::new(PerfModelConfig::tiny());
        model.train(&ds, &s_hats);
        let mut scratch = model.make_scratch();
        for (i, app) in ["alpha", "beta"].iter().enumerate() {
            let rec = ds
                .records()
                .iter()
                .find(|r| &r.app == app)
                .expect("app present");
            let sig = AppSignature::new(*app, ds.signature(app).unwrap().to_vec());
            let sig_window = model.normalized_signature_window(&sig);
            let s_hat = if i == 0 { Some(&rec.future_120) } else { None };
            let want = model.predict_batch(&MemoryMode::BOTH.map(|mode| PerfQuery {
                history: &rec.history,
                signature: &sig,
                mode,
                s_hat,
            }));
            let h_s = model
                .history_features_into(&pool_rows(&rec.history, SEQ_LEN), &mut scratch)
                .to_vec();
            let h_k = model
                .signature_features_into(&sig_window, &mut scratch)
                .to_vec();
            let got =
                model.predict_both_from_features(&h_s, &h_k, MemoryMode::BOTH, s_hat, &mut scratch);
            assert_eq!(got[0].to_bits(), want[0].to_bits(), "{app}: local diverged");
            assert_eq!(
                got[1].to_bits(),
                want[1].to_bits(),
                "{app}: remote diverged"
            );
            for (mode, want) in MemoryMode::BOTH.into_iter().zip(want) {
                let one = model.predict(&rec.history, &sig, mode, s_hat);
                let shared = model.predict_eval(&rec.history, &sig, mode, s_hat);
                assert_eq!(one.to_bits(), want.to_bits(), "{app} {mode}: batch of one");
                assert_eq!(shared.to_bits(), want.to_bits(), "{app} {mode}: on &self");
            }
        }
    }

    /// Recorded at the commit before the models were rebuilt on
    /// `parts` and `fit`; see the system model's twin.
    #[test]
    fn tiny_training_run_reproduces_its_golden_digests() {
        let (ds, s_hats) = synthetic_dataset(120, 11);
        let mut model = PerfModel::new(PerfModelConfig::tiny());
        let losses = model.train(&ds, &s_hats);
        assert_eq!(crate::digest_bits(&losses), 0xbc67_6f99_4685_fbc1);
        let state = crate::model_state(&mut model);
        assert_eq!(state.len(), 4353);
        assert_eq!(crate::digest_bits(&state), 0x3831_1567_4e01_2281);
    }

    #[test]
    #[should_panic(expected = "before train")]
    fn predict_before_train_panics() {
        let mut model = PerfModel::new(PerfModelConfig::tiny());
        let sig = AppSignature::new("x", vec![MetricVec::zero(); 4]);
        let _ = model.predict(&[MetricVec::zero(); 10], &sig, MemoryMode::Local, None);
    }

    #[test]
    #[should_panic(expected = "one Ŝ entry required per record")]
    fn train_rejects_misaligned_s_hats() {
        let (ds, _) = synthetic_dataset(40, 8);
        let mut model = PerfModel::new(PerfModelConfig::tiny());
        model.train(&ds, &[]);
    }
}
