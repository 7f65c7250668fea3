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

use adrias_core::rng::SeedableRng;
use adrias_core::rng::SliceRandom;
use adrias_core::rng::Xoshiro256pp;

use adrias_nn::{
    accumulate_minibatch, mix_seed, resolved_workers, Adam, GradModel, Layer, Linear, Lstm,
    LstmScratch, MseLoss, NonLinearBlock, Tensor, TrainStats,
};
use adrias_telemetry::{Metric, MetricVec, METRIC_COUNT};
use adrias_workloads::{AppSignature, MemoryMode};

use crate::dataset::{pool_rows, pool_rows_into, seq_tensors, PerfDataset, SEQ_LEN};
use crate::eval::RegressionReport;
use crate::norm::{Normalizer, ScalarNormalizer};
use crate::scratch::{fill_seq, PerfScratch};

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

/// The universal performance predictor.
#[derive(Debug, Clone)]
pub struct PerfModel {
    cfg: PerfModelConfig,
    lstm_s1: Lstm,
    lstm_s2: Lstm,
    lstm_k1: Lstm,
    lstm_k2: Lstm,
    blocks: Vec<NonLinearBlock>,
    out: Linear,
    metric_norm: Option<Normalizer>,
    target_norm: Option<ScalarNormalizer>,
    train_stats: Option<TrainStats>,
    version: u64,
}

impl PerfModel {
    /// Creates an untrained model.
    pub fn new(cfg: PerfModelConfig) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        let lstm_s1 = Lstm::new(METRIC_COUNT, cfg.hidden, &mut rng);
        let lstm_s2 = Lstm::new(cfg.hidden, cfg.hidden, &mut rng);
        let lstm_k1 = Lstm::new(METRIC_COUNT, cfg.hidden, &mut rng);
        let lstm_k2 = Lstm::new(cfg.hidden, cfg.hidden, &mut rng);
        let concat = 2 * cfg.hidden + SIDE_WIDTH;
        let blocks = vec![
            NonLinearBlock::new(concat, cfg.block_width, cfg.dropout, &mut rng),
            NonLinearBlock::new(cfg.block_width, cfg.block_width, cfg.dropout, &mut rng),
            NonLinearBlock::new(cfg.block_width, cfg.block_width, cfg.dropout, &mut rng),
        ];
        let out = Linear::new(cfg.block_width, 1, &mut rng);
        Self {
            cfg,
            lstm_s1,
            lstm_s2,
            lstm_k1,
            lstm_k2,
            blocks,
            out,
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

    /// Overrides the worker-thread count used by batched inference
    /// (`0` = auto via `ADRIAS_WORKERS`/parallelism). Results are
    /// bit-identical at any setting; this only tunes dispatch.
    pub fn set_workers(&mut self, workers: usize) {
        self.cfg.workers = workers;
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
        let h_s = self.lstm_s2.forward_last(&self.lstm_s1.forward_seq(seq_s));
        let h_k = self.lstm_k2.forward_last(&self.lstm_k1.forward_seq(seq_k));
        let mut x = h_s.hcat(&h_k).hcat(side);
        for b in &mut self.blocks {
            x = b.forward(&x, train);
        }
        self.out.forward(&x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) {
        let mut g = self.out.backward(grad_out);
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g);
        }
        let h = self.cfg.hidden;
        let d_h_s = g.columns(0, h);
        let d_h_k = g.columns(h, 2 * h);
        let d_seq_s = self.lstm_s2.backward_last(&d_h_s);
        self.lstm_s1.backward_seq_params(&d_seq_s);
        let d_seq_k = self.lstm_k2.backward_last(&d_h_k);
        self.lstm_k1.backward_seq_params(&d_seq_k);
    }

    fn zero_grad(&mut self) {
        self.lstm_s1.zero_grad();
        self.lstm_s2.zero_grad();
        self.lstm_k1.zero_grad();
        self.lstm_k2.zero_grad();
        for b in &mut self.blocks {
            b.zero_grad();
        }
        self.out.zero_grad();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.lstm_s1.visit_params(f);
        self.lstm_s2.visit_params(f);
        self.lstm_k1.visit_params(f);
        self.lstm_k2.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.out.visit_params(f);
    }

    /// Rebases every dropout stream on `seed` (salted per block), so a
    /// chunk clone's masks depend only on `(run seed, step, chunk)`.
    fn reseed_dropout(&mut self, seed: u64) {
        for (i, b) in self.blocks.iter_mut().enumerate() {
            b.reseed_dropout(seed, i as u64 + 1);
        }
    }

    /// Persistence hook: the captured normalizers, if trained. The
    /// scalar target normalizer is returned as `(mean, std)`.
    pub(crate) fn norms_for_persist(&self) -> Option<(Normalizer, (f32, f32))> {
        let metric = self.metric_norm.clone()?;
        let target = self.target_norm?;
        Some((metric, (target.mean(), target.std())))
    }

    /// Persistence hook: restores the normalizers on load.
    pub(crate) fn set_norms_for_persist(&mut self, metric: Normalizer, target: (f32, f32)) {
        self.metric_norm = Some(metric);
        self.target_norm = Some(ScalarNormalizer::from_parts(target.0, target.1));
    }

    /// Persistence hook: visits parameters read-only in stable order,
    /// then the batch-norm running statistics.
    pub(crate) fn visit_params_for_persist(&mut self, f: &mut dyn FnMut(&Tensor)) {
        self.visit_params(&mut |p, _| f(p));
        for b in &mut self.blocks {
            b.visit_buffers(&mut |p| f(p));
        }
    }

    /// Persistence hook: visits parameters mutably in stable order, then
    /// the batch-norm running statistics.
    pub(crate) fn visit_params_for_persist_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.visit_params(&mut |p, _| f(p));
        for b in &mut self.blocks {
            b.visit_buffers(f);
        }
    }

    /// Builds the side-input tensor (mode one-hot ++ normalized `Ŝ`) for
    /// a batch of records.
    fn side_tensor(ds: &PerfDataset, idxs: &[usize], s_hats: &[Option<MetricVec>]) -> Tensor {
        Tensor::from_fn(idxs.len(), SIDE_WIDTH, |b, c| {
            let i = idxs[b];
            let mode = ds.records()[i].mode.one_hot();
            if c < 2 {
                mode[c]
            } else {
                match &s_hats[i] {
                    Some(vec) => ds.metric_norm().normalize(vec).get(Metric::ALL[c - 2]),
                    None => 0.0,
                }
            }
        })
    }

    fn batch(
        &self,
        ds: &PerfDataset,
        idxs: &[usize],
        s_hats: &[Option<MetricVec>],
    ) -> (Vec<Tensor>, Vec<Tensor>, Tensor, Tensor) {
        let windows_s: Vec<_> = idxs.iter().map(|&i| ds.history_window(i)).collect();
        let windows_k: Vec<_> = idxs.iter().map(|&i| ds.signature_window(i)).collect();
        let seq_s = seq_tensors(&windows_s);
        let seq_k = seq_tensors(&windows_k);
        let side = Self::side_tensor(ds, idxs, s_hats);
        let target = Tensor::from_fn(idxs.len(), 1, |b, _| ds.target(idxs[b]));
        (seq_s, seq_k, side, target)
    }

    /// Trains on `dataset`, feeding `s_hats[i]` as the `Ŝ` input of
    /// record `i` (`None` ⇒ zeros, the `{None,·}` ablation variant).
    /// Returns the mean loss per epoch.
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
        let workers = resolved_workers(self.cfg.workers);
        let grad_chunk = self.cfg.grad_chunk.max(1);
        let seed = self.cfg.seed;
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x7EA1);
        let mut opt = Adam::new(self.cfg.learning_rate);
        let mut idx: Vec<usize> = (0..dataset.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.cfg.epochs);
        let mut step = 0u64;
        let mut stats = TrainStats::new();
        for _ in 0..self.cfg.epochs {
            idx.shuffle(&mut rng);
            let mut total = 0.0f64;
            let mut batches = 0usize;
            for minibatch in idx.chunks(self.cfg.batch_size) {
                stats.record_minibatch(minibatch.len(), grad_chunk);
                let step_now = step;
                let loss = accumulate_minibatch(
                    self,
                    minibatch,
                    grad_chunk,
                    workers,
                    &|m, chunk, idxs| {
                        m.reseed_dropout(mix_seed(&[seed, step_now, chunk as u64]));
                        let (seq_s, seq_k, side, target) = m.batch(dataset, idxs, s_hats);
                        let mut loss_fn = MseLoss::new();
                        let pred = m.forward(&seq_s, &seq_k, &side, true);
                        let l = loss_fn.forward(&pred, &target);
                        let grad = loss_fn.backward();
                        m.backward(&grad);
                        l
                    },
                );
                opt.begin_step();
                self.visit_params(&mut |p, g| opt.update(p, g));
                total += f64::from(loss);
                batches += 1;
                step += 1;
            }
            epoch_losses.push((total / batches.max(1) as f64) as f32);
            stats.record_epoch();
        }
        self.train_stats = Some(stats);
        epoch_losses
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
            let (seq_s, seq_k, side, _) = self.batch(dataset, chunk, s_hats);
            let out = self.forward(&seq_s, &seq_k, &side, false);
            for (b, &i) in chunk.iter().enumerate() {
                truth.push(dataset.records()[i].perf);
                pred.push(
                    target_norm
                        .denormalize(out.get(b, 0).clamp(-10.0, 10.0))
                        .exp(),
                );
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
        let mut apps: Vec<String> = dataset
            .records()
            .iter()
            .map(|r| r.app.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        apps.sort();
        let overall = self.evaluate(dataset, s_hats);
        apps.into_iter()
            .map(|app| {
                let (truth, pred): (Vec<f32>, Vec<f32>) = dataset
                    .records()
                    .iter()
                    .zip(&overall.pairs)
                    .filter(|(r, _)| r.app == app)
                    .map(|(_, &(t, p))| (t, p))
                    .unzip();
                (app, RegressionReport::new(&truth, &pred))
            })
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

    /// Batched [`PerfModel::predict`]: stacks all queries into one
    /// forward pass. Entry `i` of the result is bit-identical to
    /// `predict` on `queries[i]`. The orchestrator uses this to score
    /// both memory modes of an arriving application in a single pass.
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
        let windows_s: Vec<_> = queries
            .iter()
            .map(|q| metric_norm.normalize_window(&pool_rows(q.history, SEQ_LEN)))
            .collect();
        let windows_k: Vec<_> = queries
            .iter()
            .map(|q| metric_norm.normalize_window(q.signature.resampled(SEQ_LEN).rows()))
            .collect();
        let seq_s = seq_tensors(&windows_s);
        let seq_k = seq_tensors(&windows_k);
        let side = Tensor::from_fn(queries.len(), SIDE_WIDTH, |b, c| {
            if c < 2 {
                queries[b].mode.one_hot()[c]
            } else {
                match queries[b].s_hat {
                    Some(v) => metric_norm.normalize(v).get(Metric::ALL[c - 2]),
                    None => 0.0,
                }
            }
        });
        let out = self.forward(&seq_s, &seq_k, &side, false);
        (0..queries.len())
            .map(|b| {
                target_norm
                    .denormalize(out.get(b, 0).clamp(-10.0, 10.0))
                    .exp()
            })
            .collect()
    }

    /// Builds the reusable inference scratch for
    /// [`PerfModel::predict_both_into`], capturing this model's shapes
    /// and batch-norm evaluation scales.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained (the scratch snapshots the
    /// batch-norm running statistics, which training mutates).
    pub fn make_scratch(&self) -> PerfScratch {
        assert!(self.is_trained(), "make_scratch before train");
        PerfScratch {
            pooled: Vec::with_capacity(SEQ_LEN),
            seq_s: vec![0.0; SEQ_LEN * METRIC_COUNT],
            seq_k: vec![0.0; SEQ_LEN * METRIC_COUNT],
            s1: LstmScratch::new(&self.lstm_s1, 1, SEQ_LEN),
            s2: LstmScratch::new(&self.lstm_s2, 1, SEQ_LEN),
            k1: LstmScratch::new(&self.lstm_k1, 1, SEQ_LEN),
            k2: LstmScratch::new(&self.lstm_k2, 1, SEQ_LEN),
            inv_std: self.blocks.iter().map(|b| b.eval_inv_std()).collect(),
            concat: Tensor::zeros(2, 2 * self.cfg.hidden + SIDE_WIDTH),
            x0: Tensor::zeros(2, self.cfg.block_width),
            x1: Tensor::zeros(2, self.cfg.block_width),
            out: Tensor::zeros(2, 1),
        }
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

    /// Runs the **history branch** (pool → normalize → stacked history
    /// LSTMs, on the one window there is) into `scratch`, returning the
    /// `1 × hidden` feature row `h_s`. The result depends only on the
    /// raw history window — not on the application, memory mode or `Ŝ` —
    /// so the orchestrator memoises it per Watcher `WindowStamp` and
    /// skips the whole branch on a stamp hit.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained or the history is empty.
    pub fn history_features_into<'a>(
        &self,
        history_1hz: &[MetricVec],
        scratch: &'a mut PerfScratch,
    ) -> &'a [f32] {
        let metric_norm = self
            .metric_norm
            .as_ref()
            .expect("PerfModel::predict before train");
        let PerfScratch {
            pooled,
            seq_s,
            s1,
            s2,
            ..
        } = scratch;
        pool_rows_into(history_1hz, SEQ_LEN, pooled);
        for r in pooled.iter_mut() {
            *r = metric_norm.normalize(r);
        }
        fill_seq(pooled, seq_s);
        let h1 = self.lstm_s1.forward_seq_scratch(seq_s, 1, s1);
        self.lstm_s2.forward_last_scratch(h1, 1, s2)
    }

    /// Runs the **signature branch** (stacked signature LSTMs) into
    /// `scratch`, returning the `1 × hidden` feature row `h_k`. The
    /// result depends only on the stored application signature, so the
    /// orchestrator computes it once per known application at
    /// signature-store time and never re-runs this branch on the
    /// decision path.
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
        let PerfScratch { seq_k, k1, k2, .. } = scratch;
        fill_seq(sig_window, seq_k);
        let h1 = self.lstm_k1.forward_seq_scratch(seq_k, 1, k1);
        self.lstm_k2.forward_last_scratch(h1, 1, k2)
    }

    /// The prediction **head** on precomputed branch features: manual
    /// `[h_s | h_k | side]` concatenation (both candidate rows share the
    /// feature rows and differ in the mode one-hot), the batch-norm MLP
    /// blocks and the read-out. `h_s`/`h_k` must be (copies of) the
    /// outputs of [`PerfModel::history_features_into`] /
    /// [`PerfModel::signature_features_into`] on this model; the result
    /// is bit-identical to [`PerfModel::predict_both_into`] with the
    /// corresponding raw inputs.
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
        let PerfScratch {
            inv_std,
            concat,
            x0,
            x1,
            out,
            ..
        } = scratch;
        self.head(h_s, h_k, modes, s_hat, inv_std, concat, x0, x1, out)
    }

    /// Allocation-free scoring of both candidate memory modes — the
    /// LSTM branches once, the head at batch 2: the decision fast
    /// lane's cache-miss path.
    /// Returns the predicted performance for `modes[0]` and `modes[1]`,
    /// bit-identical to [`PerfModel::predict_batch`] over the
    /// equivalent two queries (pinned by tests), but takes `&self`,
    /// reuses `scratch` and performs zero heap allocations in steady
    /// state. Composition of [`PerfModel::history_features_into`],
    /// [`PerfModel::signature_features_into`] and
    /// [`PerfModel::predict_both_from_features`].
    ///
    /// `sig_window` must come from
    /// [`PerfModel::normalized_signature_window`] on this model.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained, the history is empty, or
    /// `sig_window`/`scratch` do not match this model.
    pub fn predict_both_into(
        &self,
        history_1hz: &[MetricVec],
        sig_window: &[MetricVec],
        modes: [MemoryMode; 2],
        s_hat: Option<&MetricVec>,
        scratch: &mut PerfScratch,
    ) -> [f32; 2] {
        self.history_features_into(history_1hz, scratch);
        self.signature_features_into(sig_window, scratch);
        let PerfScratch {
            s2,
            k2,
            inv_std,
            concat,
            x0,
            x1,
            out,
            ..
        } = scratch;
        let (h_s, h_k) = (s2.last_output(), k2.last_output());
        self.head(h_s, h_k, modes, s_hat, inv_std, concat, x0, x1, out)
    }

    #[allow(clippy::too_many_arguments)]
    fn head(
        &self,
        h_s: &[f32],
        h_k: &[f32],
        modes: [MemoryMode; 2],
        s_hat: Option<&MetricVec>,
        inv_std: &[Vec<f32>],
        concat: &mut Tensor,
        x0: &mut Tensor,
        x1: &mut Tensor,
        out: &mut Tensor,
    ) -> [f32; 2] {
        let metric_norm = self
            .metric_norm
            .as_ref()
            .expect("PerfModel::predict before train");
        let target_norm = self.target_norm.expect("trained");
        let h = self.cfg.hidden;
        let cw = 2 * h + SIDE_WIDTH;
        let norm_s_hat = s_hat.map(|v| metric_norm.normalize(v));
        // Manual `h_s ++ h_k ++ side` concatenation (what `hcat` does,
        // without the two intermediate tensors); the one feature row
        // goes into both candidate rows.
        for (row, mode) in concat.data_mut().chunks_exact_mut(cw).zip(modes) {
            row[..h].copy_from_slice(h_s);
            row[h..2 * h].copy_from_slice(h_k);
            let one_hot = mode.one_hot();
            row[2 * h] = one_hot[0];
            row[2 * h + 1] = one_hot[1];
            for (c, &m) in Metric::ALL.iter().enumerate() {
                row[2 * h + 2 + c] = match &norm_s_hat {
                    Some(v) => v.get(m),
                    None => 0.0,
                };
            }
        }
        let mut cur: &mut Tensor = x0;
        let mut next: &mut Tensor = x1;
        self.blocks[0].forward_eval_into(concat, cur, &inv_std[0]);
        for (i, b) in self.blocks.iter().enumerate().skip(1) {
            b.forward_eval_into(cur, next, &inv_std[i]);
            std::mem::swap(&mut cur, &mut next);
        }
        self.out.forward_into(cur, out);
        let perf = |b: usize| {
            target_norm
                .denormalize(out.get(b, 0).clamp(-10.0, 10.0))
                .exp()
        };
        [perf(0), perf(1)]
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

impl GradModel for PerfModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        PerfModel::visit_params(self, f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for b in &mut self.blocks {
            b.visit_buffers(f);
        }
    }

    fn zero_grad(&mut self) {
        PerfModel::zero_grad(self);
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

    #[test]
    fn predict_both_into_is_bit_identical_to_predict_batch() {
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
            let want = model.predict_batch(&[
                PerfQuery {
                    history: &rec.history,
                    signature: &sig,
                    mode: MemoryMode::Local,
                    s_hat,
                },
                PerfQuery {
                    history: &rec.history,
                    signature: &sig,
                    mode: MemoryMode::Remote,
                    s_hat,
                },
            ]);
            let got = model.predict_both_into(
                &rec.history,
                &sig_window,
                [MemoryMode::Local, MemoryMode::Remote],
                s_hat,
                &mut scratch,
            );
            assert_eq!(got[0].to_bits(), want[0].to_bits(), "{app}: local diverged");
            assert_eq!(
                got[1].to_bits(),
                want[1].to_bits(),
                "{app}: remote diverged"
            );
        }
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
