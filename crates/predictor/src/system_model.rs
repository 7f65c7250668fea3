//! The system-state prediction model (Fig. 11a of the paper).
//!
//! Input: the Watcher history window `S` (pooled to [`SEQ_LEN`] steps of
//! 7 metrics). Output: the predicted mean value `Ŝ` of each metric over
//! the next horizon window. Architecture per the paper: two stacked LSTM
//! layers, a triplet of non-linear blocks, and a linear read-out.

use adrias_core::rng::{SeedableRng, Xoshiro256pp};

use adrias_nn::{fit, AlignedVec, FitPlan, GradModel, MseLoss, Tensor, TrainStats};
use adrias_telemetry::{Metric, MetricVec, METRIC_COUNT};

use crate::dataset::{pool_rows, SystemStateDataset, SEQ_LEN};
use crate::eval::RegressionReport;
use crate::norm::Normalizer;
use crate::parts::{Encoder, Head};
use crate::scratch::{fill_pooled, SystemScratch};

/// Hyper-parameters for [`SystemStateModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemStateModelConfig {
    /// LSTM hidden width.
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
    /// RNG seed for initialization, shuffling and dropout.
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

impl Default for SystemStateModelConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            block_width: 48,
            dropout: 0.1,
            learning_rate: 2e-3,
            epochs: 25,
            batch_size: 32,
            seed: 0xADA5,
            workers: 0,
            grad_chunk: 16,
        }
    }
}

impl SystemStateModelConfig {
    /// A tiny configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            hidden: 12,
            block_width: 16,
            dropout: 0.05,
            learning_rate: 4e-3,
            epochs: 40,
            batch_size: 16,
            ..Self::default()
        }
    }
}

/// The stacked-LSTM system-state forecaster: one `Encoder` over the
/// history window and a `Head` reading out the seven metrics.
///
/// # Examples
///
/// See [`crate::system_model`] module docs and the `train_predictor`
/// example; unit tests below exercise the full train/predict/evaluate
/// cycle on synthetic traces.
#[derive(Debug, Clone)]
pub struct SystemStateModel {
    cfg: SystemStateModelConfig,
    encoder: Encoder,
    head: Head,
    pub(crate) normalizer: Option<Normalizer>,
    train_stats: Option<TrainStats>,
}

/// Row `b` of a `· × METRIC_COUNT` output as a metric vector.
fn metric_row(out: &Tensor, b: usize) -> MetricVec {
    MetricVec::from_array(out.row(b).try_into().expect("one column per metric"))
}

impl SystemStateModel {
    /// Creates an untrained model.
    pub fn new(cfg: SystemStateModelConfig) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        Self {
            cfg,
            encoder: Encoder::new(cfg.hidden, &mut rng),
            head: Head::new(
                cfg.hidden,
                cfg.block_width,
                METRIC_COUNT,
                cfg.dropout,
                &mut rng,
            ),
            normalizer: None,
            train_stats: None,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &SystemStateModelConfig {
        &self.cfg
    }

    /// Whether [`SystemStateModel::train`] has run.
    pub fn is_trained(&self) -> bool {
        self.normalizer.is_some()
    }

    /// Work counters from the most recent [`SystemStateModel::train`]
    /// call (`None` before training, and for models restored from a
    /// persisted snapshot).
    pub fn last_train_stats(&self) -> Option<TrainStats> {
        self.train_stats
    }

    fn forward(&mut self, seq: &[Tensor], train: bool) -> Tensor {
        let h = self.encoder.forward(seq);
        self.head.forward(h, train)
    }

    fn backward(&mut self, grad_out: &Tensor) {
        let g = self.head.backward(grad_out);
        self.encoder.backward(&g);
    }

    /// Trains on `dataset` and returns the mean loss per epoch.
    ///
    /// Runs [`adrias_nn::fit`]: each minibatch is split into fixed-size
    /// gradient chunks that run data-parallel on up to `cfg.workers`
    /// threads, each on a worker model kept for the whole run, and the
    /// loss trace is bit-identical for any worker count. The pass keeps
    /// the contract on [`GradModel`]: it reseeds the head's dropout from
    /// the chunk's seed first, and its forward writes every encoder
    /// workspace and head cache its backward reads. The dataset's
    /// normalizer is captured so that
    /// [`SystemStateModel::predict`] can consume raw (unnormalized)
    /// windows at run time.
    pub fn train(&mut self, dataset: &SystemStateDataset) -> Vec<f32> {
        self.normalizer = Some(dataset.normalizer().clone());
        let c = self.cfg;
        let plan = FitPlan {
            epochs: c.epochs,
            batch_size: c.batch_size,
            grad_chunk: c.grad_chunk,
            workers: c.workers,
            learning_rate: c.learning_rate,
            seed: c.seed,
            shuffle_salt: 0x5EED,
        };
        let (losses, stats) = fit(self, dataset.len(), &plan, &|m, dropout_seed, idxs| {
            m.head.reseed_dropout(dropout_seed);
            let (seq, target) = dataset.batch(idxs);
            let mut loss_fn = MseLoss::new();
            let pred = m.forward(&seq, true);
            let l = loss_fn.forward(&pred, &target);
            let grad = loss_fn.backward();
            m.backward(&grad);
            l
        });
        self.train_stats = Some(stats);
        losses
    }

    /// Predicts `Ŝ` (denormalized per-metric horizon means) from a raw
    /// 1 Hz history window: the window pooled to [`SEQ_LEN`] rows, then
    /// [`SystemStateModel::predict_into`] on a scratch built for the
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained or the window is empty.
    pub fn predict(&self, history_1hz: &[MetricVec]) -> MetricVec {
        self.predict_into(&pool_rows(history_1hz, SEQ_LEN), &mut self.make_scratch())
    }

    /// Builds the reusable inference scratch for
    /// [`SystemStateModel::predict_into`], capturing this model's
    /// shapes and batch-norm evaluation scales.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained (the scratch snapshots the
    /// batch-norm running statistics, which training mutates).
    pub fn make_scratch(&self) -> SystemScratch {
        assert!(self.is_trained(), "make_scratch before train");
        SystemScratch {
            seq: AlignedVec::filled(SEQ_LEN * METRIC_COUNT, 0.0),
            encoder: self.encoder.make_scratch(),
            h2: Tensor::zeros(1, self.cfg.hidden),
            head: self.head.make_scratch(1),
        }
    }

    /// Visits every `f32` buffer the model owns, by name (see
    /// [`adrias_nn::Lstm::visit_storage`]).
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        self.encoder.visit_storage(f);
        self.head.visit_storage(f);
    }

    /// The model's one inference route, and the decision path's:
    /// `pooled` is the raw 1 Hz window pooled to [`SEQ_LEN`] rows by
    /// [`crate::dataset::pool_rows_into`]. It takes `&self`, reuses
    /// `scratch`'s buffers and performs zero heap allocations in steady
    /// state; the result is bit-identical to the batched training-path
    /// forward in evaluation mode (pinned by tests).
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained, `pooled` does not hold
    /// [`SEQ_LEN`] rows, or `scratch` was built for a different model
    /// shape.
    pub fn predict_into(&self, pooled: &[MetricVec], scratch: &mut SystemScratch) -> MetricVec {
        let z = self.normalized_forecast(pooled, scratch);
        self.normalizer.as_ref().expect("trained").denormalize(&z)
    }

    /// [`SystemStateModel::predict_into`] before the read-out is
    /// denormalized: `Ŝ` in the model's normalized space.
    fn normalized_forecast(&self, pooled: &[MetricVec], scratch: &mut SystemScratch) -> MetricVec {
        let norm = self
            .normalizer
            .as_ref()
            .expect("SystemStateModel::predict before train");
        let SystemScratch {
            seq,
            encoder,
            h2,
            head,
        } = scratch;
        fill_pooled(pooled, norm, seq);
        h2.data_mut()
            .copy_from_slice(self.encoder.features_into(seq, encoder));
        metric_row(self.head.forward_eval(h2, head), 0)
    }

    /// Evaluates on a test dataset: per-metric `R²` plus the overall
    /// report across all metrics (normalized space for the overall one so
    /// metrics with different scales contribute equally). Every sample
    /// goes through [`SystemStateModel::predict_into`]'s route under the
    /// model's own normalizer. The overall report compares the route's
    /// output before it is denormalized with the target normalized by
    /// the same statistics.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained or `dataset` is empty.
    pub fn evaluate(
        &self,
        dataset: &SystemStateDataset,
    ) -> (Vec<(Metric, RegressionReport)>, RegressionReport) {
        assert!(self.is_trained(), "evaluate before train");
        assert!(!dataset.is_empty(), "empty evaluation dataset");
        let norm = self.normalizer.as_ref().expect("trained");
        let mut scratch = self.make_scratch();
        let mut truth: Vec<Vec<f32>> = vec![Vec::new(); METRIC_COUNT];
        let mut pred: Vec<Vec<f32>> = vec![Vec::new(); METRIC_COUNT];
        let mut truth_norm = Vec::new();
        let mut pred_norm = Vec::new();
        for sample in dataset.samples() {
            let z = self.normalized_forecast(&sample.history, &mut scratch);
            truth_norm.extend_from_slice(norm.normalize(&sample.target).as_array());
            pred_norm.extend_from_slice(z.as_array());
            let raw_pred = norm.denormalize(&z);
            for m in Metric::ALL {
                truth[m.index()].push(sample.target.get(m));
                pred[m.index()].push(raw_pred.get(m));
            }
        }
        let per_metric = Metric::ALL
            .iter()
            .map(|&m| {
                (
                    m,
                    RegressionReport::new(&truth[m.index()], &pred[m.index()]),
                )
            })
            .collect();
        let overall = RegressionReport::new(&truth_norm, &pred_norm);
        (per_metric, overall)
    }
}

/// Parameter order — encoder layer 1, layer 2, the three blocks, the
/// read-out, then the blocks' batch-norm buffers — is also the
/// `p0, p1, …` order of a saved model (see [`crate::persist`]). Every
/// other field is untouched by the training pass (config, normalizer,
/// counters) or written by it before it is read (the layers'
/// workspaces and caches, the reseeded dropout streams), as
/// `GradModel`'s pass contract requires.
impl GradModel for SystemStateModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.encoder.visit_params(f);
        self.head.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.head.visit_buffers(f);
    }

    fn zero_grad(&mut self) {
        self.encoder.zero_grad();
        self.head.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic trace with learnable structure: slow sinusoidal
    /// "load" driving several correlated metrics.
    fn synthetic_trace(len: usize, phase: f32) -> Vec<MetricVec> {
        (0..len)
            .map(|t| {
                let x = (t as f32 * 0.01 + phase).sin() * 0.5 + 1.0;
                let mut v = MetricVec::zero();
                v.set(Metric::LlcLoads, 1e8 * x);
                v.set(Metric::LlcMisses, 1e7 * x * x);
                v.set(Metric::MemLoads, 5e7 * x);
                v.set(Metric::MemStores, 2e7 * x);
                v.set(Metric::LinkFlitsTx, 1e6 * (2.0 - x));
                v.set(Metric::LinkFlitsRx, 1.5e6 * (2.0 - x));
                v.set(Metric::LinkLatency, 350.0 + 200.0 * (x - 0.5).max(0.0));
                v
            })
            .collect()
    }

    fn dataset() -> SystemStateDataset {
        let traces: Vec<Vec<MetricVec>> = (0..3)
            .map(|i| synthetic_trace(1200, i as f32 * 2.0))
            .collect();
        let rows: Vec<&[MetricVec]> = traces.iter().map(Vec::as_slice).collect();
        SystemStateDataset::from_traces(&rows, 15)
    }

    #[test]
    fn untrained_model_reports_untrained() {
        let model = SystemStateModel::new(SystemStateModelConfig::tiny());
        assert!(!model.is_trained());
        assert!(model.last_train_stats().is_none());
    }

    #[test]
    #[should_panic(expected = "before train")]
    fn predict_before_train_panics() {
        let model = SystemStateModel::new(SystemStateModelConfig::tiny());
        let window = vec![MetricVec::zero(); 120];
        let _ = model.predict(&window);
    }

    #[test]
    fn training_reduces_loss_and_achieves_high_r2() {
        let ds = dataset();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let (train, test) = ds.split(0.6, &mut rng);
        let mut model = SystemStateModel::new(SystemStateModelConfig::tiny());
        let losses = model.train(&train);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not halve: {losses:?}"
        );
        let stats = model.last_train_stats().expect("trained");
        assert_eq!(stats.epochs as usize, model.config().epochs);
        assert_eq!(stats.samples as usize, train.len() * model.config().epochs);
        assert!(stats.grad_chunks >= stats.minibatches);
        let (per_metric, overall) = model.evaluate(&test);
        assert_eq!(per_metric.len(), METRIC_COUNT);
        assert!(
            overall.r2 > 0.8,
            "overall R² too low on synthetic data: {}",
            overall.r2
        );
    }

    /// Recorded at the commit before the models were rebuilt on
    /// `parts` and `fit`: any drift in RNG draw order, parameter visit
    /// order, the shuffle salt, the dropout reseed or a reduction order
    /// moves one of these.
    #[test]
    fn tiny_training_run_reproduces_its_golden_digests() {
        let mut model = SystemStateModel::new(SystemStateModelConfig::tiny());
        let losses = model.train(&dataset());
        assert_eq!(crate::digest_bits(&losses), 0x8fa5_8a92_8e80_2229);
        let state = crate::model_state(&mut model);
        assert_eq!(state.len(), 3223);
        assert_eq!(crate::digest_bits(&state), 0x48ab_8b75_01d4_916f);
    }

    #[test]
    fn predict_returns_plausible_scale() {
        let ds = dataset();
        let mut model = SystemStateModel::new(SystemStateModelConfig::tiny());
        model.train(&ds);
        let trace = synthetic_trace(200, 0.3);
        let pred = model.predict(&trace[..120]);
        // Predictions should land in the value range of the trace.
        let llc = pred.get(Metric::LlcLoads);
        assert!(
            (2e7..5e8).contains(&llc),
            "LLC loads prediction off-scale: {llc}"
        );
        let lat = pred.get(Metric::LinkLatency);
        assert!((200.0..1100.0).contains(&lat), "latency off-scale: {lat}");
    }

    #[test]
    fn predict_into_is_bit_identical_to_predict() {
        let ds = dataset();
        let mut model = SystemStateModel::new(SystemStateModelConfig::tiny());
        model.train(&ds);
        let mut scratch = model.make_scratch();
        for (i, len) in [(0usize, 120usize), (1, 120), (2, 37), (3, 120)] {
            let trace = synthetic_trace(200, i as f32 * 0.9);
            let window = &trace[..len];
            let want = model.predict(window);
            // Reuse the same scratch across windows of different lengths.
            let got = model.predict_into(&pool_rows(window, SEQ_LEN), &mut scratch);
            for m in Metric::ALL {
                assert_eq!(
                    got.get(m).to_bits(),
                    want.get(m).to_bits(),
                    "reused scratch diverged on window {i} metric {m:?}"
                );
            }
        }
    }

    /// The route against the batched training-path forward in
    /// evaluation mode, the reference it must equal bit for bit; and
    /// `evaluate` scores exactly what the route answers.
    #[test]
    fn the_route_is_bit_identical_to_the_batched_forward() {
        let ds = dataset();
        let mut model = SystemStateModel::new(SystemStateModelConfig::tiny());
        model.train(&ds);
        let idxs: Vec<usize> = (0..20).collect();
        let want = model.forward(&ds.batch(&idxs).0, false);
        let (per_metric, _) = model.evaluate(&ds);
        let mut scratch = model.make_scratch();
        for &i in &idxs {
            let pooled = &ds.samples()[i].history;
            let z = model.normalized_forecast(pooled, &mut scratch);
            let got = model.predict_into(pooled, &mut scratch);
            for m in Metric::ALL {
                let c = m.index();
                assert_eq!(z.get(m).to_bits(), want.get(i, c).to_bits(), "{i} {m:?}");
                let scored = per_metric[c].1.pairs[i].1;
                assert_eq!(
                    scored.to_bits(),
                    got.get(m).to_bits(),
                    "{i} {m:?}: evaluate"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "make_scratch before train")]
    fn make_scratch_before_train_panics() {
        let model = SystemStateModel::new(SystemStateModelConfig::tiny());
        let _ = model.make_scratch();
    }
}
