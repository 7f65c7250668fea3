//! Datasets for the two prediction models.
//!
//! The offline phase of Adrias (§V-B1) turns collected traces into
//! training data:
//!
//! * [`SystemStateDataset`] — sliding windows over a metric trace: a
//!   120 s history window as input, the per-metric mean over the next
//!   120 s as target;
//! * [`PerfRecord`] / [`PerfDataset`] — one record per application
//!   deployment: the history window at arrival, the actual future metric
//!   means (over the first 120 s and over the whole execution — used by
//!   the ablation of Fig. 13b), the memory mode and the measured
//!   performance.
//!
//! History windows are mean-pooled from 1 Hz to [`SEQ_LEN`] steps before
//! entering the LSTMs.

use std::collections::HashMap;

use adrias_core::rng::Rng;
use adrias_core::rng::SliceRandom;

use adrias_nn::Tensor;
use adrias_telemetry::{Metric, MetricVec, METRIC_COUNT};
use adrias_workloads::{AppSignature, MemoryMode};

use crate::norm::{Normalizer, ScalarNormalizer};

/// History window length, seconds (the paper's `r`).
pub const HISTORY_S: usize = 120;
/// Forecast horizon, seconds (the paper's `z`).
pub const HORIZON_S: usize = 120;
/// LSTM sequence length after mean-pooling the 1 Hz window.
pub const SEQ_LEN: usize = 24;

/// Mean-pools `rows` into exactly `target_len` rows.
///
/// # Panics
///
/// Panics if `rows` is empty or `target_len` is zero.
pub fn pool_rows(rows: &[MetricVec], target_len: usize) -> Vec<MetricVec> {
    let mut out = Vec::with_capacity(target_len);
    pool_rows_into(rows, target_len, &mut out);
    out
}

/// Allocation-free body of [`pool_rows`]: pools into a reused buffer.
///
/// `pool_rows` delegates here so the two can never drift — the inference
/// fast lane relies on this producing bit-identical rows. The lane's
/// history entry points ([`crate::SystemStateModel::predict_into`],
/// [`crate::PerfModel::history_features_into`]) take a window pooled
/// by this to [`SEQ_LEN`] rows.
///
/// # Panics
///
/// Panics if `rows` is empty or `target_len` is zero.
pub fn pool_rows_into(rows: &[MetricVec], target_len: usize, out: &mut Vec<MetricVec>) {
    assert!(!rows.is_empty(), "cannot pool an empty window");
    assert!(target_len > 0, "target length must be non-zero");
    out.clear();
    for i in 0..target_len {
        let lo = i * rows.len() / target_len;
        let hi = (((i + 1) * rows.len()) / target_len)
            .max(lo + 1)
            .min(rows.len());
        let mut acc = MetricVec::zero();
        for r in &rows[lo..hi] {
            acc = acc.add(r);
        }
        out.push(acc.scale(1.0 / (hi - lo) as f32));
    }
}

/// Per-metric mean of a set of rows.
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn mean_rows(rows: &[MetricVec]) -> MetricVec {
    assert!(!rows.is_empty(), "cannot average an empty window");
    let mut acc = MetricVec::zero();
    for r in rows {
        acc = acc.add(r);
    }
    acc.scale(1.0 / rows.len() as f32)
}

/// Stacks same-length windows into per-timestep batch tensors.
///
/// Input: `B` windows of `T` rows each; output: `T` tensors of shape
/// `B × METRIC_COUNT`.
pub(crate) fn seq_tensors(windows: &[Vec<MetricVec>]) -> Vec<Tensor> {
    assert!(!windows.is_empty(), "empty batch");
    let t_len = windows[0].len();
    assert!(
        windows.iter().all(|w| w.len() == t_len),
        "ragged windows in batch"
    );
    (0..t_len)
        .map(|t| {
            Tensor::from_fn(windows.len(), METRIC_COUNT, |b, c| {
                windows[b][t].get(Metric::ALL[c])
            })
        })
        .collect()
}

/// One supervised sample for the system-state model.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemStateSample {
    /// Pooled history window ([`SEQ_LEN`] rows, unnormalized).
    pub history: Vec<MetricVec>,
    /// Per-metric mean over the horizon (unnormalized).
    pub target: MetricVec,
}

/// Sliding-window dataset for the system-state model.
#[derive(Debug, Clone)]
pub struct SystemStateDataset {
    samples: Vec<SystemStateSample>,
    normalizer: Normalizer,
}

impl SystemStateDataset {
    /// Builds samples from contiguous 1 Hz traces, one row slice per
    /// trace, with the given window `stride` (seconds between
    /// consecutive samples). The rows are read in place.
    ///
    /// Traces shorter than `HISTORY_S + HORIZON_S` produce no samples.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or no sample can be extracted from any
    /// trace.
    pub fn from_traces(traces: &[&[MetricVec]], stride: usize) -> Self {
        assert!(stride > 0, "stride must be non-zero");
        let mut samples = Vec::new();
        for &rows in traces {
            if rows.len() < HISTORY_S + HORIZON_S {
                continue;
            }
            let mut t = HISTORY_S;
            while t + HORIZON_S <= rows.len() {
                samples.push(SystemStateSample {
                    history: pool_rows(&rows[t - HISTORY_S..t], SEQ_LEN),
                    target: mean_rows(&rows[t..t + HORIZON_S]),
                });
                t += stride;
            }
        }
        assert!(
            !samples.is_empty(),
            "no system-state samples: traces too short (need {} s)",
            HISTORY_S + HORIZON_S
        );
        let normalizer = Normalizer::fit_windows(samples.iter().map(|s| s.history.as_slice()));
        Self {
            samples,
            normalizer,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples.
    pub fn samples(&self) -> &[SystemStateSample] {
        &self.samples
    }

    /// The fitted per-metric normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Shuffled train/test split (the paper uses 60 %/40 %).
    ///
    /// Both splits keep the normalizer fitted on the **training** part.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_frac < 1` or if either side would be
    /// empty.
    pub fn split<R: Rng + ?Sized>(&self, train_frac: f64, rng: &mut R) -> (Self, Self) {
        assert!(
            (0.0..1.0).contains(&train_frac) && train_frac > 0.0,
            "train fraction must be in (0,1)"
        );
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        idx.shuffle(rng);
        let cut = ((self.samples.len() as f64) * train_frac).round() as usize;
        assert!(
            cut > 0 && cut < self.samples.len(),
            "split leaves an empty side ({} samples, cut {cut})",
            self.samples.len()
        );
        let side =
            |idx: &[usize]| -> Vec<_> { idx.iter().map(|&i| self.samples[i].clone()).collect() };
        let (train, test) = (side(&idx[..cut]), side(&idx[cut..]));
        let normalizer = Normalizer::fit_windows(train.iter().map(|s| s.history.as_slice()));
        (
            Self {
                samples: train,
                normalizer: normalizer.clone(),
            },
            Self {
                samples: test,
                normalizer,
            },
        )
    }

    /// Builds normalized batch tensors for the given sample indices:
    /// `(sequence, target)` where `sequence` is [`SEQ_LEN`] tensors of
    /// `B × 7` and `target` is `B × 7`.
    ///
    /// # Panics
    ///
    /// Panics if `idxs` is empty or out of bounds.
    pub fn batch(&self, idxs: &[usize]) -> (Vec<Tensor>, Tensor) {
        assert!(!idxs.is_empty(), "empty batch");
        let windows: Vec<Vec<MetricVec>> = idxs
            .iter()
            .map(|&i| self.normalizer.normalize_window(&self.samples[i].history))
            .collect();
        let seq = seq_tensors(&windows);
        let target = Tensor::from_fn(idxs.len(), METRIC_COUNT, |b, c| {
            self.normalizer
                .normalize(&self.samples[idxs[b]].target)
                .get(Metric::ALL[c])
        });
        (seq, target)
    }
}

/// One application-deployment record collected during trace scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Application name (keys the signature store).
    pub app: String,
    /// The memory mode it was deployed in.
    pub mode: MemoryMode,
    /// 1 Hz history window covering the [`HISTORY_S`] seconds before
    /// arrival.
    pub history: Vec<MetricVec>,
    /// Actual per-metric mean over the first [`HORIZON_S`] seconds after
    /// arrival.
    pub future_120: MetricVec,
    /// Actual per-metric mean over the whole execution.
    pub future_exec: MetricVec,
    /// Measured performance: execution time in seconds (BE) or p99 in
    /// milliseconds (LC).
    pub perf: f32,
}

/// Dataset for the performance model.
#[derive(Debug, Clone)]
pub struct PerfDataset {
    records: Vec<PerfRecord>,
    signatures: HashMap<String, Vec<MetricVec>>,
    metric_norm: Normalizer,
    target_norm: ScalarNormalizer,
}

impl PerfDataset {
    /// Builds a dataset from deployment records and the signature store.
    ///
    /// Records whose application has no signature are dropped (Adrias
    /// schedules unknown apps remote-first to capture one, §V-C).
    /// Targets are log-transformed before z-normalization.
    ///
    /// # Panics
    ///
    /// Panics if no record survives, or any record has an empty history
    /// or non-positive performance.
    pub fn new(records: Vec<PerfRecord>, signatures: &[AppSignature]) -> Self {
        let sig_map: HashMap<String, Vec<MetricVec>> = signatures
            .iter()
            .map(|s| {
                (
                    s.app_name().to_owned(),
                    s.resampled(SEQ_LEN).rows().to_vec(),
                )
            })
            .collect();
        let records: Vec<PerfRecord> = records
            .into_iter()
            .filter(|r| sig_map.contains_key(&r.app))
            .collect();
        assert!(!records.is_empty(), "no records with known signatures");
        for r in &records {
            assert!(
                !r.history.is_empty(),
                "record for {} has empty history",
                r.app
            );
            assert!(r.perf > 0.0, "record for {} has non-positive perf", r.app);
        }
        let metric_norm = Normalizer::fit_windows(
            records
                .iter()
                .map(|r| r.history.as_slice())
                .chain(sig_map.values().map(|v| v.as_slice())),
        );
        let targets: Vec<f32> = records.iter().map(|r| r.perf.ln()).collect();
        let target_norm = ScalarNormalizer::fit(&targets);
        Self {
            records,
            signatures: sig_map,
            metric_norm,
            target_norm,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records.
    pub fn records(&self) -> &[PerfRecord] {
        &self.records
    }

    /// The fitted metric normalizer.
    pub fn metric_norm(&self) -> &Normalizer {
        &self.metric_norm
    }

    /// The fitted (log-space) target normalizer.
    pub fn target_norm(&self) -> &ScalarNormalizer {
        &self.target_norm
    }

    /// The pooled signature rows for `app`, if known.
    pub fn signature(&self, app: &str) -> Option<&[MetricVec]> {
        self.signatures.get(app).map(Vec::as_slice)
    }

    /// Signature store in pooled form (name → [`SEQ_LEN`] rows).
    pub fn signatures(&self) -> &HashMap<String, Vec<MetricVec>> {
        &self.signatures
    }

    /// The signature store as signatures again (already [`SEQ_LEN`]
    /// rows each), to build a dataset of other records over it.
    fn signature_set(&self) -> Vec<AppSignature> {
        self.signatures
            .iter()
            .map(|(name, rows)| AppSignature::new(name.clone(), rows.clone()))
            .collect()
    }

    /// A dataset of `records` over this one's signature store, its
    /// normalizers fitted afresh.
    pub(crate) fn with_records(&self, records: Vec<PerfRecord>) -> Self {
        Self::new(records, &self.signature_set())
    }

    /// The two sides of a split as datasets: normalizers are fitted on
    /// `train` and shared by `other`.
    fn with_train_norms(&self, train: Vec<PerfRecord>, other: Vec<PerfRecord>) -> (Self, Self) {
        let sigs = self.signature_set();
        let train_ds = Self::new(train, &sigs);
        let mut other_ds = Self::new(other, &sigs);
        other_ds.metric_norm = train_ds.metric_norm.clone();
        other_ds.target_norm = train_ds.target_norm;
        (train_ds, other_ds)
    }

    /// Shuffled train/test split; normalizers refit on the training part.
    ///
    /// # Panics
    ///
    /// Panics unless both sides end up non-empty.
    pub fn split<R: Rng + ?Sized>(&self, train_frac: f64, rng: &mut R) -> (Self, Self) {
        let mut idx: Vec<usize> = (0..self.records.len()).collect();
        idx.shuffle(rng);
        let cut = ((self.records.len() as f64) * train_frac).round() as usize;
        assert!(
            cut > 0 && cut < self.records.len(),
            "split leaves an empty side"
        );
        let side = |idx: &[usize]| idx.iter().map(|&i| self.records[i].clone()).collect();
        self.with_train_norms(side(&idx[..cut]), side(&idx[cut..]))
    }

    /// Deterministic index-based holdout split: every `every_k`-th
    /// record (indices `k-1, 2k-1, …`) becomes the held-out side, the
    /// rest train. No RNG is involved, so the same dataset yields the
    /// same split everywhere — the property the online swap gate needs
    /// to stay seed- and worker-invariant. Normalizers refit on the
    /// training side and are shared by the holdout side.
    ///
    /// Returns `None` if either side would be empty.
    ///
    /// # Panics
    ///
    /// Panics if `every_k < 2` (the holdout would swallow everything).
    pub fn split_holdout(&self, every_k: usize) -> Option<(Self, Self)> {
        assert!(every_k >= 2, "every_k must be at least 2, got {every_k}");
        let mut train = Vec::new();
        let mut hold = Vec::new();
        for (i, r) in self.records.iter().enumerate() {
            if (i + 1) % every_k == 0 {
                hold.push(r.clone());
            } else {
                train.push(r.clone());
            }
        }
        (!train.is_empty() && !hold.is_empty()).then(|| self.with_train_norms(train, hold))
    }

    /// Splits by application: records of `app` become the test set
    /// (leave-one-out validation of Fig. 15).
    ///
    /// Returns `None` if either side would be empty.
    pub fn split_leave_out(&self, app: &str) -> Option<(Self, Self)> {
        let (test, train): (Vec<_>, Vec<_>) =
            self.records.iter().cloned().partition(|r| r.app == app);
        (!train.is_empty() && !test.is_empty()).then(|| self.with_train_norms(train, test))
    }

    /// Normalized (log-space) target of record `i`.
    pub(crate) fn target(&self, i: usize) -> f32 {
        self.target_norm.normalize(self.records[i].perf.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_core::rng::SeedableRng;
    use adrias_core::rng::Xoshiro256pp;

    fn rowv(v: f32) -> MetricVec {
        let mut m = MetricVec::zero();
        m.set(Metric::LlcLoads, v);
        m.set(Metric::LinkLatency, 350.0 + v);
        m
    }

    fn trace(len: usize) -> Vec<MetricVec> {
        (0..len).map(|t| rowv(t as f32)).collect()
    }

    #[test]
    fn pool_rows_divisible_case() {
        let rows: Vec<MetricVec> = (0..120).map(|i| rowv(i as f32)).collect();
        let pooled = pool_rows(&rows, SEQ_LEN);
        assert_eq!(pooled.len(), SEQ_LEN);
        // First chunk covers rows 0..5 → mean 2.0.
        assert!((pooled[0].get(Metric::LlcLoads) - 2.0).abs() < 1e-5);
        assert!((pooled[23].get(Metric::LlcLoads) - 117.0).abs() < 1e-5);
    }

    #[test]
    fn pool_rows_ragged_case() {
        let rows: Vec<MetricVec> = (0..7).map(|i| rowv(i as f32)).collect();
        let pooled = pool_rows(&rows, 3);
        assert_eq!(pooled.len(), 3);
    }

    #[test]
    fn system_dataset_window_count() {
        let ds = SystemStateDataset::from_traces(&[&trace(360)], 10);
        // t runs 120, 130, ..., 240 → 13 samples.
        assert_eq!(ds.len(), 13);
        assert_eq!(ds.samples()[0].history.len(), SEQ_LEN);
    }

    #[test]
    fn short_traces_are_skipped() {
        let ds = SystemStateDataset::from_traces(&[&trace(100), &trace(360)], 60);
        assert!(!ds.is_empty());
    }

    #[test]
    fn system_targets_are_horizon_means() {
        let ds = SystemStateDataset::from_traces(&[&trace(240)], 120);
        // Single sample: history rows 0..120, target mean of rows 120..240
        // → (120 + 239)/2 = 179.5.
        assert_eq!(ds.len(), 1);
        assert!((ds.samples()[0].target.get(Metric::LlcLoads) - 179.5).abs() < 1e-3);
    }

    #[test]
    fn system_split_is_disjoint_and_sized() {
        let ds = SystemStateDataset::from_traces(&[&trace(1000)], 5);
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let (train, test) = ds.split(0.6, &mut rng);
        assert_eq!(train.len() + test.len(), ds.len());
        let expected = ((ds.len() as f64) * 0.6).round() as usize;
        assert_eq!(train.len(), expected);
    }

    #[test]
    fn system_batch_shapes() {
        let ds = SystemStateDataset::from_traces(&[&trace(400)], 10);
        let (seq, target) = ds.batch(&[0, 1, 2]);
        assert_eq!(seq.len(), SEQ_LEN);
        assert_eq!(seq[0].shape(), (3, METRIC_COUNT));
        assert_eq!(target.shape(), (3, METRIC_COUNT));
    }

    fn perf_record(app: &str, mode: MemoryMode, perf: f32) -> PerfRecord {
        PerfRecord {
            app: app.to_owned(),
            mode,
            history: (0..HISTORY_S).map(|i| rowv(i as f32)).collect(),
            future_120: rowv(10.0),
            future_exec: rowv(12.0),
            perf,
        }
    }

    fn signatures() -> Vec<AppSignature> {
        vec![
            AppSignature::new("a", (0..30).map(|i| rowv(i as f32)).collect()),
            AppSignature::new("b", (0..50).map(|i| rowv(2.0 * i as f32)).collect()),
        ]
    }

    #[test]
    fn perf_dataset_drops_unknown_apps() {
        let records = vec![
            perf_record("a", MemoryMode::Local, 60.0),
            perf_record("zz", MemoryMode::Local, 50.0),
            perf_record("b", MemoryMode::Remote, 90.0),
        ];
        let ds = PerfDataset::new(records, &signatures());
        assert_eq!(ds.len(), 2);
        assert!(ds.signature("a").is_some());
        assert!(ds.signature("zz").is_none());
    }

    #[test]
    fn perf_dataset_target_normalization_round_trips() {
        let records = vec![
            perf_record("a", MemoryMode::Local, 60.0),
            perf_record("a", MemoryMode::Remote, 120.0),
            perf_record("b", MemoryMode::Local, 30.0),
        ];
        let ds = PerfDataset::new(records, &signatures());
        let z = ds.target(1);
        let back = ds.target_norm().denormalize(z).exp();
        assert!((back - 120.0).abs() < 0.1);
    }

    #[test]
    fn leave_one_out_partitions_by_app() {
        let records = vec![
            perf_record("a", MemoryMode::Local, 60.0),
            perf_record("a", MemoryMode::Remote, 100.0),
            perf_record("b", MemoryMode::Local, 30.0),
        ];
        let ds = PerfDataset::new(records, &signatures());
        let (train, test) = ds.split_leave_out("a").unwrap();
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 2);
        assert!(test.records().iter().all(|r| r.app == "a"));
        assert!(ds.split_leave_out("zz").is_none());
    }

    #[test]
    #[should_panic(expected = "no records with known signatures")]
    fn perf_dataset_rejects_all_unknown() {
        let records = vec![perf_record("zz", MemoryMode::Local, 50.0)];
        let _ = PerfDataset::new(records, &signatures());
    }

    #[test]
    fn holdout_split_is_deterministic_and_index_based() {
        let records: Vec<PerfRecord> = (0..10)
            .map(|i| {
                perf_record(
                    if i % 2 == 0 { "a" } else { "b" },
                    MemoryMode::Local,
                    50.0 + i as f32,
                )
            })
            .collect();
        let ds = PerfDataset::new(records, &signatures());
        let (train, hold) = ds.split_holdout(3).unwrap();
        // Indices 2, 5, 8 held out.
        assert_eq!(hold.len(), 3);
        assert_eq!(train.len(), 7);
        assert_eq!(hold.records()[0].perf, 52.0);
        assert_eq!(hold.records()[1].perf, 55.0);
        assert_eq!(hold.records()[2].perf, 58.0);
        // Holdout reuses the training normalizers.
        assert_eq!(
            hold.target_norm().normalize(1.0),
            train.target_norm().normalize(1.0)
        );
        // Repeat split is identical (no RNG involved).
        let (train2, hold2) = ds.split_holdout(3).unwrap();
        assert_eq!(train.records(), train2.records());
        assert_eq!(hold.records(), hold2.records());
        // A holdout that would leave a side empty is refused.
        let two = PerfDataset::new(
            vec![perf_record("a", MemoryMode::Local, 60.0)],
            &signatures(),
        );
        assert!(two.split_holdout(3).is_none());
    }
}
