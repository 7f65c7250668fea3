//! Persistence for trained models.
//!
//! A deployed Adrias instance trains its models in the offline phase and
//! loads them at orchestrator start-up. Models are serialized to a
//! line-oriented text format built on [`adrias_nn::serialize`]: a config
//! header, the normalizer statistics, and every parameter tensor in
//! stable visitation order.

use std::fmt;

use adrias_nn::serialize::{read_tensors, write_tensors, ParseTensorError};
use adrias_nn::{GradModel, Tensor};
use adrias_telemetry::{Metric, METRIC_COUNT};

use crate::norm::{Normalizer, ScalarNormalizer};
use crate::perf_model::{PerfModel, PerfModelConfig};
use crate::system_model::{SystemStateModel, SystemStateModelConfig};

/// Error returned when loading a persisted model fails.
#[derive(Debug)]
pub enum LoadModelError {
    /// The header line was missing or malformed.
    BadHeader(String),
    /// The tensor section failed to parse.
    BadTensors(ParseTensorError),
    /// Parameter count or shapes do not match the declared config.
    ShapeMismatch {
        /// Which tensor disagreed.
        slot: String,
    },
    /// The model type tag does not match the loader.
    WrongKind {
        /// Tag found in the header.
        found: String,
        /// Tag the loader expected.
        expected: &'static str,
    },
}

impl fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadModelError::BadHeader(line) => write!(f, "malformed model header `{line}`"),
            LoadModelError::BadTensors(e) => write!(f, "malformed tensor section: {e}"),
            LoadModelError::ShapeMismatch { slot } => {
                write!(f, "parameter shape mismatch at `{slot}`")
            }
            LoadModelError::WrongKind { found, expected } => {
                write!(
                    f,
                    "model kind `{found}` does not match expected `{expected}`"
                )
            }
        }
    }
}

impl std::error::Error for LoadModelError {}

/// Error returned when serializing a model fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaveModelError {
    /// The model has not been trained, so there is nothing to persist.
    Untrained,
}

impl fmt::Display for SaveModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaveModelError::Untrained => write!(f, "cannot save an untrained model"),
        }
    }
}

impl std::error::Error for SaveModelError {}

impl From<ParseTensorError> for LoadModelError {
    fn from(e: ParseTensorError) -> Self {
        LoadModelError::BadTensors(e)
    }
}

/// The normalizer slots of a model: the metric normalizer, and the
/// scalar target normalizer if the model has one (its `mean std` then
/// close the header line).
type Norms<'a> = (
    &'a mut Option<Normalizer>,
    Option<&'a mut Option<ScalarNormalizer>>,
);

/// What [`save`] and [`load`] need of a model beyond [`GradModel`],
/// whose `visit_params` then `visit_buffers` order *is* the
/// `p0, p1, …` order of the file.
trait Persisted: GradModel {
    /// The header's model-type tag.
    const KIND: &'static str;
    /// The seven architecture words of the header.
    fn arch(&self) -> String;
    /// An untrained model of the architecture [`Persisted::arch`] wrote.
    fn build(arch: &[&str]) -> Option<Self>;
    fn norms(&mut self) -> Norms<'_>;
}

/// Both config types spell the architecture fields alike; the
/// training-only parallelism knobs are not part of the architecture
/// and are not persisted.
macro_rules! persisted {
    ($model:ident, $cfg:ident, $kind:literal, $this:ident => $norms:expr) => {
        impl Persisted for $model {
            const KIND: &'static str = $kind;

            fn arch(&self) -> String {
                let c = self.config();
                format!(
                    "{} {} {} {} {} {} {}",
                    c.hidden,
                    c.block_width,
                    c.dropout,
                    c.learning_rate,
                    c.epochs,
                    c.batch_size,
                    c.seed
                )
            }

            fn build(arch: &[&str]) -> Option<Self> {
                let [hidden, block, dropout, lr, epochs, batch, seed] = arch else {
                    return None;
                };
                Some(Self::new($cfg {
                    hidden: hidden.parse().ok()?,
                    block_width: block.parse().ok()?,
                    dropout: dropout.parse().ok()?,
                    learning_rate: lr.parse().ok()?,
                    epochs: epochs.parse().ok()?,
                    batch_size: batch.parse().ok()?,
                    seed: seed.parse().ok()?,
                    ..Default::default()
                }))
            }

            fn norms(&mut $this) -> Norms<'_> {
                $norms
            }
        }
    };
}

persisted!(SystemStateModel, SystemStateModelConfig, "system",
    self => (&mut self.normalizer, None));
persisted!(PerfModel, PerfModelConfig, "perf",
    self => (&mut self.metric_norm, Some(&mut self.target_norm)));

fn save<M: Persisted>(model: &mut M) -> Result<String, SaveModelError> {
    let mut text = format!("adrias-model {} {}", M::KIND, model.arch());
    let (metric, target) = model.norms();
    let norm = metric.clone().ok_or(SaveModelError::Untrained)?;
    if let Some(target) = target {
        let t = target.ok_or(SaveModelError::Untrained)?;
        text.push_str(&format!(" {} {}", t.mean(), t.std()));
    }
    text.push('\n');
    let stat = |of: fn(&Normalizer, Metric) -> f32| {
        Tensor::from_fn(1, METRIC_COUNT, |_, c| of(&norm, Metric::ALL[c]))
    };
    let mut named: Vec<(String, Tensor)> = vec![
        ("norm_mean".into(), stat(Normalizer::mean)),
        ("norm_std".into(), stat(Normalizer::std)),
    ];
    let mut push = |t: &Tensor| named.push((format!("p{}", named.len() - 2), t.clone()));
    model.visit_params(&mut |p, _| push(p));
    model.visit_buffers(&mut |b| push(b));
    let refs: Vec<(&str, &Tensor)> = named.iter().map(|(n, t)| (n.as_str(), t)).collect();
    text.push_str(&write_tensors(&refs));
    Ok(text)
}

fn load<M: Persisted>(text: &str) -> Result<M, LoadModelError> {
    let (header, rest) = text
        .split_once('\n')
        .ok_or_else(|| LoadModelError::BadHeader(text.to_owned()))?;
    let bad_header = || LoadModelError::BadHeader(header.to_owned());
    let words: Vec<&str> = header.split_whitespace().collect();
    let ["adrias-model", kind, words @ ..] = words.as_slice() else {
        return Err(bad_header());
    };
    if *kind != M::KIND {
        return Err(LoadModelError::WrongKind {
            found: (*kind).to_owned(),
            expected: M::KIND,
        });
    }
    let (arch, target_words) = words.split_at_checked(7).ok_or_else(bad_header)?;
    let mut model = M::build(arch).ok_or_else(bad_header)?;
    let mut tensors = read_tensors(rest)?.into_iter();
    let mut stats = |slot: &str| match tensors.next() {
        Some((name, t)) if name == slot && t.shape() == (1, METRIC_COUNT) => {
            Ok(<[f32; METRIC_COUNT]>::try_from(t.data()).expect("shape checked"))
        }
        _ => Err(LoadModelError::ShapeMismatch {
            slot: slot.to_owned(),
        }),
    };
    let norm = Normalizer::from_parts(stats("norm_mean")?, stats("norm_std")?);

    let mut next = 0usize;
    let mut error = None;
    let mut restore = |p: &mut Tensor| {
        if error.is_some() {
            return;
        }
        match tensors.next() {
            Some((_, t)) if t.shape() == p.shape() => *p = t,
            Some((name, _)) => error = Some(name),
            None => error = Some(format!("p{next} (missing)")),
        }
        next += 1;
    };
    model.visit_params(&mut |p, _| restore(p));
    model.visit_buffers(&mut restore);
    if let Some(slot) = error {
        return Err(LoadModelError::ShapeMismatch { slot });
    }
    let trailing = tensors.count();
    if trailing > 0 {
        return Err(LoadModelError::ShapeMismatch {
            slot: format!(
                "trailing parameters ({next} loaded, {} provided)",
                next + trailing
            ),
        });
    }
    let (metric, target) = model.norms();
    *metric = Some(norm);
    match (target, target_words) {
        (None, []) => {}
        (Some(target), [mean, std]) => {
            let parsed = mean.parse::<f32>().ok().zip(std.parse::<f32>().ok());
            let (mean, std) = parsed
                .filter(|&(_, std)| std > 0.0)
                .ok_or_else(bad_header)?;
            *target = Some(ScalarNormalizer::from_parts(mean, std));
        }
        _ => return Err(bad_header()),
    }
    Ok(model)
}

/// Serializes a trained system-state model.
///
/// # Errors
///
/// Returns [`SaveModelError::Untrained`] if the model has not been
/// trained.
pub fn save_system_model(model: &mut SystemStateModel) -> Result<String, SaveModelError> {
    save(model)
}

/// Restores a system-state model saved by [`save_system_model`]; it
/// predicts the bits the saved model did.
///
/// # Errors
///
/// Returns [`LoadModelError`] on malformed input or mismatched shapes.
pub fn load_system_model(text: &str) -> Result<SystemStateModel, LoadModelError> {
    load(text)
}

/// Serializes a trained performance model.
///
/// # Errors
///
/// Returns [`SaveModelError::Untrained`] if the model has not been
/// trained.
pub fn save_perf_model(model: &mut PerfModel) -> Result<String, SaveModelError> {
    save(model)
}

/// Restores a performance model saved by [`save_perf_model`]; it
/// predicts the bits the saved model did.
///
/// # Errors
///
/// Returns [`LoadModelError`] on malformed input or mismatched shapes.
pub fn load_perf_model(text: &str) -> Result<PerfModel, LoadModelError> {
    load(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{PerfRecord, SystemStateDataset, HISTORY_S};
    use crate::PerfDataset;
    use adrias_telemetry::MetricVec;
    use adrias_workloads::{AppSignature, MemoryMode};

    fn rowv(x: f32) -> MetricVec {
        let mut v = MetricVec::zero();
        v.set(Metric::LlcLoads, 1e8 * (1.0 + x));
        v.set(Metric::MemLoads, 4e7 * (1.0 + 0.5 * x));
        v.set(Metric::LinkLatency, 350.0 + 100.0 * x);
        v
    }

    fn trained_system_model() -> SystemStateModel {
        let trace: Vec<MetricVec> = (0..420).map(|t| rowv(((t as f32) * 0.03).sin())).collect();
        let ds = SystemStateDataset::from_traces(&[&trace], 20);
        let mut model = SystemStateModel::new(SystemStateModelConfig {
            epochs: 3,
            hidden: 6,
            block_width: 8,
            ..SystemStateModelConfig::tiny()
        });
        model.train(&ds);
        model
    }

    #[test]
    fn system_model_round_trips() {
        let mut model = trained_system_model();
        let text = save_system_model(&mut model).expect("trained");
        let restored = load_system_model(&text).expect("loads");
        assert_eq!(restored.normalizer, model.normalizer);
        let window: Vec<MetricVec> = (0..HISTORY_S).map(|t| rowv((t as f32) * 0.01)).collect();
        let a = model.predict(&window);
        let b = restored.predict(&window);
        for m in Metric::ALL {
            assert_eq!(a.get(m).to_bits(), b.get(m).to_bits(), "{m}");
        }
    }

    fn perf_records(history: impl Fn(f32) -> Vec<MetricVec>) -> Vec<PerfRecord> {
        (0..24)
            .map(|i| {
                let x = i as f32 / 24.0;
                PerfRecord {
                    app: "a".into(),
                    mode: MemoryMode::BOTH[i % 2],
                    history: history(x),
                    future_120: rowv(x),
                    future_exec: rowv(x),
                    perf: 50.0 + 20.0 * x,
                }
            })
            .collect()
    }

    fn trained_perf_model(
        records: Vec<PerfRecord>,
        sig: &AppSignature,
        hidden: usize,
        block_width: usize,
    ) -> PerfModel {
        let ds = PerfDataset::new(records, std::slice::from_ref(sig));
        let hats: Vec<Option<MetricVec>> =
            ds.records().iter().map(|r| Some(r.future_120)).collect();
        let mut model = PerfModel::new(PerfModelConfig {
            epochs: 3,
            hidden,
            block_width,
            ..PerfModelConfig::tiny()
        });
        model.train(&ds, &hats);
        model
    }

    #[test]
    fn perf_model_round_trips() {
        let sig = AppSignature::new("a", vec![rowv(0.3); 10]);
        let mut model = trained_perf_model(perf_records(|x| vec![rowv(x); HISTORY_S]), &sig, 5, 8);
        let text = save_perf_model(&mut model).expect("trained");
        let restored = load_perf_model(&text).expect("loads");
        assert_eq!(restored.metric_norm, model.metric_norm);
        assert_eq!(restored.target_norm, model.target_norm);
        let window = vec![rowv(0.4); HISTORY_S];
        let a = model.predict(&window, &sig, MemoryMode::Remote, Some(&rowv(0.4)));
        let b = restored.predict(&window, &sig, MemoryMode::Remote, Some(&rowv(0.4)));
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }

    /// `tests/fixtures/perf_model_pr21.txt` was written by
    /// `save_perf_model` at the commit before the models were rebuilt on
    /// `parts` (PR 21, `1f8e306`), from the model trained below; the
    /// bits are what that model predicted there. Loading the file walks
    /// today's `GradModel` order over the old `p0, p1, …`, so a
    /// reordered encoder, layer or block loads the wrong weights and
    /// fails here — and retraining the same model today must still
    /// write the same file.
    #[test]
    fn a_model_saved_before_the_refactor_loads_and_predicts_the_same_bits() {
        let text = include_str!("../tests/fixtures/perf_model_pr21.txt");
        let restored = load_perf_model(text).expect("fixture loads");
        let sig = AppSignature::new("a", (0..10).map(|t| rowv(0.3 + 0.05 * t as f32)).collect());
        let window: Vec<MetricVec> = (0..HISTORY_S)
            .map(|t| rowv(0.4 + 0.002 * t as f32))
            .collect();
        let local = restored.predict(&window, &sig, MemoryMode::Local, Some(&rowv(0.4)));
        let remote = restored.predict(&window, &sig, MemoryMode::Remote, None);
        assert_eq!(local.to_bits(), 0x426d_d19c, "local {local}");
        assert_eq!(remote.to_bits(), 0x4274_45a3, "remote {remote}");

        let records = perf_records(|x| {
            (0..HISTORY_S)
                .map(|t| rowv(x + 0.1 * ((t as f32) * 0.3).sin()))
                .collect()
        });
        let mut retrained = trained_perf_model(records, &sig, 3, 4);
        assert_eq!(save_perf_model(&mut retrained).expect("trained"), text);
    }

    #[test]
    fn a_non_positive_target_std_is_a_bad_header_not_a_panic() {
        let text = include_str!("../tests/fixtures/perf_model_pr21.txt");
        let (header, rest) = text.split_once('\n').unwrap();
        let words: Vec<&str> = header.split(' ').collect();
        for bad in ["0", "-1", "NaN"] {
            let header = [&words[..words.len() - 1], &[bad]].concat().join(" ");
            let err = load_perf_model(&format!("{header}\n{rest}")).unwrap_err();
            assert!(matches!(err, LoadModelError::BadHeader(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn kind_mismatch_is_reported() {
        let mut model = trained_system_model();
        let text = save_system_model(&mut model).expect("trained");
        let err = load_perf_model(&text).unwrap_err();
        assert!(matches!(err, LoadModelError::WrongKind { .. }), "{err}");
    }

    #[test]
    fn truncated_input_is_reported() {
        let mut model = trained_system_model();
        let text = save_system_model(&mut model).expect("trained");
        let lines: Vec<&str> = text.lines().collect();
        let truncated = lines[..lines.len() / 2].join("\n");
        assert!(load_system_model(&truncated).is_err());
    }

    #[test]
    fn garbage_header_is_reported() {
        let err = load_system_model("nonsense\n").unwrap_err();
        assert!(err.to_string().contains("malformed"));
    }
}
