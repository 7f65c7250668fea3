//! Stacked-model ablation (Fig. 13b) and generalization studies (Fig. 15).
//!
//! The key design question the paper answers experimentally: should the
//! performance model be trained/tested with the *actual* future system
//! state, or with the `Ŝ` *propagated* from the system-state model? The
//! `{train, test}` pairs of Fig. 13b are reproduced by
//! [`run_ablation_matrix`]. Fig. 15's per-application leave-one-out study
//! is reproduced by [`leave_one_out`].

use adrias_telemetry::MetricVec;

use crate::dataset::PerfDataset;
use crate::eval::RegressionReport;
use crate::perf_model::{PerfModel, PerfModelConfig};
use crate::system_model::SystemStateModel;

/// Where the `Ŝ` input of the performance model comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SHatSource {
    /// `Ŝ` is not fed (zeros) — the `{None, None}` variant.
    None,
    /// Actual metric means over the first 120 s after arrival
    /// (`{120, ·}` with ground truth).
    Actual120,
    /// Actual metric means over the whole execution (`{exec, ·}`) — the
    /// non-pragmatic upper bound.
    ActualExec,
    /// Propagated prediction from the system-state model (`{·, Ŝ}`) —
    /// the only variant available at run time.
    Propagated,
}

impl SHatSource {
    /// Label used in the Fig. 13b axis.
    pub fn label(self) -> &'static str {
        match self {
            SHatSource::None => "None",
            SHatSource::Actual120 => "120",
            SHatSource::ActualExec => "exec",
            SHatSource::Propagated => "S_hat",
        }
    }

    /// Materializes the `Ŝ` vector for every record of `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if this is [`SHatSource::Propagated`] and `system_model` is
    /// `None` or untrained.
    pub fn materialize(
        self,
        dataset: &PerfDataset,
        system_model: Option<&mut SystemStateModel>,
    ) -> Vec<Option<MetricVec>> {
        match self {
            SHatSource::None => vec![None; dataset.len()],
            SHatSource::Actual120 => dataset
                .records()
                .iter()
                .map(|r| Some(r.future_120))
                .collect(),
            SHatSource::ActualExec => dataset
                .records()
                .iter()
                .map(|r| Some(r.future_exec))
                .collect(),
            SHatSource::Propagated => {
                let model =
                    system_model.expect("propagated Ŝ requires a trained system-state model");
                assert!(model.is_trained(), "system-state model is untrained");
                dataset
                    .records()
                    .iter()
                    .map(|r| Some(model.predict(&r.history)))
                    .collect()
            }
        }
    }
}

/// One cell of the Fig. 13b matrix: `Ŝ` source used in training vs
/// testing, and the resulting accuracy.
#[derive(Debug, Clone)]
pub struct AblationCell {
    /// `Ŝ` source during training.
    pub train_source: SHatSource,
    /// `Ŝ` source during testing.
    pub test_source: SHatSource,
    /// Test-set accuracy.
    pub report: RegressionReport,
}

/// Runs the `{train, test}` ablation matrix of Fig. 13b.
///
/// Trains one fresh [`PerfModel`] per requested pair. `system_model`
/// must be trained if any pair involves [`SHatSource::Propagated`].
pub fn run_ablation_matrix(
    pairs: &[(SHatSource, SHatSource)],
    train: &PerfDataset,
    test: &PerfDataset,
    cfg: PerfModelConfig,
    mut system_model: Option<&mut SystemStateModel>,
) -> Vec<AblationCell> {
    pairs
        .iter()
        .map(|&(train_source, test_source)| {
            let train_hats = train_source.materialize(train, system_model.as_deref_mut());
            let test_hats = test_source.materialize(test, system_model.as_deref_mut());
            let mut model = PerfModel::new(cfg);
            model.train(train, &train_hats);
            let report = model.evaluate(test, &test_hats);
            AblationCell {
                train_source,
                test_source,
                report,
            }
        })
        .collect()
}

/// Per-application leave-one-out result (Fig. 15a).
#[derive(Debug, Clone)]
pub struct LeaveOneOutCell {
    /// Application excluded from training and used as the test set.
    pub app: String,
    /// Accuracy on the held-out application.
    pub report: RegressionReport,
}

/// Leave-one-out validation: for each application, train on every other
/// application's records and evaluate on the held-out one.
///
/// Applications with no usable split (e.g. they are the only app) are
/// skipped.
pub fn leave_one_out(
    dataset: &PerfDataset,
    apps: &[&str],
    cfg: PerfModelConfig,
    source: SHatSource,
    mut system_model: Option<&mut SystemStateModel>,
) -> Vec<LeaveOneOutCell> {
    apps.iter()
        .filter_map(|&app| {
            let (train, test) = dataset.split_leave_out(app)?;
            let train_hats = source.materialize(&train, system_model.as_deref_mut());
            let test_hats = source.materialize(&test, system_model.as_deref_mut());
            let mut model = PerfModel::new(cfg);
            model.train(&train, &train_hats);
            let report = model.evaluate(&test, &test_hats);
            Some(LeaveOneOutCell {
                app: app.to_owned(),
                report,
            })
        })
        .collect()
}

/// Accuracy as a function of available training samples (Fig. 15b).
///
/// For each requested size, trains on the first `n` records (in dataset
/// order) and evaluates on `test`.
pub fn sample_count_sweep(
    train: &PerfDataset,
    test: &PerfDataset,
    sizes: &[usize],
    cfg: PerfModelConfig,
    source: SHatSource,
    mut system_model: Option<&mut SystemStateModel>,
) -> Vec<(usize, RegressionReport)> {
    sizes
        .iter()
        .filter(|&&n| n >= 2 && n <= train.len())
        .map(|&n| {
            let subset = train.with_records(train.records()[..n].to_vec());
            let train_hats = source.materialize(&subset, system_model.as_deref_mut());
            let test_hats = source.materialize(test, system_model.as_deref_mut());
            let mut model = PerfModel::new(cfg);
            model.train(&subset, &train_hats);
            (n, model.evaluate(test, &test_hats))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{PerfRecord, HISTORY_S};
    use adrias_core::rng::Xoshiro256pp;
    use adrias_core::rng::{Rng, SeedableRng};
    use adrias_telemetry::Metric;
    use adrias_workloads::{AppSignature, MemoryMode};

    fn synthetic(n: usize, seed: u64) -> PerfDataset {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let apps = ["a", "b", "c"];
        let mut records = Vec::new();
        for _ in 0..n {
            let ai = rng.gen_range(0..apps.len());
            let mode = if rng.gen_bool(0.5) {
                MemoryMode::Local
            } else {
                MemoryMode::Remote
            };
            let load = rng.gen_range(0.0f32..1.5);
            let history: Vec<MetricVec> = (0..HISTORY_S)
                .map(|_| {
                    let mut v = MetricVec::zero();
                    v.set(Metric::MemLoads, 1e7 * (1.0 + load));
                    v
                })
                .collect();
            let mut fut = MetricVec::zero();
            fut.set(Metric::MemLoads, 1e7 * (1.0 + load));
            let perf = 50.0
                * (1.0 + 0.4 * load)
                * if mode == MemoryMode::Remote { 1.5 } else { 1.0 }
                * (1.0 + ai as f32 * 0.2);
            records.push(PerfRecord {
                app: apps[ai].to_owned(),
                mode,
                history,
                future_120: fut,
                future_exec: fut,
                perf,
            });
        }
        let sigs: Vec<AppSignature> = apps
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut v = MetricVec::zero();
                v.set(Metric::LlcLoads, (i as f32 + 1.0) * 1e8);
                AppSignature::new(*name, vec![v; 10])
            })
            .collect();
        PerfDataset::new(records, &sigs)
    }

    fn fast_cfg() -> PerfModelConfig {
        PerfModelConfig {
            epochs: 6,
            hidden: 6,
            block_width: 8,
            ..PerfModelConfig::tiny()
        }
    }

    #[test]
    fn labels_match_paper_axis() {
        assert_eq!(SHatSource::None.label(), "None");
        assert_eq!(SHatSource::Actual120.label(), "120");
        assert_eq!(SHatSource::ActualExec.label(), "exec");
        assert_eq!(SHatSource::Propagated.label(), "S_hat");
    }

    #[test]
    fn materialize_shapes_match_dataset() {
        let ds = synthetic(30, 0);
        assert_eq!(SHatSource::None.materialize(&ds, None).len(), 30);
        let a120 = SHatSource::Actual120.materialize(&ds, None);
        assert!(a120.iter().all(Option::is_some));
        let aexec = SHatSource::ActualExec.materialize(&ds, None);
        assert_eq!(aexec.len(), 30);
    }

    #[test]
    #[should_panic(expected = "requires a trained system-state model")]
    fn propagated_requires_model() {
        let ds = synthetic(10, 1);
        let _ = SHatSource::Propagated.materialize(&ds, None);
    }

    #[test]
    fn ablation_matrix_produces_one_cell_per_pair() {
        let ds = synthetic(80, 2);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let (train, test) = ds.split(0.6, &mut rng);
        let pairs = [
            (SHatSource::None, SHatSource::None),
            (SHatSource::Actual120, SHatSource::Actual120),
        ];
        let cells = run_ablation_matrix(&pairs, &train, &test, fast_cfg(), None);
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.report.r2.is_finite());
        }
    }

    #[test]
    fn leave_one_out_skips_impossible_apps() {
        let ds = synthetic(60, 4);
        let cells = leave_one_out(&ds, &["a", "zz"], fast_cfg(), SHatSource::Actual120, None);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].app, "a");
    }

    #[test]
    fn sample_sweep_respects_bounds() {
        let ds = synthetic(60, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let (train, test) = ds.split(0.7, &mut rng);
        let sweep = sample_count_sweep(
            &train,
            &test,
            &[1, 10, 20, 10_000],
            fast_cfg(),
            SHatSource::Actual120,
            None,
        );
        let ns: Vec<usize> = sweep.iter().map(|(n, _)| *n).collect();
        assert_eq!(ns, vec![10, 20]);
    }
}
