//! §VI-A — how well the trained Predictor forecasts (Table I,
//! Figs. 12–15). Every row here reads the one stack of its [`Ctx`].

use adrias_predictor::ablation::{leave_one_out, run_ablation_matrix, sample_count_sweep};
use adrias_predictor::{PerfDataset, PerfModel, SHatSource};
use adrias_telemetry::{stats, Metric};
use adrias_workloads::{AppSignature, MemoryMode};

use crate::Ctx;
use crate::Outcome::{self, Ran, Skipped};

/// The per-event scores reported in Table I of the paper.
fn paper_r2(metric: Metric) -> f32 {
    match metric {
        Metric::LlcLoads => 0.9969,
        Metric::LlcMisses => 0.9995,
        Metric::MemLoads => 0.9641,
        Metric::MemStores => 0.9983,
        Metric::LinkFlitsTx => 0.9977,
        Metric::LinkFlitsRx => 0.9871,
        Metric::LinkLatency => 0.9876,
    }
}

/// Table I — system-state model accuracy: `R²` per monitored event on
/// the held-out 40 % test split.
pub(crate) fn table1(ctx: &mut Ctx, t: &mut Vec<String>) -> Outcome {
    let stack = ctx.stack();
    let (per_metric, overall) = stack.system_model.evaluate(&stack.system_split.1);

    t.push(format!(
        "{:>10} {:>12} {:>12}",
        "event", "paper R²", "measured R²"
    ));
    let mut sum = 0.0f32;
    for (metric, report) in &per_metric {
        sum += report.r2;
        t.push(format!(
            "{:>10} {:>12.4} {:>12.4}",
            metric.to_string(),
            paper_r2(*metric),
            report.r2
        ));
    }
    t.push(format!(
        "{:>10} {:>12.4} {:>12.4}",
        "average",
        0.9932,
        sum / per_metric.len() as f32
    ));
    t.push(format!(
        "\noverall (normalized space across all events): R² = {:.4}",
        overall.r2
    ));
    Ran
}

/// Fig. 12 — actual vs predicted system state: the paper shows the
/// prediction scatter hugging the 45° residual line. We summarize the
/// scatter per metric: correlation of (truth, prediction) and the
/// fraction of points within ±10 % of the diagonal.
pub(crate) fn fig12(ctx: &mut Ctx, t: &mut Vec<String>) -> Outcome {
    let stack = ctx.stack();
    let (per_metric, _) = stack.system_model.evaluate(&stack.system_split.1);

    t.push(format!(
        "{:>10} {:>10} {:>16} {:>16}",
        "event", "corr", "within ±10%", "within ±25%"
    ));
    for (metric, report) in &per_metric {
        let (truth, pred): (Vec<f32>, Vec<f32>) = report.pairs.iter().copied().unzip();
        let corr = stats::pearson(&truth, &pred);
        let close = |tol: f32| {
            let n = report
                .pairs
                .iter()
                .filter(|(t, p)| {
                    let scale = t.abs().max(1e-9);
                    ((p - t) / scale).abs() <= tol
                })
                .count();
            100.0 * n as f32 / report.pairs.len() as f32
        };
        t.push(format!(
            "{:>10} {:>10.4} {:>15.1}% {:>15.1}%",
            metric.to_string(),
            corr,
            close(0.10),
            close(0.25)
        ));
    }
    t.push("\nmeasured: high diagonal concentration reproduces the Fig. 12".into());
    t.push("scatter; residual pairs are available programmatically via".into());
    t.push("RegressionReport::pairs for plotting.".into());
    Ran
}

/// Fig. 13 — BE performance-model accuracy:
///
/// * (a) R² with ground-truth future state, split by memory mode
///   (paper: 0.945 local / 0.939 remote, 0.942 average);
/// * (b) the stacked-model input ablation over `{train, test}` pairs of
///   the `Ŝ` source (paper: `{exec,exec}` best but non-pragmatic,
///   `{120,Ŝ}` the best practical, `{None,None}` ~2 % lower);
/// * (c) MAE per application and (d) runtime R² with propagated `Ŝ`
///   (paper: 0.905).
pub(crate) fn fig13(ctx: &mut Ctx, t: &mut Vec<String>) -> Outcome {
    let stack = ctx.stack();
    let (train, test) = &stack.be_split;

    // (a) Ground-truth future state (Actual120 in train and test).
    let train_hats = SHatSource::Actual120.materialize(train, None);
    let test_hats = SHatSource::Actual120.materialize(test, None);
    let mut model = PerfModel::new(*stack.be_model.config());
    model.train(train, &train_hats);
    let report = model.evaluate(test, &test_hats);
    for mode in MemoryMode::BOTH {
        let (truth, pred): (Vec<f32>, Vec<f32>) = test
            .records()
            .iter()
            .zip(&report.pairs)
            .filter(|(r, _)| r.mode == mode)
            .map(|(_, &(t, p))| (t, p))
            .unzip();
        if truth.len() > 1 {
            t.push(format!(
                "(a) {mode:<7} R² = {:.3}  (paper: {})",
                stats::r2_score(&truth, &pred),
                if mode == MemoryMode::Local {
                    "0.945"
                } else {
                    "0.939"
                }
            ));
        }
    }
    t.push(format!(
        "(a) overall R² = {:.3}  (paper avg: 0.942)\n",
        report.r2
    ));

    // (b) Ablation matrix.
    t.push("(b) stacked-model ablation {train, test} of the S_hat source:".into());
    let pairs = [
        (SHatSource::None, SHatSource::None),
        (SHatSource::Actual120, SHatSource::Actual120),
        (SHatSource::ActualExec, SHatSource::ActualExec),
        (SHatSource::Actual120, SHatSource::Propagated),
        (SHatSource::Propagated, SHatSource::Propagated),
    ];
    let cells = run_ablation_matrix(
        &pairs,
        train,
        test,
        *stack.be_model.config(),
        Some(&stack.system_model),
    );
    t.push(format!("{:>16} {:>10}", "{train,test}", "R²"));
    for cell in &cells {
        t.push(format!(
            "{:>16} {:>10.3}",
            format!(
                "{{{},{}}}",
                cell.train_source.label(),
                cell.test_source.label()
            ),
            cell.report.r2
        ));
    }
    t.push("paper ordering: {exec,exec} >= {120,120} > {120,S_hat} > {None,None}\n".into());

    // (c)+(d) Runtime accuracy with propagated S_hat.
    let rt_test_hats = SHatSource::Propagated.materialize(test, Some(&stack.system_model));
    let runtime_report = stack.be_model.evaluate(test, &rt_test_hats);
    t.push(format!(
        "(d) runtime (propagated S_hat) R² = {:.3}  (paper: 0.905)",
        runtime_report.r2
    ));
    t.push("\n(c) MAE per application [s]:".into());
    t.push(format!(
        "{:>10} {:>8} {:>10} {:>12}",
        "app", "n", "MAE", "median perf"
    ));
    for (app, r) in stack.be_model.evaluate_per_app(test, &rt_test_hats) {
        let med: Vec<f32> = r.pairs.iter().map(|(t, _)| *t).collect();
        t.push(format!(
            "{:>10} {:>8} {:>10.1} {:>12.1}",
            app,
            r.len(),
            r.mae,
            stats::median(&med)
        ));
    }
    t.push("\npaper: even the largest MAEs stay ~10% of the app's median runtime.".into());
    Ran
}

/// Fig. 14 — LC performance-model accuracy: MAE per store and the
/// actual-vs-predicted residuals.
pub(crate) fn fig14(ctx: &mut Ctx, t: &mut Vec<String>) -> Outcome {
    let stack = ctx.stack();
    let Some((_, test)) = &stack.lc_split else {
        t.push("not enough LC records at this corpus scale; raise ADRIAS_SCENARIOS".into());
        return Skipped;
    };
    let hats = SHatSource::Propagated.materialize(test, Some(&stack.system_model));
    let report = stack.lc_model.evaluate(test, &hats);
    t.push(format!(
        "(a) overall R² = {:.3}  (paper: 0.874), MAE = {:.3} ms over {} records\n",
        report.r2,
        report.mae,
        report.len()
    ));
    t.push(format!(
        "{:>12} {:>6} {:>10} {:>14}",
        "app", "n", "MAE [ms]", "median p99"
    ));
    for (app, r) in stack.lc_model.evaluate_per_app(test, &hats) {
        let med: Vec<f32> = r.pairs.iter().map(|(t, _)| *t).collect();
        t.push(format!(
            "{:>12} {:>6} {:>10.3} {:>14.2}",
            app,
            r.len(),
            r.mae,
            stats::median(&med)
        ));
    }
    let (truth, pred): (Vec<f32>, Vec<f32>) = report.pairs.iter().copied().unzip();
    t.push(format!(
        "\n(b) residual correlation (45° line fit): r = {:.3}",
        stats::pearson(&truth, &pred)
    ));
    Ran
}

/// Fig. 15 — generalization of the universal BE model:
///
/// * (a) leave-one-out validation: R² on each application when it is
///   excluded from training (paper: good for some apps, e.g. gbt ≈0.72;
///   poor for others ≈0.30 — motivating signature capture + retraining);
/// * (b) accuracy vs number of training samples for one application.
pub(crate) fn fig15(ctx: &mut Ctx, t: &mut Vec<String>) -> Outcome {
    let scale = ctx.scale;
    let stack = ctx.stack();
    let (train, test) = &stack.be_split;

    // Merge train+test: LOO re-splits by application.
    let all = {
        let sigs: Vec<AppSignature> = train
            .signatures()
            .iter()
            .map(|(name, rows)| AppSignature::new(name.clone(), rows.clone()))
            .collect();
        let mut records = train.records().to_vec();
        records.extend_from_slice(test.records());
        PerfDataset::new(records, &sigs)
    };

    let mut cfg = *stack.be_model.config();
    cfg.epochs = scale.loo_epochs(cfg.epochs);

    let apps: Vec<String> = {
        let mut names: Vec<String> = all.records().iter().map(|r| r.app.clone()).collect();
        names.sort();
        names.dedup();
        names
    };
    let app_refs: Vec<&str> = apps.iter().map(String::as_str).collect();
    t.push("(a) leave-one-out R² per excluded application:".into());
    t.push(format!("{:>10} {:>8} {:>10}", "app", "n", "LOO R²"));
    let cells = leave_one_out(
        &all,
        &app_refs,
        cfg,
        SHatSource::Actual120,
        Some(&stack.system_model),
    );
    let mut best = ("-".to_owned(), f32::NEG_INFINITY);
    let mut worst = ("-".to_owned(), f32::INFINITY);
    for c in &cells {
        if c.report.r2 > best.1 {
            best = (c.app.clone(), c.report.r2);
        }
        if c.report.r2 < worst.1 {
            worst = (c.app.clone(), c.report.r2);
        }
        t.push(format!(
            "{:>10} {:>8} {:>10.3}",
            c.app,
            c.report.len(),
            c.report.r2
        ));
    }
    t.push(format!(
        "\nmeasured: best {} ({:.2}), worst {} ({:.2}) — paper: 0.72 (gbt) vs 0.30;",
        best.0, best.1, worst.0, worst.1
    ));
    t.push("the spread confirms that unseen apps need signature capture + retraining.\n".into());

    // (b) accuracy vs training-set size.
    t.push("(b) accuracy vs number of training samples:".into());
    let sizes = [20usize, 40, 80, 160, 320, 640];
    let sweep = sample_count_sweep(
        train,
        test,
        &sizes,
        cfg,
        SHatSource::Actual120,
        Some(&stack.system_model),
    );
    t.push(format!("{:>10} {:>10}", "samples", "R²"));
    for (n, r) in &sweep {
        t.push(format!("{:>10} {:>10.3}", n, r.r2));
    }
    t.push("\npaper: accuracy saturates once enough samples are available.".into());
    Ran
}
