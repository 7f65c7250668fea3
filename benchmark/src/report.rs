//! Run arguments and results, and how a result is printed and stored.

use std::path::{Path, PathBuf};

use adrias_obs::json::{escape, num_f64};

use crate::host::{Elapsed, Fingerprint};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::spec::Workload;

/// What one run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Master seed; every input derives from it (see `Seeds::derive`).
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// `false`: untraced reps, end-to-end metrics. `true`: fewer untraced
    /// reps plus the traced pass, per-layer metrics.
    pub trace: bool,
    /// Run at 1/50 size.
    pub smoke: bool,
}

/// The correctness checks that failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.0.push(what);
    }

    /// The failures so far.
    pub fn failures(&self) -> &[String] {
        &self.0
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Metric values by catalogue name.
    pub values: Values,
    /// Operations attempted over every pass: arrivals issued, or models
    /// trained on `train_offline`.
    pub attempted: u64,
    /// Operations failed: arrivals unfinished, or models left untrained
    /// or with a non-finite loss.
    pub failed: u64,
    /// Failed correctness checks; empty means correct.
    pub checks: Checks,
    /// Outcome digest (loss-trace digest on `train_offline`), identical
    /// across every pass of the run.
    pub digest: u64,
    /// Each untraced timed rep (plain legs on `mixed_steady`), on both
    /// clocks.
    pub reps: Vec<Elapsed>,
    /// Segments a rep is cut into (1 on `train_offline`, which cannot be
    /// cut from outside).
    pub segments: usize,
    /// Span sample of the traced pass, one JSON object per line.
    pub spans: Vec<String>,
    /// `true` when the kernel refused the peak-RSS reset after set-up.
    pub peak_rss_includes_setup: bool,
}

/// The host-noise canary around one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Canary {
    /// Spin-loop wall before the workload, ms.
    pub before_ms: f64,
    /// Spin-loop wall after the workload, ms.
    pub after_ms: f64,
}

/// `(name, unit, value)` of every metric the run's mode reports, in
/// catalogue order. A per-layer metric the workload does not have reads
/// 0.
///
/// # Panics
///
/// Panics if an untraced run left an end-to-end metric unset.
pub fn reported(args: &RunArgs, values: &Values) -> Vec<(&'static str, &'static str, f64)> {
    if args.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, values.get(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = values.get(m.name);
                (m.name, m.unit, v.expect("every end-to-end metric is set"))
            })
            .collect()
    }
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                escape(name),
                num_f64(*value),
                escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(args: &RunArgs, result: &RunResult) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.checks.failures().is_empty(),
        result.attempted,
        result.failed,
        metrics_json(&reported(args, &result.values))
    )
}

/// Prints every reported metric by name with its unit, then the digest
/// and any failed check.
pub fn print_human(args: &RunArgs, result: &RunResult, canary: &Canary, noisy: bool) {
    println!(
        "workload {} seed {} trace {}: {} untraced reps of {} segment(s), {:.1} % of their wall-clock off the CPU",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        result.reps.len(),
        result.segments,
        off_cpu_frac(&result.reps) * 100.0
    );
    for (name, unit, value) in reported(args, &result.values) {
        println!("  {name:<52} {value:>16.6} {unit}");
    }
    println!("  digest {:#018x}", result.digest);
    println!(
        "  canary {:.1} ms before, {:.1} ms after{}",
        canary.before_ms,
        canary.after_ms,
        if noisy { "  NOISY" } else { "" }
    );
    if result.peak_rss_includes_setup {
        println!("  peak RSS reset refused: peak_rss_mb includes set-up");
    }
    for failure in result.checks.failures() {
        println!("  FAILED: {failure}");
    }
}

/// Share of the reps' wall-clock the measuring thread was kept off the
/// CPU: what the hypervisor and other tenants' time slices took.
fn off_cpu_frac(reps: &[Elapsed]) -> f64 {
    let wall: f64 = reps.iter().map(|t| t.wall_s).sum();
    let on_cpu: f64 = reps.iter().map(|t| t.on_cpu_s).sum();
    1.0 - on_cpu / wall
}

/// The directory result files go to: `out/` beside this crate's
/// manifest.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    Path::new(&manifest_dir).join("out")
}

/// The result file of `workload` in one mode.
pub fn result_path(workload: Workload, trace: bool) -> PathBuf {
    let mode = if trace { "layers" } else { "e2e" };
    out_dir().join(format!("{}.{mode}.json", workload.name()))
}

/// Writes the result file (and, for a traced run, the span sample
/// `<workload>.trace.jsonl`) under [`out_dir`].
pub fn write_files(
    args: &RunArgs,
    result: &RunResult,
    canary: &Canary,
    noisy: bool,
    fingerprint: &Fingerprint,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    let series = |f: fn(&Elapsed) -> f64| -> String {
        let values: Vec<String> = result.reps.iter().map(|t| num_f64(f(t))).collect();
        values.join(",")
    };
    let failures: Vec<String> = result.checks.failures().iter().map(|f| escape(f)).collect();
    let json = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\n\
         \"fingerprint\":{},\n\
         \"sizes\":{},\n\
         \"canary\":{{\"before_ms\":{},\"after_ms\":{},\"noisy\":{}}},\n\
         \"correct\":{},\"failed_checks\":[{}],\"attempted\":{},\"failed\":{},\n\
         \"digest\":\"{:#018x}\",\"segments\":{},\"rep_wall_s\":[{}],\"rep_on_cpu_s\":[{}],\"off_cpu_frac\":{},\n\
         \"peak_rss_includes_setup\":{},\n\
         \"metrics\":{}}}\n",
        escape(args.workload.name()),
        args.seed,
        num_f64(args.seconds),
        args.trace,
        args.smoke,
        fingerprint.to_json(),
        crate::spec::sizes_json(args.workload, args.smoke),
        num_f64(canary.before_ms),
        num_f64(canary.after_ms),
        noisy,
        failures.is_empty(),
        failures.join(","),
        result.attempted,
        result.failed,
        result.digest,
        result.segments,
        series(|t| t.wall_s),
        series(|t| t.on_cpu_s),
        num_f64(off_cpu_frac(&result.reps)),
        result.peak_rss_includes_setup,
        metrics_json(&reported(args, &result.values))
    );
    std::fs::write(result_path(args.workload, args.trace), json)?;
    if args.trace {
        let mut lines = result.spans.join("\n");
        lines.push('\n');
        std::fs::write(
            out_dir().join(format!("{}.trace.jsonl", args.workload.name())),
            lines,
        )?;
    }
    Ok(())
}
