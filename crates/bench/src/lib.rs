//! Shared support for the per-figure/table benchmark harnesses.
//!
//! Every table and figure from the paper's evaluation has its own
//! `harness = false` bench target under `benches/`; they print the
//! series the paper reports next to the values this reproduction
//! measures. This library holds the shared setup (trained stack,
//! environment-variable scaling, formatting helpers).
//!
//! Scaling knobs (environment variables):
//!
//! * `ADRIAS_SCENARIOS` — number of trace-collection scenarios
//!   (default 10; the paper uses 72);
//! * `ADRIAS_DURATION` — scenario duration in seconds (default 1500;
//!   the paper uses 3600);
//! * `ADRIAS_EVAL_SCENARIOS` — scenarios per policy in the
//!   orchestration comparisons (default 6);
//! * `ADRIAS_THREADS` — worker threads (default: available cores).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adrias_scenarios::{scaled_corpus, train_stack, ScenarioSpec, StackOptions, TrainedStack};
use adrias_workloads::WorkloadCatalog;

/// Reads a `usize` environment knob with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an `f64` environment knob with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker-thread count for parallel scenario execution.
pub fn threads() -> usize {
    env_usize(
        "ADRIAS_THREADS",
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    )
}

/// The bench-scale stack options (env-scalable).
pub fn bench_stack_options() -> StackOptions {
    let n = env_usize("ADRIAS_SCENARIOS", 10);
    let duration = env_f64("ADRIAS_DURATION", 1500.0);
    StackOptions {
        corpus: scaled_corpus(n, duration),
        threads: threads(),
        ..StackOptions::default()
    }
}

/// Trains the full Adrias stack at bench scale and reports how long it
/// took.
pub fn bench_stack() -> TrainedStack {
    let opts = bench_stack_options();
    eprintln!(
        "[setup] training Adrias stack: {} scenarios x {:.0}s, {} threads ...",
        opts.corpus.len(),
        opts.corpus.first().map_or(0.0, |s| s.duration_s),
        opts.threads
    );
    let start = std::time::Instant::now();
    let stack = train_stack(&WorkloadCatalog::paper(), &opts);
    eprintln!(
        "[setup] stack ready in {:.1}s ({} BE / {} LC test records)",
        start.elapsed().as_secs_f64(),
        stack.be_split.1.len(),
        stack.lc_split.as_ref().map_or(0, |(_, t)| t.len()),
    );
    stack
}

/// The evaluation corpus for orchestration comparisons.
pub fn eval_specs() -> Vec<ScenarioSpec> {
    let n = env_usize("ADRIAS_EVAL_SCENARIOS", 6);
    let duration = env_f64("ADRIAS_DURATION", 1500.0);
    (0..n)
        .map(|i| {
            let class = i % 9;
            ScenarioSpec::new(5.0, 20.0 + 5.0 * class as f64, duration, 0xEBA1 + i as u64)
        })
        .collect()
}

/// Prints a bench banner.
pub fn banner(id: &str, title: &str, paper_summary: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_summary}");
    println!("================================================================");
}

/// Formats a distribution as `median [p25, p75]`.
pub fn dist_summary(xs: &[f32]) -> String {
    if xs.is_empty() {
        return "-".to_owned();
    }
    format!(
        "{:.1} [{:.1}, {:.1}]",
        adrias_telemetry::stats::median(xs),
        adrias_telemetry::stats::percentile(xs, 25.0),
        adrias_telemetry::stats::percentile(xs, 75.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_fall_back_to_defaults() {
        assert_eq!(env_usize("ADRIAS_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_f64("ADRIAS_DOES_NOT_EXIST", 1.5), 1.5);
    }

    #[test]
    fn eval_specs_have_unique_seeds() {
        let specs = eval_specs();
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), specs.len());
    }

    #[test]
    fn dist_summary_handles_empty() {
        assert_eq!(dist_summary(&[]), "-");
        assert!(dist_summary(&[1.0, 2.0, 3.0]).contains('['));
    }
}
