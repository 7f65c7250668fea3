//! Observability demo: replay a scenario with full tracing, export the
//! structured logs, validate them, and print the human-readable report.
//!
//! ```sh
//! cargo run --release --example obs_report
//! ```
//!
//! Environment:
//!
//! * `ADRIAS_OBS_DIR` — output directory for the exports
//!   (`events.jsonl`, `decisions.jsonl`, `metrics.jsonl`, `trace.json`,
//!   `adaptation.jsonl`, `spans.jsonl`; default `obs_out`). Load
//!   `trace.json` in Perfetto or `chrome://tracing` to see the nested
//!   deployment timeline.
//! * `ADRIAS_OBS_SEED` — scenario seed (default `7`). Two runs with the
//!   same seed produce byte-identical exports.
//! * `ADRIAS_OBS_WALL` — set to `1` to switch on the engine
//!   self-profiler and additionally write `flame.folded`, a collapsed
//!   stack attributing host wall time to engine phases. Wall numbers
//!   are host-dependent by nature, so the flamegraph lives outside the
//!   byte-compared export set.

use std::path::Path;
use std::process::ExitCode;

use adrias::obs::{self, ObsConfig, Observer};
use adrias::scenarios::{train_stack, Replay, ScenarioSpec, StackOptions};
use adrias::sim::TestbedConfig;
use adrias::workloads::WorkloadCatalog;

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn validate_exports(paths: &obs::ExportPaths) -> Result<(), String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    obs::validate_jsonl_events(&read(&paths.events)?).map_err(|e| format!("events.jsonl: {e}"))?;
    obs::validate_jsonl_decisions(&read(&paths.decisions)?)
        .map_err(|e| format!("decisions.jsonl: {e}"))?;
    obs::validate_jsonl_metrics(&read(&paths.metrics)?)
        .map_err(|e| format!("metrics.jsonl: {e}"))?;
    obs::validate_chrome_trace(&read(&paths.trace)?).map_err(|e| format!("trace.json: {e}"))?;
    obs::validate_jsonl_adaptation(&read(&paths.adaptation)?)
        .map_err(|e| format!("adaptation.jsonl: {e}"))?;
    obs::validate_jsonl_spans(&read(&paths.spans)?).map_err(|e| format!("spans.jsonl: {e}"))?;
    Ok(())
}

fn main() -> ExitCode {
    let dir = std::env::var("ADRIAS_OBS_DIR").unwrap_or_else(|_| "obs_out".into());
    let seed: u64 = env_or("ADRIAS_OBS_SEED", 7);

    println!("=== Adrias observability report (seed {seed}) ===");
    // Which kernel lane this leg ran (16 = AVX-512, 8 = AVX2, 0 =
    // portable); the exports must not depend on it.
    println!("simd lanes: {}", adrias::nn::simd_lanes());
    println!("Training a quick model stack on simulated traces...\n");

    let catalog = WorkloadCatalog::paper();
    let stack = train_stack(&catalog, &StackOptions::quick());
    let mut policy = stack.policy(0.7, 5.0);

    let profile_wall = std::env::var("ADRIAS_OBS_WALL").as_deref() == Ok("1");
    let spec = ScenarioSpec::new(5.0, 30.0, 700.0, seed);
    let mut observer = Observer::new(ObsConfig {
        record_wall: profile_wall,
    });
    // The offline phase's training counters and epoch losses land in
    // the same registry as the run metrics.
    stack.record_obs(&mut observer);
    let replay = Replay {
        qos_p99_ms: Some(5.0),
        ..Replay::new(TestbedConfig::noiseless(), &catalog, spec)
    };
    let report = replay.run(&mut policy, &mut replay.observed(&mut observer));
    println!(
        "Scenario done: {} outcomes, {} audited decisions, {:.1} MB over the link.\n",
        report.outcomes.len(),
        observer.audit.len(),
        report.link_bytes / 1e6
    );

    let paths = match obs::write_all(&observer, Path::new(&dir)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("export failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_exports(&paths) {
        eprintln!("export validation failed: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "Exports written and validated under `{dir}/`:\n  events.jsonl decisions.jsonl metrics.jsonl trace.json adaptation.jsonl spans.jsonl\n"
    );
    if profile_wall {
        match obs::write_flamegraph(&observer, Path::new(&dir)) {
            Ok(path) => println!(
                "Self-profiler flamegraph (collapsed stacks): {}\n",
                path.display()
            ),
            Err(e) => {
                eprintln!("flamegraph export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    print!("{}", obs::render_report(&observer));
    ExitCode::SUCCESS
}
