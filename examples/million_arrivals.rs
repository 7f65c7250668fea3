//! One million Poisson arrivals through the event-heap engine, with a
//! self-asserted throughput floor and memory ceiling — the CI smoke for
//! the discrete-event engine.
//!
//! ```sh
//! cargo run --release --example million_arrivals
//! ```
//!
//! The stream path holds at most one pending open-loop arrival in the
//! heap, so the engine's working state — heap, testbed, Watcher ring —
//! is O(resident apps) however many arrivals the generator emits. The
//! report is not: `RunReport::outcomes` keeps one `AppOutcome` (64 B)
//! per completed arrival and the engine one `decided` byte per
//! admission, so a run's memory grows by about 65 B per arrival (more
//! while a vector doubles). The example prints the process's peak
//! resident set (`VmHWM`) and that peak's growth over the run per
//! arrival, and fails when the growth passes
//! [`CEILING_BYTES_PER_ARRIVAL`] — a wider outcome record, or anything
//! else kept per arrival, trips it. A second, much smaller observed leg
//! runs when `ADRIAS_OBS_DIR` is set and drops the full JSONL/Chrome
//! trace exports there (the event-engine trace artifact CI uploads).
//!
//! Environment knobs:
//!
//! * `ADRIAS_ARRIVALS` — target arrival count (default 1_000_000);
//! * `ADRIAS_OBS_DIR` — when set, export an observed 30 s leg there.

use std::time::Instant;

use adrias::obs::export::write_all;
use adrias::obs::Observer;
use adrias::orchestrator::engine::{
    run_stream_hooked, EngineConfig, GeneratedStream, ScheduledArrival,
};
use adrias::orchestrator::{ObservedRun, RoundRobinPolicy};
use adrias::sim::TestbedConfig;
use adrias::workloads::{spark, PoissonSource};

/// The end-to-end floor: arrivals through sim stepping must sustain at
/// least this many placement decisions per wall-clock second.
const FLOOR_DECISIONS_PER_SEC: f64 = 1e5;

/// Ceiling on the growth of the peak resident set over the run, per
/// arrival. A million arrivals read 70.3 B with the 64-byte
/// `AppOutcome` (the outcome vector's capacity is 2^20, 5 % over the
/// count) and 90 B with an 80-byte one.
const CEILING_BYTES_PER_ARRIVAL: f64 = 76.0;

/// Below this many arrivals the testbed's and heap's fixed set-up, not
/// the per-arrival records, decides the growth, so the ceiling is not
/// asserted.
const CEILING_MIN_ARRIVALS: u64 = 250_000;

/// The process's peak resident set (`VmHWM`), bytes.
fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024.0
}

fn main() {
    let target: u64 = std::env::var("ADRIAS_ARRIVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    // λ = 2000/s keeps ~2000 apps resident at 1 s per job: dense enough
    // that every simulated second does real contention work.
    let rate_per_s = 2000.0;
    let horizon_s = target as f64 / rate_per_s;
    println!("=== million arrivals ===");
    println!("Poisson λ = {rate_per_s}/s over {horizon_s:.0} s (~{target} arrivals)\n");

    let app = spark::by_name("lr").expect("catalog app");
    let source = PoissonSource::new(rate_per_s, horizon_s, 7);
    let mut stream = GeneratedStream::new(source, |_, t| {
        ScheduledArrival::new(t, app.clone()).with_duration(1.0)
    });
    let mut policy = RoundRobinPolicy::new();
    let peak_before = peak_rss_bytes();
    let t0 = Instant::now();
    let report = run_stream_hooked(
        TestbedConfig::paper(),
        EngineConfig::default(),
        &mut stream,
        &[],
        &mut policy,
        &mut (),
    );
    let elapsed = t0.elapsed().as_secs_f64();
    let peak_after = peak_rss_bytes();
    let issued = stream.issued();
    let rate = issued as f64 / elapsed;
    let bytes_per_arrival = (peak_after - peak_before) / issued.max(1) as f64;

    println!("arrivals issued:    {issued}");
    println!("completed:          {}", report.outcomes.len());
    println!("unfinished:         {}", report.unfinished);
    println!("simulated seconds:  {:.0}", report.end_time_s);
    println!("wall seconds:       {elapsed:.2}");
    println!("decisions/s:        {rate:.0}");
    println!(
        "VmHWM:              {:.1} MiB",
        peak_after / (1024.0 * 1024.0)
    );
    println!("bytes per arrival:  {bytes_per_arrival:.1} (VmHWM growth over the run)");
    assert_eq!(report.unfinished, 0, "arrivals left behind");
    assert_eq!(report.outcomes.len() as u64, issued);
    assert!(
        rate >= FLOOR_DECISIONS_PER_SEC,
        "event engine fell below the {FLOOR_DECISIONS_PER_SEC:.0}/s floor: {rate:.0}/s"
    );
    println!("\nOK: ≥ {FLOOR_DECISIONS_PER_SEC:.0} decisions/s end-to-end");
    if issued >= CEILING_MIN_ARRIVALS {
        assert!(
            bytes_per_arrival <= CEILING_BYTES_PER_ARRIVAL,
            "the run kept {bytes_per_arrival:.1} B per arrival, over the \
             {CEILING_BYTES_PER_ARRIVAL} B ceiling"
        );
        println!("OK: ≤ {CEILING_BYTES_PER_ARRIVAL} B of peak memory per arrival");
    } else {
        println!("(memory ceiling not asserted below {CEILING_MIN_ARRIVALS} arrivals)");
    }

    if let Ok(dir) = std::env::var("ADRIAS_OBS_DIR") {
        // A short observed leg (10 s, ~20 k decisions) — small enough
        // that the full audit trail and trace stay readable as a CI
        // artifact.
        let source = PoissonSource::new(rate_per_s, 10.0, 7);
        let mut stream = GeneratedStream::new(source, |_, t| {
            ScheduledArrival::new(t, app.clone()).with_duration(1.0)
        });
        let mut policy = RoundRobinPolicy::new();
        let mut obs = Observer::default();
        let mut hooks = ObservedRun::with_qos(&mut obs, None);
        run_stream_hooked(
            TestbedConfig::paper(),
            EngineConfig::default(),
            &mut stream,
            &[],
            &mut policy,
            &mut hooks,
        );
        let paths = write_all(&obs, std::path::Path::new(&dir)).expect("export obs");
        println!("observed 10 s leg exported to {}", paths.trace.display());
    }
}
