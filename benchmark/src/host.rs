//! What the result files record about the host: a fingerprint, a noise
//! canary, and the process's peak resident set.

use std::process::Command;
use std::time::Instant;

use adrias_core::rng::{RngCore, SeedableRng, Xoshiro256pp};
use adrias_obs::json::escape;

/// Where and with what a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Available cores.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`; `"unknown"` outside a git checkout.
    pub git_commit: String,
    /// Whether the `nn` kernels dispatch to AVX2.
    pub simd_active: bool,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Fingerprint {
    /// Reads the fingerprint of this host and checkout.
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let unknown = || "unknown".to_owned();
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git_commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(unknown),
            simd_active: adrias_nn::simd_active(),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_commit\":{},\"simd_active\":{}}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.rustc),
            escape(&self.git_commit),
            self.simd_active
        )
    }
}

/// Nanoseconds the calling thread has spent on a CPU, from the scheduler's
/// own accounting. `None` where the kernel does not expose it.
fn thread_on_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Times a single-threaded region on two clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
    on_cpu_ns: Option<u64>,
}

/// What a [`Stopwatch`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Wall-clock seconds net of the time the thread was kept off the
    /// CPU (hypervisor steal, other tenants' time slices): what the
    /// region takes on an idle host. The timed regions are compute-bound
    /// and single-threaded, so nothing else is subtracted. The kernel's
    /// counter advances in scheduler ticks (4 ms here), so this is for
    /// whole seconds — set-up — and never for a segment. Falls back to
    /// `wall_s` where the kernel does not expose per-thread run time.
    pub on_cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self {
            on_cpu_ns: thread_on_cpu_ns(),
            started: Instant::now(),
        }
    }

    /// Reads both clocks.
    pub fn stop(self) -> Elapsed {
        let wall_s = self.started.elapsed().as_secs_f64();
        let on_cpu_s = match (self.on_cpu_ns, thread_on_cpu_ns()) {
            (Some(t0), Some(t1)) => (t1 - t0) as f64 / 1e9,
            _ => wall_s,
        };
        Elapsed { wall_s, on_cpu_s }
    }
}

/// Seconds between consecutive instants of `start`, `laps…`, `end`.
pub fn segments_s(start: Instant, laps: &[Instant], end: Instant) -> Vec<f64> {
    let mut from = start;
    let mut segments = Vec::with_capacity(laps.len() + 1);
    for to in laps.iter().copied().chain([end]) {
        segments.push(to.duration_since(from).as_secs_f64());
        from = to;
    }
    segments
}

/// Runs `set_up` and returns its product with its seconds on the CPU.
///
/// A traced run sets up once. An untraced run sets up at least three
/// times, and until 1.5 s have gone so that a cheap set-up is repeated
/// more often, and reports the fastest (see [`crate::stats::fastest`]);
/// the last product is the one the run goes on with.
pub fn repeat_setup<T>(traced: bool, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut seconds = Vec::new();
    loop {
        let watch = Stopwatch::start();
        let product = set_up();
        seconds.push(watch.stop().on_cpu_s);
        let enough = seconds.len() >= 3 && started.elapsed().as_secs_f64() >= 1.5;
        if traced || enough {
            return (product, crate::stats::fastest(&seconds));
        }
    }
}

/// Iterations of the canary spin loop: about 200 ms on the reference
/// host.
const CANARY_ITERS: u64 = 120_000_000;

/// Times a fixed xoshiro spin loop, ms. Two canaries that differ by more
/// than [`CANARY_NOISY_FRAC`] mean the host's speed changed under the
/// workload between them.
pub fn canary_ms() -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(0xCA7A);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..CANARY_ITERS {
        acc ^= rng.next_u64();
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Canary disagreement above which a result is marked `noisy`.
pub const CANARY_NOISY_FRAC: f64 = 0.05;

/// `true` when two canary timings differ by more than the threshold.
pub fn canaries_disagree(before_ms: f64, after_ms: f64) -> bool {
    (after_ms - before_ms).abs() / before_ms.min(after_ms) > CANARY_NOISY_FRAC
}

/// Resets the kernel's peak-RSS high-water mark of this process so that
/// [`peak_rss_mib`] covers only what follows. Returns `false` when the
/// kernel refuses, in which case the peak includes everything so far.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`), MiB.
///
/// A run reads it after its first timed rep. Later reps do the same work
/// again and only add what the allocator fragments, by an amount that
/// grows with the rep count — which the host's speed decides, not the
/// program (`burst_dense`: 37–39 MiB after one rep, 43–51 after five).
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
