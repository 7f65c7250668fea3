//! Lightweight wall-clock benchmark harness.
//!
//! Replaces the external `criterion` dependency for the workspace's
//! micro-benchmarks: each benchmark is warmed up, then timed over a
//! fixed number of sample windows, and the median / p95 per-iteration
//! times are printed. No statistics engine, no plots — just numbers
//! that are comparable run-to-run on the same machine.
//!
//! Environment knobs: `ADRIAS_BENCH_SAMPLES` (default 30 windows) and
//! `ADRIAS_BENCH_WARMUP_MS` (default 200 ms per benchmark).
//!
//! A ratio of two benchmarks that must stay on one side of a number is
//! a [`Gate`]: [`Harness::gate`] records the value and its verdict, the
//! JSON report carries both, and [`Harness::failed_gates`] is what the
//! bench binary turns into its exit code.
//!
//! ```no_run
//! use adrias_core::bench::{black_box, Harness};
//!
//! let mut h = Harness::new("micro");
//! h.bench_function("sum_1k", |b| {
//!     b.iter(|| (0..1000u64).map(black_box).sum::<u64>())
//! });
//! ```

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Number of timed sample windows (`ADRIAS_BENCH_SAMPLES`, default 30).
fn sample_count() -> usize {
    std::env::var("ADRIAS_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
        .max(2)
}

/// Warm-up budget per benchmark (`ADRIAS_BENCH_WARMUP_MS`, default 200).
fn warmup_budget() -> Duration {
    Duration::from_millis(
        std::env::var("ADRIAS_BENCH_WARMUP_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200),
    )
}

/// Summary statistics of one benchmark, nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct BenchReport {
    /// Median over sample windows.
    pub median_ns: f64,
    /// 95th percentile over sample windows.
    pub p95_ns: f64,
    /// Total timed iterations.
    pub iterations: u64,
}

/// Passed to the measured closure; collects timing samples.
pub struct Bencher {
    samples_ns: Vec<f64>,
    iterations: u64,
}

impl Bencher {
    fn new() -> Self {
        Self {
            samples_ns: Vec::new(),
            iterations: 0,
        }
    }

    /// Times `routine` directly: warm-up, then `sample_count()` windows
    /// whose per-iteration cost is recorded. The routine's output is
    /// passed through [`black_box`] so it is never optimized away.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm-up while estimating the per-call cost.
        let budget = warmup_budget();
        let warm_start = Instant::now();
        let mut calls: u64 = 0;
        while warm_start.elapsed() < budget {
            black_box(routine());
            calls += 1;
        }
        let per_call = warm_start.elapsed().as_secs_f64() / calls.max(1) as f64;
        // Size each window to ≥ ~1 ms so timer resolution is negligible.
        let per_window = ((1e-3 / per_call.max(1e-9)) as u64).clamp(1, 1_000_000);
        for _ in 0..sample_count() {
            let t0 = Instant::now();
            for _ in 0..per_window {
                black_box(routine());
            }
            let elapsed = t0.elapsed().as_secs_f64();
            self.samples_ns.push(elapsed * 1e9 / per_window as f64);
            self.iterations += per_window;
        }
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement. Each window is a single call, so
    /// this suits routines that are ≥ microseconds.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        let budget = warmup_budget();
        let warm_start = Instant::now();
        while warm_start.elapsed() < budget {
            black_box(routine(setup()));
        }
        for _ in 0..sample_count() {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples_ns.push(t0.elapsed().as_secs_f64() * 1e9);
            self.iterations += 1;
        }
    }

    fn report(mut self) -> BenchReport {
        assert!(
            !self.samples_ns.is_empty(),
            "benchmark closure never called iter/iter_batched"
        );
        // Timing samples are elapsed durations and can never be NaN, so
        // a total order exists; total_cmp avoids a panicking unwrap.
        self.samples_ns.sort_by(f64::total_cmp);
        let n = self.samples_ns.len();
        let median_ns = self.samples_ns[n / 2];
        let p95_ns = self.samples_ns[((n as f64 * 0.95) as usize).min(n - 1)];
        BenchReport {
            median_ns,
            p95_ns,
            iterations: self.iterations,
        }
    }
}

/// Which side of a number a gated metric must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The metric may not exceed this.
    AtMost(f64),
    /// The metric may not fall below this.
    AtLeast(f64),
}

impl Bound {
    /// The comparison as written in a report, its number, and whether
    /// `value` satisfies it (a NaN satisfies neither).
    fn check(self, value: f64) -> (&'static str, f64, bool) {
        match self {
            Bound::AtMost(b) => ("<=", b, value <= b),
            Bound::AtLeast(b) => (">=", b, value >= b),
        }
    }
}

/// A derived metric and the bound a run must keep it within.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The derived metric's name in the report.
    pub metric: &'static str,
    /// The side of which number it must stay on.
    pub bound: Bound,
    /// A derived metric, recorded earlier, that must be non-zero for the
    /// bound to mean anything; at zero (or absent) the gate is skipped.
    pub only_if: Option<&'static str>,
}

impl Gate {
    /// A ceiling on `metric`.
    pub const fn at_most(metric: &'static str, bound: f64) -> Self {
        Self {
            metric,
            bound: Bound::AtMost(bound),
            only_if: None,
        }
    }

    /// A floor under `metric`.
    pub const fn at_least(metric: &'static str, bound: f64) -> Self {
        Self {
            metric,
            bound: Bound::AtLeast(bound),
            only_if: None,
        }
    }

    /// The same bound, binding only while the derived `flag` is non-zero.
    pub const fn only_if(self, flag: &'static str) -> Self {
        Self {
            only_if: Some(flag),
            ..self
        }
    }
}

/// A named group of benchmarks; prints one line per benchmark.
pub struct Harness {
    group: String,
    reports: Vec<(String, BenchReport)>,
    derived: Vec<(&'static str, f64)>,
    verdicts: Vec<(Gate, &'static str)>,
}

impl Harness {
    /// Creates a harness and prints the group header.
    pub fn new(group: &str) -> Self {
        println!("bench group: {group}");
        Self {
            group: group.to_owned(),
            reports: Vec::new(),
            derived: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// Runs one benchmark and prints its median / p95.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let mut b = Bencher::new();
        f(&mut b);
        let report = b.report();
        println!(
            "  {name:<40} median {:>12} p95 {:>12} ({} iters)",
            fmt_ns(report.median_ns),
            fmt_ns(report.p95_ns),
            report.iterations
        );
        self.reports.push((name.to_owned(), report));
        self
    }

    /// Records an externally measured median (e.g. from a whole-run
    /// stopwatch that the per-iteration [`Bencher`] machinery does not
    /// fit) so it lands in the JSON report next to the sampled sections.
    pub fn record_ns(&mut self, name: &str, median_ns: f64) -> &mut Self {
        println!("  {name:<40} median {:>12} (recorded)", fmt_ns(median_ns));
        self.reports.push((
            name.to_owned(),
            BenchReport {
                median_ns,
                p95_ns: median_ns,
                iterations: 1,
            },
        ));
        self
    }

    /// All collected reports, in execution order.
    pub fn reports(&self) -> &[(String, BenchReport)] {
        &self.reports
    }

    /// The group name.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Median nanoseconds of a benchmark by name, if it ran.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.reports
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.median_ns)
    }

    /// Records a scalar computed from the reports (a ratio, a flag) for
    /// the report's `"derived"` object.
    pub fn derive(&mut self, name: &'static str, value: f64) -> &mut Self {
        self.derived.push((name, value));
        self
    }

    /// Records `value` as the derived metric `gate` names and prints
    /// which side of the bound it fell on. A NaN fails either bound.
    pub fn gate(&mut self, gate: &Gate, value: f64) -> &mut Self {
        let on = |flag| self.derived.iter().any(|&(d, v)| d == flag && v != 0.0);
        let applies = gate.only_if.is_none_or(on);
        let (op, bound, holds) = gate.bound.check(value);
        let verdict = match (applies, holds) {
            (false, _) => "skipped",
            (true, true) => "pass",
            (true, false) => "fail",
        };
        println!(
            "  gate {:<34} {value:>10.3} {op} {bound}: {verdict}",
            gate.metric
        );
        self.verdicts.push((*gate, verdict));
        self.derive(gate.metric, value)
    }

    /// The gated metrics that fell on the wrong side of their bound.
    pub fn failed_gates(&self) -> Vec<&'static str> {
        let failed = self.verdicts.iter().filter(|(_, v)| *v == "fail");
        failed.map(|(gate, _)| gate.metric).collect()
    }

    /// Writes the collected reports as a small JSON document, e.g. for a
    /// CI artifact: the benchmarks, the `"derived"` scalars, and one
    /// `"gates"` row per gated metric with its bound and verdict.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let derived = &self.derived;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"group\": {},\n", json_string(&self.group)));
        s.push_str("  \"benches\": [\n");
        for (i, (name, r)) in self.reports.iter().enumerate() {
            let sep = if i + 1 == self.reports.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"name\": {}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \
                 \"iterations\": {}}}{sep}\n",
                json_string(name),
                r.median_ns,
                r.p95_ns,
                r.iterations
            ));
        }
        s.push_str("  ],\n  \"derived\": {");
        for (i, (name, value)) in derived.iter().enumerate() {
            let sep = if i + 1 == derived.len() { "" } else { ", " };
            s.push_str(&format!("{}: {value:.4}{sep}", json_string(name)));
        }
        s.push_str("},\n  \"gates\": [\n");
        for (i, (gate, verdict)) in self.verdicts.iter().enumerate() {
            let sep = if i + 1 == self.verdicts.len() {
                ""
            } else {
                ","
            };
            let (op, bound, _) = gate.bound.check(f64::NAN);
            s.push_str(&format!(
                "    {{\"metric\": {}, \"op\": \"{op}\", \"bound\": {bound}, \
                 \"verdict\": \"{verdict}\"}}{sep}\n",
                json_string(gate.metric),
            ));
        }
        s.push_str("  ]\n}\n");
        std::fs::write(path, s)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_env() {
        // Keep unit tests quick regardless of ambient configuration.
        std::env::set_var("ADRIAS_BENCH_SAMPLES", "3");
        std::env::set_var("ADRIAS_BENCH_WARMUP_MS", "1");
    }

    #[test]
    fn iter_produces_positive_timings() {
        fast_env();
        let mut h = Harness::new("test");
        h.bench_function("noop_sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let (_, r) = &h.reports()[0];
        assert!(r.median_ns > 0.0);
        assert!(r.p95_ns >= r.median_ns);
        assert!(r.iterations > 0);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        fast_env();
        let mut h = Harness::new("test");
        h.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u8; 1024],
                |v| v.iter().map(|&x| x as u64).sum::<u64>(),
            )
        });
        assert_eq!(h.reports().len(), 1);
    }

    #[test]
    fn write_json_round_trips_reports() {
        fast_env();
        let mut h = Harness::new("jsontest");
        h.bench_function("case", |b| b.iter(|| 1u64 + 1));
        let path = std::env::temp_dir().join("adrias_bench_write_json_test.json");
        h.derive("speedup_x", 2.0);
        h.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"group\": \"jsontest\""));
        assert!(text.contains("\"name\": \"case\""));
        assert!(text.contains("\"speedup_x\": 2.0000"));
        assert!(h.median_ns("case").is_some());
        assert!(h.median_ns("missing").is_none());
    }

    #[test]
    fn a_gate_fails_on_the_wrong_side_of_its_bound_and_only_when_it_applies() {
        let mut h = Harness::new("gatetest");
        h.derive("lane_on", 1.0).derive("lane_off", 0.0);
        h.gate(&Gate::at_most("under_x", 2.0), 1.5);
        h.gate(&Gate::at_most("over_x", 2.0), 2.5);
        h.gate(&Gate::at_least("slow_x", 50.0).only_if("lane_on"), 30.0);
        h.gate(&Gate::at_least("off_x", 50.0).only_if("lane_off"), 1.0);
        h.gate(&Gate::at_least("unset_x", 50.0).only_if("no_lane"), 1.0);
        h.gate(&Gate::at_most("nan_x", 2.0), f64::NAN);
        assert_eq!(h.failed_gates(), ["over_x", "slow_x", "nan_x"]);

        let path = std::env::temp_dir().join("adrias_bench_gate_test.json");
        h.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            text.contains("\"over_x\": 2.5000"),
            "a gated value is a derived value"
        );
        for row in [
            r#"{"metric": "under_x", "op": "<=", "bound": 2, "verdict": "pass"}"#,
            r#"{"metric": "slow_x", "op": ">=", "bound": 50, "verdict": "fail"}"#,
            r#"{"metric": "off_x", "op": ">=", "bound": 50, "verdict": "skipped"}"#,
        ] {
            assert!(text.contains(row), "{row} not in {text}");
        }
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(2e9).ends_with('s'));
    }
}
