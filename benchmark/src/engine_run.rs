//! The three engine workloads: set-up (train `bench_stack`, warm up),
//! untraced timed reps, and the traced pass with its budget closure.

use std::time::Instant;

use adrias_obs::{export, ObsConfig, Observer};
use adrias_orchestrator::{
    run_stream_hooked, EngineConfig, EngineObserver, ObservedRun, RunReport,
};
use adrias_scenarios::{train_stack, TrainedStack};
use adrias_sim::TestbedConfig;
use adrias_workloads::{WorkloadCatalog, WorkloadClass};

use crate::host::{self, Elapsed, Stopwatch};
use crate::inputs::{outcome_digest, with_stream, Issued};
use crate::metrics::Values;
use crate::probes;
use crate::report::{Checks, RunArgs, RunResult};
use crate::spec::{
    bench_stack, engine_size, EngineSize, Seeds, StackSize, Workload, BETA, POLICY_SEED,
    QOS_P99_MS, SMOKE_DIVISOR, WARMUP_DIVISOR,
};
use crate::stats::{
    median, percentile_sorted, Budget, SegmentFloor, UNATTRIBUTED_MIN_FRAC, UNATTRIBUTED_WARN_FRAC,
};
use crate::wrappers::{ObserverCounts, Span, TimedObserver, TimedPolicy, TimedStream, TraceClock};

/// Everything one engine pass needs besides the trained stack.
#[derive(Clone, Copy)]
struct Ctx {
    workload: Workload,
    size: EngineSize,
    seeds: Seeds,
    engine: EngineConfig,
}

/// One finished engine pass.
struct Pass {
    time: Elapsed,
    /// Wall-clock seconds of each segment of the pass (see
    /// `inputs::Issued::laps`); they sum to `time.wall_s`.
    segments_s: Vec<f64>,
    issued: u64,
    report: RunReport,
}

/// What the stopwatches around one `run_stream_hooked` call read.
struct Timing {
    start: Instant,
    time: Elapsed,
    end: Instant,
}

impl Timing {
    /// Runs `f` under both stopwatches.
    fn of<R>(f: impl FnOnce() -> R) -> (Self, R) {
        let start = Instant::now();
        let watch = Stopwatch::start();
        let r = f();
        let time = watch.stop();
        let end = Instant::now();
        (Self { start, time, end }, r)
    }

    fn into_pass(self, issued: Issued, report: RunReport) -> Pass {
        Pass {
            time: self.time,
            segments_s: host::segments_s(self.start, &issued.laps, self.end),
            issued: issued.arrivals,
            report,
        }
    }
}

/// Runs the workload once under a fresh policy with observer `obs`.
fn pass<O: EngineObserver>(ctx: &Ctx, stack: &TrainedStack, obs: &mut O) -> Pass {
    let mut policy = stack.policy(BETA, QOS_P99_MS);
    let ((timing, report), issued) = with_stream(ctx.workload, ctx.size, &ctx.seeds, |stream| {
        Timing::of(|| {
            run_stream_hooked(
                TestbedConfig::paper(),
                ctx.engine,
                stream,
                &[],
                &mut policy,
                obs,
            )
        })
    });
    timing.into_pass(issued, report)
}

/// What the wrappers of one traced pass collected.
struct Traced {
    pass: Pass,
    arrival_ns: u64,
    arrival_calls: u64,
    latencies_ns: Vec<u32>,
    stamp_hits: u64,
    stamp_misses: u64,
    observer: ObserverCounts,
    spans: Vec<Span>,
}

/// Runs the workload once with every wrapper attached around `inner`.
fn traced_pass<O: EngineObserver>(
    ctx: &Ctx,
    stack: &TrainedStack,
    inner: O,
    time_hooks: bool,
) -> Traced {
    let mut policy = stack.policy(BETA, QOS_P99_MS);
    let clock = TraceClock::start();
    let mut timed_policy = TimedPolicy::new(&mut policy, &clock);
    let mut timed_obs = TimedObserver::new(inner, &clock, time_hooks);
    let ((timing, report, arrival_ns, arrival_calls, mut spans), issued) =
        with_stream(ctx.workload, ctx.size, &ctx.seeds, |stream| {
            let mut timed_stream = TimedStream::new(stream, &clock);
            let (timing, report) = Timing::of(|| {
                run_stream_hooked(
                    TestbedConfig::paper(),
                    ctx.engine,
                    &mut timed_stream,
                    &[],
                    &mut timed_policy,
                    &mut timed_obs,
                )
            });
            (
                timing,
                report,
                timed_stream.ns,
                timed_stream.calls,
                timed_stream.spans,
            )
        });
    spans.append(&mut timed_policy.spans);
    spans.append(&mut timed_obs.spans);
    spans.sort_by_key(|s| (s.start_ns, s.kind as u8));
    Traced {
        pass: timing.into_pass(issued, report),
        arrival_ns,
        arrival_calls,
        latencies_ns: timed_policy.latencies_ns,
        stamp_hits: timed_policy.stamp_hits,
        stamp_misses: timed_policy.stamp_misses,
        observer: timed_obs.counts,
        spans,
    }
}

/// Renders and validates all six export streams in memory, three times;
/// returns the median `(render_s, validate_s)` and the bytes rendered.
fn time_exports(obs: &Observer, checks: &mut Checks) -> (f64, f64, usize) {
    let mut render_s = Vec::new();
    let mut validate_s = Vec::new();
    let mut bytes = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let events = export::to_jsonl_events(obs);
        let decisions = export::to_jsonl_decisions(obs);
        let metrics = export::to_jsonl_metrics(obs);
        let spans = export::to_jsonl_spans(obs);
        let adaptation = export::to_jsonl_adaptation(obs);
        let chrome = export::to_chrome_trace(obs);
        render_s.push(t0.elapsed().as_secs_f64());
        bytes = events.len()
            + decisions.len()
            + metrics.len()
            + spans.len()
            + adaptation.len()
            + chrome.len();
        let t0 = Instant::now();
        let results = [
            ("events", adrias_obs::validate_jsonl_events(&events)),
            (
                "decisions",
                adrias_obs::validate_jsonl_decisions(&decisions),
            ),
            ("metrics", adrias_obs::validate_jsonl_metrics(&metrics)),
            ("spans", adrias_obs::validate_jsonl_spans(&spans)),
            (
                "adaptation",
                adrias_obs::validate_jsonl_adaptation(&adaptation),
            ),
            ("chrome_trace", adrias_obs::validate_chrome_trace(&chrome)),
        ];
        validate_s.push(t0.elapsed().as_secs_f64());
        for (name, result) in results {
            if let Err(e) = result {
                checks.fail(format!("export {name} fails its validator: {e}"));
            }
        }
    }
    (median(&render_s), median(&validate_s), bytes)
}

/// Mean slowdown of policy-decided BE outcomes, offload fraction, and
/// the share of policy-decided LC outcomes over the QoS limit.
fn sim_stats(report: &RunReport) -> (f64, f64, f64) {
    let mean = |xs: Vec<f64>| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let be_slowdown = mean(
        report
            .decided_of_class(WorkloadClass::BestEffort)
            .map(|o| f64::from(o.mean_slowdown))
            .collect(),
    );
    let lc_violations = mean(
        report
            .decided_of_class(WorkloadClass::LatencyCritical)
            .map(|o| f64::from(u8::from(o.p99_ms.is_some_and(|p| p > QOS_P99_MS))))
            .collect(),
    );
    (
        be_slowdown,
        f64::from(report.offload_fraction()),
        lc_violations,
    )
}

/// The three ways a run makes a pass.
#[derive(Clone, Copy)]
enum Leg {
    /// Bare stream, bare policy, `()` observer.
    Plain,
    /// Bare stream and policy under `ObservedRun`.
    Observed,
    /// Every wrapper attached.
    Traced,
}

/// The passes of one run.
#[derive(Default)]
struct Reps {
    /// Outcome digest of the first pass; every later pass must match.
    digest: Option<u64>,
    /// Plain legs on both whole-pass clocks, for the result file.
    plain: Vec<Elapsed>,
    /// Quiet-host time of a pass of each [`Leg`], by `leg as usize`.
    floors: [SegmentFloor; 3],
    /// Simulated seconds and arrivals of a plain rep: the same in every
    /// rep of a seed.
    sim_s: f64,
    decisions: u64,
    /// Simulated statistics of the latest plain rep (see [`sim_stats`]).
    sim_stats: (f64, f64, f64),
    /// [`host::peak_rss_mib`] after the first plain rep.
    peak_rss_mb: f64,
}

impl Reps {
    /// Folds one pass into the run's failure counts and correctness
    /// checks.
    fn account(&mut self, pass: &Pass, leg: Leg, result: &mut RunResult) {
        let what = match leg {
            Leg::Plain => "plain rep",
            Leg::Observed => "observed rep",
            Leg::Traced => "traced pass",
        };
        result.attempted += pass.issued;
        result.failed += pass.report.unfinished as u64;
        let checks = &mut result.checks;
        if pass.report.unfinished != 0 {
            checks.fail(format!("{what}: {} unfinished", pass.report.unfinished));
        }
        if pass.report.outcomes.len() as u64 != pass.issued {
            checks.fail(format!(
                "{what}: {} outcomes for {} arrivals issued",
                pass.report.outcomes.len(),
                pass.issued
            ));
        }
        let d = outcome_digest(&pass.report);
        if *self.digest.get_or_insert(d) != d {
            checks.fail(format!(
                "{what}: outcome digest {d:#018x} differs from the first pass"
            ));
        }
        if !self.floors[leg as usize].fold(&pass.segments_s) {
            checks.fail(format!(
                "{what}: {} segments, not as many as the {what} before",
                pass.segments_s.len()
            ));
        }
    }

    fn floor_s(&self, leg: Leg) -> f64 {
        self.floors[leg as usize].total_s()
    }

    fn plain(&mut self, ctx: &Ctx, stack: &TrainedStack, result: &mut RunResult) {
        let p = pass(ctx, stack, &mut ());
        if self.plain.is_empty() {
            self.peak_rss_mb = host::peak_rss_mib();
        }
        self.account(&p, Leg::Plain, result);
        self.plain.push(p.time);
        self.sim_s = p.report.end_time_s;
        self.decisions = p.issued;
        self.sim_stats = sim_stats(&p.report);
    }

    fn observed(&mut self, ctx: &Ctx, stack: &TrainedStack, result: &mut RunResult) {
        // The full observability stack, as `run_schedule_observed`
        // attaches it.
        let mut obs = Observer::new(ObsConfig::default());
        let hooks = &mut ObservedRun::with_qos(&mut obs, ctx.engine.qos_p99_ms);
        let p = pass(ctx, stack, hooks);
        self.account(&p, Leg::Observed, result);
    }
}

/// Runs one engine workload as `args` asks.
pub fn run(args: &RunArgs) -> RunResult {
    let divisor = if args.smoke { SMOKE_DIVISOR } else { 1 };
    let seeds = Seeds::of_run(args.seed);
    let ctx = Ctx {
        workload: args.workload,
        size: engine_size(args.workload, divisor),
        seeds,
        engine: EngineConfig {
            qos_p99_ms: Some(QOS_P99_MS),
            seed: seeds.engine,
            ..EngineConfig::default()
        },
    };
    let warmup = Ctx {
        size: engine_size(args.workload, divisor * WARMUP_DIVISOR),
        ..ctx
    };
    let stack_opts = bench_stack(&Seeds::derive(POLICY_SEED), StackSize::of_run(args.smoke));
    let mut result = RunResult::default();
    let mut values = Values::default();

    // Set-up: build inputs, train the stack, warm up on a 1/20 prefix.
    let (mut stack, setup_s) = host::repeat_setup(args.trace, || {
        let trained = train_stack(&WorkloadCatalog::paper(), &stack_opts);
        pass(&warmup, &trained, &mut ());
        trained
    });
    result.peak_rss_includes_setup = !host::reset_peak_rss();

    // Untraced reps. `mixed_steady` traced runs interleave plain and
    // observed legs, alternating which goes first.
    let pairs = args.trace && args.workload == Workload::MixedSteady;
    let (budget_s, min_reps) = if args.trace {
        (args.seconds / 2.0, 2)
    } else {
        (args.seconds, 3)
    };
    let mut reps = Reps::default();
    let started = Instant::now();
    while reps.plain.len() < min_reps || started.elapsed().as_secs_f64() < budget_s {
        if !pairs {
            reps.plain(&ctx, &stack, &mut result);
        } else if reps.plain.len() % 2 == 0 {
            reps.plain(&ctx, &stack, &mut result);
            reps.observed(&ctx, &stack, &mut result);
        } else {
            reps.observed(&ctx, &stack, &mut result);
            reps.plain(&ctx, &stack, &mut result);
        }
    }
    let run_wall_s = reps.floor_s(Leg::Plain);
    result.reps = std::mem::take(&mut reps.plain);
    result.segments = reps.floors[Leg::Plain as usize].segments();

    if !args.trace {
        values.set("setup_s", setup_s);
        values.set("run_wall_s", run_wall_s);
        values.set("work_per_wall_s", reps.decisions as f64 / run_wall_s);
        values.set("peak_rss_mb", reps.peak_rss_mb);
        result.digest = reps.digest.expect("at least one rep");
        result.values = values;
        return result;
    }

    // As many traced passes as untraced reps of the same configuration:
    // the per-layer budget closes on the least disturbed one, and
    // `trace.overhead_x` holds the quiet-host time of them all against
    // that of the untraced reps. `mixed_steady` carries the observability
    // stack, so its hooks are one more layer of the budget.
    let untraced = if pairs { Leg::Observed } else { Leg::Plain };
    let untraced_s = reps.floor_s(untraced);
    let mut kept: Option<(Traced, Option<Observer>)> = None;
    for _ in 0..reps.floors[untraced as usize].reps() {
        let (traced, obs) = if pairs {
            let mut obs = Observer::new(ObsConfig::default());
            let hooks = ObservedRun::with_qos(&mut obs, ctx.engine.qos_p99_ms);
            (traced_pass(&ctx, &stack, hooks, true), Some(obs))
        } else {
            (traced_pass(&ctx, &stack, (), false), None)
        };
        reps.account(&traced.pass, Leg::Traced, &mut result);
        let faster = |(k, _): &(Traced, _)| traced.pass.time.wall_s < k.pass.time.wall_s;
        if kept.as_ref().is_none_or(faster) {
            kept = Some((traced, obs));
        }
    }
    let (traced, obs) = kept.expect("at least one traced pass");
    result.digest = reps.digest.expect("at least one rep");
    result.spans = traced.spans.iter().map(Span::to_json).collect();

    let o = &traced.observer;
    let checks = &mut result.checks;
    if o.decisions != traced.pass.issued || o.completions != traced.pass.issued {
        checks.fail(format!(
            "traced pass: observer saw {} decisions and {} completions for {} arrivals",
            o.decisions, o.completions, traced.pass.issued
        ));
    }
    let d = o.decisions.max(1) as f64;
    let steps = o.steps.max(1) as f64;
    // The budget closes on the raw wall clock, the one the wrappers and
    // the engine's own frames read.
    let traced_ns = traced.pass.time.wall_s * 1e9;
    let tail_ns = probes::tail_latency_ns();
    let budget = Budget {
        arrival: traced.arrival_ns as f64,
        heap_push: o.frames.heap_push_ns as f64,
        heap_pop: o.frames.heap_pop_ns as f64,
        decide_self: o.frames.decide_self_ns as f64,
        forward: o.frames.forward_ns as f64,
        sample: o.frames.sample_ns as f64,
        obs_record: (o.hook_ns + o.on_step_ns) as f64,
        tail_latency_est: o.lc_completions.0 as f64 * tail_ns.0
            + o.lc_completions.1 as f64 * tail_ns.1,
    };

    values.set("workloads.arrival.ns_per_decision", budget.arrival / d);
    values.set("workloads.arrival.calls", traced.arrival_calls as f64);
    let lc_completions = o.lc_completions.0 + o.lc_completions.1;
    values.set(
        "workloads.tail_latency.lc_completions",
        lc_completions as f64,
    );
    values.set(
        "workloads.tail_latency.est_ns_per_decision",
        budget.tail_latency_est / d,
    );
    values.set(
        "orchestrator.heap.push_ns_per_decision",
        budget.heap_push / d,
    );
    values.set("orchestrator.heap.pop_ns_per_decision", budget.heap_pop / d);
    values.set(
        "orchestrator.heap.events",
        (o.decisions + o.steps + o.completions) as f64,
    );
    values.set(
        "orchestrator.decide.self_ns_per_decision",
        budget.decide_self / d,
    );
    values.set(
        "orchestrator.decide.fast_calls",
        o.frames.decided_calls as f64,
    );
    values.set(
        "orchestrator.decide.forced_calls",
        o.frames.forced_calls as f64,
    );
    let mut latencies = traced.latencies_ns;
    latencies.sort_unstable();
    if !latencies.is_empty() {
        let us = |q| f64::from(percentile_sorted(&latencies, q)) / 1e3;
        values.set("orchestrator.decide.latency_us_p50", us(50.0));
        values.set("orchestrator.decide.latency_us_p99", us(99.0));
    }
    values.set(
        "orchestrator.decide.latency_samples",
        latencies.len() as f64,
    );
    values.set("predictor.forward.ns_per_decision", budget.forward / d);
    values.set(
        "predictor.forward.ns_per_miss",
        budget.forward / traced.stamp_misses.max(1) as f64,
    );
    values.set("predictor.forward.misses", traced.stamp_misses as f64);
    let stamped = traced.stamp_hits + traced.stamp_misses;
    let hit_ratio = traced.stamp_hits as f64 / stamped.max(1) as f64;
    values.set("predictor.forecast_cache.hit_ratio", hit_ratio);
    values.set("sim.steps", o.steps as f64);
    let residents_mean = o.resident_steps as f64 / steps;
    values.set("sim.residents_mean", residents_mean);
    values.set("sim.sample.ns_per_step", budget.sample / steps);
    values.set("sim.sample.ns_per_decision", budget.sample / d);
    values.set(
        "sim.sample.ns_per_resident_step",
        budget.sample / o.resident_steps.max(1) as f64,
    );
    values.set("obs.record.ns_per_decision", o.hook_ns as f64 / d);
    values.set(
        "obs.record.on_step_ns_per_step",
        o.on_step_ns as f64 / steps,
    );

    let unattributed_frac = budget.unattributed_frac(traced_ns);
    values.set(
        "orchestrator.engine.unattributed_ns_per_decision",
        budget.unattributed(traced_ns) / d,
    );
    values.set("orchestrator.engine.unattributed_frac", unattributed_frac);
    if unattributed_frac > UNATTRIBUTED_WARN_FRAC {
        println!(
            "WARNING: {:.1} % of the traced wall is in no measured layer (history fill, \
             deploy_for, the decided map, completed_outcome, outcomes/samples growth)",
            unattributed_frac * 100.0
        );
    }
    if unattributed_frac < UNATTRIBUTED_MIN_FRAC {
        checks.fail(format!(
            "budget over-closed: residual {unattributed_frac:.4} of the traced wall (double counting)"
        ));
    }
    values.set("trace.overhead_x", reps.floor_s(Leg::Traced) / untraced_s);
    values.set("untraced_run_wall_s", untraced_s);
    values.set("traced_run_wall_s", traced.pass.time.wall_s);

    if let Some(obs) = &obs {
        let (render_s, validate_s, bytes) = time_exports(obs, checks);
        values.set("obs.export.render_ns_per_decision", render_s * 1e9 / d);
        values.set("obs.export.validate_ns_per_decision", validate_s * 1e9 / d);
        values.set("obs.export.bytes_per_decision", bytes as f64 / d);
        values.set("export_wall_s", render_s + validate_s);
        let (kept, dropped) = (obs.tracer.len() as f64, obs.tracer.dropped() as f64);
        values.set("obs.trace.dropped", dropped);
        values.set("obs.spans.dropped", obs.spans.dropped() as f64);
        values.set("obs.trace.retained_ratio", kept / (kept + dropped).max(1.0));
        values.set("obs_overhead_x", untraced_s / run_wall_s);
    }

    values.set("sim_s_per_wall_s", reps.sim_s / run_wall_s);
    let (be_slowdown, offload, lc_violations) = reps.sim_stats;
    values.set("be_slowdown_mean_x", be_slowdown);
    values.set("offload_frac", offload);
    values.set("lc_qos_violation_frac", lc_violations);
    values.set("ops_attempted", result.attempted as f64);
    values.set("ops_failed", result.failed as f64);

    // The workloads must separate the layers as designed.
    if !args.smoke {
        match args.workload {
            Workload::MixedSteady if hit_ratio > 0.1 => {
                checks.fail(format!("forecast-cache hit ratio {hit_ratio:.3} > 0.1"));
            }
            Workload::BurstDense if hit_ratio < 0.95 || lc_completions != 0 => {
                checks.fail(format!(
                    "forecast-cache hit ratio {hit_ratio:.3} < 0.95 or {lc_completions} LC completions"
                ));
            }
            Workload::SparseDiurnal if residents_mean >= 3.0 => {
                checks.fail(format!("{residents_mean:.2} mean residents, not sparse"));
            }
            _ => {}
        }
    }

    probes::run(&mut stack.system_model, tail_ns, &mut values);
    result.values = values;
    result
}
