//! Micro-benchmarks for the hot paths: simulator stepping, LSTM
//! training/inference and the full Adrias scheduling decision. Runs on the in-tree `adrias_core::bench` harness
//! (median/p95 wall-clock).
//!
//! Environment knobs on top of the harness's own:
//!
//! * `ADRIAS_BENCH_FILTER` — substring filter on section names
//!   (`testbed_step`, `lc_tail`, `lstm`, `gemm`, `train_step_workers`,
//!   `adrias_decision`, `decision_throughput`, `decision_burst`,
//!   `obs_overhead`, `span_overhead`, `residual_overhead`,
//!   `event_engine`); unmatched sections are skipped entirely,
//!   including their setup.
//!
//! The run always ends by writing `BENCH_nn.json` (the collected
//! medians plus the derived ratios) to the workspace root.

use adrias_core::bench::{black_box, Harness};
use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};

use adrias_nn::{accumulate_minibatch, GradModel, Layer, Linear, Lstm, MseLoss, Tensor};
use adrias_orchestrator::engine::{
    run_stream_hooked, ArrivalStream, EngineConfig, EngineObserver, GeneratedStream,
    ScheduleStream, ScheduledArrival,
};
use adrias_orchestrator::{ObservedRun, Policy, RoundRobinPolicy};
use adrias_sim::{Testbed, TestbedConfig};
use adrias_telemetry::{Metric, MetricVec};
use adrias_workloads::keyvalue::{self, sample_latencies, tail_latency};
use adrias_workloads::{spark, LatencyEnv, LoadSpec, MemoryMode, WorkloadCatalog};

/// A paper-config testbed holding `apps` catalog picks, local and remote
/// in turn, each resident for `residency_s`.
fn populated_testbed(apps: usize, residency_s: f32) -> Testbed {
    let mut tb = Testbed::new(TestbedConfig::paper(), 1);
    let catalog = WorkloadCatalog::paper();
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    for i in 0..apps {
        let w = catalog.pick(&mut rng).clone();
        let mode = if i % 2 == 0 {
            MemoryMode::Local
        } else {
            MemoryMode::Remote
        };
        tb.deploy_for(w, mode, residency_s);
    }
    tb
}

/// One second's arrivals at the churned node of [`bench_sim_step`].
fn churn_arrivals(tb: &mut Testbed, no_lc: &WorkloadCatalog, rng: &mut Xoshiro256pp) {
    for _ in 0..42 {
        let w = no_lc.pick(rng).clone();
        let mode = MemoryMode::BOTH[usize::from(rng.gen_range(0..4) != 0)];
        tb.deploy_for(w, mode, rng.gen_range(4.0..=12.0));
    }
}

/// Returns the derived `dense_step_to_fold_x`: a cold dense step in
/// units of one in-order `f32` sum over as many terms as it has
/// residents — the floor a single pass pays, since the pressure and
/// counter sums are defined as in-order chains. ≈ 4 with the hot/cold
/// resident store (two passes over 24-byte load records, one over
/// 32-byte progress records); ≈ 12 when every pass walked 184-byte
/// deployments, pushed each one's own environment sums and evaluated
/// each one's own slowdown.
fn bench_sim_step(h: &mut Harness) -> f64 {
    h.bench_function("testbed_step_20_apps", |b| {
        b.iter_batched(
            || populated_testbed(20, 100_000.0),
            |mut tb| {
                for _ in 0..100 {
                    black_box(tb.step());
                }
            },
        )
    });

    // A rack-scale node: 4 000 residents that outlive the bench, and a
    // cold epoch every step (`set_link` forgets the memo, as an arrival
    // or a completion would) — the two passes of the pressure and
    // counter sums, one slowdown per kin (≤ 46 for the catalog) and the
    // progress pass over the resident store.
    let mut tb = populated_testbed(4_000, 1.0e9);
    let link = tb.config().link;
    h.bench_function("testbed_step_4000_apps", |b| {
        b.iter(|| {
            tb.set_link(link);
            black_box(tb.step())
        })
    });

    // The same density in churn, which the static node never sees: 42
    // arrivals a second from the no-LC catalog, 3:1 remote:local, asking
    // for 4–12 s, against as many completions once the population has
    // settled — so a step also pays its arrivals' `deploy_for`s, its
    // report and the compaction of what left.
    let paper = WorkloadCatalog::paper();
    let no_lc = paper.best_effort().chain(paper.interference()).cloned();
    let no_lc = WorkloadCatalog::from_profiles(no_lc.collect());
    let mut churned = Testbed::new(TestbedConfig::paper(), 1);
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    for _ in 0..2_000 {
        churn_arrivals(&mut churned, &no_lc, &mut rng);
        churned.step();
    }
    h.bench_function("testbed_step_4000_churn", |b| {
        b.iter(|| {
            churn_arrivals(&mut churned, &no_lc, &mut rng);
            black_box(churned.step())
        })
    });
    println!("  churned node: {} residents", churned.resident_count());

    const ROUNDS: usize = 40;
    let terms: Vec<f32> = (0..4_000).map(|i| 1.0 + (i % 7) as f32 * 0.125).collect();
    let (fold, step) = fastest_interleaved(ROUNDS, 50, |dense_step| {
        if dense_step {
            tb.set_link(link);
            black_box(tb.step());
        } else {
            black_box(
                black_box(&terms)
                    .iter()
                    .fold(0.0f32, |sum, term| sum + term),
            );
        }
    });
    h.record_ns("f32_fold_4000", fold);
    let ratio = step / fold;
    println!("  dense cold step vs one in-order f32 sum, fastest of {ROUNDS} interleaved rounds: {ratio:.2}x");
    ratio
}

/// Per-run nanoseconds of two legs, `run(false)` and `run(true)`, timed
/// in alternating rounds of `runs` runs with each leg keeping its
/// fastest round. For ratios CI gates: sequentially sampled sections
/// drift apart by more than a gate's margin on a shared host, while
/// every round of a leg does identical work and a neighbour only ever
/// adds time, so the minima converge on the quiet-host cost.
fn fastest_interleaved(rounds: usize, runs: u32, mut run: impl FnMut(bool)) -> (f64, f64) {
    let mut time_leg = |second: bool| {
        let t = std::time::Instant::now();
        for _ in 0..runs {
            run(second);
        }
        t.elapsed().as_secs_f64() * 1e9 / f64::from(runs)
    };
    let (mut first, mut second) = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        first = first.min(time_leg(false));
        second = second.min(time_leg(true));
    }
    (first, second)
}

/// The median, over interleaved rounds, of each leg's wall time in units
/// of `base`'s. For whole-run overheads of a few percent: wall times on
/// a shared machine drift by far more than that between sequentially
/// sampled sections, while a round times every leg back to back (five
/// runs each, `base` last) and contributes one ratio per leg, so the
/// slow drift cancels. `ADRIAS_BENCH_PAIRS` sets the round count
/// (default 40); three untimed rounds come first.
fn paired_ratios(legs: &[(&str, &dyn Fn())], base: &dyn Fn()) -> Vec<f64> {
    let pairs: usize = std::env::var("ADRIAS_BENCH_PAIRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let time_leg = |f: &dyn Fn()| {
        let t = std::time::Instant::now();
        for _ in 0..5 {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    let mut ratios = vec![Vec::with_capacity(pairs); legs.len()];
    for round in 0..3 + pairs {
        let walls: Vec<f64> = legs.iter().map(|(_, leg)| time_leg(leg)).collect();
        let base = time_leg(base);
        if round >= 3 {
            for (ratios, wall) in ratios.iter_mut().zip(walls) {
                ratios.push(wall / base);
            }
        }
    }
    let medians = ratios.iter_mut().map(|r| {
        r.sort_by(f64::total_cmp);
        r[r.len() / 2]
    });
    legs.iter()
        .zip(medians)
        .map(|((label, _), median)| {
            println!("  {label}, median of {pairs} interleaved rounds: {median:.3}x");
            median
        })
        .collect()
}

/// A sustained dense co-location mix (the paper's operating point): 20
/// Spark apps arriving over 40 s, each resident for a fixed 600 s, so
/// the testbed carries ~20 apps for most of the run and a step does
/// representative contention work.
fn dense_mix() -> Vec<ScheduledArrival> {
    [
        "gmm", "sort", "pca", "lr", "kmeans", "nweight", "als", "svd", "rf", "linear", "bayes",
        "terasort", "gmm", "sort", "pca", "lr", "kmeans", "nweight", "als", "svd",
    ]
    .iter()
    .enumerate()
    .map(|(i, name)| {
        ScheduledArrival::new(i as f64 * 2.0, spark::by_name(name).unwrap()).with_duration(600.0)
    })
    .collect()
}

/// One paper-testbed engine run of `stream` under `policy`, watched by
/// `obs`, with the LC tail measurement scaled down to 100 draws.
fn bench_run<O: EngineObserver>(
    stream: &mut dyn ArrivalStream,
    policy: &mut dyn Policy,
    obs: &mut O,
) -> adrias_orchestrator::RunReport {
    let engine = EngineConfig {
        lc_latency_samples: 100,
        ..EngineConfig::default()
    };
    run_stream_hooked(TestbedConfig::paper(), engine, stream, &[], policy, obs)
}

/// One LC completion's tail measurement (p99 and p99.9 of 8 000
/// lognormal draws) next to evaluating those draws, same seed. Returns
/// the derived `lc_tail_to_draws_x`: ≈ 0.14 now that `tail_latency`
/// evaluates only the draws that can reach its tail (the 16 000 raw
/// generator outputs alone are ≈ 0.08); ≈ 1.1 when it evaluated every
/// draw and selected, ≈ 2.8 when it sorted a copy twice.
fn bench_lc_tail(h: &mut Harness) -> f64 {
    const SAMPLES: usize = 8000;
    const ROUNDS: usize = 40;
    let redis = keyvalue::redis();
    let load = LoadSpec::default();
    let env = LatencyEnv::idle(MemoryMode::Remote);
    let (draws, tail) = fastest_interleaved(ROUNDS, 10, |quantiles| {
        let mut rng = Xoshiro256pp::seed_from_u64(0x1C);
        if quantiles {
            black_box(tail_latency(&redis, &load, &env, SAMPLES, &mut rng));
        } else {
            black_box(sample_latencies(&redis, &load, &env, SAMPLES, &mut rng));
        }
    });
    h.record_ns("lc_tail_latency_8000", tail);
    h.record_ns("lc_latency_draws_8000", draws);
    let ratio = tail / draws;
    println!("  LC tail vs its draws, fastest of {ROUNDS} interleaved rounds: {ratio:.2}x");
    ratio
}

/// Returns the derived `bwd_to_fwd_x`: backward cost in units of the
/// forward (theory ≈ 2).
fn bench_lstm(h: &mut Harness) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let mut lstm = Lstm::new(7, 32, &mut rng);
    let seq: Vec<Tensor> = (0..24)
        .map(|_| adrias_nn::init::uniform(32, 7, 1.0, &mut rng))
        .collect();
    h.bench_function("lstm_forward_b32_t24_h32", |b| {
        b.iter(|| black_box(lstm.forward_last(&seq)))
    });
    // The same forward with the SIMD kernel layer forced onto its
    // scalar fallback — the bit-identical "before" column behind the
    // derived `simd_lstm_speedup_x` metric.
    adrias_nn::set_force_scalar(true);
    h.bench_function("lstm_forward_scalar_b32_t24_h32", |b| {
        b.iter(|| black_box(lstm.forward_last(&seq)))
    });
    adrias_nn::set_force_scalar(false);
    h.bench_function("lstm_forward_backward_b32_t24_h32", |b| {
        b.iter(|| {
            let out = lstm.forward_last(&seq);
            lstm.zero_grad();
            black_box(lstm.backward_last(&out));
        })
    });

    // The backward alone is the difference of two legs. Rounds are
    // ~40 ms, so unlike the whole-run pairs below they are not scaled
    // down by `ADRIAS_BENCH_PAIRS`.
    const ROUNDS: usize = 40;
    let (forward, both) = fastest_interleaved(ROUNDS, 20, |backward| {
        let out = lstm.forward_last(&seq);
        if backward {
            lstm.zero_grad();
            black_box(lstm.backward_last(&out));
        } else {
            black_box(out);
        }
    });
    h.record_ns("lstm_backward_b32_t24_h32", both - forward);
    let ratio = (both - forward) / forward;
    println!("  backward vs forward, fastest of {ROUNDS} interleaved rounds: {ratio:.2}x");
    ratio
}

/// The `matmul_transb` micro-kernel (the dot-product GEMM behind every
/// `Linear::forward_into` on the decision fast lane), native vs
/// forced-scalar — the A/B behind `simd_gemm_speedup_x`. The two paths
/// produce bit-identical outputs (the lane-order accumulation
/// contract), so the ratio is pure kernel throughput.
fn bench_gemm(h: &mut Harness) {
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let a = adrias_nn::init::uniform(64, 128, 1.0, &mut rng);
    let b_t = adrias_nn::init::uniform(64, 128, 1.0, &mut rng);
    let mut out = Tensor::zeros(64, 64);
    h.bench_function("gemm_transb_64x128x64", |b| {
        b.iter(|| {
            a.matmul_transb_into(&b_t, &mut out);
            black_box(out.get(0, 0));
        })
    });
    adrias_nn::set_force_scalar(true);
    h.bench_function("gemm_transb_scalar_64x128x64", |b| {
        b.iter(|| {
            a.matmul_transb_into(&b_t, &mut out);
            black_box(out.get(0, 0));
        })
    });
    adrias_nn::set_force_scalar(false);

    // The accumulate-GEMM tile behind `Tensor::matmul_into` — the LSTM's
    // `x·W_ihᵀ` / `h·W_hhᵀ` forward products and BPTT's `dz·W` — at the
    // decision-miss shape (one row) and the training-batch shape.
    let w = adrias_nn::init::uniform(32, 128, 1.0, &mut rng);
    for (rows, native, scalar) in [
        (1, "gemm_into_1x32x128", "gemm_into_scalar_1x32x128"),
        (32, "gemm_into_32x32x128", "gemm_into_scalar_32x32x128"),
    ] {
        let x = adrias_nn::init::uniform(rows, 32, 1.0, &mut rng);
        let mut out = Tensor::zeros(rows, 128);
        for (name, force) in [(native, false), (scalar, true)] {
            adrias_nn::set_force_scalar(force);
            h.bench_function(name, |b| {
                b.iter(|| {
                    x.matmul_into(&w, &mut out);
                    black_box(out.get(0, 0));
                })
            });
        }
        adrias_nn::set_force_scalar(false);
    }
}

/// The full Adrias scheduling decision.
///
/// * `adrias_decision_fastpath` — a fresh
///   [`adrias_telemetry::WindowStamp`] per call, i.e. every decision is
///   a forecast-cache **miss** (one scratch-based `Ŝ` forecast + one
///   batched perf pass, zero heap allocations).
/// * `adrias_decision_cached` — a constant stamp and one application:
///   every decision after the first is a **memo hit** on the per-stamp
///   record (the signature-table lookup, the head lookup and the
///   placement rule; no model work at all). The derived
///   `decision_fastpath_speedup_x` is miss over hit: ≈ 1 000, and 1 for
///   a record that stopped hitting.
/// * `decision_throughput` — a stream of 64 decisions across four apps
///   where the stamp advances every 8 decisions, the engine's
///   steady-state mix of hits and misses.
/// * `decision_burst_128x17` — 128 decisions on one fresh stamp, the 17
///   Spark applications taking turns: one forecast, one history-branch
///   pass, 17 head passes and 111 memo hits — a `burst_dense` second.
fn bench_decision(h: &mut Harness) {
    use adrias_orchestrator::DecisionContext;
    use adrias_scenarios::{train_stack, StackOptions};
    use adrias_telemetry::WindowStamp;

    let catalog = WorkloadCatalog::paper();
    let stack = train_stack(&catalog, &StackOptions::quick());
    let app = spark::by_name("lr").unwrap();
    let apps = ["lr", "gmm", "nweight", "sort"].map(|n| spark::by_name(n).unwrap());
    let history: Vec<MetricVec> = (0..120)
        .map(|t| {
            let mut v = MetricVec::zero();
            v.set(Metric::LlcLoads, 1e8 + t as f32 * 1e5);
            v.set(Metric::LinkLatency, 360.0);
            v
        })
        .collect();
    // A synthetic stamp source that cannot collide with a real watcher.
    let stamp = |version: u64| WindowStamp {
        source: u64::MAX,
        version,
    };
    let ctx = |stamp_v: Option<u64>, profile| DecisionContext {
        profile,
        history: Some(&history),
        qos_p99_ms: Some(5.0),
        stamp: stamp_v.map(stamp),
    };

    let mut fast = stack.policy(0.8, 5.0);
    let mut version = 0u64;
    h.bench_function("adrias_decision_fastpath", |b| {
        b.iter(|| {
            version += 1;
            black_box(fast.decide(&ctx(Some(version), &app)))
        })
    });

    let mut cached = stack.policy(0.8, 5.0);
    h.bench_function("adrias_decision_cached", |b| {
        b.iter(|| black_box(cached.decide(&ctx(Some(1), &app))))
    });

    let mut stream = stack.policy(0.8, 5.0);
    let mut base = 1u64 << 32;
    h.bench_function("decision_throughput_64", |b| {
        b.iter(|| {
            base += 64;
            for i in 0..64u64 {
                let v = base + i / 8;
                black_box(stream.decide(&ctx(Some(v), &apps[(i % 4) as usize])));
            }
        })
    });

    let suite = spark::suite();
    let mut burst = stack.policy(0.8, 5.0);
    let mut version = 1u64 << 40;
    h.bench_function("decision_burst_128x17", |b| {
        b.iter(|| {
            version += 1;
            for app in suite.iter().cycle().take(128) {
                black_box(burst.decide(&ctx(Some(version), app)));
            }
        })
    });
}

/// A minimal [`GradModel`] for exercising the data-parallel trainer
/// without dragging in the full predictor stack.
#[derive(Clone)]
struct ToyNet {
    lin: Linear,
}

impl GradModel for ToyNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.lin.visit_params(f);
    }
}

/// One deterministic minibatch accumulation at 1 vs. N workers. On a
/// single-core runner the interesting number is the dispatch overhead;
/// the loss trace is bit-identical either way.
fn bench_worker_scaling(h: &mut Harness) {
    const IN: usize = 16;
    const OUT: usize = 4;
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let master = ToyNet {
        lin: Linear::new(IN, OUT, &mut rng),
    };
    let data = adrias_nn::init::uniform(256, IN, 1.0, &mut rng);
    let targets = adrias_nn::init::uniform(256, OUT, 1.0, &mut rng);
    let batch: Vec<usize> = (0..64).collect();
    let pass = |m: &mut ToyNet, _chunk: usize, idxs: &[usize]| -> f32 {
        let x = Tensor::from_fn(idxs.len(), IN, |r, c| data.get(idxs[r], c));
        let t = Tensor::from_fn(idxs.len(), OUT, |r, c| targets.get(idxs[r], c));
        let pred = m.lin.forward(&x, true);
        let mut loss = MseLoss::new();
        let l = loss.forward(&pred, &t);
        m.lin.backward(&loss.backward());
        l
    };
    for workers in [1usize, 2] {
        h.bench_function(&format!("train_step_workers_{workers}"), |b| {
            b.iter(|| {
                let mut m = master.clone();
                black_box(accumulate_minibatch(&mut m, &batch, 8, workers, &pass))
            })
        });
    }
}

/// The same arrival schedule replayed unobserved (the monomorphized
/// no-op observer) and with a full in-memory [`adrias_obs::Observer`]
/// attached but no exporter running. Uses the paper testbed config with
/// a dense 12-app schedule so the baseline step carries representative
/// contention work.
///
/// Three variants are timed:
///
/// * `plain` — the `()` observer, every hook an empty inlined method;
/// * `traced` — audit trail + trace events only (per-decision and
///   per-completion work, no per-step metrics), the cost the "tracing
///   with no exporter stays ≤ 5%" claim is about;
/// * `observed` — the full [`adrias_obs::Observer`] including per-step
///   pressure/latency sketches.
///
/// On top of the absolute sections the derived `obs_tracing_overhead_x`
/// / `obs_overhead_x` metrics are the [`paired_ratios`] medians of
/// traced and observed over plain.
fn bench_obs_overhead(h: &mut Harness) -> (f64, f64) {
    use adrias_obs::{ObsConfig, Observer};

    /// [`ObservedRun`] minus the per-step metrics hook: decisions,
    /// completions and the run span still record, `on_step` stays the
    /// default no-op.
    struct TracingOnly<'a>(ObservedRun<'a>);
    impl EngineObserver for TracingOnly<'_> {
        fn on_decision(
            &mut self,
            at_s: f64,
            id: adrias_sim::DeploymentId,
            profile: &adrias_workloads::WorkloadProfile,
            history: Option<&[MetricVec]>,
            decision: &adrias_orchestrator::policy::ExplainedDecision,
            policy_name: &str,
        ) {
            self.0
                .on_decision(at_s, id, profile, history, decision, policy_name);
        }
        fn on_complete(
            &mut self,
            id: adrias_sim::DeploymentId,
            outcome: &adrias_orchestrator::AppOutcome,
        ) {
            self.0.on_complete(id, outcome);
        }
        fn on_run_end(&mut self, report: &adrias_orchestrator::RunReport, last_arrival_s: f64) {
            self.0.on_run_end(report, last_arrival_s);
        }
    }

    let arrivals = dense_mix();
    let dense = || ScheduleStream::new(&arrivals);
    let run_plain = || {
        black_box(bench_run(
            &mut dense(),
            &mut RoundRobinPolicy::new(),
            &mut (),
        ));
    };
    let run_traced = || {
        let mut obs = Observer::new(ObsConfig::default());
        let mut traced = TracingOnly(ObservedRun::with_qos(&mut obs, None));
        black_box(bench_run(
            &mut dense(),
            &mut RoundRobinPolicy::new(),
            &mut traced,
        ));
    };
    let run_observed = || {
        let mut obs = Observer::new(ObsConfig::default());
        black_box(bench_run(
            &mut dense(),
            &mut RoundRobinPolicy::new(),
            &mut ObservedRun::with_qos(&mut obs, None),
        ));
    };

    h.bench_function("engine_run_plain", |b| b.iter(run_plain));
    h.bench_function("engine_run_traced_no_export", |b| b.iter(run_traced));
    h.bench_function("engine_run_observed_no_export", |b| b.iter(run_observed));

    let ratios = paired_ratios(
        &[
            ("tracing-only overhead", &run_traced),
            ("full-metrics overhead", &run_observed),
        ],
        &run_plain,
    );
    (ratios[0], ratios[1])
}

/// Lifecycle spans + the queue-wait sketch on vs off, over the same
/// dense observed run. Both legs carry the full [`adrias_obs::Observer`]
/// (audit, trace, per-step sketches, flight recorder); the only
/// difference is `ObsConfig::record_spans`, which gates span open/close
/// bookkeeping and the queue-wait sketch observe.
///
/// The derived `span_overhead_x` metric is the [`paired_ratios`] median
/// of on over off; CI gates it.
fn bench_span_overhead(h: &mut Harness) -> f64 {
    use adrias_obs::{ObsConfig, Observer};

    let arrivals = dense_mix();
    let dense = || ScheduleStream::new(&arrivals);
    let run_with = |record_spans: bool| {
        let mut obs = Observer::new(ObsConfig {
            record_spans,
            ..ObsConfig::default()
        });
        black_box(bench_run(
            &mut dense(),
            &mut RoundRobinPolicy::new(),
            &mut ObservedRun::with_qos(&mut obs, None),
        ));
    };
    let run_spans_on = || run_with(true);
    let run_spans_off = || run_with(false);

    h.bench_function("engine_run_spans_on", |b| b.iter(run_spans_on));
    h.bench_function("engine_run_spans_off", |b| b.iter(run_spans_off));

    paired_ratios(&[("span+sketch overhead", &run_spans_on)], &run_spans_off)[0]
}

/// The residual tracker riding along a dense paper-config run vs the
/// same run with plain observability. Both legs use the trained Adrias
/// policy (so decisions carry the predictions the tracker joins on) and
/// the tracked leg pays the full online-adaptation read path: pending
/// joins at decision and completion, the end-of-run system-forecast
/// scoring pass, and the flush into the registry.
///
/// The derived `online_residual_overhead_x` metric is the
/// [`paired_ratios`] median of tracked over observed; CI gates it.
fn bench_residual_overhead(h: &mut Harness) -> f64 {
    use adrias_obs::{ObsConfig, Observer};
    use adrias_orchestrator::{ResidualConfig, ResidualTracker};
    use adrias_scenarios::{train_stack, StackOptions};
    use std::cell::RefCell;

    let catalog = WorkloadCatalog::paper();
    let stack = train_stack(&catalog, &StackOptions::quick());
    let arrivals = dense_mix();
    let dense = || ScheduleStream::new(&arrivals);
    let scorer = RefCell::new(stack.system_model.clone());
    let run_observed = || {
        let mut obs = Observer::new(ObsConfig::default());
        black_box(bench_run(
            &mut dense(),
            &mut stack.policy(0.8, 5.0),
            &mut ObservedRun::with_qos(&mut obs, None),
        ));
    };
    let run_tracked = || {
        let mut obs = Observer::new(ObsConfig::default());
        let mut tracker = ResidualTracker::new(ResidualConfig::default());
        let report = bench_run(
            &mut dense(),
            &mut stack.policy(0.8, 5.0),
            &mut (&mut tracker, ObservedRun::with_qos(&mut obs, None)),
        );
        tracker.score_system_forecasts(&report, &mut scorer.borrow_mut());
        black_box(tracker.flush(&mut obs));
    };

    h.bench_function("engine_run_adrias_observed", |b| b.iter(run_observed));
    h.bench_function("engine_run_adrias_tracked", |b| b.iter(run_tracked));

    paired_ratios(
        &[("residual-tracking overhead", &run_tracked)],
        &run_observed,
    )[0]
}

/// End-to-end event-engine throughput: a high-rate Poisson stream of
/// short best-effort jobs through the engine with the full in-memory
/// observer attached — arrival generation, heap scheduling, the policy
/// decision, sim stepping, completion accounting and obs recording are
/// all on the clock. Two legs over the *same* materialized arrival
/// sequence:
///
/// * `schedule` — the event heap replaying the pre-built schedule;
/// * `streamed` — the event heap pulling straight from the generator
///   with O(1) arrivals in memory, the path the million-arrival example
///   uses.
///
/// The derived `decisions_per_sec` metric (streamed leg, median of 5)
/// is the gate the ISSUE pins: CI fails if it falls below 1e5/s.
fn bench_event_engine(h: &mut Harness) -> Vec<(&'static str, f64)> {
    use adrias_obs::{ObsConfig, Observer};
    use adrias_workloads::{ArrivalSource, PoissonSource};
    use std::time::Instant;

    const RATE_PER_S: f64 = 400.0;
    const HORIZON_S: f64 = 250.0;
    const SEED: u64 = 41;

    let app = spark::by_name("lr").unwrap();
    let make_source = || PoissonSource::new(RATE_PER_S, HORIZON_S, SEED);
    let make_arrival = |t: f64| ScheduledArrival::new(t, app.clone()).with_duration(1.0);

    // The identical arrival sequence, pre-materialized for the two
    // schedule-driven legs.
    let schedule: Vec<ScheduledArrival> = {
        let mut src = make_source();
        let mut out = Vec::new();
        while let Some(t) = src.next_time() {
            out.push(make_arrival(t));
        }
        out
    };
    let n = schedule.len();
    println!("  event-engine workload: {n} Poisson arrivals over {HORIZON_S} s");

    let run_schedule_leg = || -> f64 {
        let mut policy = RoundRobinPolicy::new();
        let mut obs = Observer::new(ObsConfig::default());
        let mut hooks = ObservedRun::with_qos(&mut obs, None);
        let t = Instant::now();
        let report = bench_run(&mut ScheduleStream::new(&schedule), &mut policy, &mut hooks);
        let elapsed = t.elapsed().as_secs_f64();
        assert_eq!(report.unfinished, 0, "arrivals left behind in bench run");
        black_box(report);
        n as f64 / elapsed
    };
    let run_stream_leg = || -> f64 {
        let mut stream = GeneratedStream::new(make_source(), |_, t| make_arrival(t));
        let mut policy = RoundRobinPolicy::new();
        let mut obs = Observer::new(ObsConfig::default());
        let mut hooks = ObservedRun::with_qos(&mut obs, None);
        let t = Instant::now();
        let report = bench_run(&mut stream, &mut policy, &mut hooks);
        let elapsed = t.elapsed().as_secs_f64();
        assert_eq!(report.unfinished, 0, "arrivals left behind in bench run");
        assert_eq!(report.outcomes.len() as u64, stream.issued());
        black_box(report);
        n as f64 / elapsed
    };

    // Warm-up, then median of 5 per leg.
    run_stream_leg();
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let event = median((0..5).map(|_| run_schedule_leg()).collect());
    let streamed = median((0..5).map(|_| run_stream_leg()).collect());
    println!("  event heap (schedule): {event:>12.0} decisions/s");
    println!("  event heap (streamed): {streamed:>12.0} decisions/s");
    h.record_ns("engine_arrival_event_heap", 1e9 / event);
    h.record_ns("engine_arrival_streamed", 1e9 / streamed);
    vec![
        ("decisions_per_sec", streamed),
        ("decisions_per_sec_event_schedule", event),
    ]
}

fn main() {
    let filter = std::env::var("ADRIAS_BENCH_FILTER").unwrap_or_default();
    let enabled = |section: &str| filter.is_empty() || section.contains(filter.as_str());

    let mut h = Harness::new("micro");
    let dense_step_to_fold = enabled("testbed_step").then(|| bench_sim_step(&mut h));
    let lc_tail_to_draws = enabled("lc_tail").then(|| bench_lc_tail(&mut h));
    let bwd_to_fwd = enabled("lstm").then(|| bench_lstm(&mut h));
    if enabled("gemm") {
        bench_gemm(&mut h);
    }
    if enabled("train_step_workers") {
        bench_worker_scaling(&mut h);
    }
    if ["adrias_decision", "decision_throughput", "decision_burst"]
        .into_iter()
        .any(enabled)
    {
        bench_decision(&mut h);
    }
    let obs_overhead = enabled("obs_overhead").then(|| bench_obs_overhead(&mut h));
    let span_overhead = enabled("span_overhead").then(|| bench_span_overhead(&mut h));
    let residual_overhead = enabled("residual_overhead").then(|| bench_residual_overhead(&mut h));
    let mut engine_throughput: Vec<(&'static str, f64)> = Vec::new();
    if enabled("event_engine") {
        engine_throughput = bench_event_engine(&mut h);
    }

    // 1 when the native legs above ran the AVX2 lane: CI gates the
    // `simd_*_speedup_x` ratios on numbers only then.
    let mut derived: Vec<(&str, f64)> =
        vec![("simd_active", f64::from(u8::from(adrias_nn::simd_active())))];
    if let (Some(scalar), Some(simd)) = (
        h.median_ns("lstm_forward_scalar_b32_t24_h32"),
        h.median_ns("lstm_forward_b32_t24_h32"),
    ) {
        let speedup = scalar / simd;
        println!("  SIMD vs scalar LSTM forward:          {speedup:.2}x");
        derived.push(("simd_lstm_speedup_x", speedup));
    }
    if let Some(ratio) = bwd_to_fwd {
        derived.push(("bwd_to_fwd_x", ratio));
    }
    if let Some(ratio) = lc_tail_to_draws {
        derived.push(("lc_tail_to_draws_x", ratio));
    }
    if let Some(ratio) = dense_step_to_fold {
        derived.push(("dense_step_to_fold_x", ratio));
    }
    if let (Some(scalar), Some(simd)) = (
        h.median_ns("gemm_transb_scalar_64x128x64"),
        h.median_ns("gemm_transb_64x128x64"),
    ) {
        let speedup = scalar / simd;
        println!("  SIMD vs scalar transb GEMM:           {speedup:.2}x");
        derived.push(("simd_gemm_speedup_x", speedup));
    }
    if let (Some(w1), Some(w2)) = (
        h.median_ns("train_step_workers_1"),
        h.median_ns("train_step_workers_2"),
    ) {
        derived.push(("worker_dispatch_overhead_x", w2 / w1));
    }
    if let (Some(miss), Some(hit)) = (
        h.median_ns("adrias_decision_fastpath"),
        h.median_ns("adrias_decision_cached"),
    ) {
        let speedup = miss / hit;
        println!("  memo hit vs forecast-miss decision:   {speedup:.2}x");
        derived.push(("decision_fastpath_speedup_x", speedup));
    }
    if let Some((traced, observed)) = obs_overhead {
        println!("  traced vs plain engine run:           {traced:.3}x");
        derived.push(("obs_tracing_overhead_x", traced));
        println!("  observed vs plain engine run:         {observed:.3}x");
        derived.push(("obs_overhead_x", observed));
    }
    if let Some(spans) = span_overhead {
        println!("  spans+sketches vs spans-off run:      {spans:.3}x");
        derived.push(("span_overhead_x", spans));
    }
    if let Some(tracked) = residual_overhead {
        println!("  tracked vs observed engine run:       {tracked:.3}x");
        derived.push(("online_residual_overhead_x", tracked));
    }
    derived.extend(engine_throughput);

    // `cargo bench` runs with the package directory as cwd; anchor the
    // report at the workspace root so CI and humans find it in one place.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_nn.json");
    h.write_json(&path, &derived).expect("write BENCH_nn.json");
    println!("wrote {}", path.display());
}
