//! The hot paths as gated ratios: each section times the legs of one or
//! two ratios on the in-tree `adrias_core::bench` harness, and each
//! ratio is a [`Gate`] row stated once, beside the code that computes
//! it, with the reason for its bound. Every leg is an operand of a row
//! and every derived number but the `simd_active`, `simd_lanes` and
//! `two_cores` host flags is one; absolute costs per layer are the perf ledger's
//! (`benchmark/`).
//!
//! Environment knobs on top of the harness's own:
//!
//! * `ADRIAS_BENCH_FILTER` — substring filter on section names
//!   (`testbed_step`, `unread_second`, `lc_tail`, `lstm`,
//!   `encoder_forward`, `gemm`, `adrias_decision`, `forecast_miss`,
//!   `obs_overhead`, `residual_overhead`); unmatched
//!   sections are skipped entirely, including their setup.
//!
//! The run always ends by writing `BENCH_nn.json` (the medians, the
//! derived ratios and each row's verdict) to the workspace root, and
//! exits non-zero naming every row that failed.

use adrias_core::bench::{black_box, Gate, Harness};
use adrias_core::rng::{SeedableRng, Xoshiro256pp};

use adrias_nn::{kernels, Lstm, LstmScratch, Tensor};
use adrias_obs::{ObsConfig, Observer};
use adrias_orchestrator::engine::{
    run_stream_hooked, EngineConfig, EngineObserver, ScheduleStream, ScheduledArrival,
};
use adrias_orchestrator::{ObservedRun, Policy, RoundRobinPolicy};
use adrias_sim::{Testbed, TestbedConfig};
use adrias_telemetry::{Metric, MetricVec};
use adrias_workloads::keyvalue::{self, sample_latencies, tail_latency};
use adrias_workloads::{spark, LatencyEnv, LoadSpec, MemoryMode, WorkloadCatalog};

/// One cold `Testbed::step` over 4 000 residents over one dependent
/// `f32` sum of 4 000 terms — what a single pass of the pressure or
/// counter sums costs at least, since those are defined as in-order
/// chains — same process, fastest of interleaved legs. The step is two
/// passes over 24-byte load records, one slowdown per kin and one pass
/// over 32-byte progress records, and reads 4.0–4.3 (EXPERIMENTS.md "A
/// dense step costs what differs"). It read ≈ 12 when four passes
/// walked 184-byte deployments that each kept their own environment
/// sums and evaluated their own slowdown, so neither the fat record nor
/// the per-resident work can come back unnoticed. The reference leg is
/// latency-bound and the step is throughput-bound, so a core whose SMT
/// sibling is busy reads the ratio higher (7.3–7.9 here, 15.8 for the
/// old store): a failure at 7–8 on an otherwise green run is a
/// contended runner, one at ≥ 10 is the regression.
const DENSE_STEP_TO_FOLD: Gate = Gate::at_most("dense_step_to_fold_x", 6.0);

fn bench_sim_step(h: &mut Harness) {
    // A rack-scale node: 4 000 catalog picks, local and remote in turn,
    // that outlive the bench, and a cold epoch every step (`set_link`
    // forgets the memo, as an arrival or a completion would) — the two
    // passes of the pressure and counter sums, one slowdown per kin
    // (≤ 46 for the catalog) and the progress pass over the resident
    // store.
    let mut tb = Testbed::new(TestbedConfig::paper(), 1);
    let catalog = WorkloadCatalog::paper();
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    for i in 0..4_000 {
        let w = catalog.pick(&mut rng).clone();
        tb.deploy_for(w, MemoryMode::BOTH[i % 2], 1.0e9);
    }
    let link = tb.config().link;

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
    h.record_ns("testbed_step_4000_apps", step);
    h.record_ns("f32_fold_4000", fold);
    h.gate(&DENSE_STEP_TO_FOLD, step / fold);
}

/// One `Testbed::step_unsampled` over one `Testbed::step` on a
/// paper-noise node with one remote resident (all seven counters
/// nonzero, so the sampled leg computes seven Box–Muller deviates),
/// fastest of interleaved legs. The unsampled second draws the same
/// fourteen words and computes no deviate; what is left is the
/// progress and environment bookkeeping, 31–50 ns against 233–340 ns,
/// and the ratio reads 0.13–0.14 (EXPERIMENTS.md "A second no decision
/// reads"). The engine takes it for every second no decision reads —
/// 70 % of `sparse_diurnal`'s — so a change that makes unread seconds
/// compute their deviates again reads ≈ 1.0 here and fails the bound of
/// 0.5, which leaves a contended runner three times the quiet reading.
const UNREAD_SECOND: Gate = Gate::at_most("unread_second_x", 0.5);

fn bench_unread_second(h: &mut Harness) {
    let mut tb = Testbed::new(TestbedConfig::paper(), 1);
    let lr = spark::by_name("lr").unwrap();
    tb.deploy_for(lr, MemoryMode::Remote, 1.0e12);
    const ROUNDS: usize = 40;
    let (sampled, unsampled) = fastest_interleaved(ROUNDS, 20_000, |unread| {
        if unread {
            black_box(tb.step_unsampled());
        } else {
            black_box(tb.step());
        }
    });
    h.record_ns("testbed_second_sampled", sampled);
    h.record_ns("testbed_second_unsampled", unsampled);
    h.gate(&UNREAD_SECOND, unsampled / sampled);
}

/// Gates `gate` on the median of the sampled leg `over` in units of the
/// sampled leg `under`'s.
fn gate_sampled(h: &mut Harness, gate: &Gate, over: &str, under: &str) {
    let median = |leg| h.median_ns(leg).expect("the section sampled the leg");
    let ratio = median(over) / median(under);
    h.gate(gate, ratio);
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

/// The median, over interleaved rounds, of `leg`'s wall time in units
/// of `base`'s. For whole-run overheads of a few percent: wall times on
/// a shared machine drift by far more than that between sequentially
/// sampled sections, while a round times both legs back to back (five
/// runs each, `base` last) and contributes one ratio, so the slow drift
/// cancels. `ADRIAS_BENCH_PAIRS` sets the round count (default 40);
/// three untimed rounds come first. Each leg's median wall per run is
/// recorded under its name.
fn paired_ratio(h: &mut Harness, leg: (&str, &dyn Fn()), base: (&str, &dyn Fn())) -> f64 {
    let pairs: usize = std::env::var("ADRIAS_BENCH_PAIRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let time = |f: &dyn Fn()| {
        let t = std::time::Instant::now();
        for _ in 0..5 {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / 5.0
    };
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    for _ in 0..3 {
        time(leg.1);
        time(base.1);
    }
    let rounds: Vec<(f64, f64)> = (0..pairs).map(|_| (time(leg.1), time(base.1))).collect();
    h.record_ns(leg.0, median(rounds.iter().map(|r| r.0).collect()));
    h.record_ns(base.0, median(rounds.iter().map(|r| r.1).collect()));
    median(rounds.iter().map(|(leg, base)| leg / base).collect())
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

/// One paper-testbed engine run of the dense mix under `policy`,
/// watched by `hooks`, with the LC tail measurement scaled down to 100
/// draws.
fn dense_run<O: EngineObserver>(
    arrivals: &[ScheduledArrival],
    policy: &mut dyn Policy,
    hooks: &mut O,
) -> adrias_orchestrator::RunReport {
    let engine = EngineConfig {
        lc_latency_samples: 100,
        ..EngineConfig::default()
    };
    let mut stream = ScheduleStream::new(arrivals);
    run_stream_hooked(
        TestbedConfig::paper(),
        engine,
        &mut stream,
        &[],
        policy,
        hooks,
    )
}

/// [`dense_run`] under a fresh in-memory observer, no exporter
/// attached.
fn observed_run(arrivals: &[ScheduledArrival], policy: &mut dyn Policy) {
    let mut obs = Observer::new(ObsConfig::default());
    let mut hooks = ObservedRun::with_qos(&mut obs, None);
    black_box(dense_run(arrivals, policy, &mut hooks));
}

/// One LC completion's tail measurement (`tail_latency`: p99 and p99.9
/// of 8 000 lognormal draws) over evaluating those 8 000 draws
/// (`sample_latencies`), same process and seed, fastest of interleaved
/// legs. `tail_latency` evaluates only the ≈ 5 % of draws that can
/// reach its p99 and reads 0.13–0.15, of which ≈ 0.08 is advancing the
/// generator 16 000 times (EXPERIMENTS.md "An LC completion costs its
/// tail"). A regression to evaluating every draw reads ≥ 1.0, and a
/// sort on top of that ≥ 2.7, so neither can come back unnoticed.
const LC_TAIL_TO_DRAWS: Gate = Gate::at_most("lc_tail_to_draws_x", 0.35);

fn bench_lc_tail(h: &mut Harness) {
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
    h.gate(&LC_TAIL_TO_DRAWS, tail / draws);
}

/// The LSTM forward on the AVX2 lane over the same forward forced onto
/// the portable lane — one kernel source at two lane types, both legs
/// in one process (`set_force_scalar`), bit-identical outputs. Reads
/// 1.9–2.0 at full settings (EXPERIMENTS.md "Single-source kernels":
/// the portable lane is the same tiled source at SSE2 width, so the
/// ratio is lower than when it was a plain loop). A runner without AVX2
/// runs the portable lane on both legs; the bench says so
/// (`simd_active` = 0) and the row is skipped.
const SIMD_LSTM_SPEEDUP: Gate = Gate::at_least("simd_lstm_speedup_x", 1.5).only_if("simd_active");

/// `Lstm::backward_last` in units of `forward_last` on the bench shape,
/// fastest of interleaved legs: theory is ≈ 2, the pre-PR-12 tensor-op
/// BPTT sat at ≈ 5. The legs alternate in one process and the ratio
/// reads 2.1–2.45 on the AVX2 path and ≈ 2.2 forced scalar
/// (EXPERIMENTS.md "Training floor"), the same at smoke settings. With
/// the weight gradients one deep product per sequence on the skip-free
/// tile it reads 0.93–1.38 in four full runs on a contended host
/// (EXPERIMENTS.md "Training at its floor on one core").
const BWD_TO_FWD: Gate = Gate::at_most("bwd_to_fwd_x", 2.5);

fn bench_lstm(h: &mut Harness) {
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let mut lstm = Lstm::new(7, 32, &mut rng);
    let seq: Vec<Tensor> = (0..24)
        .map(|_| adrias_nn::init::uniform(32, 7, 1.0, &mut rng))
        .collect();
    h.bench_function("lstm_forward_b32_t24_h32", |b| {
        b.iter(|| black_box(lstm.forward_last(&seq)))
    });
    adrias_nn::set_force_scalar(true);
    h.bench_function("lstm_forward_scalar_b32_t24_h32", |b| {
        b.iter(|| black_box(lstm.forward_last(&seq)))
    });
    adrias_nn::set_force_scalar(false);
    let (portable, native) = (
        "lstm_forward_scalar_b32_t24_h32",
        "lstm_forward_b32_t24_h32",
    );
    gate_sampled(h, &SIMD_LSTM_SPEEDUP, portable, native);

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
    h.record_ns("lstm_forward_backward_b32_t24_h32", both);
    h.record_ns("lstm_backward_b32_t24_h32", both - forward);
    h.gate(&BWD_TO_FWD, (both - forward) / forward);
}

/// One batch-1 forward of the system model's encoder (7 → 48 → 48 over
/// 24 steps, two `Lstm::forward_seq_scratch` calls — two thirds of a
/// forecast miss) over its four GEMMs alone, the same shapes through
/// `kernels::gemm_acc` on zeroed outputs: per layer one input
/// projection (24 × 7 and 24 × 48 into 192 columns) and 24 recurrent
/// row products (1 × 48 into 192). Same process, fastest of 200
/// interleaved rounds. The GEMMs sit at two FP µops per vector
/// multiply-add on two ports, so the ratio is what the fuse, the gate
/// sweeps and dispatch add on top of that floor: 41.5 µs over 30.5 µs,
/// 1.35–1.38 on a quiet host and up to 1.45 on a contended one (32
/// runs, ten of them whole-bench smoke runs; the sweeps are
/// latency-bound and the GEMMs throughput-bound, so a busy sibling
/// moves the ratio). With the gate sweeps back in one pass it reads
/// 1.42–1.44 quiet, with a dispatch per kernel per step 1.36–1.37
/// (EXPERIMENTS.md "The forecast miss at its floor"): on this host the
/// bound cannot tell either apart from contention, and is set to what
/// it can: work per step that is not the step's arithmetic — an
/// allocation, a transposition, lane values forced through memory. The
/// encoder's 1-row products now run skip-free on its scratch's weight
/// check, while this leg's, through the public `gemm_acc`, keep the
/// skip, so the ratio reads lower than the numbers above: 1.20–1.45 in
/// four full runs on a contended host (EXPERIMENTS.md "Training at its
/// floor on one core").
const ENCODER_FORWARD_TO_GEMM: Gate = Gate::at_most("encoder_forward_to_gemm_x", 1.5);

fn bench_encoder(h: &mut Harness) {
    const INPUTS: usize = 7;
    const HIDDEN: usize = 48;
    const STEPS: usize = 24;
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let layers = [
        Lstm::new(INPUTS, HIDDEN, &mut rng),
        Lstm::new(HIDDEN, HIDDEN, &mut rng),
    ];
    let mut scratch = layers.each_ref().map(|l| LstmScratch::new(l, 1, STEPS));
    let window = adrias_nn::init::uniform(STEPS, INPUTS, 1.0, &mut rng);

    // The GEMM legs' operands: per layer the `in × 4H` and `H × 4H`
    // right-hand sides and one row per step on the left.
    let gate_cols = 4 * HIDDEN;
    let operands = [INPUTS, HIDDEN].map(|inputs| {
        (
            adrias_nn::init::uniform(STEPS, inputs, 1.0, &mut rng),
            adrias_nn::init::uniform(inputs, gate_cols, 1.0, &mut rng),
            adrias_nn::init::uniform(STEPS, HIDDEN, 1.0, &mut rng),
            adrias_nn::init::uniform(HIDDEN, gate_cols, 1.0, &mut rng),
        )
    });
    let mut zx = Tensor::zeros(STEPS, gate_cols);
    let mut zh = Tensor::zeros(1, gate_cols);

    const ROUNDS: usize = 200;
    let (gemms, forward) = fastest_interleaved(ROUNDS, 50, |encoder_forward| {
        if encoder_forward {
            let [l1, l2] = &layers;
            let [s1, s2] = &mut scratch;
            let h1 = l1.forward_seq_scratch(black_box(window.data()), 1, s1);
            black_box(l2.forward_last_scratch(h1, 1, s2));
        } else {
            for (x, w_ih_t, h_prev, w_hh_t) in &operands {
                let inputs = x.cols();
                zx.fill(0.0);
                kernels::gemm_acc(
                    black_box(x.data()),
                    (inputs, 1),
                    w_ih_t.data(),
                    zx.data_mut(),
                    (STEPS, inputs, gate_cols),
                );
                for row in h_prev.data().chunks_exact(HIDDEN) {
                    zh.fill(0.0);
                    kernels::gemm_acc(
                        black_box(row),
                        (HIDDEN, 1),
                        w_hh_t.data(),
                        zh.data_mut(),
                        (1, HIDDEN, gate_cols),
                    );
                }
                black_box((&zx, &zh));
            }
        }
    });
    h.record_ns("encoder_forward_b1_t24_h48", forward);
    h.record_ns("encoder_gemms_b1_t24_h48", gemms);
    h.gate(&ENCODER_FORWARD_TO_GEMM, forward / gemms);
}

/// The `matmul_transb` micro-kernel (the dot-product GEMM behind every
/// `Linear::forward_into` on the decision fast lane), AVX2 lane over
/// forced-portable lane. The two produce bit-identical outputs (the
/// lane-order accumulation contract), so the ratio is pure kernel
/// throughput; it reads 1.34–1.41 at full settings and is skipped
/// without AVX2, as [`SIMD_LSTM_SPEEDUP`] is.
const SIMD_GEMM_SPEEDUP: Gate = Gate::at_least("simd_gemm_speedup_x", 1.2).only_if("simd_active");

/// The accumulate-GEMM on its skip-free tile over the same product on
/// the skipping tile, fastest of interleaved legs: the input layer's
/// weight gradient over a whole sequence, `dW_ih += dzᵀ·x` through
/// `kernels::transa_acc` at 192 × 384 × 7 (24 steps of 16 rows into a
/// hidden-48 layer's 7 metric columns). The legs differ only in the
/// start value of `out`: `+0.0` lets the dispatch drop the zero-skip,
/// `-0.0` is a value the skip is visible on, so the dispatch keeps it;
/// both legs scan the same operands to find out. One column vector
/// runs 8-row tiles, where the skipping tile spends an FP compare and a
/// branch on every multiply-add pair: the ratio reads 0.52–0.58
/// (EXPERIMENTS.md "Training at its floor on one core"). A dispatch that
/// stopped choosing the skip-free tile reads 1. The batch-16 `dz·W_hh`
/// product (16 × 192 × 48) runs 2 × 6 tiles, one compare per six pairs,
/// and reads 0.89–0.95 with its scan of `W_hh`: too close to 1 to gate
/// on a shared host.
const GEMM_SKIP_FREE: Gate = Gate::at_most("gemm_skip_free_x", 0.8);

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
    let (portable, native) = ("gemm_transb_scalar_64x128x64", "gemm_transb_64x128x64");
    gate_sampled(h, &SIMD_GEMM_SPEEDUP, portable, native);

    let (rows, cols, features) = (24 * 16, 4 * 48, 7);
    let dz = adrias_nn::init::uniform(rows, cols, 1.0, &mut rng);
    let x = adrias_nn::init::uniform(rows, features, 1.0, &mut rng);
    let mut grad = vec![0.0f32; cols * features];
    const ROUNDS: usize = 100;
    let (skipping, skip_free) = fastest_interleaved(ROUNDS, 20, |skip_free| {
        grad.fill(if skip_free { 0.0 } else { -0.0 });
        kernels::transa_acc(
            black_box(dz.data()),
            x.data(),
            &mut grad,
            (rows, cols, features),
        );
        black_box(&grad);
    });
    h.record_ns("transa_skip_free_192x384x7", skip_free);
    h.record_ns("transa_skipping_192x384x7", skipping);
    h.gate(&GEMM_SKIP_FREE, skip_free / skipping);
}

/// The Watcher window the decision sections decide on: 120 s of a
/// slowly rising LLC load.
fn bench_window() -> Vec<MetricVec> {
    (0..120)
        .map(|t| {
            let mut v = MetricVec::zero();
            v.set(Metric::LlcLoads, 1e8 + t as f32 * 1e5);
            v.set(Metric::LinkLatency, 360.0);
            v
        })
        .collect()
}

/// A forecast-miss Adrias decision over a memo hit.
///
/// * `adrias_decision_fastpath` — a fresh
///   [`adrias_telemetry::WindowStamp`] per call, i.e. every decision is
///   a forecast-cache **miss** (one scratch-based `Ŝ` forecast + one
///   batched perf pass, zero heap allocations).
/// * `adrias_decision_cached` — a constant stamp and one application:
///   every decision after the first is a **memo hit** on the per-stamp
///   record (the signature-table lookup, the head lookup and the
///   placement rule; no model work at all).
///
/// 18.9 µs over 17.6 ns ≈ 1 000 (EXPERIMENTS.md "The engine's callers,
/// written once"), at smoke settings too: orders of magnitude do not
/// drown in runner noise, so the floor is a number. A record that
/// stopped hitting reads 1; hits that ran the prediction head again
/// (the state before PR 17: 125 over the old slow-lane numerator, which
/// was ≈ 4.2 misses) would read ≈ 30.
const DECISION_FASTPATH_SPEEDUP: Gate = Gate::at_least("decision_fastpath_speedup_x", 50.0);

fn bench_decision(h: &mut Harness) {
    use adrias_orchestrator::DecisionContext;
    use adrias_scenarios::{train_stack, StackOptions};
    use adrias_telemetry::WindowStamp;

    let catalog = WorkloadCatalog::paper();
    let stack = train_stack(&catalog, &StackOptions::quick());
    let app = spark::by_name("lr").unwrap();
    let history = bench_window();
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

    let (miss, hit) = ("adrias_decision_fastpath", "adrias_decision_cached");
    gate_sampled(h, &DECISION_FASTPATH_SPEEDUP, miss, hit);
}

/// A forecast-miss decision as the policy makes it — the history branch
/// on the lane's helper thread while the deciding thread forecasts `Ŝ`
/// — over the same miss inline on one thread (`predict_into` →
/// `history_features_into` → `predict_both_from_features`, the window
/// pooled once), fastest of interleaved rounds. The helper takes the
/// ≈ 15 µs branch and the caller the ≈ 40 µs one, so the ratio is what
/// is left of a miss when the short branch hides under the long one:
/// 52.3–54.0 over 67.8–68.9 µs, 0.766–0.784 in ten runs
/// (EXPERIMENTS.md "The forecast miss on two cores"). A lane that no
/// longer overlaps reads the inline miss plus the decision's own
/// bookkeeping: 1.003 and 1.011 pinned to one core, where the policy
/// runs every miss inline. 0.9 is the line between. Skipped on a
/// one-core host (`two_cores` = 0).
const FORECAST_TWO_LANE: Gate = Gate::at_most("forecast_two_lane_x", 0.9).only_if("two_cores");

fn bench_forecast_miss(h: &mut Harness) {
    use adrias_orchestrator::DecisionContext;
    use adrias_predictor::dataset::{pool_rows_into, SEQ_LEN};
    use adrias_predictor::{PerfModelConfig, SystemStateModelConfig};
    use adrias_scenarios::{train_stack, StackOptions};
    use adrias_telemetry::WindowStamp;

    // The perf ledger's model shapes (system 7 → 48 → 48, perf
    // 7 → 24 → 24), trained for a couple of epochs: a miss costs its
    // shapes, not its accuracy.
    let opts = StackOptions {
        system_cfg: SystemStateModelConfig {
            hidden: 48,
            block_width: 64,
            epochs: 2,
            ..SystemStateModelConfig::default()
        },
        perf_cfg: PerfModelConfig {
            epochs: 2,
            ..PerfModelConfig::default()
        },
        ..StackOptions::quick()
    };
    let stack = train_stack(&WorkloadCatalog::paper(), &opts);
    let app = spark::by_name("lr").unwrap();
    let history = bench_window();
    let signature = stack
        .signatures
        .iter()
        .find(|s| s.app_name() == app.name())
        .expect("the stack profiled lr");

    // The inline leg: the three stages on this thread's own scratch.
    let (system, perf) = (&stack.system_model, &stack.be_model);
    let mut sys_scratch = system.make_scratch();
    let mut scratch = perf.make_scratch();
    let h_k = perf
        .signature_features_into(&perf.normalized_signature_window(signature), &mut scratch)
        .to_vec();
    let mut pooled = Vec::with_capacity(SEQ_LEN);
    let mut h_s = Vec::with_capacity(perf.config().hidden);

    // The two-lane leg: the policy, a fresh stamp per call.
    let mut policy = stack.policy(0.8, 5.0);
    let mut version = 0u64;

    const ROUNDS: usize = 100;
    let (inline, two_lane) = fastest_interleaved(ROUNDS, 50, |two_lane| {
        if two_lane {
            version += 1;
            black_box(policy.decide_explained(&DecisionContext {
                profile: &app,
                history: Some(&history),
                qos_p99_ms: Some(5.0),
                stamp: Some(WindowStamp {
                    source: u64::MAX,
                    version,
                }),
            }));
        } else {
            pool_rows_into(black_box(&history), SEQ_LEN, &mut pooled);
            let s_hat = system.predict_into(&pooled, &mut sys_scratch);
            h_s.clear();
            h_s.extend_from_slice(perf.history_features_into(&pooled, &mut scratch));
            black_box(perf.predict_both_from_features(
                &h_s,
                &h_k,
                MemoryMode::BOTH,
                Some(&s_hat),
                &mut scratch,
            ));
        }
    });
    h.record_ns("forecast_miss_inline", inline);
    h.record_ns("forecast_miss_two_lane", two_lane);
    h.gate(&FORECAST_TWO_LANE, two_lane / inline);
}

/// The dense run under the full in-memory [`adrias_obs::Observer`]
/// (audit trail, trace events and the per-step pressure/latency
/// sketches, no exporter) over the same run unobserved
/// ([`MeasuredNoop`]: every hook an empty inlined method, every second
/// measured), [`paired_ratio`] median — ≈ 1–2 µs per decision for
/// owned audit and trace strings
/// and a fixed tax per simulated second (link latency + three pressure
/// sketches), so the ratio depends on how much work a second carries.
/// Tracing alone read 1.00–1.03 and is not gated apart. At CI's smoke
/// settings ten whole-bench runs read 1.127–1.285 and ten runs of the
/// section alone 1.328–1.477 — two modes of one binary, as at the
/// parent, and not the tensor-alignment lottery they were once put down
/// to: the section runs `RoundRobinPolicy` and executes no `adrias-nn`
/// kernel, and the modes are still there with every tensor aligned.
/// They are the allocator handing memory back between runs: with
/// glibc's `MALLOC_TRIM_THRESHOLD_` and `MALLOC_MMAP_THRESHOLD_` both
/// pinned high the section alone reads 1.16–1.28 (six of six runs) and
/// both legs run a quarter faster, i.e. in a fresh process each run
/// page-faults its ≥ 128 KiB buffers and the trimmed heap top in again
/// — the observed leg more of them — while after the earlier sections
/// the heap is grown and fragmented and serves them from free lists
/// (EXPERIMENTS.md "The forecast miss at its floor"). The ceiling is
/// twice the worst excess seen before this was understood, so it
/// catches the per-step cost doubling in either mode, not a 10 % drift.
const OBS_OVERHEAD: Gate = Gate::at_most("obs_overhead_x", 1.75);

/// The `()` observer's empty hooks with the default
/// `reads_samples`: the engine measures every second, as it must for
/// any observer that reads them. Under `()` itself the dense mix's
/// drain — most of the run, after the last arrival — is read by
/// nothing and skips its deviates (the `unread_second` section prices
/// that), and the ratio would then be the observer's bookkeeping plus
/// the measurement it asks for: 3.9 against 1.2 here.
struct MeasuredNoop;

impl EngineObserver for MeasuredNoop {}

fn bench_obs_overhead(h: &mut Harness) {
    let arrivals = dense_mix();
    let run_plain = || {
        let hooks = &mut MeasuredNoop;
        black_box(dense_run(&arrivals, &mut RoundRobinPolicy::new(), hooks));
    };
    let run_observed = || observed_run(&arrivals, &mut RoundRobinPolicy::new());
    let observed = ("engine_run_observed_no_export", &run_observed as &dyn Fn());
    let ratio = paired_ratio(h, observed, ("engine_run_plain", &run_plain));
    h.gate(&OBS_OVERHEAD, ratio);
}

/// The residual tracker riding along the dense run over the same run
/// observed only, [`paired_ratio`] median. Both legs use the trained
/// Adrias policy (so decisions carry the predictions the tracker joins
/// on) and the tracked leg pays the full online-adaptation read path:
/// pending joins at decision and completion, the 1 Hz trace the scoring
/// reads, the end-of-run system-forecast scoring pass, and the flush
/// into the registry. It
/// reads 0.98–1.005 at 40 rounds; at CI's smoke settings (three rounds)
/// 22 runs of the section alone read 0.959–1.114, the upper end on a
/// contended host (EXPERIMENTS.md "The engine's callers, written
/// once"). The ceiling is twice the worst excess seen.
const ONLINE_RESIDUAL_OVERHEAD: Gate = Gate::at_most("online_residual_overhead_x", 1.25);

fn bench_residual_overhead(h: &mut Harness) {
    use adrias_orchestrator::{ResidualConfig, ResidualTracker, Trace};
    use adrias_scenarios::{train_stack, StackOptions};

    let stack = train_stack(&WorkloadCatalog::paper(), &StackOptions::quick());
    let arrivals = dense_mix();
    let run_observed = || observed_run(&arrivals, &mut stack.policy(0.8, 5.0));
    let run_tracked = || {
        let mut obs = Observer::new(ObsConfig::default());
        let mut tracker = ResidualTracker::new(ResidualConfig::default());
        let mut trace = Trace::default();
        let mut hooks = (
            (&mut tracker, &mut trace),
            ObservedRun::with_qos(&mut obs, None),
        );
        dense_run(&arrivals, &mut stack.policy(0.8, 5.0), &mut hooks);
        tracker.score_system_forecasts(&trace, &stack.system_model);
        black_box(tracker.flush(&mut obs));
    };
    let tracked = ("engine_run_adrias_tracked", &run_tracked as &dyn Fn());
    let ratio = paired_ratio(h, tracked, ("engine_run_adrias_observed", &run_observed));
    h.gate(&ONLINE_RESIDUAL_OVERHEAD, ratio);
}

fn main() {
    let filter = std::env::var("ADRIAS_BENCH_FILTER").unwrap_or_default();
    type Section = fn(&mut Harness);
    let sections: [(&str, Section); 10] = [
        ("testbed_step", bench_sim_step),
        ("unread_second", bench_unread_second),
        ("lc_tail", bench_lc_tail),
        ("lstm", bench_lstm),
        ("encoder_forward", bench_encoder),
        ("gemm", bench_gemm),
        ("adrias_decision", bench_decision),
        ("forecast_miss", bench_forecast_miss),
        ("obs_overhead", bench_obs_overhead),
        ("residual_overhead", bench_residual_overhead),
    ];

    let mut h = Harness::new("micro");
    // 1 when the native legs run a SIMD lane: the `simd_*` rows bind
    // only then.
    h.derive("simd_active", f64::from(u8::from(adrias_nn::simd_active())));
    // Which one: 16 (AVX-512), 8 (AVX2) or 0 — a report, no row reads it.
    h.derive("simd_lanes", adrias_nn::simd_lanes() as f64);
    // 1 when the host has a second core for the history lane's helper:
    // the `forecast_two_lane_x` row binds only then.
    let two_cores = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    h.derive("two_cores", f64::from(u8::from(two_cores)));
    for (section, bench) in sections {
        if filter.is_empty() || section.contains(filter.as_str()) {
            bench(&mut h);
        }
    }

    // `cargo bench` runs with the package directory as cwd; anchor the
    // report at the workspace root so CI and humans find it in one place.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_nn.json");
    h.write_json(&path).expect("write BENCH_nn.json");
    println!("wrote {}", path.display());
    let failed = h.failed_gates();
    if !failed.is_empty() {
        eprintln!("gates failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}
