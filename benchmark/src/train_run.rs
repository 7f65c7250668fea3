//! The `train_offline` workload: the offline phase (`train_stack`) walked
//! stage by stage through its public functions, on a stack small enough
//! that a run repeats it a hundred times.
//!
//! `train_stack` cannot be cut into segments from outside, and on this
//! host only a time assembled from short segments repeats (see
//! [`SegmentFloor`]). So a rep is the body of `train_stack` spelt out, one
//! stopwatch per stage, on `bench_stack` at [`StackSize::Small`]; the
//! longest stage lasts about 50 ms. What the full-size `bench_stack`
//! costs is the `setup_s` of the three engine workloads.

use std::time::Instant;

use adrias_core::rng::{SeedableRng, Xoshiro256pp};
use adrias_nn::TrainStats;
use adrias_predictor::{
    PerfDataset, PerfModel, PerfModelConfig, SHatSource, SystemStateDataset, SystemStateModel,
};
use adrias_scenarios::{
    collect_signatures, collect_traces, train_stack, StackOptions, TrainLosses,
};
use adrias_workloads::{WorkloadCatalog, WorkloadClass};

use crate::host::{self, Stopwatch};
use crate::inputs::Fnv;
use crate::metrics::Values;
use crate::probes;
use crate::report::{RunArgs, RunResult};
use crate::spec::{bench_stack, Seeds, StackSize};
use crate::stats::{fastest, SegmentFloor};

/// Digest of the three per-epoch loss traces.
fn loss_digest(losses: &TrainLosses) -> u64 {
    let mut h = Fnv::default();
    for trace in [&losses.system, &losses.be, &losses.lc] {
        h.u64(trace.len() as u64);
        for loss in trace {
            h.u64(u64::from(loss.to_bits()));
        }
    }
    h.finish()
}

/// Models left untrained or whose final epoch loss is not finite.
fn failed_models(stats: [Option<TrainStats>; 3], losses: &TrainLosses) -> u64 {
    let finite = |trace: &[f32]| trace.last().is_some_and(|l| l.is_finite());
    stats
        .iter()
        .zip([&losses.system, &losses.be, &losses.lc])
        .filter(|(stats, trace)| stats.is_none() || !finite(trace))
        .count() as u64
}

fn samples(stats: Option<TrainStats>) -> f64 {
    stats.map_or(0.0, |s| s.samples as f64)
}

/// Times `f`, returning its result and its wall-clock seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The stages of the offline phase, by the metric that reports each.
const STAGES: [&str; 6] = [
    "scenarios.collect_signatures.wall_s",
    "scenarios.collect_traces.wall_s",
    "predictor.dataset_build.wall_s",
    "predictor.system_train.wall_s",
    "predictor.be_train.wall_s",
    "predictor.lc_train.wall_s",
];

/// One walk through the stages.
struct Staged {
    /// Seconds of each of [`STAGES`].
    stages_s: [f64; 6],
    /// Digest of the three loss traces; must equal `train_stack`'s.
    digest: u64,
    /// Training statistics of the system, BE and LC model.
    stats: [Option<TrainStats>; 3],
    /// Models that ended untrained or with a non-finite loss.
    failed: u64,
    /// Simulated seconds of the trace corpus.
    sim_s: f64,
    /// Held-out accuracy `(system, be, lc)` and the seconds evaluating
    /// took, when asked for.
    accuracy: Option<([f32; 3], f64)>,
    /// The trained forecaster.
    system_model: SystemStateModel,
}

/// The body of `train_stack` spelt out with a stopwatch around each
/// public stage function; `evaluate` adds the held-out evaluation (40 %
/// split, the perf models served the propagated Ŝ) after the last stage.
fn staged(catalog: &WorkloadCatalog, opts: &StackOptions, evaluate: bool) -> Staged {
    let (signatures, signatures_s) = timed(|| collect_signatures(opts.testbed, catalog, opts.seed));

    let (traces, traces_s) = timed(|| {
        let mut entries = catalog.entries().to_vec();
        let lc: Vec<_> = catalog.latency_critical().cloned().collect();
        for _ in 1..opts.lc_oversample.max(1) {
            entries.extend(lc.iter().cloned());
        }
        let trace_catalog = WorkloadCatalog::from_profiles(entries);
        collect_traces(opts.testbed, &trace_catalog, &opts.corpus, opts.threads)
    });

    let ((sys_split, be_split, be_hats, lc_split, lc_hats), dataset_s) = timed(|| {
        let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);
        let system_ds =
            SystemStateDataset::from_traces(&traces.system_traces(), opts.system_stride_s);
        let sys_split = system_ds.split(opts.train_frac, &mut rng);
        let be_ds = PerfDataset::new(traces.perf_records(WorkloadClass::BestEffort), &signatures);
        let be_split = be_ds.split(opts.train_frac, &mut rng);
        let be_hats = SHatSource::Actual120.materialize(&be_split.0, None);
        let lc_ds = PerfDataset::new(
            traces.perf_records(WorkloadClass::LatencyCritical),
            &signatures,
        );
        assert!(
            lc_ds.len() >= 5,
            "bench_stack corpus yields too few LC records"
        );
        let lc_split = lc_ds.split(opts.train_frac, &mut rng);
        let lc_hats = SHatSource::Actual120.materialize(&lc_split.0, None);
        (sys_split, be_split, be_hats, lc_split, lc_hats)
    });

    let mut system_model = SystemStateModel::new(opts.system_cfg);
    let (system_losses, system_s) = timed(|| system_model.train(&sys_split.0));

    let mut be_model = PerfModel::new(opts.perf_cfg);
    let (be_losses, be_s) = timed(|| be_model.train(&be_split.0, &be_hats));

    let mut lc_model = PerfModel::new(PerfModelConfig {
        seed: opts.perf_cfg.seed ^ 0x1C,
        epochs: opts.perf_cfg.epochs + opts.perf_cfg.epochs / 2,
        ..opts.perf_cfg
    });
    let (lc_losses, lc_s) = timed(|| lc_model.train(&lc_split.0, &lc_hats));

    let accuracy = evaluate.then(|| {
        timed(|| {
            let system_r2 = system_model.evaluate(&sys_split.1).1.r2;
            let hats = SHatSource::Propagated.materialize(&be_split.1, Some(&mut system_model));
            let be_r2 = be_model.evaluate(&be_split.1, &hats).r2;
            let hats = SHatSource::Propagated.materialize(&lc_split.1, Some(&mut system_model));
            let lc_r2 = lc_model.evaluate(&lc_split.1, &hats).r2;
            [system_r2, be_r2, lc_r2]
        })
    });

    let stats = [
        system_model.last_train_stats(),
        be_model.last_train_stats(),
        lc_model.last_train_stats(),
    ];
    let losses = TrainLosses {
        system: system_losses,
        be: be_losses,
        lc: lc_losses,
    };
    Staged {
        stages_s: [signatures_s, traces_s, dataset_s, system_s, be_s, lc_s],
        digest: loss_digest(&losses),
        stats,
        failed: failed_models(stats, &losses),
        sim_s: traces.reports().iter().map(|r| r.end_time_s).sum(),
        accuracy,
        system_model,
    }
}

/// One span per stage under a root span, laid end to end from 0.
fn stage_spans(stages_s: &[f64; 6]) -> Vec<String> {
    let span = |id: usize, parent: &str, name: &str, start_s: f64, end_s: f64| {
        format!(
            "{{\"name\":\"{name}\",\"id\":{id},\"parent\":{parent},\"trace\":0,\"start_ns\":{},\"end_ns\":{}}}",
            (start_s * 1e9) as u64,
            (end_s * 1e9) as u64
        )
    };
    let total_s = stages_s.iter().sum();
    let mut spans = vec![span(
        0,
        "null",
        "scenarios.train_stack.staged",
        0.0,
        total_s,
    )];
    let mut start_s = 0.0;
    for (i, (name, wall_s)) in STAGES.iter().zip(stages_s).enumerate() {
        let name = name.trim_end_matches(".wall_s");
        spans.push(span(i + 1, "0", name, start_s, start_s + wall_s));
        start_s += wall_s;
    }
    spans
}

/// Runs `train_offline` as `args` asks.
pub fn run(args: &RunArgs) -> RunResult {
    let seeds = Seeds::of_run(args.seed);
    let mut result = RunResult::default();

    // Set-up: build the inputs and call `train_stack` itself once, which
    // warms up and gives the digest every staged rep must reproduce.
    let ((catalog, opts, reference), setup_s) = host::repeat_setup(args.trace, || {
        let catalog = WorkloadCatalog::paper();
        let opts = bench_stack(&seeds, StackSize::Small);
        let reference = loss_digest(&train_stack(&catalog, &opts).train_losses);
        (catalog, opts, reference)
    });
    result.peak_rss_includes_setup = !host::reset_peak_rss();
    result.digest = reference;

    let min_reps = if args.trace { 2 } else { 3 };
    let mut floor = SegmentFloor::default();
    let mut first: Option<Staged> = None;
    // `host::peak_rss_mib` after the first rep.
    let mut peak_rss_mb = 0.0;
    // A traced run follows every staged rep with a `train_stack` call and
    // holds the fastest of each against the other.
    let mut staged_s = Vec::new();
    let mut whole_s = Vec::new();
    let started = Instant::now();
    while result.reps.len() < min_reps || started.elapsed().as_secs_f64() < args.seconds {
        let watch = Stopwatch::start();
        let rep = staged(&catalog, &opts, false);
        result.reps.push(watch.stop());
        if result.reps.len() == 1 {
            peak_rss_mb = host::peak_rss_mib();
        }
        floor.fold(&rep.stages_s);
        staged_s.push(rep.stages_s.iter().sum());
        result.attempted += 3;
        result.failed += rep.failed;
        if rep.digest != reference {
            result.checks.fail(format!(
                "rep {}: loss digest {:#018x} differs from train_stack's",
                result.reps.len(),
                rep.digest
            ));
        }
        first.get_or_insert(rep);
        if args.trace {
            whole_s.push(timed(|| train_stack(&catalog, &opts)).1);
        }
    }
    if result.failed != 0 {
        result
            .checks
            .fail(format!("{} models untrained or non-finite", result.failed));
    }
    result.segments = floor.segments();
    let rep = first.expect("at least one rep");
    let run_wall_s = floor.total_s();
    let trained_samples: f64 = rep.stats.iter().map(|s| samples(*s)).sum();

    let mut values = Values::default();
    if !args.trace {
        values.set("setup_s", setup_s);
        values.set("run_wall_s", run_wall_s);
        values.set("work_per_wall_s", trained_samples / run_wall_s);
        values.set("peak_rss_mb", peak_rss_mb);
        result.values = values;
        return result;
    }

    result.spans = stage_spans(floor.min_s().try_into().expect("six stages"));
    for (name, wall_s) in STAGES.iter().zip(floor.min_s()) {
        values.set(name, *wall_s);
    }
    // The last three stages train one model each.
    for (model, name) in [
        "predictor.system_train.samples_per_s",
        "predictor.be_train.samples_per_s",
        "predictor.lc_train.samples_per_s",
    ]
    .into_iter()
    .enumerate()
    {
        values.set(name, samples(rep.stats[model]) / floor.min_s()[3 + model]);
    }
    // Whole call against whole walk, each the fastest of reps that took
    // turns: the walk is the same work, so this reads 1 but for the host.
    let (untraced_s, traced_s) = (fastest(&whole_s), fastest(&staged_s));
    let closure = traced_s / untraced_s;
    values.set("predictor.train.stage_closure_frac", closure);
    if !(0.95..=1.05).contains(&closure) {
        println!("WARNING: the staged walk takes {closure:.3} of the train_stack call");
    }
    values.set("untraced_run_wall_s", untraced_s);
    values.set("traced_run_wall_s", traced_s);
    values.set("trace.overhead_x", closure);
    values.set("sim_s_per_wall_s", rep.sim_s / run_wall_s);

    // Accuracy is that of the full-size `bench_stack` of this `--seed`.
    let full = bench_stack(&seeds, StackSize::of_run(args.smoke));
    let mut full = staged(&catalog, &full, true);
    let (r2, eval_s) = full.accuracy.expect("asked to evaluate");
    values.set("predictor.eval.wall_s", eval_s);
    values.set("system_r2", f64::from(r2[0]));
    values.set("be_r2", f64::from(r2[1]));
    values.set("lc_r2", f64::from(r2[2]));

    values.set("ops_attempted", result.attempted as f64);
    values.set("ops_failed", result.failed as f64);
    probes::run(
        &mut full.system_model,
        probes::tail_latency_ns(),
        &mut values,
    );
    result.values = values;
    result
}
