//! Frozen workload definitions: names, sizes, seed derivation and the
//! shared `bench_stack` every engine workload trains in set-up.

use adrias_predictor::{PerfModelConfig, SystemStateModelConfig};
use adrias_scenarios::{ScenarioSpec, StackOptions};
use adrias_sim::TestbedConfig;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-density Poisson traffic over the full catalog.
    MixedSteady,
    /// Bursty MMPP traffic of short BE/iBench jobs (no LC services).
    BurstDense,
    /// Very sparse diurnal traffic over weeks of simulated time.
    SparseDiurnal,
    /// The offline phase: `train_stack` on `bench_stack`.
    TrainOffline,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::MixedSteady,
        Workload::BurstDense,
        Workload::SparseDiurnal,
        Workload::TrainOffline,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedSteady => "mixed_steady",
            Workload::BurstDense => "burst_dense",
            Workload::SparseDiurnal => "sparse_diurnal",
            Workload::TrainOffline => "train_offline",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size divisor of a `--smoke` run: every workload at 1/50 size.
pub const SMOKE_DIVISOR: u32 = 50;
/// Size divisor of the warm-up pass: a 1/20 prefix of the workload.
pub const WARMUP_DIVISOR: u32 = 20;

/// The `--seed` whose `bench_stack` every engine workload trains its
/// policy from, whatever its own `--seed`.
///
/// At this training budget the policy is a lottery over the stack seed:
/// across seeds 1–8 it offloads anything from 0 to 99 % of `mixed_steady`,
/// which moves the resident count — and the host time of a rep — by up to
/// 3×. The engine workloads are about the speed of the engine under one
/// policy, so the policy is pinned and `--seed` varies the traffic. Seed 1
/// has the best held-out accuracy of the eight and places both ways on
/// every workload.
///
/// The same seed pins the two streams that decide *how much* work a rep
/// is (see [`Seeds::of_run`]).
pub const POLICY_SEED: u64 = 1;

/// β slack of the benchmarked policy.
pub const BETA: f32 = 0.7;
/// p99 QoS constraint of the benchmarked policy and engine, ms.
pub const QOS_P99_MS: f32 = 5.0;

/// The size of one rep of an engine workload: the stream ends at
/// whichever of the two limits binds first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSize {
    /// Arrival-source horizon, simulated seconds.
    pub horizon_s: f64,
    /// Cap on arrivals issued.
    pub max_arrivals: u64,
    /// The arrival generator reads the stopwatch every this many
    /// arrivals, cutting a rep into segments of 10–50 ms (see
    /// `inputs::Issued::laps`).
    pub lap_arrivals: u64,
}

/// Frozen full sizes, scaled to fit the driver's time cap by shrinking
/// the horizon only — rates and mixes are the issue's.
///
/// `burst_dense` is bound by arrival count, not horizon: the MMPP
/// burst-state sojourns make the arrival count of a fixed horizon vary
/// by several percent between seeds, which would show as run-to-run
/// spread in wall time and peak RSS.
///
/// # Panics
///
/// Panics on [`Workload::TrainOffline`], which has no arrival stream.
pub fn engine_size(workload: Workload, divisor: u32) -> EngineSize {
    let d = f64::from(divisor);
    match workload {
        Workload::MixedSteady => EngineSize {
            horizon_s: 21_600.0 / d,
            max_arrivals: u64::MAX,
            lap_arrivals: 50,
        },
        Workload::BurstDense => EngineSize {
            horizon_s: f64::INFINITY,
            max_arrivals: 50_000 / u64::from(divisor),
            lap_arrivals: 1_000,
        },
        Workload::SparseDiurnal => EngineSize {
            horizon_s: 4.0 * 86_400.0 / d,
            max_arrivals: u64::MAX,
            lap_arrivals: 25,
        },
        Workload::TrainOffline => panic!("train_offline has no arrival stream"),
    }
}

/// Every RNG seed of a run, derived from `--seed` by a fixed stride and
/// fixed offsets so neighbouring `--seed` values share no stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// First trace-corpus scenario seed (scenario `i` uses `corpus + i`).
    pub corpus: u64,
    /// System-state model initialisation.
    pub system_init: u64,
    /// Performance-model initialisation.
    pub perf_init: u64,
    /// `StackOptions::seed` (signature capture, dataset splits).
    pub stack: u64,
    /// Arrival-instant source.
    pub source: u64,
    /// Catalog pick, forced modes and residency draws.
    pub pick: u64,
    /// `EngineConfig::seed` (testbed noise, LC latency sampling).
    pub engine: u64,
}

impl Seeds {
    /// Derives every stream seed from the command-line `--seed`.
    pub fn derive(seed: u64) -> Self {
        let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            corpus: base.wrapping_add(0x1000),
            system_init: base.wrapping_add(0x2000),
            perf_init: base.wrapping_add(0x3000),
            stack: base.wrapping_add(0x4000),
            source: base.wrapping_add(0x5000),
            pick: base.wrapping_add(0x6000),
            engine: base.wrapping_add(0x7000),
        }
    }

    /// The seeds of a run: everything from `--seed` but the arrival
    /// instants and the trace corpus, which are those of [`POLICY_SEED`].
    ///
    /// Those two streams set how much work a rep is — how many arrivals
    /// and how long the bursts, how many samples to train on — and a rep
    /// short enough to be repeated fifty times in a run holds too few
    /// bursts, or scenarios, to average that out: over seeds 1–5 a
    /// 50 000-arrival `burst_dense` rep took 0.33–0.51 s with its own
    /// burst pattern. `--seed` draws everything else: which profile
    /// arrives when, residencies, forced modes, the engine's noise, model
    /// initialisation, signature capture and dataset splits.
    pub fn of_run(seed: u64) -> Self {
        let pinned = Self::derive(POLICY_SEED);
        Self {
            corpus: pinned.corpus,
            source: pinned.source,
            ..Self::derive(seed)
        }
    }
}

/// Training threads and data-parallel workers. One, not the issue's
/// `min(2, nproc)`: the on-CPU clock follows one thread, and a second
/// core of this host is as likely to be a neighbour's as ours.
const TRAIN_THREADS: usize = 1;

/// How much offline training a stack gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackSize {
    /// The frozen `bench_stack`: 6 × 900 s corpus, 8 / 14 epochs. Every
    /// engine workload trains it in set-up.
    Full,
    /// 2 × 450 s corpus, 2 / 4 epochs, about 1/25 of the work: what a
    /// `train_offline` rep trains, and every `--smoke` run.
    Small,
}

impl StackSize {
    /// The stack a run trains: small for `--smoke`, else full.
    pub fn of_run(smoke: bool) -> Self {
        if smoke {
            StackSize::Small
        } else {
            StackSize::Full
        }
    }
}

/// The shared stack options: paper-default model shapes (system model
/// `hidden 48 / block_width 64`, `PerfModelConfig::default()` widths) on
/// `TestbedConfig::paper()`, with corpus and epochs scaled down from the
/// issue's 8 × 1200 s at 20 epochs so that three set-ups fit one run.
pub fn bench_stack(seeds: &Seeds, size: StackSize) -> StackOptions {
    let (scenarios, duration_s, system_epochs, perf_epochs) = match size {
        StackSize::Full => (6, 900.0, 8, 14),
        StackSize::Small => (2, 450.0, 2, 4),
    };
    let workers = TRAIN_THREADS;
    StackOptions {
        testbed: TestbedConfig::paper(),
        corpus: (0..scenarios)
            .map(|i| {
                ScenarioSpec::new(
                    5.0,
                    20.0 + 5.0 * (i % 9) as f64,
                    duration_s,
                    seeds.corpus.wrapping_add(i),
                )
            })
            .collect(),
        system_cfg: SystemStateModelConfig {
            hidden: 48,
            block_width: 64,
            epochs: system_epochs,
            seed: seeds.system_init,
            workers,
            ..SystemStateModelConfig::default()
        },
        perf_cfg: PerfModelConfig {
            epochs: perf_epochs,
            seed: seeds.perf_init,
            workers,
            ..PerfModelConfig::default()
        },
        threads: workers,
        seed: seeds.stack,
        ..StackOptions::default()
    }
}

/// The frozen sizes of `workload` as a JSON object for the result files.
pub fn sizes_json(workload: Workload, smoke: bool) -> String {
    let size = StackSize::of_run(smoke || workload == Workload::TrainOffline);
    let stack = bench_stack(&Seeds::derive(0), size);
    let stack = format!(
        "{{\"scenarios\":{},\"scenario_s\":{},\"system_epochs\":{},\"perf_epochs\":{},\"threads\":{}}}",
        stack.corpus.len(),
        stack.corpus[0].duration_s,
        stack.system_cfg.epochs,
        stack.perf_cfg.epochs,
        stack.threads
    );
    if workload == Workload::TrainOffline {
        return format!("{{\"stack\":{stack}}}");
    }
    let size = engine_size(workload, if smoke { SMOKE_DIVISOR } else { 1 });
    let horizon = if size.horizon_s.is_finite() {
        size.horizon_s.to_string()
    } else {
        "null".to_owned()
    };
    let arrivals = if size.max_arrivals == u64::MAX {
        "null".to_owned()
    } else {
        size.max_arrivals.to_string()
    };
    format!(
        "{{\"horizon_s\":{horizon},\"max_arrivals\":{arrivals},\"lap_arrivals\":{},\"stack\":{stack}}}",
        size.lap_arrivals
    )
}
