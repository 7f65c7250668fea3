//! The paper's evaluation as one table.
//!
//! [`FIGURES`] holds one row per table and figure of the evaluation
//! (§IV Figs. 2–10, §VI Table I and Figs. 12–17, in DESIGN.md §3
//! order): an id, the banner naming what the paper reports, and the
//! function that prints the series this reproduction measures next to
//! it. The `paper` bench target runs the rows its arguments select
//! (all of them without arguments) over one [`Ctx`], so the Adrias
//! stack that Table I, Figs. 12–17 and the traffic comparison share is
//! trained once per process, and only when a selected row asks for it.
//!
//! Scale (environment variables, read once by [`Scale::from_env`]):
//!
//! * `ADRIAS_SCENARIOS` — number of trace-collection scenarios
//!   (default 10; the paper uses 72);
//! * `ADRIAS_DURATION` — scenario duration in seconds (default 1500;
//!   the paper uses 3600);
//! * `ADRIAS_EVAL_SCENARIOS` — scenarios per policy in the
//!   orchestration comparisons (default 6);
//! * `ADRIAS_THREADS` — worker threads (default: available cores);
//! * `ADRIAS_LOO_EPOCHS` — epochs per retraining in Fig. 15 (default:
//!   the BE model's own, capped at 25 to keep 17 retrainings
//!   affordable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accuracy;
mod characterization;
mod orchestration;

use std::io::Write;

use adrias_orchestrator::{AllLocalPolicy, Policy, RandomPolicy, RoundRobinPolicy};
use adrias_scenarios::{
    collect_traces, run_comparison, scaled_corpus, train_stack, PolicyOutcome, ScenarioSpec,
    StackOptions, TraceBundle, TrainedStack,
};
use adrias_sim::TestbedConfig;
use adrias_workloads::WorkloadCatalog;

/// How large an evaluation to run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Trace-collection scenarios.
    pub scenarios: usize,
    /// Seconds per scenario.
    pub duration_s: f64,
    /// Scenarios per policy in the orchestration comparisons.
    pub eval_scenarios: usize,
    /// Worker threads for scenario execution and training.
    pub threads: usize,
    /// Epochs per Fig. 15 retraining; `None` takes the capped default.
    pub loo_epochs: Option<usize>,
}

/// An environment variable's value, if it is set and parses.
fn var<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.parse().ok()
}

impl Scale {
    /// The scale the `ADRIAS_*` variables ask for. An unset or
    /// unparseable variable takes its default, written here only.
    pub fn from_env() -> Self {
        Self {
            scenarios: var("ADRIAS_SCENARIOS").unwrap_or(10),
            duration_s: var("ADRIAS_DURATION").unwrap_or(1500.0),
            eval_scenarios: var("ADRIAS_EVAL_SCENARIOS").unwrap_or(6),
            threads: var("ADRIAS_THREADS")
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get())),
            loo_epochs: var("ADRIAS_LOO_EPOCHS"),
        }
    }

    /// The trace-collection corpus at this scale.
    fn corpus(&self) -> Vec<ScenarioSpec> {
        scaled_corpus(self.scenarios, self.duration_s)
    }

    /// Epochs per Fig. 15 retraining of a model trained for `trained`.
    fn loo_epochs(&self, trained: usize) -> usize {
        self.loo_epochs.unwrap_or(trained.min(25))
    }
}

/// What the rows of one run share: the scale, and the expensive inputs
/// more than one row reads, each built on first use and at most once.
pub struct Ctx {
    scale: Scale,
    stack: Option<TrainedStack>,
    traces: Option<TraceBundle>,
}

impl Ctx {
    /// A context that has built nothing yet.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            stack: None,
            traces: None,
        }
    }

    /// The full Adrias stack trained at this scale, reporting on stderr
    /// how long the one training took.
    fn stack(&mut self) -> &mut TrainedStack {
        let scale = self.scale;
        self.stack.get_or_insert_with(|| {
            let (corpus, threads) = (scale.corpus(), scale.threads);
            eprintln!(
                "[setup] training Adrias stack: {} scenarios x {:.0}s, {} threads ...",
                corpus.len(),
                corpus.first().map_or(0.0, |s| s.duration_s),
                threads
            );
            let start = std::time::Instant::now();
            let opts = StackOptions {
                corpus,
                threads,
                ..StackOptions::default()
            };
            let stack = train_stack(&WorkloadCatalog::paper(), &opts);
            eprintln!(
                "[setup] stack ready in {:.1}s ({} BE / {} LC test records)",
                start.elapsed().as_secs_f64(),
                stack.be_split.1.len(),
                stack.lc_split.as_ref().map_or(0, |(_, t)| t.len()),
            );
            stack
        })
    }

    /// The corpus replayed over the unmodified paper catalog (the
    /// stack's own traces oversample the LC services) — what Figs. 9
    /// and 10 draw their distributions from.
    fn traces(&mut self) -> &TraceBundle {
        let scale = self.scale;
        self.traces.get_or_insert_with(|| {
            let catalog = WorkloadCatalog::paper();
            collect_traces(
                TestbedConfig::paper(),
                &catalog,
                &scale.corpus(),
                scale.threads,
            )
        })
    }

    /// The evaluation corpus of the orchestration comparisons.
    fn eval_specs(&self) -> Vec<ScenarioSpec> {
        let spawn_max = |i: usize| 20.0 + 5.0 * (i % 9) as f64;
        (0..self.scale.eval_scenarios)
            .map(|i| ScenarioSpec::new(5.0, spawn_max(i), self.scale.duration_s, 0xEBA1 + i as u64))
            .collect()
    }

    /// The evaluation's policy roster replayed over the orchestration
    /// corpus under `qos_ms`: Random (seeded per figure), Round-Robin,
    /// All-Local, then Adrias at each of `betas`, in that order.
    fn compare(&mut self, random_seed: u64, betas: &[f32], qos_ms: f32) -> Vec<PolicyOutcome> {
        let specs = self.eval_specs();
        let threads = self.scale.threads;
        let stack = &*self.stack();
        run_comparison(
            TestbedConfig::paper(),
            &WorkloadCatalog::paper(),
            &specs,
            3 + betas.len(),
            Some(qos_ms),
            threads,
            |i| -> Box<dyn Policy + Send> {
                match i {
                    0 => Box::new(RandomPolicy::new(random_seed)),
                    1 => Box::new(RoundRobinPolicy::new()),
                    2 => Box::new(AllLocalPolicy::new()),
                    j => Box::new(stack.policy(betas[j - 3], qos_ms)),
                }
            },
        )
    }
}

/// Whether a row had the data to print its series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The series was printed.
    Ran,
    /// The scale yields too few records; the row said so and stopped.
    Skipped,
}

/// One table or figure of the paper's evaluation.
pub struct Figure {
    /// What selects the row on the command line.
    pub id: &'static str,
    /// The paper's name for it and what it shows.
    pub title: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// Appends the lines of the measured series.
    pub run: fn(&mut Ctx, &mut Vec<String>) -> Outcome,
}

impl Figure {
    /// The banner and the measured series below it, as printed.
    pub fn text(&self, ctx: &mut Ctx) -> (String, Outcome) {
        let rule = "================================================================";
        let (title, paper) = (self.title, self.paper);
        let mut lines = vec![format!("{rule}\n{title}\npaper: {paper}\n{rule}")];
        let outcome = (self.run)(ctx, &mut lines);
        (lines.join("\n") + "\n", outcome)
    }
}

/// The evaluation, in DESIGN.md §3 order.
pub const FIGURES: [Figure; 17] = [
    Figure {
        id: "fig02",
        title: "Fig. 2: ThymesisFlow channel saturation sweep",
        paper: "throughput caps at ~2.5 Gbit/s (R1); latency ~350 cycles until 4 \
                stressors, ~900-cycle plateau from 8 (R2); traffic visible in \
                local counters (R3)",
        run: characterization::fig02,
    },
    Figure {
        id: "fig03",
        title: "Fig. 3: Redis/Memcached tail latency vs client load (isolation)",
        paper: "local and remote provide almost identical tail-latency curves \
                across all load levels (R4)",
        run: characterization::fig03,
    },
    Figure {
        id: "fig04",
        title: "Fig. 4: BE local-vs-remote runtime in isolation",
        paper: "avg ~20% remote degradation; nweight/lr ~2x; gmm/pca <10% (R4)",
        run: characterization::fig04,
    },
    Figure {
        id: "fig05",
        title: "Fig. 5: remote/local slowdown heatmap under interference",
        paper: "gap ~= isolated penalty at low interference; chasm (up to ~4x) \
                past the saturation knee for l3/memBw; stacking apps (nweight, \
                sort, kmeans) also degrade under cpu/l2 (R5, R7)",
        run: characterization::fig05,
    },
    Figure {
        id: "fig06",
        title: "Fig. 6: correlation of system metrics with app performance (history vs runtime)",
        paper: "runtime (during-execution) metrics show much higher correlation \
                with performance than 120s-history metrics (R8)",
        run: characterization::fig06,
    },
    Figure {
        id: "fig08",
        title: "Fig. 8: scenario phases: concurrent apps and metric dynamics",
        paper: "heavy {5,20}, moderate {5,40}, relaxed {5,60} scenarios expose \
                different congestion phases (paper: up to 35 concurrent apps)",
        run: characterization::fig08,
    },
    Figure {
        id: "fig09",
        title: "Fig. 9: BE runtime distributions over randomized scenarios",
        paper: "remote distributions tend higher; overlapping for gmm-like apps, \
                clearly separated for nweight-like apps",
        run: characterization::fig09,
    },
    Figure {
        id: "fig10",
        title: "Fig. 10: LC tail-latency and serving-time distributions over scenarios",
        paper: "remote shifts p99/p99.9 higher but distributions overlap; \
                relaxed QoS admits remote placement",
        run: characterization::fig10,
    },
    Figure {
        id: "table1",
        title: "Table I: system-state prediction R² per performance event",
        paper: "R² from 0.964 to 0.999 per event; average 0.9932",
        run: accuracy::table1,
    },
    Figure {
        id: "fig12",
        title: "Fig. 12: actual vs predicted system state (45° residuals)",
        paper: "the majority of points lie on the 45-degree residual line",
        run: accuracy::fig12,
    },
    Figure {
        id: "fig13",
        title: "Fig. 13: BE performance model accuracy + stacked-model ablation",
        paper: "(a) R²≈0.945 local / 0.939 remote with actual future state; \
                (b) {120,S_hat} best practical pair; (c/d) runtime R²≈0.905",
        run: accuracy::fig13,
    },
    Figure {
        id: "fig14",
        title: "Fig. 14: LC performance model accuracy (p99 prediction)",
        paper: "runtime R² ≈ 0.874; MAEs small relative to median p99",
        run: accuracy::fig14,
    },
    Figure {
        id: "fig15",
        title: "Fig. 15: leave-one-out generalization + sample-count sensitivity",
        paper: "(a) high LOO R² for some apps (gbt ~0.72), low for others \
                (~0.30); (b) accuracy grows with available samples",
        run: accuracy::fig15,
    },
    Figure {
        id: "fig16",
        title: "Fig. 16: BE runtime distributions + placements per scheduling policy",
        paper: "Random/RR worst; beta 1/0.9 ~ All-Local; beta 0.8 ~10% offload \
                @ ~0.5% median cost; beta 0.7 ~35% offload @ ~15%; beta 0.6 \
                over-offloads",
        run: orchestration::fig16,
    },
    Figure {
        id: "fig17",
        title: "Fig. 17: LC QoS violations and offloads across 5 QoS levels",
        paper: "Adrias ~= All-Local at loose QoS while offloading ~1/3 of LC \
                apps; ~5%/~20% extra violations (Redis/Memcached) at strict QoS",
        run: orchestration::fig17,
    },
    Figure {
        id: "traffic_reduction",
        title: "§VI-B traffic: link traffic per policy",
        paper: "Adrias(0.8) moves ~45% less data than Random; Adrias(0.7) ~23% \
                less than Round-Robin; up to 55% less at equal offload counts",
        run: orchestration::traffic_reduction,
    },
    Figure {
        id: "ablation_link_model",
        title: "Ablation: link-model design parameters vs the Fig. 2 latency step",
        paper: "paper observes the step between 4 and 8 concurrent memBw \
                stressors; the reproduction should keep the step in that band \
                for a wide parameter neighbourhood",
        run: characterization::ablation_link_model,
    },
];

/// The rows `ids` name, in the order given; every row, in table order,
/// for no ids. An id no row has is an error that lists the ones that
/// exist.
pub fn select(ids: &[String]) -> Result<Vec<&'static Figure>, String> {
    if ids.is_empty() {
        return Ok(FIGURES.iter().collect());
    }
    ids.iter()
        .map(|id| {
            FIGURES.iter().find(|f| f.id == id).ok_or_else(|| {
                let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
                format!("no figure `{id}`; the figures are: {}", known.join(" "))
            })
        })
        .collect()
}

/// The `paper` bench target: prints the rows the positional arguments
/// select to stdout at the environment's scale, each as it completes,
/// then one summary line on stderr naming any row that skipped.
pub fn main() -> Result<(), String> {
    // `cargo bench` passes `--bench` along; the ids are what is left.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let figures = select(&ids)?;
    let start = std::time::Instant::now();
    let mut ctx = Ctx::new(Scale::from_env());
    let mut skipped = Vec::new();
    for figure in &figures {
        let (text, outcome) = figure.text(&mut ctx);
        let mut stdout = std::io::stdout().lock();
        let written = stdout
            .write_all(text.as_bytes())
            .and_then(|()| stdout.flush());
        written.map_err(|e| format!("writing {} to stdout: {e}", figure.id))?;
        if outcome == Outcome::Skipped {
            skipped.push(figure.id);
        }
    }
    eprintln!(
        "[paper] {} of {} figures printed in {:.1}s; skipped for too few records: {}",
        figures.len() - skipped.len(),
        figures.len(),
        start.elapsed().as_secs_f64(),
        if skipped.is_empty() {
            "none".to_owned()
        } else {
            skipped.join(" ")
        }
    );
    Ok(())
}

/// Formats a distribution as `median [p25, p75]`.
fn dist_summary(xs: &[f32]) -> String {
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

    /// CI's smoke scale: every row has the records it needs, and a
    /// stack trains in about a second.
    const TINY: Scale = Scale {
        scenarios: 3,
        duration_s: 400.0,
        eval_scenarios: 2,
        threads: 2,
        loo_epochs: Some(2),
    };

    /// What each of `figures` prints over `ctx`, in the order given; a
    /// row that skips at this scale fails the test.
    fn printed<'a>(
        figures: impl Iterator<Item = &'a Figure>,
        ctx: &mut Ctx,
    ) -> Vec<(&'a str, String)> {
        let text = |figure: &'a Figure| {
            let (text, outcome) = figure.text(ctx);
            assert_eq!(outcome, Outcome::Ran, "{} at the smoke scale", figure.id);
            (figure.id, text)
        };
        figures.map(text).collect()
    }

    #[test]
    fn every_row_prints_its_banner_and_a_series_and_trains_only_on_demand() {
        let mut ctx = Ctx::new(TINY);
        // §IV characterises the testbed before there is a predictor.
        let (characterization, rest) = FIGURES.split_at(8);
        let mut texts = printed(characterization.iter(), &mut ctx);
        assert!(ctx.stack.is_none(), "a stack-free row trained the stack");
        texts.extend(printed(rest.iter(), &mut ctx));
        for ((id, text), figure) in texts.iter().zip(&FIGURES) {
            let banner = format!("{}\npaper: {}\n", figure.title, figure.paper);
            assert!(text.contains(&banner), "{id} lost its banner:\n{text}");
            assert!(text.lines().count() > 6, "{id} printed no series:\n{text}");
        }
    }

    #[test]
    fn a_row_prints_the_same_bytes_first_last_or_alone() {
        // The rows that read the shared stack, most of them through
        // `&mut` borrows of its models.
        let rows = &FIGURES[8..16];
        let forward = printed(rows.iter(), &mut Ctx::new(TINY));
        let mut backward = printed(rows.iter().rev(), &mut Ctx::new(TINY));
        backward.reverse();
        assert_eq!(forward, backward);
        let alone = printed(rows[4..5].iter(), &mut Ctx::new(TINY));
        assert_eq!(alone[0], forward[4], "a row in the middle of both orders");
    }

    #[test]
    fn an_unknown_id_is_an_error_that_lists_the_known_ones() {
        let ids = |ids: &[&str]| ids.iter().map(|id| id.to_string()).collect::<Vec<_>>();
        let all: Vec<&str> = select(&[]).unwrap().iter().map(|f| f.id).collect();
        assert_eq!(all.len(), 17);
        assert_eq!(
            (all[0], all[8], all[16]),
            ("fig02", "table1", "ablation_link_model")
        );
        let picked = select(&ids(&["fig16", "table1"])).unwrap();
        assert_eq!(
            picked.iter().map(|f| f.id).collect::<Vec<_>>(),
            ["fig16", "table1"]
        );
        let err = select(&ids(&["fig16", "fig11"])).err().unwrap();
        assert!(err.contains("no figure `fig11`"), "{err}");
        assert!(all.iter().all(|id| err.contains(id)), "{err}");
    }

    #[test]
    fn env_knobs_fall_back_to_defaults() {
        assert_eq!(var::<usize>("ADRIAS_DOES_NOT_EXIST"), None);
        assert_eq!(TINY.loo_epochs(60), 2);
        let unset = Scale {
            loo_epochs: None,
            ..TINY
        };
        assert_eq!((unset.loo_epochs(60), unset.loo_epochs(10)), (25, 10));
    }

    #[test]
    fn eval_specs_have_unique_seeds() {
        let specs = Ctx::new(Scale::from_env()).eval_specs();
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
