//! Command line of the perf ledger. See `README.md`.

use std::process::{Command, ExitCode};

use adrias_perfbench::host::{self, Fingerprint};
use adrias_perfbench::report::{self, Canary, RunArgs};
use adrias_perfbench::spec::Workload;
use adrias_perfbench::{engine_run, repeat, train_run};

const USAGE: &str = "usage:
  adrias-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  adrias-perfbench all [--seed <n>] [--seconds <s>] [--smoke] [--check-repeat [--runs <k>]]
workloads: mixed_steady burst_dense sparse_diurnal train_offline";

/// Parsed command line.
struct Cli {
    all: bool,
    workload: Option<Workload>,
    seed: u64,
    /// `--seconds`, or `BENCHMARK.json`'s `run_seconds` (a `--smoke` run:
    /// just the minimum number of reps).
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    runs: u64,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        all: false,
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        check_repeat: false,
        runs: 1,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value ({what})"))
        };
        let bad = |v: &String| format!("bad value {v:?} for {arg}");
        match arg.as_str() {
            "all" => cli.all = true,
            "--smoke" => cli.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            "--workload" => {
                let v = value("a workload name")?;
                cli.workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value("a whole number")?;
                cli.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--runs" => {
                let v = value("a whole number")?;
                cli.runs = v.parse().ok().filter(|k| *k >= 1).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value("seconds")?;
                let parsed = v.parse().ok();
                let valid = parsed.filter(|s: &f64| s.is_finite() && *s > 0.0);
                seconds = Some(valid.ok_or_else(|| bad(v))?);
            }
            "--trace" => {
                let v = value("0 or 1")?;
                cli.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    cli.seconds = seconds.unwrap_or(if cli.smoke { 0.1 } else { 16.0 });
    if cli.all == cli.workload.is_some() {
        return Err("give either `all` or --workload".to_owned());
    }
    Ok(cli)
}

/// One run in this process. Returns whether every check passed.
fn run_one(args: &RunArgs) -> bool {
    let before_ms = host::canary_ms();
    let result = match args.workload {
        Workload::TrainOffline => train_run::run(args),
        _ => engine_run::run(args),
    };
    let canary = Canary {
        before_ms,
        after_ms: host::canary_ms(),
    };
    let noisy = host::canaries_disagree(canary.before_ms, canary.after_ms);
    report::print_human(args, &result, &canary, noisy);
    if let Err(e) = report::write_files(args, &result, &canary, noisy, &Fingerprint::read()) {
        eprintln!("cannot write result files: {e}");
        return false;
    }
    println!("{}", report::result_line(args, &result));
    result.checks.failures().is_empty()
}

/// Every workload, untraced then traced, each in a fresh process so that
/// peak RSS is per run and nothing runs beside a timed region.
fn run_all(cli: &Cli, seed: u64) -> bool {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()]);
            if cli.smoke {
                child.arg("--smoke");
            }
            let status = child.status().expect("spawn a workload run");
            if !status.success() {
                eprintln!("{} --trace {trace} failed: {status}", workload.name());
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some(workload) = cli.workload {
        run_one(&RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            smoke: cli.smoke,
        })
    } else if cli.check_repeat {
        repeat::check(cli.seed, cli.runs, |seed| run_all(&cli, seed))
    } else {
        run_all(&cli, cli.seed)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
