//! `--check-repeat`: run the full set twice and hold the benchmark to its
//! own bounds — the procedure the driver applies before accepting it.

use std::collections::BTreeMap;

use adrias_obs::json::{self, escape, num_f64, Json};

use crate::host::Fingerprint;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::report::{out_dir, result_path};
use crate::spec::Workload;
use crate::stats::{median, quartile_spread};

/// What one result file held: metric values and the digest.
struct Snapshot {
    metrics: BTreeMap<String, f64>,
    digest: String,
}

fn read_snapshot(workload: Workload, trace: bool) -> Result<Snapshot, String> {
    let path = result_path(workload, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let (Some(Json::Obj(members)), Some(digest)) =
        (doc.get("metrics"), doc.get("digest").and_then(Json::as_str))
    else {
        return Err(format!("{}: no metrics or digest", path.display()));
    };
    let metrics = members
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
        .collect();
    Ok(Snapshot {
        metrics,
        digest: digest.to_owned(),
    })
}

/// Snapshots of one set: `[run][workload] -> (untraced, traced)`.
type Set = Vec<Vec<(Snapshot, Snapshot)>>;

fn run_set(seed: u64, runs: u64, run_all: &impl Fn(u64) -> bool) -> Result<Set, String> {
    (0..runs)
        .map(|run| {
            if !run_all(seed + run) {
                return Err(format!("a run with seed {} failed", seed + run));
            }
            Workload::ALL
                .into_iter()
                .map(|w| Ok((read_snapshot(w, false)?, read_snapshot(w, true)?)))
                .collect()
        })
        .collect()
}

/// Runs the full set twice (`runs` seeds each, from `seed`) through
/// `run_all`, writes `baseline.json` beside the crate's manifest, and
/// returns whether the two sets agree:
///
/// - every end-to-end median of the second set is within the metric's
///   bound of the first set's;
/// - with four or more runs, the quartile spread of every end-to-end
///   metric except `setup_s` is within its bound;
/// - every digest and every deterministic metric is equal between the
///   sets, and the untraced and traced digests of a seed are equal.
pub fn check(seed: u64, runs: u64, run_all: impl Fn(u64) -> bool) -> bool {
    let sets = match (run_set(seed, runs, &run_all), run_set(seed, runs, &run_all)) {
        (Ok(a), Ok(b)) => [a, b],
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("check-repeat: {e}");
            return false;
        }
    };
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for (wi, workload) in Workload::ALL.into_iter().enumerate() {
        for m in END_TO_END {
            let series = |set: &Set| -> Vec<f64> {
                set.iter().map(|run| run[wi].0.metrics[m.name]).collect()
            };
            let (a, b) = (series(&sets[0]), series(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spreads = (runs >= 4).then(|| (quartile_spread(&a), quartile_spread(&b)));
            if worse > m.bound {
                failures.push(format!(
                    "{} {}: second median {mb} is {:.1} % worse than the first {ma}",
                    workload.name(),
                    m.name,
                    worse * 100.0
                ));
            }
            if let Some((sa, sb)) = spreads {
                if m.name != "setup_s" && sa.max(sb) > m.bound {
                    failures.push(format!(
                        "{} {}: quartile spread {:.1} % exceeds the bound",
                        workload.name(),
                        m.name,
                        sa.max(sb) * 100.0
                    ));
                }
            }
            let (sa, sb) = spreads.unwrap_or((f64::NAN, f64::NAN));
            rows.push(format!(
                "{{\"workload\":{},\"metric\":{},\"unit\":{},\"bound\":{},\"median_1\":{},\
                 \"median_2\":{},\"worse_by\":{},\"spread_1\":{},\"spread_2\":{}}}",
                escape(workload.name()),
                escape(m.name),
                escape(m.unit),
                num_f64(m.bound),
                num_f64(ma),
                num_f64(mb),
                num_f64(worse),
                num_f64(sa),
                num_f64(sb)
            ));
        }
        // The per-layer budget is recorded, not judged: it has no bound.
        for m in PER_LAYER {
            let medians = sets.each_ref().map(|set| {
                let series: Vec<f64> = set.iter().map(|run| run[wi].1.metrics[m.name]).collect();
                num_f64(median(&series))
            });
            rows.push(format!(
                "{{\"workload\":{},\"layer_metric\":{},\"unit\":{},\"median_1\":{},\"median_2\":{}}}",
                escape(workload.name()),
                escape(m.name),
                escape(m.unit),
                medians[0],
                medians[1]
            ));
        }
        for (run, (first, second)) in sets[0].iter().zip(&sets[1]).enumerate() {
            let (first, second) = (&first[wi], &second[wi]);
            let digests = [&first.1.digest, &second.0.digest, &second.1.digest];
            if digests.iter().any(|d| **d != first.0.digest) {
                failures.push(format!(
                    "{} seed {}: digests differ between sets or passes",
                    workload.name(),
                    seed + run as u64
                ));
            }
            for m in PER_LAYER.iter().filter(|m| m.deterministic) {
                if first.1.metrics[m.name].to_bits() != second.1.metrics[m.name].to_bits() {
                    failures.push(format!(
                        "{} seed {}: deterministic {} differs between sets",
                        workload.name(),
                        seed + run as u64,
                        m.name
                    ));
                }
            }
            rows.push(format!(
                "{{\"workload\":{},\"seed\":{},\"digest\":{}}}",
                escape(workload.name()),
                seed + run as u64,
                escape(&first.0.digest)
            ));
        }
    }
    let baseline = format!(
        "{{\"fingerprint\":{},\n\"seed\":{seed},\"runs\":{runs},\"agree\":{},\n\"rows\":[\n{}\n]}}\n",
        Fingerprint::read().to_json(),
        failures.is_empty(),
        rows.join(",\n")
    );
    let path = out_dir().with_file_name("baseline.json");
    if let Err(e) = std::fs::write(&path, baseline) {
        failures.push(format!("{}: {e}", path.display()));
    }
    for f in &failures {
        println!("check-repeat FAILED: {f}");
    }
    println!(
        "check-repeat: two sets of {runs} run(s) per workload {}; wrote {}",
        if failures.is_empty() {
            "agree"
        } else {
            "DISAGREE"
        },
        path.display()
    );
    failures.is_empty()
}
