//! Fig. 16 — BE orchestration comparison: runtime distributions and
//! local/remote placement counts for Random, Round-Robin, All-Local and
//! Adrias with β ∈ {1, 0.9, 0.8, 0.7, 0.6}.
//!
//! Paper: Random/Round-Robin worst (Adrias up to >2× better); β ∈ {1,
//! 0.9} ≈ All-Local; β = 0.8 offloads ≈10 % with ≈0.5 % median drop;
//! β = 0.7 offloads ≈35 % with ≈15 % drop; β = 0.6 over-offloads.

use adrias_bench::{banner, bench_stack, dist_summary, eval_specs, threads};
use adrias_orchestrator::{AllLocalPolicy, Policy, RandomPolicy, RoundRobinPolicy};
use adrias_scenarios::run_comparison;
use adrias_sim::TestbedConfig;
use adrias_telemetry::stats;
use adrias_workloads::WorkloadCatalog;

const BETAS: [f32; 5] = [1.0, 0.9, 0.8, 0.7, 0.6];
const QOS_MS: f32 = 6.0;

fn main() {
    banner(
        "Fig. 16",
        "BE runtime distributions + placements per scheduling policy",
        "Random/RR worst; beta 1/0.9 ~ All-Local; beta 0.8 ~10% offload \
         @ ~0.5% median cost; beta 0.7 ~35% offload @ ~15%; beta 0.6 \
         over-offloads",
    );
    let stack = bench_stack();
    let catalog = WorkloadCatalog::paper();
    let specs = eval_specs();
    let n_policies = 3 + BETAS.len();

    let outcomes = run_comparison(
        TestbedConfig::paper(),
        &catalog,
        &specs,
        n_policies,
        Some(QOS_MS),
        threads(),
        |i| -> Box<dyn Policy + Send> {
            match i {
                0 => Box::new(RandomPolicy::new(4242)),
                1 => Box::new(RoundRobinPolicy::new()),
                2 => Box::new(AllLocalPolicy::new()),
                j => Box::new(stack.policy(BETAS[j - 3], QOS_MS)),
            }
        },
    );

    let local_median = stats::median(&outcomes[2].all_be_runtimes());
    println!(
        "\n{:<16} {:>24} {:>10} {:>12} {:>12}",
        "policy", "runtime med [p25,p75] s", "offload%", "vs AllLocal", "placements"
    );
    for o in &outcomes {
        let runtimes = o.all_be_runtimes();
        let med = stats::median(&runtimes);
        let (l, r) = o.reports.iter().fold((0usize, 0usize), |(al, ar), rep| {
            let (x, y) = rep.placement_counts();
            (al + x, ar + y)
        });
        println!(
            "{:<16} {:>24} {:>9.1}% {:>+11.1}% {:>12}",
            o.policy,
            dist_summary(&runtimes),
            o.offload_fraction() * 100.0,
            (med / local_median - 1.0) * 100.0,
            format!("{l}L/{r}R"),
        );
    }

    println!("\nper-application placement counts (Adrias beta=0.7):");
    let adrias_07 = &outcomes[3 + 3];
    println!("{:>10} {:>8} {:>8}", "app", "local", "remote");
    for app in adrias_workloads::spark::APP_NAMES {
        let (l, r) = adrias_07.placements(app);
        if l + r > 0 {
            println!("{:>10} {:>8} {:>8}", app, l, r);
        }
    }
    println!("\npaper: Adrias offloads overlapping-distribution apps (gmm, lda)");
    println!("and avoids stacking ones (nweight).");
}
