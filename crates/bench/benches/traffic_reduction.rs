//! §VI-B (data traffic) — bytes transmitted over the FPGA link per
//! policy.
//!
//! Paper: Adrias transmits 45 % less data than Random (β = 0.8) and
//! 23 % less than Round-Robin (β = 0.7); at comparable offload counts it
//! still generates up to 55 % less channel traffic by favouring
//! less memory-intensive applications for remote placement.

use adrias_bench::{banner, bench_stack, eval_specs, threads};
use adrias_orchestrator::{AllLocalPolicy, Policy, RandomPolicy, RoundRobinPolicy};
use adrias_scenarios::run_comparison;
use adrias_sim::TestbedConfig;
use adrias_workloads::WorkloadCatalog;

fn main() {
    banner(
        "§VI-B traffic",
        "link traffic per policy",
        "Adrias(0.8) moves ~45% less data than Random; Adrias(0.7) ~23% \
         less than Round-Robin; up to 55% less at equal offload counts",
    );
    let stack = bench_stack();
    let catalog = WorkloadCatalog::paper();
    let specs = eval_specs();

    let outcomes = run_comparison(
        TestbedConfig::paper(),
        &catalog,
        &specs,
        5,
        Some(6.0),
        threads(),
        |i| -> Box<dyn Policy + Send> {
            match i {
                0 => Box::new(RandomPolicy::new(31)),
                1 => Box::new(RoundRobinPolicy::new()),
                2 => Box::new(AllLocalPolicy::new()),
                3 => Box::new(stack.policy(0.8, 6.0)),
                _ => Box::new(stack.policy(0.7, 6.0)),
            }
        },
    );

    println!(
        "\n{:<16} {:>14} {:>10}",
        "policy", "traffic [GB]", "offload%"
    );
    for o in &outcomes {
        println!(
            "{:<16} {:>14.2} {:>9.1}%",
            o.policy,
            o.total_link_bytes() / 1e9,
            o.offload_fraction() * 100.0
        );
    }
    let random = outcomes[0].total_link_bytes();
    let rr = outcomes[1].total_link_bytes();
    let adrias_08 = outcomes[3].total_link_bytes();
    let adrias_07 = outcomes[4].total_link_bytes();
    println!(
        "\nmeasured: Adrias(0.8) vs Random: {:+.1}% (paper: -45%)",
        (adrias_08 / random - 1.0) * 100.0
    );
    println!(
        "measured: Adrias(0.7) vs Round-Robin: {:+.1}% (paper: -23%)",
        (adrias_07 / rr - 1.0) * 100.0
    );
}
