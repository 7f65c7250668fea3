//! Best-effort orchestration study: compare Adrias (several β values)
//! against Random, Round-Robin and All-Local on Spark analytics
//! scenarios — a compact version of Fig. 16.
//!
//! ```sh
//! cargo run --release --example spark_analytics
//! ```

use adrias::orchestrator::{AllLocalPolicy, Policy, RandomPolicy, RoundRobinPolicy};
use adrias::scenarios::{run_comparison, scaled_corpus, train_stack, StackOptions};
use adrias::sim::TestbedConfig;
use adrias::telemetry::stats;
use adrias::workloads::WorkloadCatalog;

fn main() {
    println!("=== BE orchestration comparison (compact Fig. 16) ===\n");
    let catalog = WorkloadCatalog::paper();
    println!("Training the Adrias stack (~1 min)...");
    let stack = train_stack(&catalog, &StackOptions::default());

    let specs = scaled_corpus(4, 900.0);
    let betas = [1.0f32, 0.8, 0.7];
    let n_policies = 3 + betas.len();

    let outcomes = run_comparison(
        TestbedConfig::paper(),
        &catalog,
        &specs,
        n_policies,
        Some(5.0),
        4,
        |i| -> Box<dyn Policy + Send> {
            match i {
                0 => Box::new(RandomPolicy::new(17)),
                1 => Box::new(RoundRobinPolicy::new()),
                2 => Box::new(AllLocalPolicy::new()),
                j => Box::new(stack.policy(betas[j - 3], 5.0)),
            }
        },
    );

    println!(
        "\n{:<16} {:>10} {:>10} {:>10} {:>10}",
        "policy", "median[s]", "p90[s]", "offload%", "traffic[MB]"
    );
    for o in &outcomes {
        let runtimes = o.all_be_runtimes();
        println!(
            "{:<16} {:>10.1} {:>10.1} {:>9.1}% {:>10.1}",
            o.policy,
            stats::median(&runtimes),
            stats::percentile(&runtimes, 90.0),
            o.offload_fraction() * 100.0,
            o.total_link_bytes() / 1e6,
        );
    }
    println!("\nExpected shape (paper): Random/Round-Robin worst; Adrias with");
    println!("high β tracks All-Local; lower β trades bounded slowdown for");
    println!("remote-memory utilization.");
}
