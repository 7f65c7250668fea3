//! Latency-critical orchestration: Redis/Memcached under QoS
//! constraints — a compact version of Fig. 17.
//!
//! ```sh
//! cargo run --release --example latency_critical
//! ```

use adrias::orchestrator::{qos_levels, AllLocalPolicy, Policy, RandomPolicy};
use adrias::scenarios::{run_comparison, scaled_corpus, train_stack, StackOptions};
use adrias::sim::TestbedConfig;
use adrias::workloads::{WorkloadCatalog, WorkloadClass};

fn main() {
    println!("=== LC orchestration under QoS constraints (compact Fig. 17) ===\n");
    let catalog = WorkloadCatalog::paper();
    println!("Training the Adrias stack (~1 min)...");
    let stack = train_stack(&catalog, &StackOptions::default());
    let specs = scaled_corpus(4, 900.0);

    // Derive QoS levels from the observed p99 distribution in the
    // training traces, exactly like the paper derives them from Fig. 10.
    let observed_p99: Vec<f32> = stack
        .traces
        .perf_records(WorkloadClass::LatencyCritical)
        .iter()
        .map(|r| r.perf)
        .collect();
    if observed_p99.is_empty() {
        println!("No LC records in the quick corpus; rerun with a bigger corpus.");
        return;
    }
    let levels = qos_levels(&observed_p99, 3);
    println!("Derived QoS levels (p99, ms): {levels:?}\n");

    for (li, qos) in levels.iter().enumerate() {
        let outcomes = run_comparison(
            TestbedConfig::paper(),
            &catalog,
            &specs,
            3,
            Some(*qos),
            4,
            |i| -> Box<dyn Policy + Send> {
                match i {
                    0 => Box::new(RandomPolicy::new(23)),
                    1 => Box::new(AllLocalPolicy::new()),
                    _ => Box::new(stack.policy(0.8, *qos)),
                }
            },
        );
        println!("--- QoS level {li}: p99 <= {qos:.2} ms ---");
        println!(
            "{:<16} {:>18} {:>18}",
            "policy", "redis viol/off/tot", "memcached viol/off/tot"
        );
        for o in &outcomes {
            let r = o.lc_qos_stats("redis", *qos);
            let m = o.lc_qos_stats("memcached", *qos);
            println!(
                "{:<16} {:>18} {:>18}",
                o.policy,
                format!("{}/{}/{}", r.0, r.1, r.2),
                format!("{}/{}/{}", m.0, m.1, m.2),
            );
        }
        println!();
    }
    println!("Expected shape (paper): Adrias ≈ All-Local violations at loose");
    println!("QoS while still offloading ~1/3 of LC deployments; slightly");
    println!("more violations at the strictest levels.");
}
