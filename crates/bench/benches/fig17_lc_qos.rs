//! Fig. 17 — LC orchestration: QoS violations and remote offloads for
//! Redis and Memcached across five QoS levels, per policy.
//!
//! Paper: Adrias ≈ All-Local at loose QoS levels (0–2) while offloading
//! ≈1/3 of LC deployments; at strict levels it adds ≈5 % (Redis) /
//! ≈20 % (Memcached) more violations; Random/RR much worse.

use adrias_bench::{banner, bench_stack, eval_specs, threads};
use adrias_orchestrator::{qos_levels, AllLocalPolicy, Policy, RandomPolicy, RoundRobinPolicy};
use adrias_scenarios::run_comparison;
use adrias_sim::TestbedConfig;
use adrias_workloads::{WorkloadCatalog, WorkloadClass};

fn main() {
    banner(
        "Fig. 17",
        "LC QoS violations and offloads across 5 QoS levels",
        "Adrias ~= All-Local at loose QoS while offloading ~1/3 of LC \
         apps; ~5%/~20% extra violations (Redis/Memcached) at strict QoS",
    );
    let stack = bench_stack();
    let catalog = WorkloadCatalog::paper();
    let specs = eval_specs();

    // Five QoS levels per store, derived from the observed distributions
    // of the training traces (as the paper derives them from Fig. 10).
    let observed: Vec<f32> = stack
        .traces
        .perf_records(WorkloadClass::LatencyCritical)
        .iter()
        .map(|r| r.perf)
        .collect();
    if observed.len() < 5 {
        println!("too few LC samples; raise ADRIAS_SCENARIOS");
        return;
    }
    let levels = qos_levels(&observed, 5);
    println!("\nderived QoS levels (p99 ms): {levels:?}");

    for (li, qos) in levels.iter().enumerate() {
        let outcomes = run_comparison(
            TestbedConfig::paper(),
            &catalog,
            &specs,
            4,
            Some(*qos),
            threads(),
            |i| -> Box<dyn Policy + Send> {
                match i {
                    0 => Box::new(RandomPolicy::new(77)),
                    1 => Box::new(RoundRobinPolicy::new()),
                    2 => Box::new(AllLocalPolicy::new()),
                    _ => Box::new(stack.policy(0.8, *qos)),
                }
            },
        );
        println!("\n--- QoS level {li} (p99 <= {qos:.2} ms) ---");
        println!(
            "{:<16} {:>20} {:>20}",
            "policy", "redis viol/off/tot", "memcached viol/off/tot"
        );
        for o in &outcomes {
            let r = o.lc_qos_stats("redis", *qos);
            let m = o.lc_qos_stats("memcached", *qos);
            println!(
                "{:<16} {:>20} {:>20}",
                o.policy,
                format!("{}/{}/{}", r.0, r.1, r.2),
                format!("{}/{}/{}", m.0, m.1, m.2),
            );
        }
    }
    println!("\npaper shape: violations grow as QoS tightens; Adrias tracks");
    println!("All-Local while still exploiting remote memory.");
}
