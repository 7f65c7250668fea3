//! A policy's history-lane helper thread lives exactly as long as the
//! policy: fifty deciding policies hold fifty helpers (on a host with
//! two cores), and dropping them joins every one. The only test in its
//! binary, so nothing else moves the process's thread count under it.

use adrias_orchestrator::{AdriasPolicy, DecisionContext, Policy};
use adrias_predictor::dataset::HISTORY_S;
use adrias_telemetry::WindowStamp;
use adrias_workloads::spark;

mod common;
use common::{metric_row, tiny_policy};

/// The process's threads, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

#[test]
fn dropping_fifty_deciding_policies_leaves_the_thread_count_where_it_was() {
    let proto = tiny_policy();
    let signatures: Vec<_> = proto.signatures().into_iter().cloned().collect();
    let gmm = spark::by_name("gmm").unwrap();
    let history = vec![metric_row(0.05); HISTORY_S];
    let two_cores = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);

    let before = threads();
    let policies: Vec<AdriasPolicy> = (0..50)
        .map(|_| {
            let mut policy = AdriasPolicy::new(
                proto.system_model().clone(),
                proto.be_model().clone(),
                proto.lc_model().clone(),
                signatures.clone(),
                0.8,
                2.0,
            );
            // A miss that needs `Ŝ` and `h_s` spawns the helper.
            policy.decide(&DecisionContext {
                profile: &gmm,
                history: Some(&history),
                qos_p99_ms: None,
                stamp: Some(WindowStamp {
                    source: u64::MAX,
                    version: 1,
                }),
            });
            policy
        })
        .collect();
    if before > 0 {
        let helpers = if two_cores { 50 } else { 0 };
        assert_eq!(
            threads(),
            before + helpers,
            "one helper per deciding policy"
        );
    }
    drop(policies);
    assert_eq!(
        threads(),
        before,
        "a dropped policy left its helper running"
    );
}
