//! What each per-application record costs, and what the handles it
//! carries promise.
//!
//! Every arrival, resident and completion carries its workload as an
//! 8-byte profile handle and an 8-byte interned name, never as a copy
//! of the profile's fields or the name's text. The size pins below are the
//! bytes per arrival (`ScheduledArrival`), per resident slot
//! (`Deployment`), per step completion (`CompletedApp`) and per outcome
//! kept in a report (`AppOutcome`); DESIGN.md §12 "What grows with
//! what" multiplies them out. The `Debug` pins hold the printed form
//! fixed, because `tests/fastpath_parity.rs` compares runs by their
//! `Debug` strings.

use std::mem::size_of;

use adrias_core::Name;
use adrias_orchestrator::engine::{AppOutcome, RunReport, ScheduledArrival};
use adrias_sim::{CompletedApp, Deployment};
use adrias_workloads::{keyvalue, spark, MemoryMode, WorkloadClass, WorkloadProfile};

#[test]
fn handles_are_one_pointer_wide() {
    assert_eq!(size_of::<Name>(), 8);
    assert_eq!(size_of::<Option<Name>>(), 8);
    assert_eq!(size_of::<WorkloadProfile>(), 8);
    assert_eq!(size_of::<Option<WorkloadProfile>>(), 8);
}

#[test]
fn per_application_records_hold_their_sizes() {
    assert!(
        size_of::<ScheduledArrival>() <= 32,
        "{}",
        size_of::<ScheduledArrival>()
    );
    assert!(size_of::<Deployment>() <= 32, "{}", size_of::<Deployment>());
    assert!(
        size_of::<CompletedApp>() <= 80,
        "{}",
        size_of::<CompletedApp>()
    );
    assert_eq!(size_of::<AppOutcome>(), 64);
}

#[test]
fn a_profile_clone_shares_its_fields_and_name() {
    let gmm = spark::by_name("gmm").unwrap();
    let copy = gmm.clone();
    assert_eq!(copy, gmm);
    assert!(std::ptr::eq(copy.demand(), gmm.demand()));
    assert!(std::ptr::eq(copy.name().as_ptr(), gmm.name().as_ptr()));
    // Built twice, a profile is two allocations that compare equal.
    let again = spark::by_name("gmm").unwrap();
    assert!(!std::ptr::eq(again.demand(), gmm.demand()));
    assert_eq!(again, gmm);
    assert_eq!(again.name_handle(), gmm.name_handle());
}

#[test]
fn a_profile_prints_as_a_struct_of_its_fields() {
    let gmm = spark::by_name("gmm").unwrap();
    assert_eq!(
        format!("{gmm:?}"),
        "WorkloadProfile { name: \"gmm\", class: BestEffort, demand: ResourceDemand { \
         cpu_cores: 3.0, l2_mb: 0.9, llc_mb: 0.9, mem_bw_gbps: 0.5, footprint_gb: 5.0 }, \
         sensitivity: Sensitivity { cpu: 0.27, l2: 0.05, llc: 0.28, mem_bw: 0.15 }, \
         base_runtime_s: 90.0, base_p99_ms: 1.0, remote_penalty: 1.05, stacking: false }"
    );
    assert_eq!(
        format!("{:?}", keyvalue::redis()),
        "WorkloadProfile { name: \"redis\", class: LatencyCritical, demand: ResourceDemand { \
         cpu_cores: 2.0, l2_mb: 0.6, llc_mb: 4.0, mem_bw_gbps: 0.8, footprint_gb: 32.0 }, \
         sensitivity: Sensitivity { cpu: 0.15, l2: 0.05, llc: 0.12, mem_bw: 0.55 }, \
         base_runtime_s: 270.0, base_p99_ms: 1.2, remote_penalty: 1.06, stacking: false }"
    );
    let pretty = format!("{gmm:#?}");
    assert!(pretty.starts_with("WorkloadProfile {\n    name: \"gmm\",\n    class: BestEffort,\n"));
    assert!(pretty.ends_with("    remote_penalty: 1.05,\n    stacking: false,\n}"));
    let builder = WorkloadProfile::builder("toy", WorkloadClass::BestEffort).cpu_cores(4.0);
    assert_eq!(
        format!("{builder:?}"),
        "WorkloadProfileBuilder { profile: WorkloadProfile { name: \"toy\", class: BestEffort, \
         demand: ResourceDemand { cpu_cores: 4.0, l2_mb: 0.0, llc_mb: 0.0, mem_bw_gbps: 0.0, \
         footprint_gb: 0.0 }, sensitivity: Sensitivity { cpu: 0.0, l2: 0.0, llc: 0.0, \
         mem_bw: 0.0 }, base_runtime_s: 60.0, base_p99_ms: 1.0, remote_penalty: 1.0, \
         stacking: false } }"
    );
}

#[test]
fn a_run_report_prints_its_outcomes_by_name() {
    let gmm = spark::by_name("gmm").unwrap();
    let report = RunReport {
        policy: "adrias".into(),
        outcomes: vec![AppOutcome {
            name: gmm.name_handle().clone(),
            class: WorkloadClass::BestEffort,
            mode: MemoryMode::Remote,
            policy_decided: true,
            arrived_s: 3.0,
            finished_s: 95.5,
            runtime_s: 92.5,
            mean_slowdown: 1.25,
            p99_ms: None,
            p999_ms: Some(2.5),
            lc_total_time_s: None,
        }],
        link_bytes: 1.5e9,
        end_time_s: 96.0,
        unfinished: 0,
    };
    assert_eq!(
        format!("{report:?}"),
        "RunReport { policy: \"adrias\", outcomes: [AppOutcome { name: \"gmm\", \
         class: BestEffort, mode: Remote, policy_decided: true, arrived_s: 3.0, \
         finished_s: 95.5, runtime_s: 92.5, mean_slowdown: 1.25, p99_ms: None, \
         p999_ms: Some(2.5), lc_total_time_s: None }], link_bytes: 1500000000.0, \
         end_time_s: 96.0, unfinished: 0 }"
    );
}
