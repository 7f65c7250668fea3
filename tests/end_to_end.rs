//! End-to-end integration: train the Adrias stack on simulated traces,
//! orchestrate fresh scenarios and compare against the baselines.

use adrias::orchestrator::{AllLocalPolicy, Policy, RandomPolicy};
use adrias::scenarios::{run_comparison, train_stack, ScenarioSpec, StackOptions};
use adrias::sim::TestbedConfig;
use adrias::telemetry::stats;
use adrias::workloads::{MemoryMode, WorkloadCatalog};

#[test]
fn adrias_stack_orchestrates_better_than_random() {
    let catalog = WorkloadCatalog::paper();
    let stack = train_stack(&catalog, &StackOptions::quick());

    let specs = vec![
        ScenarioSpec::new(5.0, 25.0, 800.0, 101),
        ScenarioSpec::new(5.0, 45.0, 800.0, 102),
    ];
    let outcomes = run_comparison(
        TestbedConfig::noiseless(),
        &catalog,
        &specs,
        3,
        Some(8.0),
        2,
        |i| -> Box<dyn Policy + Send> {
            match i {
                0 => Box::new(AllLocalPolicy::new()),
                1 => Box::new(RandomPolicy::new(55)),
                _ => Box::new(stack.policy(0.7, 8.0)),
            }
        },
    );

    let all_local = &outcomes[0];
    let random = &outcomes[1];
    let adrias = &outcomes[2];

    // Every policy decided the same number of applications.
    let totals: Vec<usize> = outcomes
        .iter()
        .map(|o| {
            o.reports
                .iter()
                .map(|r| {
                    let (l, m) = r.placement_counts();
                    l + m
                })
                .sum()
        })
        .collect();
    assert_eq!(totals[0], totals[1]);
    assert_eq!(totals[1], totals[2]);
    assert!(totals[0] > 10, "too few decided apps: {}", totals[0]);

    // All-Local never offloads; Random offloads about half; Adrias sits
    // in between (it uses remote memory, but selectively).
    assert_eq!(all_local.offload_fraction(), 0.0);
    assert!((0.3..0.7).contains(&random.offload_fraction()));
    let adrias_offload = adrias.offload_fraction();
    assert!(
        adrias_offload > 0.0,
        "Adrias should use remote memory at beta=0.7"
    );
    assert!(
        adrias_offload < random.offload_fraction() + 0.25,
        "Adrias offload {adrias_offload} should be selective"
    );

    // Median BE runtime: Adrias must not be worse than Random (the paper
    // shows it is much better) and within a modest factor of All-Local.
    let median_local = stats::median(&all_local.all_be_runtimes());
    let median_random = stats::median(&random.all_be_runtimes());
    let median_adrias = stats::median(&adrias.all_be_runtimes());
    assert!(
        median_adrias <= median_random * 1.05,
        "Adrias median {median_adrias} vs Random {median_random}"
    );
    assert!(
        median_adrias <= median_local * 1.45,
        "Adrias median {median_adrias} vs All-Local {median_local} (β=0.7 tolerates \
         ~43% degradation; quick-profile prediction noise adds a little more)"
    );

    // Traffic: Adrias moves less data than Random (selectivity, §VI-B).
    assert!(
        adrias.total_link_bytes() <= random.total_link_bytes(),
        "Adrias traffic {} vs Random {}",
        adrias.total_link_bytes(),
        random.total_link_bytes()
    );
}

#[test]
fn trained_stack_predicts_with_usable_accuracy() {
    use adrias::predictor::SHatSource;

    let catalog = WorkloadCatalog::paper();
    let mut stack = train_stack(&catalog, &StackOptions::quick());

    let (_, sys_test) = &stack.system_split;
    let (_, overall) = stack.system_model.evaluate(sys_test);
    assert!(
        overall.r2 > 0.6,
        "system-state R² too low even for quick training: {}",
        overall.r2
    );

    let (_, be_test) = &stack.be_split;
    let hats = SHatSource::Propagated.materialize(be_test, Some(&mut stack.system_model));
    let report = stack.be_model.evaluate(be_test, &hats);
    assert!(
        report.r2 > 0.2,
        "BE perf R² too low even for quick training: {}",
        report.r2
    );
}

#[test]
fn unknown_apps_are_captured_online_per_section_v_c() {
    use adrias::orchestrator::engine::{
        run_stream_hooked, EngineConfig, ScheduleStream, ScheduledArrival,
    };
    use adrias::orchestrator::{absorb_signatures, Trace};
    use adrias::workloads::spark;

    let catalog = WorkloadCatalog::paper();
    let stack = train_stack(&catalog, &StackOptions::quick());

    // Forget pca: the policy must schedule it remote-first and capture a
    // signature from its residency.
    let signatures: Vec<_> = stack
        .signatures
        .iter()
        .filter(|s| s.app_name() != "pca")
        .cloned()
        .collect();
    let mut policy = adrias::orchestrator::AdriasPolicy::new(
        stack.system_model.clone(),
        stack.be_model.clone(),
        stack.lc_model.clone(),
        signatures,
        0.8,
        5.0,
    );
    assert!(!policy.knows("pca"));

    let arrivals = vec![
        ScheduledArrival::new(0.0, spark::by_name("gmm").unwrap()),
        ScheduledArrival::new(20.0, spark::by_name("pca").unwrap()),
    ];
    let mut trace = Trace::default();
    let report = run_stream_hooked(
        TestbedConfig::noiseless(),
        EngineConfig::default(),
        &mut ScheduleStream::new(&arrivals),
        &[],
        &mut policy,
        &mut trace,
    );
    let pca = report
        .outcomes
        .iter()
        .find(|o| o.name == "pca")
        .expect("pca finished");
    assert_eq!(
        pca.mode,
        MemoryMode::Remote,
        "unknown app must be scheduled remote-first"
    );

    let added = absorb_signatures(&mut policy, &report, &trace);
    assert_eq!(added, 1, "one new signature captured");
    assert!(policy.knows("pca"));
}
