//! Every workload at 1/50 size through the same code paths as a full
//! run, in both modes; and the wrappers leave the simulation untouched.

use adrias_obs::json::{self, Json};
use adrias_perfbench::metrics::{END_TO_END, PER_LAYER};
use adrias_perfbench::report::{result_line, RunArgs};
use adrias_perfbench::spec::Workload;
use adrias_perfbench::{engine_run, train_run};

fn smoke(workload: Workload, trace: bool) -> (RunArgs, adrias_perfbench::report::RunResult) {
    let args = RunArgs {
        workload,
        seed: 1,
        seconds: 0.05,
        trace,
        smoke: true,
    };
    let result = match workload {
        Workload::TrainOffline => train_run::run(&args),
        _ => engine_run::run(&args),
    };
    (args, result)
}

#[test]
fn every_workload_runs_correct_in_both_modes() {
    for workload in Workload::ALL {
        // The untraced and the traced run of a seed simulate the same
        // thing: every pass of both — bare, observed, wrapped — must
        // produce the same outcomes (loss traces on train_offline).
        let (_, untraced) = smoke(workload, false);
        let (args, traced) = smoke(workload, true);
        for (mode, result) in [("untraced", &untraced), ("traced", &traced)] {
            assert_eq!(
                result.checks.failures(),
                &[] as &[String],
                "{} {mode}",
                workload.name()
            );
            assert_eq!(result.failed, 0);
            assert!(result.attempted >= 1);
        }
        assert_eq!(untraced.digest, traced.digest, "{}", workload.name());
        assert!(!traced.spans.is_empty(), "{}", workload.name());

        let line = json::parse(&result_line(&args, &traced)).expect("result line parses");
        let Json::Obj(members) = &line else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is not an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
    }
}

#[test]
fn untraced_result_line_carries_exactly_the_end_to_end_metrics() {
    let (args, result) = smoke(Workload::SparseDiurnal, false);
    let line = json::parse(&result_line(&args, &result)).expect("result line parses");
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_num).expect("a number");
        assert!(value > 0.0, "{name} must never be 0");
    }
}

#[test]
fn the_budget_of_a_traced_pass_closes_exactly() {
    let (_, traced) = smoke(Workload::MixedSteady, true);
    let v = |name: &str| traced.values.get(name).expect(name);
    let decisions = v("orchestrator.decide.fast_calls") + v("orchestrator.decide.forced_calls");
    let layers: f64 = [
        "workloads.arrival.ns_per_decision",
        "workloads.tail_latency.est_ns_per_decision",
        "orchestrator.heap.push_ns_per_decision",
        "orchestrator.heap.pop_ns_per_decision",
        "orchestrator.decide.self_ns_per_decision",
        "predictor.forward.ns_per_decision",
        "sim.sample.ns_per_decision",
        "obs.record.ns_per_decision",
        "orchestrator.engine.unattributed_ns_per_decision",
    ]
    .iter()
    .map(|name| v(name))
    .sum::<f64>()
        + v("obs.record.on_step_ns_per_step") * v("sim.steps") / decisions;
    let frac = v("orchestrator.engine.unattributed_frac");
    let traced_ns_per_decision = v("orchestrator.engine.unattributed_ns_per_decision") / frac;
    assert!(
        (layers - traced_ns_per_decision).abs() < 1e-6 * traced_ns_per_decision,
        "layers {layers} vs traced wall {traced_ns_per_decision} ns per decision"
    );
}
