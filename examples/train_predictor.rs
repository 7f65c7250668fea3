//! Train the two prediction models on freshly simulated traces and
//! report their accuracy — a compact version of Table I and Fig. 13.
//!
//! ```sh
//! cargo run --release --example train_predictor
//! ```

use adrias::predictor::SHatSource;
use adrias::scenarios::{train_stack, StackOptions};
use adrias::workloads::WorkloadCatalog;

fn main() {
    println!("=== Training the Adrias predictor stack ===\n");
    let catalog = WorkloadCatalog::paper();
    let opts = StackOptions::default();
    println!(
        "batched minibatch SGD: {} training workers (ADRIAS_WORKERS), \
         gradient chunk {} — the loss trace is bit-identical for any \
         worker count\n",
        adrias::nn::resolved_workers(opts.system_cfg.workers),
        opts.system_cfg.grad_chunk,
    );
    let stack = train_stack(&catalog, &opts);

    println!("System-state model (Table I):");
    let (per_metric, overall) = {
        let (_, test) = &stack.system_split;
        stack.system_model.evaluate(test)
    };
    println!("{:<10} {:>8}", "event", "R2");
    for (metric, report) in &per_metric {
        println!("{:<10} {:>8.4}", metric.to_string(), report.r2);
    }
    println!(
        "{:<10} {:>8.4}  (paper avg: 0.9932)\n",
        "overall", overall.r2
    );

    println!("BE performance model (Fig. 13):");
    let (be_train, be_test) = &stack.be_split;
    let _ = be_train;
    let test_hats = SHatSource::Propagated.materialize(be_test, Some(&stack.system_model));
    let report = stack.be_model.evaluate(be_test, &test_hats);
    println!(
        "  R2 = {:.3} (paper: ≈0.905 at runtime), MAE = {:.1} s over {} records",
        report.r2,
        report.mae,
        report.len()
    );

    if let Some((_, lc_test)) = &stack.lc_split {
        let lc_hats = SHatSource::Propagated.materialize(lc_test, Some(&stack.system_model));
        let lc_report = stack.lc_model.evaluate(lc_test, &lc_hats);
        println!(
            "LC performance model (Fig. 14): R2 = {:.3} (paper: ≈0.874), MAE = {:.2} ms",
            lc_report.r2, lc_report.mae
        );
    } else {
        println!("LC split unavailable in this quick corpus (too few LC records).");
    }
}
