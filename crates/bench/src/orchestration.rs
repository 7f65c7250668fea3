//! §VI-B — what the Orchestrator does with the forecasts (Figs. 16–17
//! and the link-traffic comparison), each over [`Ctx::compare`]'s
//! roster.

use adrias_orchestrator::qos_levels;
use adrias_telemetry::stats;
use adrias_workloads::WorkloadClass;

use crate::Outcome::{self, Ran, Skipped};
use crate::{dist_summary, Ctx};

const BETAS: [f32; 5] = [1.0, 0.9, 0.8, 0.7, 0.6];
const QOS_MS: f32 = 6.0;

/// Fig. 16 — BE orchestration comparison: runtime distributions and
/// local/remote placement counts for Random, Round-Robin, All-Local and
/// Adrias with β ∈ {1, 0.9, 0.8, 0.7, 0.6}.
pub(crate) fn fig16(ctx: &mut Ctx, t: &mut Vec<String>) -> Outcome {
    let outcomes = ctx.compare(4242, &BETAS, QOS_MS);

    let local_median = stats::median(&outcomes[2].all_be_runtimes());
    t.push(format!(
        "\n{:<16} {:>24} {:>10} {:>12} {:>12}",
        "policy", "runtime med [p25,p75] s", "offload%", "vs AllLocal", "placements"
    ));
    for outcome in &outcomes {
        let runtimes = outcome.all_be_runtimes();
        let med = stats::median(&runtimes);
        let (l, r) = outcome
            .reports
            .iter()
            .fold((0usize, 0usize), |(al, ar), rep| {
                let (x, y) = rep.placement_counts();
                (al + x, ar + y)
            });
        t.push(format!(
            "{:<16} {:>24} {:>9.1}% {:>+11.1}% {:>12}",
            outcome.policy,
            dist_summary(&runtimes),
            outcome.offload_fraction() * 100.0,
            (med / local_median - 1.0) * 100.0,
            format!("{l}L/{r}R"),
        ));
    }

    t.push("\nper-application placement counts (Adrias beta=0.7):".into());
    let adrias_07 = &outcomes[3 + 3];
    t.push(format!("{:>10} {:>8} {:>8}", "app", "local", "remote"));
    for app in adrias_workloads::spark::APP_NAMES {
        let (l, r) = adrias_07.placements(app);
        if l + r > 0 {
            t.push(format!("{:>10} {:>8} {:>8}", app, l, r));
        }
    }
    t.push("\npaper: Adrias offloads overlapping-distribution apps (gmm, lda)".into());
    t.push("and avoids stacking ones (nweight).".into());
    Ran
}

/// Fig. 17 — LC orchestration: QoS violations and remote offloads for
/// Redis and Memcached across five QoS levels, per policy.
pub(crate) fn fig17(ctx: &mut Ctx, t: &mut Vec<String>) -> Outcome {
    // Five QoS levels per store, derived from the observed distributions
    // of the training traces (as the paper derives them from Fig. 10).
    let observed: Vec<f32> = ctx
        .stack()
        .traces
        .perf_records(WorkloadClass::LatencyCritical)
        .iter()
        .map(|r| r.perf)
        .collect();
    if observed.len() < 5 {
        t.push("too few LC samples; raise ADRIAS_SCENARIOS".into());
        return Skipped;
    }
    let levels = qos_levels(&observed, 5);
    t.push(format!("\nderived QoS levels (p99 ms): {levels:?}"));

    for (li, qos) in levels.iter().enumerate() {
        let outcomes = ctx.compare(77, &[0.8], *qos);
        t.push(format!("\n--- QoS level {li} (p99 <= {qos:.2} ms) ---"));
        t.push(format!(
            "{:<16} {:>20} {:>20}",
            "policy", "redis viol/off/tot", "memcached viol/off/tot"
        ));
        for outcome in &outcomes {
            let r = outcome.lc_qos_stats("redis", *qos);
            let m = outcome.lc_qos_stats("memcached", *qos);
            t.push(format!(
                "{:<16} {:>20} {:>20}",
                outcome.policy,
                format!("{}/{}/{}", r.0, r.1, r.2),
                format!("{}/{}/{}", m.0, m.1, m.2),
            ));
        }
    }
    t.push("\npaper shape: violations grow as QoS tightens; Adrias tracks".into());
    t.push("All-Local while still exploiting remote memory.".into());
    Ran
}

/// §VI-B (data traffic) — bytes transmitted over the FPGA link per
/// policy.
///
/// Paper: Adrias transmits 45 % less data than Random (β = 0.8) and
/// 23 % less than Round-Robin (β = 0.7); at comparable offload counts it
/// still generates up to 55 % less channel traffic by favouring
/// less memory-intensive applications for remote placement.
pub(crate) fn traffic_reduction(ctx: &mut Ctx, t: &mut Vec<String>) -> Outcome {
    let outcomes = ctx.compare(31, &[0.8, 0.7], QOS_MS);

    t.push(format!(
        "\n{:<16} {:>14} {:>10}",
        "policy", "traffic [GB]", "offload%"
    ));
    for outcome in &outcomes {
        t.push(format!(
            "{:<16} {:>14.2} {:>9.1}%",
            outcome.policy,
            outcome.total_link_bytes() / 1e9,
            outcome.offload_fraction() * 100.0
        ));
    }
    let random = outcomes[0].total_link_bytes();
    let rr = outcomes[1].total_link_bytes();
    let adrias_08 = outcomes[3].total_link_bytes();
    let adrias_07 = outcomes[4].total_link_bytes();
    t.push(format!(
        "\nmeasured: Adrias(0.8) vs Random: {:+.1}% (paper: -45%)",
        (adrias_08 / random - 1.0) * 100.0
    ));
    t.push(format!(
        "measured: Adrias(0.7) vs Round-Robin: {:+.1}% (paper: -23%)",
        (adrias_07 / rr - 1.0) * 100.0
    ));
    Ran
}
