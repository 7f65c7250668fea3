//! Per-application slowdown under contention.
//!
//! This module encodes the characterization findings of §IV-C as a
//! closed-form slowdown model:
//!
//! * local-mode slowdown is a weighted sum of resource pressures
//!   (weights = the application's [`Sensitivity`]);
//! * remote mode multiplies in the application's isolated remote penalty
//!   (Fig. 4) and a link term that grows with queueing delay and
//!   over-subscription (R5 — the "performance chasm" past saturation);
//! * *stacking* applications (R7) additionally suffer from CPU/L2
//!   contention when remote, widening the local-vs-remote gap on levels
//!   of the hierarchy that normally affect both modes equally.
//!
//! [`Sensitivity`]: adrias_workloads::Sensitivity

use adrias_workloads::{MemoryMode, Sensitivity, WorkloadProfile};

use crate::pressure::ResourcePressure;

/// Weight of the link queueing-delay term in the remote slowdown.
const LINK_LATENCY_WEIGHT: f32 = 0.8;
/// Weight of link over-subscription beyond the soft threshold.
const LINK_OVERLOAD_WEIGHT: f32 = 0.5;
/// Link utilization past which over-subscription starts to add delay.
const LINK_OVERLOAD_ONSET: f32 = 1.0;
/// Upper clamp on the over-subscription term.
const LINK_OVERLOAD_CAP: f32 = 3.0;
/// Fraction of CPU/L2 contention that stacks onto remote mode (R7).
const STACKING_WEIGHT: f32 = 0.5;

/// Slowdown factor (≥ 1) of `profile` deployed in `mode` under pressure
/// `p`.
///
/// A factor of 1 means the application runs at its isolated local-DRAM
/// speed; 2 means it takes twice as long (BE) or, for the latency model,
/// that its service time doubles.
///
/// # Examples
///
/// ```
/// use adrias_sim::{slowdown, ResourcePressure, TestbedConfig};
/// use adrias_workloads::{spark, MemoryMode};
///
/// let cfg = TestbedConfig::paper();
/// let idle = ResourcePressure::idle(&cfg);
/// let nweight = spark::by_name("nweight").unwrap();
/// let local = slowdown(&nweight, MemoryMode::Local, &idle);
/// let remote = slowdown(&nweight, MemoryMode::Remote, &idle);
/// assert!((local - 1.0).abs() < 1e-6);
/// assert!((remote - nweight.remote_penalty()).abs() < 0.05);
/// ```
pub fn slowdown(profile: &WorkloadProfile, mode: MemoryMode, p: &ResourcePressure) -> f32 {
    Kin::of(profile, mode).slowdown(p)
}

/// Everything [`slowdown`] reads of a placement — and nothing else, the
/// name least of all: placements of equal kin slow down alike under any
/// pressure, so the testbed evaluates one per kin, not one per resident.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kin {
    sensitivity: Sensitivity,
    remote_penalty: f32,
    stacking: bool,
    mode: MemoryMode,
}

impl PartialEq for Kin {
    /// By bit pattern: `-0.0` and `0.0`, or two NaNs, are told apart
    /// exactly when their bits are, so equal kins are equal *inputs*.
    fn eq(&self, other: &Self) -> bool {
        let bits = |k: &Kin| {
            let s = k.sensitivity;
            [s.cpu, s.l2, s.llc, s.mem_bw, k.remote_penalty].map(f32::to_bits)
        };
        (self.stacking, self.mode) == (other.stacking, other.mode) && bits(self) == bits(other)
    }
}

impl Kin {
    pub(crate) fn of(profile: &WorkloadProfile, mode: MemoryMode) -> Self {
        Self {
            sensitivity: *profile.sensitivity(),
            remote_penalty: profile.remote_penalty(),
            stacking: profile.stacking(),
            mode,
        }
    }

    /// The body of [`slowdown`].
    pub(crate) fn slowdown(&self, p: &ResourcePressure) -> f32 {
        let s = &self.sensitivity;
        let local_term = 1.0 + s.cpu * p.cpu + s.l2 * p.l2 + s.llc * p.llc + s.mem_bw * p.mem_bw;
        match self.mode {
            MemoryMode::Local => local_term,
            MemoryMode::Remote => {
                let latency_ratio = (p.link_latency_cycles / 350.0).max(1.0) - 1.0;
                let overload =
                    (p.link_utilization - LINK_OVERLOAD_ONSET).clamp(0.0, LINK_OVERLOAD_CAP);
                let link_term = 1.0
                    + s.mem_bw
                        * (LINK_LATENCY_WEIGHT * latency_ratio + LINK_OVERLOAD_WEIGHT * overload);
                let stacking_term = if self.stacking {
                    1.0 + STACKING_WEIGHT * (s.cpu * p.cpu + s.l2 * p.l2)
                } else {
                    1.0
                };
                local_term * self.remote_penalty * link_term * stacking_term
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestbedConfig;
    use adrias_workloads::{ibench, spark, IbenchKind, MemoryMode, WorkloadProfile};

    fn cfg() -> TestbedConfig {
        TestbedConfig::paper()
    }

    fn pressure_with(
        n: usize,
        kind: IbenchKind,
        mode: MemoryMode,
        extra: Option<(&WorkloadProfile, MemoryMode)>,
    ) -> ResourcePressure {
        let stressor = ibench::profile(kind);
        let mut pairs: Vec<(WorkloadProfile, MemoryMode)> =
            (0..n).map(|_| (stressor.clone(), mode)).collect();
        if let Some((w, m)) = extra {
            pairs.push((w.clone(), m));
        }
        ResourcePressure::compute(&cfg(), pairs.iter().map(|(w, m)| (w, *m)))
    }

    #[test]
    fn isolated_local_slowdown_is_one() {
        let idle = ResourcePressure::idle(&cfg());
        for w in spark::suite() {
            assert!((slowdown(&w, MemoryMode::Local, &idle) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn isolated_remote_slowdown_equals_penalty() {
        let idle = ResourcePressure::idle(&cfg());
        for w in spark::suite() {
            let sd = slowdown(&w, MemoryMode::Remote, &idle);
            assert!(
                (sd - w.remote_penalty()).abs() < 0.05,
                "{}: {} vs {}",
                w.name(),
                sd,
                w.remote_penalty()
            );
        }
    }

    #[test]
    fn remote_chasm_under_membw_saturation_per_r5() {
        // With 16 memBw stressors co-located in the same mode, the
        // remote-vs-local gap must exceed the isolated penalty by a lot.
        let app = spark::by_name("lr").unwrap();
        let p_local = pressure_with(
            16,
            IbenchKind::MemBw,
            MemoryMode::Local,
            Some((&app, MemoryMode::Local)),
        );
        let p_remote = pressure_with(
            16,
            IbenchKind::MemBw,
            MemoryMode::Remote,
            Some((&app, MemoryMode::Remote)),
        );
        let sd_local = slowdown(&app, MemoryMode::Local, &p_local);
        let sd_remote = slowdown(&app, MemoryMode::Remote, &p_remote);
        let gap = sd_remote / sd_local;
        assert!(
            gap > 1.5 * app.remote_penalty(),
            "gap {gap} should widen well past the isolated penalty {}",
            app.remote_penalty()
        );
    }

    #[test]
    fn light_interference_keeps_gap_near_penalty() {
        let app = spark::by_name("terasort").unwrap();
        let p_local = pressure_with(
            1,
            IbenchKind::MemBw,
            MemoryMode::Local,
            Some((&app, MemoryMode::Local)),
        );
        let p_remote = pressure_with(
            1,
            IbenchKind::MemBw,
            MemoryMode::Remote,
            Some((&app, MemoryMode::Remote)),
        );
        let gap = slowdown(&app, MemoryMode::Remote, &p_remote)
            / slowdown(&app, MemoryMode::Local, &p_local);
        assert!(
            (gap / app.remote_penalty() - 1.0).abs() < 0.25,
            "gap {gap} vs penalty {}",
            app.remote_penalty()
        );
    }

    #[test]
    fn stacking_apps_suffer_cpu_interference_remotely_per_r7() {
        let stacker = spark::by_name("nweight").unwrap();
        let plain = spark::by_name("terasort").unwrap();
        let p = pressure_with(80, IbenchKind::Cpu, MemoryMode::Local, None);
        assert!(p.cpu > 0.0, "80 CPU stressors should pressure 64 cores");
        let gap_stacker = slowdown(&stacker, MemoryMode::Remote, &p)
            / (slowdown(&stacker, MemoryMode::Local, &p) * stacker.remote_penalty());
        let gap_plain = slowdown(&plain, MemoryMode::Remote, &p)
            / (slowdown(&plain, MemoryMode::Local, &p) * plain.remote_penalty());
        assert!(
            gap_stacker > gap_plain + 0.02,
            "stacking app gap {gap_stacker} should exceed plain gap {gap_plain}"
        );
    }

    #[test]
    fn llc_contention_is_worst_for_cache_heavy_apps_per_r6() {
        let app = spark::by_name("sort").unwrap();
        let llc = pressure_with(16, IbenchKind::Llc, MemoryMode::Local, None);
        let cpu = pressure_with(16, IbenchKind::Cpu, MemoryMode::Local, None);
        let sd_llc = slowdown(&app, MemoryMode::Local, &llc);
        let sd_cpu = slowdown(&app, MemoryMode::Local, &cpu);
        assert!(
            sd_llc > sd_cpu,
            "LLC contention ({sd_llc}) should dominate CPU contention ({sd_cpu})"
        );
    }

    #[test]
    fn slowdown_is_monotone_in_stressor_count() {
        let app = spark::by_name("pagerank").unwrap();
        let mut prev = 0.0;
        for n in [0, 2, 4, 8, 16, 32] {
            let p = pressure_with(n, IbenchKind::Llc, MemoryMode::Local, None);
            let sd = slowdown(&app, MemoryMode::Local, &p);
            assert!(sd >= prev - 1e-5, "slowdown regressed at n={n}");
            prev = sd;
        }
    }
}
