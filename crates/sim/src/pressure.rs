//! Resource-pressure computation.
//!
//! Pressures are dimensionless contention indicators derived from the
//! aggregate demand of resident workloads against node capacities. A
//! pressure of 0 means the resource is comfortably shared; positive
//! values scale the slowdown of sensitive co-runners (see
//! [`crate::contention`]).

use adrias_workloads::{LatencyEnv, MemoryMode, ResourceDemand, WorkloadProfile};

use crate::config::TestbedConfig;
use crate::interconnect::{Interconnect, LinkState};

/// Utilization below which a resource exerts no pressure on co-runners.
const CACHE_PRESSURE_ONSET: f32 = 0.5;
/// CPU over-subscription starts to bite near full allocation.
const CPU_PRESSURE_ONSET: f32 = 0.9;
/// Memory-bandwidth contention onset.
const MEM_BW_PRESSURE_ONSET: f32 = 0.5;
/// Upper clamp for any single pressure term.
const PRESSURE_CAP: f32 = 4.0;

/// Converts a utilization ratio into a pressure value.
fn pressure_of(utilization: f32, onset: f32) -> f32 {
    ((utilization - onset) / (1.0 - onset)).clamp(0.0, PRESSURE_CAP)
}

/// The contention state of the testbed at one instant.
///
/// # Examples
///
/// ```
/// use adrias_sim::{ResourcePressure, TestbedConfig};
/// use adrias_workloads::{ibench, IbenchKind, MemoryMode};
///
/// let cfg = TestbedConfig::paper();
/// let stressor = ibench::profile(IbenchKind::MemBw);
/// let resident: Vec<_> = (0..16)
///     .map(|_| (stressor.clone(), MemoryMode::Remote))
///     .collect();
/// let p = ResourcePressure::compute(&cfg, resident.iter().map(|(w, m)| (w, *m)));
/// assert!(p.link_latency_cycles > 800.0); // saturated channel
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourcePressure {
    /// CPU over-subscription pressure.
    pub cpu: f32,
    /// L2 pressure.
    pub l2: f32,
    /// LLC pressure (shared by local- and remote-mode applications).
    pub llc: f32,
    /// Local memory-bandwidth pressure (includes delivered remote
    /// traffic, which traverses the borrower's memory controllers — R3).
    pub mem_bw: f32,
    /// Offered link utilization (offered / effective cap).
    pub link_utilization: f32,
    /// Average channel latency, cycles.
    pub link_latency_cycles: f32,
    /// Delivered link throughput, Gbit/s.
    pub link_delivered_gbps: f32,
    /// Back-pressure factor: delivered / offered (1 when idle).
    pub link_backpressure: f32,
    /// Aggregate local-DRAM traffic, Gbit/s (local demand + delivered
    /// remote traffic).
    pub local_traffic_gbps: f32,
}

/// Aggregate CPU, L2 and LLC demand: the first pass of
/// [`ResourcePressure::compute`], one `add` per resident in id order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeDemand {
    cpu: f32,
    l2: f32,
    llc: f32,
}

impl NodeDemand {
    pub(crate) fn add(&mut self, d: &ResourceDemand) {
        self.cpu += d.cpu_cores;
        self.l2 += d.l2_mb;
        self.llc += d.llc_mb;
    }
}

impl ResourcePressure {
    /// An idle testbed.
    pub fn idle(cfg: &TestbedConfig) -> Self {
        let link = LinkState::idle(&cfg.link);
        Self {
            cpu: 0.0,
            l2: 0.0,
            llc: 0.0,
            mem_bw: 0.0,
            link_utilization: 0.0,
            link_latency_cycles: link.latency_cycles,
            link_delivered_gbps: 0.0,
            link_backpressure: 1.0,
            local_traffic_gbps: 0.0,
        }
    }

    /// Computes pressures for the resident `(workload, mode)` pairs.
    ///
    /// The computation runs in two passes over `resident` (hence
    /// `Clone`): node-level pressures first (CPU, L2, LLC from aggregate
    /// demand), then the link, whose offered load depends on the LLC
    /// pressure because cache misses of remote-mode applications convert
    /// into channel traffic.
    pub fn compute<'a>(
        cfg: &TestbedConfig,
        resident: impl Iterator<Item = (&'a WorkloadProfile, MemoryMode)> + Clone,
    ) -> Self {
        let resident = resident.map(|(w, mode)| (w.demand(), mode));
        let mut node = NodeDemand::default();
        for (d, _) in resident.clone() {
            node.add(d);
        }
        Self::over_node_demand(cfg, node, resident)
    }

    /// The link pass of [`ResourcePressure::compute`] over the same
    /// residents, in the same order, as `node` was summed from.
    pub(crate) fn over_node_demand<'a>(
        cfg: &TestbedConfig,
        node: NodeDemand,
        resident: impl Iterator<Item = (&'a ResourceDemand, MemoryMode)>,
    ) -> Self {
        let cpu = pressure_of(node.cpu / cfg.node.cores, CPU_PRESSURE_ONSET);
        let l2 = pressure_of(node.l2 / cfg.node.l2_mb, CACHE_PRESSURE_ONSET);
        let llc = pressure_of(node.llc / cfg.node.llc_mb, CACHE_PRESSURE_ONSET);

        // Link pass: remote-mode applications offer a latency-throttled
        // fraction of their bandwidth demand, inflated by LLC misses.
        let miss_inflation = 1.0 + cfg.link.miss_traffic_coupling * llc;
        let mut offered = 0.0f32;
        let mut local_bw = 0.0f32;
        for (d, mode) in resident {
            let bw = d.mem_bw_gbps;
            match mode {
                MemoryMode::Remote => {
                    offered += bw * cfg.link.link_demand_factor * miss_inflation;
                }
                MemoryMode::Local => local_bw += bw,
            }
        }
        let link = Interconnect::new(cfg.link).evaluate(offered);
        // Delivered remote traffic also crosses the local controllers (R3).
        let local_traffic = local_bw + link.delivered_gbps;
        let mem_bw = pressure_of(local_traffic / cfg.node.dram_gbps, MEM_BW_PRESSURE_ONSET);

        Self {
            cpu,
            l2,
            llc,
            mem_bw,
            link_utilization: link.utilization,
            link_latency_cycles: link.latency_cycles,
            link_delivered_gbps: link.delivered_gbps,
            link_backpressure: link.backpressure(),
            local_traffic_gbps: local_traffic,
        }
    }

    /// Projects the pressure into the [`LatencyEnv`] consumed by the
    /// key-value latency model, for an application in `mode`.
    pub fn to_latency_env(&self, mode: MemoryMode) -> LatencyEnv {
        LatencyEnv {
            mode,
            cpu_pressure: self.cpu,
            l2_pressure: self.l2,
            llc_pressure: self.llc,
            mem_bw_pressure: self.mem_bw,
            link_utilization: self.link_utilization,
            link_latency_cycles: self.link_latency_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_workloads::{ibench, spark, IbenchKind};

    fn cfg() -> TestbedConfig {
        TestbedConfig::paper()
    }

    #[test]
    fn idle_testbed_has_zero_pressure() {
        let p = ResourcePressure::idle(&cfg());
        assert_eq!(p.cpu, 0.0);
        assert_eq!(p.llc, 0.0);
        assert_eq!(p.mem_bw, 0.0);
        assert!((p.link_latency_cycles - 350.0).abs() < 5.0);
    }

    #[test]
    fn single_app_exerts_no_meaningful_pressure() {
        let app = spark::by_name("gmm").unwrap();
        let resident = [(&app, MemoryMode::Local)];
        let p = ResourcePressure::compute(&cfg(), resident.into_iter());
        assert!(p.cpu < 0.1);
        assert!(p.llc < 0.1);
        assert!(p.mem_bw < 0.1);
    }

    #[test]
    fn llc_stressors_raise_llc_pressure() {
        let stressor = ibench::profile(IbenchKind::Llc);
        let pairs: Vec<(adrias_workloads::WorkloadProfile, MemoryMode)> = (0..16)
            .map(|_| (stressor.clone(), MemoryMode::Local))
            .collect();
        let p = ResourcePressure::compute(&cfg(), pairs.iter().map(|(w, m)| (w, *m)));
        assert!(
            p.llc > 1.0,
            "16 LLC stressors should pressure the LLC: {}",
            p.llc
        );
        assert!(p.cpu < 0.2, "LLC stressors are CPU-light");
    }

    #[test]
    fn remote_membw_stressors_saturate_link_per_r1_r2() {
        let stressor = ibench::profile(IbenchKind::MemBw);
        for (n, saturated) in [(1usize, false), (4, false), (8, true), (32, true)] {
            let pairs: Vec<_> = (0..n)
                .map(|_| (stressor.clone(), MemoryMode::Remote))
                .collect();
            let p = ResourcePressure::compute(&cfg(), pairs.iter().map(|(w, m)| (w, *m)));
            if saturated {
                assert!(
                    p.link_latency_cycles > 750.0,
                    "{n} stressors: latency {}",
                    p.link_latency_cycles
                );
                assert!(p.link_backpressure < 0.8);
            } else {
                assert!(
                    p.link_latency_cycles < 480.0,
                    "{n} stressors: latency {}",
                    p.link_latency_cycles
                );
            }
        }
    }

    #[test]
    fn local_stressors_do_not_touch_link() {
        let stressor = ibench::profile(IbenchKind::MemBw);
        let pairs: Vec<_> = (0..16)
            .map(|_| (stressor.clone(), MemoryMode::Local))
            .collect();
        let p = ResourcePressure::compute(&cfg(), pairs.iter().map(|(w, m)| (w, *m)));
        assert_eq!(p.link_utilization, 0.0);
        assert!(p.mem_bw > 0.0, "local traffic should pressure local DRAM");
    }

    #[test]
    fn remote_traffic_shows_up_locally_per_r3() {
        let stressor = ibench::profile(IbenchKind::MemBw);
        let pairs: Vec<_> = (0..8)
            .map(|_| (stressor.clone(), MemoryMode::Remote))
            .collect();
        let p = ResourcePressure::compute(&cfg(), pairs.iter().map(|(w, m)| (w, *m)));
        assert!(
            p.local_traffic_gbps > 0.0,
            "delivered remote traffic must appear in local controllers"
        );
    }

    #[test]
    fn latency_env_projection_copies_fields() {
        let p = ResourcePressure::idle(&cfg());
        let env = p.to_latency_env(MemoryMode::Remote);
        assert_eq!(env.mode, MemoryMode::Remote);
        assert_eq!(env.link_latency_cycles, p.link_latency_cycles);
        assert_eq!(env.cpu_pressure, p.cpu);
    }

    #[test]
    fn pressures_are_capped() {
        let stressor = ibench::profile(IbenchKind::Llc);
        let pairs: Vec<_> = (0..500)
            .map(|_| (stressor.clone(), MemoryMode::Local))
            .collect();
        let p = ResourcePressure::compute(&cfg(), pairs.iter().map(|(w, m)| (w, *m)));
        assert!(p.llc <= 4.0 + 1e-6);
    }
}
