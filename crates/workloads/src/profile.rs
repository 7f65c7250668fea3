//! Workload profiles: resource demands and interference sensitivities.

use std::fmt;
use std::sync::Arc;

use adrias_core::Name;

/// Memory allocation mode decided by the orchestrator for one deployment.
///
/// ThymesisFlow exposes the lender's memory as a CPU-less NUMA node on the
/// borrower; an application is bound to either local DRAM or that remote
/// node via cgroups (§III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryMode {
    /// Local DRAM on the borrower node.
    #[default]
    Local,
    /// Disaggregated (remote) memory reached over the ThymesisFlow link.
    Remote,
}

impl MemoryMode {
    /// Both modes, in `[Local, Remote]` order.
    pub const BOTH: [MemoryMode; 2] = [MemoryMode::Local, MemoryMode::Remote];

    /// The opposite mode.
    pub fn other(self) -> MemoryMode {
        match self {
            MemoryMode::Local => MemoryMode::Remote,
            MemoryMode::Remote => MemoryMode::Local,
        }
    }

    /// One-hot encoding `[local, remote]` used as model input.
    pub fn one_hot(self) -> [f32; 2] {
        match self {
            MemoryMode::Local => [1.0, 0.0],
            MemoryMode::Remote => [0.0, 1.0],
        }
    }

    /// The tag exports and [`fmt::Display`] print: `local` / `remote`.
    pub fn label(self) -> &'static str {
        match self {
            MemoryMode::Local => "local",
            MemoryMode::Remote => "remote",
        }
    }
}

impl fmt::Display for MemoryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification of a workload, mirroring §IV-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Throughput-oriented batch analytics (Spark/HiBench).
    BestEffort,
    /// Tail-latency-bound services (Redis, Memcached).
    LatencyCritical,
    /// iBench-style interference micro-benchmark.
    Interference,
}

impl WorkloadClass {
    /// The tag exports and [`fmt::Display`] print: `BE` / `LC` /
    /// `iBench`.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::BestEffort => "BE",
            WorkloadClass::LatencyCritical => "LC",
            WorkloadClass::Interference => "iBench",
        }
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Steady-state resource demand of one running workload instance.
///
/// The simulator sums demands across resident workloads and compares the
/// totals against node capacities to derive contention pressures.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceDemand {
    /// Logical cores kept busy.
    pub cpu_cores: f32,
    /// L2 working-set pressure, in MiB across used cores.
    pub l2_mb: f32,
    /// Last-level-cache working set, in MiB.
    pub llc_mb: f32,
    /// Memory bandwidth consumed, in Gbit/s.
    pub mem_bw_gbps: f32,
    /// Resident memory footprint, in GiB.
    pub footprint_gb: f32,
}

/// How strongly a workload's performance reacts to contention on each
/// shared resource (dimensionless weights; 0 = insensitive).
///
/// Calibrated per application from the heatmap of Fig. 5: LLC contention
/// dominates for most Spark jobs (R6), in-memory stores react mostly to
/// memory-bandwidth contention, and a few applications additionally
/// exhibit *stacking* effects on CPU/L2 (R7).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sensitivity {
    /// Slowdown per unit of CPU over-subscription.
    pub cpu: f32,
    /// Slowdown per unit of L2 pressure.
    pub l2: f32,
    /// Slowdown per unit of LLC pressure.
    pub llc: f32,
    /// Slowdown per unit of memory-bandwidth pressure.
    pub mem_bw: f32,
}

/// A complete description of one deployable workload.
///
/// Profiles are immutable after construction; build them with
/// [`WorkloadProfile::builder`].
///
/// A profile is a handle: one pointer to its fields, shared by every
/// clone. `size_of::<WorkloadProfile>() == 8`, a clone bumps a
/// reference count and never allocates, and the fields are freed with
/// the last clone. Every record that carries a workload — an arrival,
/// a resident, a completion — therefore carries 8 bytes for it. Equality
/// and `Debug` are those of the fields (two profiles built alike are
/// equal; `Debug` prints `WorkloadProfile { name: .., .. }` as a struct
/// of the fields would), and the name is an interned [`Name`].
///
/// # Examples
///
/// ```
/// use adrias_workloads::{WorkloadClass, WorkloadProfile};
///
/// let w = WorkloadProfile::builder("toy", WorkloadClass::BestEffort)
///     .base_runtime_s(60.0)
///     .remote_penalty(1.3)
///     .cpu_cores(4.0)
///     .llc_mb(4.0)
///     .mem_bw_gbps(1.0)
///     .build();
/// assert_eq!(w.name(), "toy");
/// assert_eq!(w.demand().cpu_cores, 4.0);
/// assert_eq!(std::mem::size_of::<WorkloadProfile>(), 8);
/// ```
#[derive(Clone, PartialEq)]
pub struct WorkloadProfile(Arc<Fields>);

/// What a [`WorkloadProfile`] points to.
#[derive(Clone, PartialEq)]
struct Fields {
    name: Name,
    class: WorkloadClass,
    demand: ResourceDemand,
    sensitivity: Sensitivity,
    base_runtime_s: f32,
    base_p99_ms: f32,
    remote_penalty: f32,
    stacking: bool,
}

/// Printed under the profile's type name: a profile's `Debug` is that
/// of a `WorkloadProfile` struct of these fields.
impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadProfile")
            .field("name", &self.name)
            .field("class", &self.class)
            .field("demand", &self.demand)
            .field("sensitivity", &self.sensitivity)
            .field("base_runtime_s", &self.base_runtime_s)
            .field("base_p99_ms", &self.base_p99_ms)
            .field("remote_penalty", &self.remote_penalty)
            .field("stacking", &self.stacking)
            .finish()
    }
}

impl fmt::Debug for WorkloadProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl WorkloadProfile {
    /// Starts building a profile for `name` of the given `class`.
    pub fn builder(name: impl Into<Name>, class: WorkloadClass) -> WorkloadProfileBuilder {
        WorkloadProfileBuilder {
            profile: Fields {
                name: name.into(),
                class,
                demand: ResourceDemand::default(),
                sensitivity: Sensitivity::default(),
                base_runtime_s: 60.0,
                base_p99_ms: 1.0,
                remote_penalty: 1.0,
                stacking: false,
            },
        }
    }

    /// Unique workload name (e.g. `nweight`, `redis`).
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The name as its shared handle, for records that outlive the
    /// profile.
    pub fn name_handle(&self) -> &Name {
        &self.0.name
    }

    /// Workload class (BE / LC / interference).
    pub fn class(&self) -> WorkloadClass {
        self.0.class
    }

    /// Steady-state resource demand.
    pub fn demand(&self) -> &ResourceDemand {
        &self.0.demand
    }

    /// Interference sensitivities.
    pub fn sensitivity(&self) -> &Sensitivity {
        &self.0.sensitivity
    }

    /// Execution time in isolation on local DRAM, seconds (BE apps).
    pub fn base_runtime_s(&self) -> f32 {
        self.0.base_runtime_s
    }

    /// 99th-percentile response time in isolation on local DRAM,
    /// milliseconds (LC apps).
    pub fn base_p99_ms(&self) -> f32 {
        self.0.base_p99_ms
    }

    /// Isolated remote/local slowdown ratio (≥ 1), per Fig. 4.
    pub fn remote_penalty(&self) -> f32 {
        self.0.remote_penalty
    }

    /// Whether the app shows *stacking interference* (R7): contention on
    /// low levels of the hierarchy (CPU, L2) widens the local-vs-remote
    /// gap instead of affecting both modes equally.
    pub fn stacking(&self) -> bool {
        self.0.stacking
    }

    /// Whether this is a latency-critical service.
    pub fn is_latency_critical(&self) -> bool {
        self.0.class == WorkloadClass::LatencyCritical
    }

    /// Whether this is a best-effort batch job.
    pub fn is_best_effort(&self) -> bool {
        self.0.class == WorkloadClass::BestEffort
    }
}

impl fmt::Display for WorkloadProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.0.name, self.0.class)
    }
}

/// Builder for [`WorkloadProfile`] (see `C-BUILDER`).
#[derive(Debug, Clone)]
pub struct WorkloadProfileBuilder {
    profile: Fields,
}

impl WorkloadProfileBuilder {
    /// Sets logical-core demand.
    pub fn cpu_cores(mut self, v: f32) -> Self {
        self.profile.demand.cpu_cores = v;
        self
    }

    /// Sets L2 working-set demand (MiB).
    pub fn l2_mb(mut self, v: f32) -> Self {
        self.profile.demand.l2_mb = v;
        self
    }

    /// Sets LLC working-set demand (MiB).
    pub fn llc_mb(mut self, v: f32) -> Self {
        self.profile.demand.llc_mb = v;
        self
    }

    /// Sets memory-bandwidth demand (Gbit/s).
    pub fn mem_bw_gbps(mut self, v: f32) -> Self {
        self.profile.demand.mem_bw_gbps = v;
        self
    }

    /// Sets resident footprint (GiB).
    pub fn footprint_gb(mut self, v: f32) -> Self {
        self.profile.demand.footprint_gb = v;
        self
    }

    /// Sets interference sensitivities.
    pub fn sensitivity(mut self, s: Sensitivity) -> Self {
        self.profile.sensitivity = s;
        self
    }

    /// Sets the isolated local-DRAM runtime (seconds, BE).
    pub fn base_runtime_s(mut self, v: f32) -> Self {
        self.profile.base_runtime_s = v;
        self
    }

    /// Sets the isolated local-DRAM p99 (milliseconds, LC).
    pub fn base_p99_ms(mut self, v: f32) -> Self {
        self.profile.base_p99_ms = v;
        self
    }

    /// Sets the isolated remote/local slowdown ratio.
    ///
    /// # Panics
    ///
    /// Panics (at [`build`](Self::build)) if the ratio is below 1.
    pub fn remote_penalty(mut self, v: f32) -> Self {
        self.profile.remote_penalty = v;
        self
    }

    /// Marks the app as exhibiting stacking interference (R7).
    pub fn stacking(mut self, v: bool) -> Self {
        self.profile.stacking = v;
        self
    }

    /// Finalizes the profile.
    ///
    /// # Panics
    ///
    /// Panics if the remote penalty is below 1 or any demand is negative.
    pub fn build(self) -> WorkloadProfile {
        let p = self.profile;
        assert!(
            p.remote_penalty >= 1.0,
            "remote penalty must be >= 1, got {} for {}",
            p.remote_penalty,
            p.name
        );
        assert!(
            p.demand.cpu_cores >= 0.0
                && p.demand.l2_mb >= 0.0
                && p.demand.llc_mb >= 0.0
                && p.demand.mem_bw_gbps >= 0.0
                && p.demand.footprint_gb >= 0.0,
            "demands must be non-negative for {}",
            p.name
        );
        WorkloadProfile(Arc::new(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_other_flips() {
        assert_eq!(MemoryMode::Local.other(), MemoryMode::Remote);
        assert_eq!(MemoryMode::Remote.other(), MemoryMode::Local);
    }

    #[test]
    fn mode_one_hot_is_exclusive() {
        assert_eq!(MemoryMode::Local.one_hot(), [1.0, 0.0]);
        assert_eq!(MemoryMode::Remote.one_hot(), [0.0, 1.0]);
    }

    #[test]
    fn mode_displays_lowercase() {
        assert_eq!(MemoryMode::Local.to_string(), "local");
        assert_eq!(MemoryMode::Remote.to_string(), "remote");
    }

    #[test]
    fn builder_populates_all_fields() {
        let w = WorkloadProfile::builder("x", WorkloadClass::LatencyCritical)
            .cpu_cores(2.0)
            .l2_mb(0.5)
            .llc_mb(3.0)
            .mem_bw_gbps(0.8)
            .footprint_gb(16.0)
            .base_p99_ms(1.5)
            .remote_penalty(1.05)
            .sensitivity(Sensitivity {
                cpu: 0.1,
                l2: 0.05,
                llc: 0.2,
                mem_bw: 0.6,
            })
            .stacking(false)
            .build();
        assert!(w.is_latency_critical());
        assert!(!w.is_best_effort());
        assert_eq!(w.demand().footprint_gb, 16.0);
        assert_eq!(w.sensitivity().mem_bw, 0.6);
        assert_eq!(w.base_p99_ms(), 1.5);
        assert_eq!(w.to_string(), "x (LC)");
    }

    #[test]
    #[should_panic(expected = "remote penalty")]
    fn builder_rejects_sub_unit_penalty() {
        let _ = WorkloadProfile::builder("bad", WorkloadClass::BestEffort)
            .remote_penalty(0.5)
            .build();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn builder_rejects_negative_demand() {
        let _ = WorkloadProfile::builder("bad", WorkloadClass::BestEffort)
            .cpu_cores(-1.0)
            .build();
    }
}
