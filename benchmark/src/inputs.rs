//! Seeded input generation for the engine workloads, and the FNV-1a
//! digests that pin inputs and outputs.

use std::time::Instant;

use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias_orchestrator::{ArrivalStream, GeneratedStream, RunReport, ScheduledArrival};
use adrias_workloads::{
    ArrivalSource, DiurnalSource, MemoryMode, MmppSource, PoissonSource, WorkloadCatalog,
    WorkloadClass,
};

use crate::spec::{EngineSize, Seeds, Workload};

/// Residency bounds for open-ended iBench stressors, seconds — the
/// values `build_schedule` uses.
const IBENCH_RESIDENCY_S: (f32, f32) = (120.0, 600.0);
/// Residency override for every `burst_dense` job, seconds.
const BURST_RESIDENCY_S: (f32, f32) = (4.0, 12.0);

/// An [`ArrivalSource`] that stops after `left` arrivals.
#[derive(Debug, Clone)]
pub struct Capped<S> {
    inner: S,
    left: u64,
}

impl<S> Capped<S> {
    /// Caps `inner` at `max_arrivals`.
    pub fn new(inner: S, max_arrivals: u64) -> Self {
        Self {
            inner,
            left: max_arrivals,
        }
    }
}

impl<S: ArrivalSource> ArrivalSource for Capped<S> {
    fn next_time(&mut self) -> Option<f64> {
        if self.left == 0 {
            return None;
        }
        let t = self.inner.next_time()?;
        self.left -= 1;
        Some(t)
    }

    fn on_complete(&mut self, finished_s: f64) -> bool {
        self.inner.on_complete(finished_s)
    }

    fn exhausted(&self) -> bool {
        self.left == 0 || self.inner.exhausted()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// Turns arrival instants into [`ScheduledArrival`]s the way
/// `build_schedule`'s `PolicyDecided` style does: uniform catalog pick,
/// BE/LC policy-decided, iBench forced to a random mode.
///
/// The pick is uniform without replacement: profiles are dealt from a
/// shuffled deck of the catalog, reshuffled when it runs out, so any
/// stretch of arrivals holds every profile equally often. A rep is too
/// short for independent picks to do that — an LC completion alone costs
/// the host as much as five decisions — and over seeds 1–6 the 2 100
/// independent picks of a `mixed_steady` rep put its time anywhere
/// between 0.37 and 0.46 s.
struct Spawner {
    catalog: WorkloadCatalog,
    /// Catalog indices still to deal, last first.
    deck: Vec<usize>,
    rng: Xoshiro256pp,
    /// `Some` overrides every residency; `None` overrides iBench only.
    residency_all_s: Option<(f32, f32)>,
}

impl Spawner {
    fn arrival(&mut self, at_s: f64) -> ScheduledArrival {
        if self.deck.is_empty() {
            self.deck.extend(0..self.catalog.len());
            // Fisher–Yates.
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.gen_range(0..=i));
            }
        }
        let dealt = self.deck.pop().expect("just refilled");
        let profile = self.catalog.entries()[dealt].clone();
        // Drawn unconditionally so the rest of the stream does not
        // depend on which profile was picked.
        let mode = if self.rng.gen_bool(0.5) {
            MemoryMode::Local
        } else {
            MemoryMode::Remote
        };
        let (lo, hi) = self.residency_all_s.unwrap_or(IBENCH_RESIDENCY_S);
        let residency_s = self.rng.gen_range(lo..=hi);
        let interference = profile.class() == WorkloadClass::Interference;
        let mut arrival = ScheduledArrival::new(at_s, profile);
        if interference || self.residency_all_s.is_some() {
            arrival = arrival.with_duration(residency_s);
        }
        if interference {
            arrival = arrival.with_mode(mode);
        }
        arrival
    }
}

/// What a stream handed out.
#[derive(Debug, Clone)]
pub struct Issued {
    /// Arrivals issued.
    pub arrivals: u64,
    /// The instant the generator built arrival `k * lap_arrivals`, for
    /// every `k`: the same points of the simulation in every rep of a
    /// seed. The clock is read here, in code the benchmark already runs
    /// between two engine calls, so a lap costs the engine nothing.
    pub laps: Vec<Instant>,
}

fn drive<S: ArrivalSource, R>(
    source: S,
    mut spawner: Spawner,
    lap_arrivals: u64,
    f: impl FnOnce(&mut dyn ArrivalStream) -> R,
) -> (R, Issued) {
    let mut laps = Vec::new();
    let mut stream = GeneratedStream::new(source, |index, at_s| {
        if index % lap_arrivals == 0 {
            laps.push(Instant::now());
        }
        spawner.arrival(at_s)
    });
    let result = f(&mut stream);
    let arrivals = stream.issued();
    (result, Issued { arrivals, laps })
}

/// Builds the workload's open-loop arrival stream from `seeds`, hands it
/// to `f`, and returns `f`'s result with what the stream issued.
///
/// # Panics
///
/// Panics on [`Workload::TrainOffline`], which has no arrival stream.
pub fn with_stream<R>(
    workload: Workload,
    size: EngineSize,
    seeds: &Seeds,
    f: impl FnOnce(&mut dyn ArrivalStream) -> R,
) -> (R, Issued) {
    let paper = WorkloadCatalog::paper();
    let spawner = |catalog, residency_all_s| Spawner {
        catalog,
        deck: Vec::new(),
        rng: Xoshiro256pp::seed_from_u64(seeds.pick),
        residency_all_s,
    };
    match workload {
        Workload::MixedSteady => drive(
            Capped::new(
                PoissonSource::new(0.1, size.horizon_s, seeds.source),
                size.max_arrivals,
            ),
            spawner(paper, None),
            size.lap_arrivals,
            f,
        ),
        Workload::BurstDense => {
            let no_lc = paper
                .entries()
                .iter()
                .filter(|p| p.class() != WorkloadClass::LatencyCritical)
                .cloned()
                .collect();
            drive(
                Capped::new(
                    MmppSource::new([20.0, 400.0], [20.0, 5.0], size.horizon_s, seeds.source),
                    size.max_arrivals,
                ),
                spawner(
                    WorkloadCatalog::from_profiles(no_lc),
                    Some(BURST_RESIDENCY_S),
                ),
                size.lap_arrivals,
                f,
            )
        }
        Workload::SparseDiurnal => drive(
            Capped::new(
                DiurnalSource::new(1.0 / 300.0, 0.9, 86_400.0, size.horizon_s, seeds.source),
                size.max_arrivals,
            ),
            spawner(paper, None),
            size.lap_arrivals,
            f,
        ),
        Workload::TrainOffline => panic!("train_offline has no arrival stream"),
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a 64-bit pattern in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every arrival a stream emits: instant, workload name,
/// residency override and forced mode.
pub fn arrival_digest(stream: &mut dyn ArrivalStream) -> u64 {
    let mut h = Fnv::default();
    while let Some(a) = stream.next_arrival() {
        h.u64(a.at_s.to_bits());
        h.bytes(a.profile.name().as_bytes());
        h.u64(u64::from(a.duration_s.map_or(u32::MAX, f32::to_bits)));
        h.u64(match a.forced_mode {
            None => 0,
            Some(MemoryMode::Local) => 1,
            Some(MemoryMode::Remote) => 2,
        });
    }
    h.finish()
}

/// Digest of every outcome of a run, in completion order: name, mode,
/// arrival, finish, runtime, mean slowdown and p99 bit patterns.
pub fn outcome_digest(report: &RunReport) -> u64 {
    let mut h = Fnv::default();
    for o in &report.outcomes {
        h.bytes(o.name.as_bytes());
        h.u64(match o.mode {
            MemoryMode::Local => 1,
            MemoryMode::Remote => 2,
        });
        h.u64(o.arrived_s.to_bits());
        h.u64(o.finished_s.to_bits());
        h.u64(o.runtime_s.to_bits());
        h.u64(u64::from(o.mean_slowdown.to_bits()));
        h.u64(u64::from(o.p99_ms.map_or(u32::MAX, f32::to_bits)));
    }
    h.finish()
}
