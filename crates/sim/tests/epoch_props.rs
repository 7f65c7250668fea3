//! Shortcuts `Testbed::step` takes, each against the long way round,
//! **bit for bit**:
//!
//! * `counters::perturb` skips the deviate behind a `+0.0` counter — the
//!   sample and the RNG's next output must be what drawing all seven
//!   gives;
//! * the testbed keeps pressure, noiseless counters and slowdowns for as
//!   long as the resident set and link are unchanged — every read and
//!   every step report must be what recomputing from scratch gives,
//!   under any interleaving of `deploy_for` / `remove` / `set_link` /
//!   `step`;
//! * residents share what they cannot differ in — one set of
//!   environment sums per arrival instant, one slowdown per distinct
//!   input of `contention::slowdown` — and every completion must be what
//!   the store this one replaced reports: [`Reference`], one record per
//!   deployment with its own [`EnvAccumulator`] and its own `slowdown`
//!   call every step.
//!
//! The same interleaving pins the resident store: it reads in id order
//! whatever completions and removals did to it, checked after every
//! operation against the ordered map of [`Reference`]s.

use std::collections::BTreeMap;

use adrias_core::prop::prelude::*;
use adrias_core::prop::PropFail;
use adrias_core::rng::{RngCore, SeedableRng, Xoshiro256pp};

use adrias_sim::{
    counters, slowdown, DeploymentId, LinkConfig, ResourcePressure, Testbed, TestbedConfig,
};
use adrias_telemetry::{dist, MetricVec};
use adrias_workloads::{
    ibench, keyvalue, spark, IbenchKind, LatencyEnv, MemoryMode, Sensitivity, WorkloadClass,
    WorkloadProfile,
};

/// The 23 catalog profiles, then [`TWINS`] custom ones.
fn palette() -> Vec<WorkloadProfile> {
    let mut all = spark::suite();
    all.extend(keyvalue::suite());
    all.extend(ibench::all_profiles());
    assert_eq!(all.len(), CATALOG);
    all.extend(twins());
    all
}

const CATALOG: usize = 23;
const TWINS: usize = 5;

/// Four profiles that share the name `twin` and differ from the first in
/// exactly one thing `slowdown` or the progress rate reads — the last bit
/// of one sensitivity, `stacking`, the class — so none may share a
/// slowdown with another; and `alias`, the first one's fields under
/// another name, which may.
fn twins() -> [WorkloadProfile; TWINS] {
    let sensitivity = Sensitivity {
        cpu: 0.3,
        l2: 0.2,
        llc: 0.5,
        mem_bw: 0.4,
    };
    let twin = |name: &'static str, class, sensitivity, stacking| {
        WorkloadProfile::builder(name, class)
            .cpu_cores(2.0)
            .l2_mb(1.0)
            .llc_mb(1.5)
            .mem_bw_gbps(1.0)
            .sensitivity(sensitivity)
            .remote_penalty(1.3)
            .stacking(stacking)
            .build()
    };
    let one_bit = Sensitivity {
        llc: f32::from_bits(sensitivity.llc.to_bits() ^ 1),
        ..sensitivity
    };
    let be = WorkloadClass::BestEffort;
    [
        twin("twin", be, sensitivity, false),
        twin("twin", be, one_bit, false),
        twin("twin", be, sensitivity, true),
        twin("twin", WorkloadClass::LatencyCritical, sensitivity, false),
        twin("alias", be, sensitivity, false),
    ]
}

fn links() -> [LinkConfig; 3] {
    let paper = LinkConfig::paper();
    [
        paper,
        LinkConfig {
            effective_cap_gbps: 0.4,
            ..paper
        },
        LinkConfig {
            base_latency_cycles: 700.0,
            saturated_latency_cycles: 1500.0,
            flit_bytes: 64,
            ..paper
        },
    ]
}

/// The perturbation as it was before the zero skip: one Box–Muller draw
/// per counter, whatever its value.
fn perturb_all_seven(cfg: &TestbedConfig, clean: &MetricVec, rng: &mut Xoshiro256pp) -> MetricVec {
    MetricVec::from_array(clean.as_array().map(|v| {
        if cfg.noise_rel_std <= 0.0 {
            v
        } else {
            v * dist::noise_factor(rng, cfg.noise_rel_std) as f32
        }
    }))
}

fn bits(v: &MetricVec) -> [u32; 7] {
    v.as_array().map(f32::to_bits)
}

/// The environment sums as every deployment kept them for itself before
/// residents admitted together shared one set.
#[derive(Default)]
struct EnvAccumulator {
    steps: u32,
    cpu: f64,
    l2: f64,
    llc: f64,
    mem_bw: f64,
    link_util: f64,
    link_lat: f64,
    slowdown: f64,
}

impl EnvAccumulator {
    fn push(&mut self, p: &ResourcePressure, sd: f32) {
        self.steps += 1;
        self.cpu += f64::from(p.cpu);
        self.l2 += f64::from(p.l2);
        self.llc += f64::from(p.llc);
        self.mem_bw += f64::from(p.mem_bw);
        self.link_util += f64::from(p.link_utilization);
        self.link_lat += f64::from(p.link_latency_cycles);
        self.slowdown += f64::from(sd);
    }

    fn average_env(&self, mode: MemoryMode) -> LatencyEnv {
        let n = f64::from(self.steps);
        LatencyEnv {
            mode,
            cpu_pressure: (self.cpu / n) as f32,
            l2_pressure: (self.l2 / n) as f32,
            llc_pressure: (self.llc / n) as f32,
            mem_bw_pressure: (self.mem_bw / n) as f32,
            link_utilization: (self.link_util / n) as f32,
            link_latency_cycles: (self.link_lat / n) as f32,
        }
    }

    fn mean_slowdown(&self) -> f32 {
        (self.slowdown / f64::from(self.steps)) as f32
    }
}

/// One resident as the store kept it when every resident was one record.
struct Reference {
    profile: WorkloadProfile,
    mode: MemoryMode,
    arrived_s: f64,
    duration_s: f32,
    work_done_s: f64,
    env: EnvAccumulator,
}

/// Everything a `CompletedApp` says, floats as bits.
type Completion = (DeploymentId, String, MemoryMode, [u64; 3], [u32; 7]);

fn completion(
    id: DeploymentId,
    name: &str,
    [arrived_s, finished_s, runtime_s]: [f64; 3],
    mean_slowdown: f32,
    env: &LatencyEnv,
) -> Completion {
    let floats = [
        mean_slowdown,
        env.cpu_pressure,
        env.l2_pressure,
        env.llc_pressure,
        env.mem_bw_pressure,
        env.link_utilization,
        env.link_latency_cycles,
    ];
    let times = [arrived_s, finished_s, runtime_s].map(f64::to_bits);
    (
        id,
        name.to_owned(),
        env.mode,
        times,
        floats.map(f32::to_bits),
    )
}

/// The progress loop as it ran over that store: every resident, in id
/// order, evaluates its own slowdown and pushes its own environment. The
/// completed ones leave `model`.
fn reference_step(
    model: &mut BTreeMap<DeploymentId, Reference>,
    pressure: &ResourcePressure,
    step_start: f64,
) -> Vec<Completion> {
    let mut finished = Vec::new();
    for (&id, d) in model.iter_mut() {
        let sd = slowdown(&d.profile, d.mode, pressure);
        d.env.push(pressure, sd);
        let rate = if d.profile.class() == WorkloadClass::BestEffort {
            1.0 / f64::from(sd)
        } else {
            1.0
        };
        let before = d.work_done_s;
        d.work_done_s += rate * Testbed::STEP_S;
        if d.work_done_s >= f64::from(d.duration_s) {
            let need = f64::from(d.duration_s) - before;
            let frac = if rate > 0.0 {
                (need / rate).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let finished_s = step_start + frac * Testbed::STEP_S;
            finished.push(completion(
                id,
                d.profile.name(),
                [d.arrived_s, finished_s, finished_s - d.arrived_s],
                d.env.mean_slowdown(),
                &d.env.average_env(d.mode),
            ));
        }
    }
    model.retain(|id, _| finished.iter().all(|done| done.0 != *id));
    finished
}

/// Pressure and noiseless counters of the `model` residents, from
/// scratch.
fn recompute(
    cfg: &TestbedConfig,
    model: &BTreeMap<DeploymentId, Reference>,
) -> (ResourcePressure, MetricVec) {
    let placements = model.values().map(|d| (&d.profile, d.mode));
    let pressure = ResourcePressure::compute(cfg, placements);
    let profiles = model.values().map(|d| &d.profile);
    let clean = counters::noiseless(cfg, profiles, &pressure);
    (pressure, clean)
}

/// One operation on the testbed under test.
#[derive(Debug, Clone, Copy)]
enum Op {
    Step,
    /// `palette()[pick]` in `mode` for `duration_s`.
    Deploy(usize, MemoryMode, f32),
    /// The `n`-th newest resident (mod the resident count), if there is
    /// one.
    Remove(usize),
    /// The `n`-th id that is not resident: one that left, or the next
    /// one to be issued.
    RemoveAbsent(usize),
    /// `links()[n]`.
    SetLink(usize),
}

/// Runs `ops` on a testbed. `subject` keeps its memo across quiet steps;
/// `fresh` is told to forget before every step (a `set_link` to the link
/// it already has). Against both stands a from-scratch recomputation of
/// everything the memo holds, and against the resident store and every
/// completion stands `model`: what should be resident, in id order, each
/// [`Reference`] advanced by [`reference_step`]. Returns how many
/// residents are left.
fn check_interleaving(ops: &[Op], seed: u64) -> Result<usize, PropFail> {
    let palette = palette();
    let links = links();
    let cfg = TestbedConfig::paper();
    let mut subject = Testbed::new(cfg, seed);
    let mut fresh = Testbed::new(cfg, seed);
    let mut noise = Xoshiro256pp::seed_from_u64(seed);
    let mut model: BTreeMap<DeploymentId, Reference> = BTreeMap::new();
    let mut issued: Vec<DeploymentId> = Vec::new();
    let mut time_s = 0.0f64;
    // Never stepped and always one deployment ahead of `subject`: its
    // newest id is one `subject` has not issued yet.
    let mut donor = Testbed::new(cfg, seed);
    let mut not_yet_issued = donor.deploy_for(palette[0].clone(), MemoryMode::Local, 1.0);
    for &op in ops {
        match op {
            Op::Step => {
                let (pressure, clean) = recompute(subject.config(), &model);
                let want_sample = counters::perturb(subject.config(), &clean, &mut noise);
                let link = fresh.config().link;
                fresh.set_link(link);
                let got = subject.step();
                prop_assert_eq!(format!("{got:?}"), format!("{:?}", fresh.step()));
                prop_assert_eq!(got.pressure, pressure);
                prop_assert_eq!(bits(got.sample.vec()), bits(&want_sample));
                prop_assert_eq!(
                    subject.link_bytes_total().to_bits(),
                    fresh.link_bytes_total().to_bits()
                );
                // Completions are the reference's, in id order, and
                // leave.
                let want = reference_step(&mut model, &pressure, time_s);
                let finished = got.finished.iter().map(|done| {
                    let times = [done.arrived_s, done.finished_s, done.runtime_s];
                    completion(
                        done.id,
                        done.profile.name(),
                        times,
                        done.mean_slowdown,
                        &done.average_env,
                    )
                });
                prop_assert_eq!(finished.collect::<Vec<_>>(), want);
                prop_assert!(got
                    .finished
                    .iter()
                    .all(|done| done.mode == done.average_env.mode));
                time_s += Testbed::STEP_S;
                prop_assert_eq!(got.time_s.to_bits(), time_s.to_bits());
            }
            Op::Deploy(pick, mode, duration_s) => {
                let profile = palette[pick].clone();
                let id = subject.deploy_for(profile.clone(), mode, duration_s);
                prop_assert_eq!(fresh.deploy_for(profile.clone(), mode, duration_s), id);
                prop_assert_eq!(id, not_yet_issued);
                not_yet_issued = donor.deploy_for(profile.clone(), mode, duration_s);
                let reference = Reference {
                    profile,
                    mode,
                    arrived_s: time_s,
                    duration_s,
                    work_done_s: 0.0,
                    env: EnvAccumulator::default(),
                };
                model.insert(id, reference);
                issued.push(id);
            }
            Op::Remove(n) => {
                if !model.is_empty() {
                    let id = *model.keys().nth_back(n % model.len()).expect("in range");
                    prop_assert_eq!(subject.remove(id).map(|d| d.id()), Some(id));
                    prop_assert!(fresh.remove(id).is_some());
                    model.remove(&id);
                }
            }
            Op::SetLink(n) => {
                subject.set_link(links[n]);
                fresh.set_link(links[n]);
            }
            Op::RemoveAbsent(n) => {
                // An id that is not resident removes nothing and changes
                // nothing: the testbed, memo included, prints as it did.
                // (`fresh` is not told, so every later step report
                // checks the same.)
                let gone = issued.iter().copied().filter(|id| !model.contains_key(id));
                let absent: Vec<DeploymentId> = gone.chain([not_yet_issued]).collect();
                let id = absent[n % absent.len()];
                let before = format!("{subject:?}");
                prop_assert!(subject.remove(id).is_none());
                prop_assert_eq!(format!("{subject:?}"), before);
            }
        }
        // Reads are served from the memo when it is valid; either
        // way they must equal the recomputation.
        let (pressure, _) = recompute(subject.config(), &model);
        prop_assert_eq!(subject.pressure(), pressure);
        for (&id, d) in &model {
            let want = slowdown(&d.profile, d.mode, &pressure);
            prop_assert_eq!(
                subject.slowdown_of(id).map(f32::to_bits),
                Some(want.to_bits())
            );
        }
        // The store holds exactly the model, in strictly increasing
        // id order, and finds by id what the model finds.
        let ids: Vec<DeploymentId> = subject.resident().map(|d| d.id()).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(&ids, &model.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(subject.resident_count(), model.len());
        for &id in issued.iter().chain([&not_yet_issued]) {
            let want = model.get(&id).map(|d| {
                let times = (d.arrived_s.to_bits(), d.duration_s.to_bits());
                (id, d.profile.name(), d.mode, times)
            });
            let got = subject.deployment(id).map(|d| {
                let times = (d.arrived_s().to_bits(), d.duration_s().to_bits());
                (d.id(), d.profile().name(), d.mode(), times)
            });
            prop_assert_eq!(got, want);
            prop_assert_eq!(subject.is_resident(id), want.is_some());
            prop_assert_eq!(subject.slowdown_of(id).is_some(), want.is_some());
        }
    }
    Ok(model.len())
}

proptest! {
    /// Idle (no picks), all-local, all-remote and mixed resident sets;
    /// paper noise, heavy noise and `noise_rel_std = 0`.
    #[test]
    fn zero_skip_keeps_sample_bits_and_stream_position(
        picks in prop::collection::vec(0usize..64, 0..12),
        modes in prop::sample::select(vec![0u8, 1, 2]),
        rel_std in prop::sample::select(vec![0.02f64, 0.0, 0.3]),
        seed in 0u64..u64::MAX,
    ) {
        let palette = palette();
        let cfg = TestbedConfig { noise_rel_std: rel_std, ..TestbedConfig::paper() };
        let resident: Vec<(&WorkloadProfile, MemoryMode)> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                let mode = match modes {
                    0 => MemoryMode::Local,
                    1 => MemoryMode::Remote,
                    _ if i % 2 == 0 => MemoryMode::Local,
                    _ => MemoryMode::Remote,
                };
                (&palette[pick % palette.len()], mode)
            })
            .collect();
        let pressure = ResourcePressure::compute(&cfg, resident.iter().copied());
        let clean = counters::noiseless(&cfg, resident.iter().map(|(w, _)| *w), &pressure);

        let mut skipping = Xoshiro256pp::seed_from_u64(seed);
        let mut drawing = Xoshiro256pp::seed_from_u64(seed);
        // A few steps in a row: a slipped stream shows on the next one.
        for _ in 0..3 {
            let got = counters::perturb(&cfg, &clean, &mut skipping);
            let want = perturb_all_seven(&cfg, &clean, &mut drawing);
            prop_assert_eq!(bits(&got), bits(&want));
        }
        prop_assert_eq!(skipping.next_u64(), drawing.next_u64());
    }

    /// `ops` are `(kind, pick, param)`: four in ten step, the rest
    /// deploy (one long-lived, or a burst of short-lived ones that share
    /// their arrival instant and whose completions leave holes all over
    /// the store), remove a resident or an id that is not resident, or
    /// swap the link. One pick in three is a [`twins`] profile.
    #[test]
    fn epoch_memo_matches_recompute_every_step(
        ops in prop::collection::vec((0u8..10, 0usize..64, 1u32..40), 1..160),
        seed in 0u64..u64::MAX,
    ) {
        let mut decoded = Vec::new();
        for (kind, pick, param) in ops {
            match kind {
                0..=3 => decoded.push(Op::Step),
                4 | 5 | 8 => {
                    // One deployment of 1.5–60 s, or up to four of
                    // 0.4–2 s that are gone within a step or three.
                    let (count, span, scale) = if kind == 8 {
                        (1 + pick % 4, 5, 0.4)
                    } else {
                        (1, 40, 1.5)
                    };
                    for i in 0..count {
                        let pick = pick + 7 * i;
                        let pick = if pick % 3 == 0 { CATALOG + pick % TWINS } else { pick % CATALOG };
                        let n = param as usize + pick + i;
                        let mode = MemoryMode::BOTH[n % 2];
                        decoded.push(Op::Deploy(pick, mode, (n % span + 1) as f32 * scale));
                    }
                }
                6 => decoded.push(Op::Remove(pick)),
                7 => decoded.push(Op::SetLink(pick % 3)),
                _ => decoded.push(Op::RemoveAbsent(pick)),
            }
        }
        check_interleaving(&decoded, seed)?;
    }
}

/// Enough long-lived stressors that every pressure term is positive and
/// the link is past its knee, so slowdowns differ wherever their inputs
/// do, and every arrival or departure moves the environment.
fn crowd() -> Vec<Op> {
    let stressor = |kind| {
        let at = IbenchKind::ALL.iter().position(|&k| k == kind);
        CATALOG - IbenchKind::ALL.len() + at.expect("a kind")
    };
    let mut ops = Vec::new();
    for (kind, count, mode) in [
        (IbenchKind::Cpu, 16, MemoryMode::Local),
        (IbenchKind::L2, 12, MemoryMode::Local),
        (IbenchKind::Llc, 6, MemoryMode::Local),
        (IbenchKind::MemBw, 6, MemoryMode::Remote),
    ] {
        ops.extend((0..count).map(|_| Op::Deploy(stressor(kind), mode, 500.0)));
    }
    ops
}

/// Runs `ops` and then steps, on the paper link, until only the [`crowd`]
/// is left: every other deployment has been compared at its completion,
/// or removed.
fn run_scripted(mut ops: Vec<Op>) {
    ops.push(Op::SetLink(0));
    ops.extend([Op::Step; 300]);
    match check_interleaving(&ops, 0x5EED) {
        Ok(left) => assert_eq!(left, crowd().len(), "some never completed"),
        Err(fail) => panic!("{fail}"),
    }
}

/// Forty deployments on one instant; then one per instant; a link swap in
/// the middle of both. The shared sums must be per *instant*: residents
/// admitted a second apart saw different pressures from their first step
/// on.
#[test]
fn completions_match_reference_many_per_instant_and_one_per_instant() {
    let mut ops = crowd();
    ops.push(Op::Step);
    for i in 0..40 {
        let duration = 1.5 + (i % 7) as f32;
        ops.push(Op::Deploy(i % CATALOG, MemoryMode::BOTH[i % 2], duration));
    }
    ops.extend([Op::Step, Op::Step, Op::SetLink(1), Op::Step, Op::Step]);
    for i in 0..12 {
        let duration = 2.5 + (i % 5) as f32;
        ops.push(Op::Deploy(
            3 * i % CATALOG,
            MemoryMode::BOTH[i % 2],
            duration,
        ));
        ops.push(Op::Step);
        if i == 6 {
            ops.push(Op::SetLink(2));
        }
    }
    run_scripted(ops);
}

/// Deploy and remove inside one tick: an instant's sums stay open for the
/// whole tick whoever leaves, are handed to nobody who arrives on a later
/// one, and a freed entry — sums or kin — starts afresh under its next
/// holder.
#[test]
fn completions_match_reference_across_deploy_and_remove_in_one_tick() {
    let mut ops = crowd();
    let deploy = |pick, duration| Op::Deploy(pick, MemoryMode::Remote, duration);
    ops.extend([Op::Step, Op::Step]);
    // Alone on its instant and of its kin, and gone again: the next one
    // finds the sums still open and the kin entry free, and what arrives
    // later — another instant, another kin — must not be handed either
    // while they are held.
    ops.extend([deploy(0, 3.0), Op::Remove(0), deploy(0, 3.0), Op::Step]);
    ops.extend([deploy(1, 3.0), Op::Step]);
    // Two on an instant, the first leaves: the second keeps the sums.
    ops.extend([deploy(2, 3.0), deploy(3, 3.0), Op::Remove(1), Op::Step]);
    // Stepped once, then the only holder leaves: whoever reuses the
    // entry must not inherit that step.
    ops.extend([deploy(4, 9.0), Op::Step, Op::Remove(0)]);
    ops.extend([deploy(5, 3.0), deploy(6, 2.0), Op::Step]);
    // Removed on a later tick than it arrived on, while another arrives.
    ops.extend([deploy(7, 9.0), Op::Step, deploy(8, 2.0), Op::Remove(1)]);
    run_scripted(ops);
}

/// The [`twins`] side by side in both modes under a crowded node: a
/// slowdown shared by name, or by anything short of every bit `slowdown`
/// reads, shows in `mean_slowdown` or in the completion instant.
#[test]
fn completions_match_reference_for_profiles_that_share_a_name() {
    let mut ops = crowd();
    ops.push(Op::Step);
    for round in 0..2 {
        for twin in 0..TWINS {
            for mode in MemoryMode::BOTH {
                ops.push(Op::Deploy(CATALOG + twin, mode, 3.0 + round as f32));
            }
        }
        ops.extend([Op::Step, Op::SetLink(round + 1)]);
    }
    run_scripted(ops);
}
