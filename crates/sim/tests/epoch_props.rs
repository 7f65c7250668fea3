//! Two shortcuts `Testbed::step` takes on a quiet second, each against
//! the long way round, **bit for bit**:
//!
//! * `counters::perturb` skips the draw behind a `+0.0` counter — the
//!   sample and the RNG's next output must be what drawing all seven
//!   gives;
//! * the testbed keeps pressure, noiseless counters and slowdowns for as
//!   long as the resident set and link are unchanged — every read and
//!   every step report must be what recomputing from scratch gives,
//!   under any interleaving of `deploy_for` / `remove` / `set_link` /
//!   `step`.
//!
//! The same interleaving pins the resident store: it is a `Vec` in id
//! order that completions compact in place, checked after every
//! operation against an ordered map kept by the test.

use std::collections::BTreeMap;

use adrias_core::prop::prelude::*;
use adrias_core::rng::{RngCore, SeedableRng, Xoshiro256pp};

use adrias_sim::{
    counters, slowdown, DeploymentId, LinkConfig, ResourcePressure, Testbed, TestbedConfig,
};
use adrias_telemetry::{dist, MetricVec};
use adrias_workloads::{ibench, keyvalue, spark, MemoryMode, WorkloadProfile};

fn palette() -> Vec<WorkloadProfile> {
    let mut all = spark::suite();
    all.extend(keyvalue::suite());
    all.extend(ibench::all_profiles());
    all
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

/// Pressure and noiseless counters of `tb`'s resident set, from scratch.
fn recompute(tb: &Testbed) -> (ResourcePressure, MetricVec) {
    let placements: Vec<_> = tb.resident().map(|d| (d.profile(), d.mode())).collect();
    let pressure = ResourcePressure::compute(tb.config(), placements.iter().copied());
    let profiles = tb.resident().map(|d| d.profile());
    let clean = counters::noiseless(tb.config(), profiles, &pressure);
    (pressure, clean)
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
    /// deploy (one long-lived, or a burst of short-lived ones whose
    /// completions leave holes all over the store), remove a resident or
    /// an id that is not resident, or swap the link. `subject` keeps its
    /// memo across quiet steps; `fresh` is told to forget before every
    /// step (a `set_link` to the link it already has). Against both
    /// stands a from-scratch recomputation of everything the memo holds,
    /// and against the resident store stands `model`: id → (name, mode)
    /// of what should be resident, in id order.
    #[test]
    fn epoch_memo_matches_recompute_every_step(
        ops in prop::collection::vec((0u8..10, 0usize..64, 1u32..40), 1..160),
        seed in 0u64..u64::MAX,
    ) {
        let palette = palette();
        let links = links();
        let cfg = TestbedConfig::paper();
        let mut subject = Testbed::new(cfg, seed);
        let mut fresh = Testbed::new(cfg, seed);
        let mut noise = Xoshiro256pp::seed_from_u64(seed);
        let mut model: BTreeMap<DeploymentId, (String, MemoryMode)> = BTreeMap::new();
        let mut issued: Vec<DeploymentId> = Vec::new();
        // Never stepped and always one deployment ahead of `subject`: its
        // newest id is one `subject` has not issued yet.
        let mut donor = Testbed::new(cfg, seed);
        let mut not_yet_issued = donor.deploy_for(palette[0].clone(), MemoryMode::Local, 1.0);
        for (kind, pick, param) in ops {
            match kind {
                0..=3 => {
                    let (pressure, clean) = recompute(&subject);
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
                    // Completions are reported in id order and leave.
                    prop_assert!(got.finished.windows(2).all(|w| w[0].id < w[1].id));
                    for done in &got.finished {
                        let (name, mode) = model.remove(&done.id).expect("finished while resident");
                        prop_assert_eq!((name.as_str(), mode), (done.profile.name(), done.mode));
                    }
                }
                4 | 5 | 8 => {
                    // One deployment of 1.5–60 s, or up to four of
                    // 0.4–2 s that are gone within a step or three.
                    let (count, span, scale) = if kind == 8 {
                        (1 + pick % 4, 5, 0.4)
                    } else {
                        (1, 40, 1.5)
                    };
                    for i in 0..count {
                        let profile = palette[(pick + 7 * i) % palette.len()].clone();
                        let n = param as usize + i;
                        let mode = if n.is_multiple_of(2) {
                            MemoryMode::Local
                        } else {
                            MemoryMode::Remote
                        };
                        let duration = (n % span + 1) as f32 * scale;
                        let id = subject.deploy_for(profile.clone(), mode, duration);
                        prop_assert_eq!(fresh.deploy_for(profile.clone(), mode, duration), id);
                        prop_assert_eq!(id, not_yet_issued);
                        not_yet_issued = donor.deploy_for(profile.clone(), mode, duration);
                        model.insert(id, (profile.name().to_owned(), mode));
                        issued.push(id);
                    }
                }
                6 => {
                    if !model.is_empty() {
                        let id = *model.keys().nth(pick % model.len()).expect("in range");
                        prop_assert_eq!(subject.remove(id).map(|d| d.id()), Some(id));
                        prop_assert!(fresh.remove(id).is_some());
                        model.remove(&id);
                    }
                }
                7 => {
                    subject.set_link(links[pick % links.len()]);
                    fresh.set_link(links[pick % links.len()]);
                }
                _ => {
                    // An id that is not resident — one that left, or one
                    // not issued yet — removes nothing and changes
                    // nothing: the testbed, memo included, prints as it
                    // did. (`fresh` is not told, so every later step
                    // report checks the same.)
                    let gone = issued.iter().copied().filter(|id| !model.contains_key(id));
                    let absent: Vec<DeploymentId> = gone.chain([not_yet_issued]).collect();
                    let id = absent[pick % absent.len()];
                    let before = format!("{subject:?}");
                    prop_assert!(subject.remove(id).is_none());
                    prop_assert_eq!(format!("{subject:?}"), before);
                }
            }
            // Reads are served from the memo when it is valid; either
            // way they must equal the recomputation.
            let (pressure, _) = recompute(&subject);
            prop_assert_eq!(subject.pressure(), pressure);
            for d in subject.resident() {
                let want = slowdown(d.profile(), d.mode(), &pressure);
                prop_assert_eq!(subject.slowdown_of(d.id()).map(f32::to_bits), Some(want.to_bits()));
            }
            // The store holds exactly the model, in strictly increasing
            // id order, and finds by id what the model finds.
            let ids: Vec<DeploymentId> = subject.resident().map(|d| d.id()).collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(&ids, &model.keys().copied().collect::<Vec<_>>());
            prop_assert_eq!(subject.resident_count(), model.len());
            for &id in issued.iter().chain([&not_yet_issued]) {
                let want = model.get(&id).map(|(name, mode)| (id, name.as_str(), *mode));
                let got = subject.deployment(id).map(|d| (d.id(), d.profile().name(), d.mode()));
                prop_assert_eq!(got, want);
                prop_assert_eq!(subject.is_resident(id), want.is_some());
                prop_assert_eq!(subject.slowdown_of(id).is_some(), want.is_some());
            }
        }
    }
}
