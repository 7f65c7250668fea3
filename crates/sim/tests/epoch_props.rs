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

use adrias_core::prop::prelude::*;
use adrias_core::rng::{RngCore, SeedableRng, Xoshiro256pp};

use adrias_sim::{counters, slowdown, LinkConfig, ResourcePressure, Testbed, TestbedConfig};
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

    /// `ops` are `(kind, pick, param)`: half of them step, the rest
    /// deploy, remove or swap the link. `subject` keeps its memo across
    /// quiet steps; `fresh` is told to forget before every step (a
    /// `set_link` to the link it already has). Against both stands a
    /// from-scratch recomputation of everything the memo holds.
    #[test]
    fn epoch_memo_matches_recompute_every_step(
        ops in prop::collection::vec((0u8..8, 0usize..64, 1u32..40), 1..160),
        seed in 0u64..u64::MAX,
    ) {
        let palette = palette();
        let links = links();
        let cfg = TestbedConfig::paper();
        let mut subject = Testbed::new(cfg, seed);
        let mut fresh = Testbed::new(cfg, seed);
        let mut noise = Xoshiro256pp::seed_from_u64(seed);
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
                }
                4 | 5 => {
                    let profile = palette[pick % palette.len()].clone();
                    let mode = if param % 2 == 0 { MemoryMode::Local } else { MemoryMode::Remote };
                    let duration = param as f32 * 1.5;
                    subject.deploy_for(profile.clone(), mode, duration);
                    fresh.deploy_for(profile, mode, duration);
                }
                6 => {
                    let ids: Vec<_> = subject.resident().map(|d| d.id()).collect();
                    if !ids.is_empty() {
                        let id = ids[pick % ids.len()];
                        prop_assert!(subject.remove(id).is_some());
                        prop_assert!(fresh.remove(id).is_some());
                    }
                }
                _ => {
                    subject.set_link(links[pick % links.len()]);
                    fresh.set_link(links[pick % links.len()]);
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
        }
    }
}
