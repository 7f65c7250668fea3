//! Workload generators: the same seed gives the same arrivals, another
//! seed gives others.

use adrias_perfbench::inputs::{arrival_digest, with_stream};
use adrias_perfbench::spec::{engine_size, Seeds, Workload, SMOKE_DIVISOR};

const ENGINE_WORKLOADS: [Workload; 3] = [
    Workload::MixedSteady,
    Workload::BurstDense,
    Workload::SparseDiurnal,
];

/// Arrival digest and arrivals issued.
fn digest(workload: Workload, seed: u64) -> (u64, u64) {
    let (digest, issued) = with_stream(
        workload,
        engine_size(workload, SMOKE_DIVISOR),
        &Seeds::derive(seed),
        arrival_digest,
    );
    (digest, issued.arrivals)
}

#[test]
fn same_seed_same_arrivals_other_seed_other_arrivals() {
    for workload in ENGINE_WORKLOADS {
        let (a, issued) = digest(workload, 7);
        assert!(issued > 0, "{} issued nothing", workload.name());
        assert_eq!(digest(workload, 7), (a, issued), "{}", workload.name());
        assert_ne!(digest(workload, 8).0, a, "{}", workload.name());
    }
}

#[test]
fn burst_dense_is_bound_by_its_arrival_cap() {
    let size = engine_size(Workload::BurstDense, SMOKE_DIVISOR);
    for seed in [1, 2, 3] {
        assert_eq!(digest(Workload::BurstDense, seed).1, size.max_arrivals);
    }
}

#[test]
fn neighbouring_seeds_share_no_stream() {
    let (a, b) = (Seeds::derive(1), Seeds::derive(2));
    let streams = |s: Seeds| {
        [
            s.corpus,
            s.system_init,
            s.perf_init,
            s.stack,
            s.source,
            s.pick,
            s.engine,
        ]
    };
    for x in streams(a) {
        // Corpus scenario `i` uses `corpus + i`: leave room for those.
        assert!(streams(b).iter().all(|y| x.abs_diff(*y) > 64));
    }
}

#[test]
fn the_generator_laps_every_nth_arrival() {
    let size = engine_size(Workload::BurstDense, SMOKE_DIVISOR);
    let (_, issued) = with_stream(
        Workload::BurstDense,
        size,
        &Seeds::derive(1),
        arrival_digest,
    );
    assert_eq!(
        issued.laps.len() as u64,
        issued.arrivals.div_ceil(size.lap_arrivals)
    );
    assert!(issued.laps.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn picks_are_dealt_so_every_catalog_length_of_arrivals_holds_each_profile_once() {
    let catalog = adrias_workloads::WorkloadCatalog::paper();
    let mut names: Vec<String> = Vec::new();
    with_stream(
        Workload::MixedSteady,
        engine_size(Workload::MixedSteady, 1),
        &Seeds::derive(4),
        |stream| {
            while let Some(a) = stream.next_arrival() {
                names.push(a.profile.name().to_owned());
            }
        },
    );
    assert!(names.len() > 10 * catalog.len());
    let mut expected: Vec<&str> = catalog.entries().iter().map(|p| p.name()).collect();
    expected.sort_unstable();
    for deal in names.chunks_exact(catalog.len()) {
        let mut deal: Vec<&str> = deal.iter().map(String::as_str).collect();
        deal.sort_unstable();
        assert_eq!(deal, expected);
    }
}
