//! # adrias-core
//!
//! Zero-dependency substrate for the Adrias reproduction. Every other
//! crate in the workspace builds on this one instead of crates.io
//! dependencies, so the whole project compiles and tests fully
//! offline (`cargo build --offline`) and every random stream is
//! bit-for-bit reproducible from a `u64` seed:
//!
//! * [`rng`] — deterministic PRNG (xoshiro256++ seeded via SplitMix64)
//!   with the `Rng` / `SeedableRng` / `SliceRandom` trait surface the
//!   workspace uses (replaces `rand`);
//! * [`thread`] — scoped threads re-exported from std plus the
//!   [`thread::map_chunks`] fork-join helper (replaces `crossbeam`);
//! * [`prop`] — seeded property-testing engine behind the
//!   [`proptest!`] macro (replaces `proptest`);
//! * [`bench`](mod@bench) — wall-clock micro-benchmark harness with median/p95
//!   reporting (replaces `criterion`);
//! * [`alloc`] — a counting [`std::alloc::GlobalAlloc`] wrapper so
//!   tests can assert a hot path performs zero heap allocations;
//! * [`name`] — [`Name`], the free-to-clone string handle workload
//!   names, policy names and trace labels travel as.

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod name;
pub mod prop;
pub mod rng;
pub mod thread;

pub use name::Name;
