//! A minimal deep-learning substrate for the Adrias reproduction.
//!
//! The paper implements its two prediction models (a system-state
//! forecaster and an application-performance predictor, §V-B2) with
//! PyTorch: stacked LSTM layers followed by a triplet of non-linear
//! blocks (fully-connected + ReLU + batch-normalization + dropout). The
//! Rust ML ecosystem offers no comparable dependency within this
//! project's allowed crate set, so this crate implements exactly what
//! those models need, from scratch:
//!
//! * [`Tensor`] — a row-major 2-D `f32` matrix with the handful of BLAS-1/2
//!   operations the layers use;
//! * [`Linear`], [`Relu`], [`BatchNorm1d`], [`Dropout`] — feed-forward
//!   layers implementing [`Layer`] (explicit `forward` / `backward`, no
//!   autograd graph);
//! * [`Lstm`] — a full sequence-input LSTM with backpropagation through
//!   time;
//! * [`NonLinearBlock`] — the paper's Linear→ReLU→BatchNorm→Dropout
//!   composite;
//! * [`Sequential`] — a feed-forward container;
//! * [`MseLoss`] and [`Adam`] — training machinery;
//! * [`GradModel`], [`accumulate_minibatch`] and [`fit`] — deterministic
//!   data-parallel gradient accumulation over minibatch chunks, and the
//!   one epoch/shuffle/Adam loop around it;
//! * [`serialize`] — plain-text weight (de)serialization.
//!
//! # Examples
//!
//! Train a two-layer MLP on a toy regression problem:
//!
//! ```
//! use adrias_nn::{Adam, Layer, Linear, MseLoss, Relu, Sequential, Tensor};
//! use adrias_core::rng::SeedableRng;
//!
//! let mut rng = adrias_core::rng::Xoshiro256pp::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(1, 16, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(16, 1, &mut rng)),
//! ]);
//! let mut opt = Adam::new(1e-2);
//! let x = Tensor::from_fn(64, 1, |r, _| r as f32 / 64.0);
//! let y = x.map(|v| 2.0 * v + 1.0);
//! let mut loss = MseLoss::new();
//! for _ in 0..400 {
//!     let pred = net.forward(&x, true);
//!     let l = loss.forward(&pred, &y);
//!     let grad = loss.backward();
//!     net.zero_grad();
//!     net.backward(&grad);
//!     opt.begin_step();
//!     net.visit_params(&mut |p, g| opt.update(p, g));
//!     assert!(l.is_finite());
//! }
//! let final_loss = loss.forward(&net.forward(&x, false), &y);
//! assert!(final_loss < 1e-2, "did not converge: {final_loss}");
//! ```

// `deny`, not `forbid`: the SIMD lanes in `kernels` (their intrinsics
// and the one dispatch site into their `#[target_feature]` wrappers) carry
// the crate's only scoped `#[allow(unsafe_code)]`s; everything else
// still refuses unsafe at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod aligned;
pub mod block;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod loss;
pub mod lstm;
pub mod serialize;
pub mod tensor;
pub mod train;
mod vmath;

pub use adam::Adam;
pub use aligned::AlignedVec;
pub use block::NonLinearBlock;
pub use kernels::{set_force_scalar, simd_active, simd_lanes};
pub use layer::{BatchNorm1d, Dropout, Layer, Linear, Relu, Sequential};
pub use loss::MseLoss;
pub use lstm::{Lstm, LstmScratch};
pub use tensor::Tensor;
pub use train::{
    accumulate_minibatch, fit, mix_seed, resolved_workers, FitPlan, GradModel, TrainStats,
    SERIAL_BATCH_FLOOR,
};
