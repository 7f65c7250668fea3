//! Deterministic data-parallel gradient accumulation.
//!
//! The predictor models train with minibatch SGD. To parallelize a
//! minibatch without giving up reproducibility, the batch is split into
//! **fixed-size gradient chunks** (ghost batches). Each chunk runs a
//! full forward/backward pass on a worker model reloaded from the
//! master, and the partial results are reduced into the master model
//! **in chunk order**. Because the chunk boundaries depend only on
//! `grad_chunk` — never on the worker count — and the reduction order is
//! fixed, the loss trace is bit-identical whether the chunks execute on
//! 1, 2, or 8 workers.
//!
//! The workers are **kept**: [`fit`] clones the model once per worker
//! thread for its whole run, and before every chunk copies the
//! minibatch's parameters and running buffers into the worker and sets
//! its gradients to `+0.0`. Its LSTM workspaces and layer caches are
//! sized by the first chunk and reused by every later one, instead of
//! being allocated and faulted in by a fresh clone per chunk. After the
//! chunk, the worker's gradients and buffers are swapped into kept
//! per-chunk slots, and the slots are reduced.
//!
//! Three details make this exact rather than merely approximate:
//!
//! * a chunk's result is a function of the parameters, the running
//!   buffers and its dropout seed alone — the reload sets the first two,
//!   `pass` reseeds dropout from `(step, chunk)`, and everything else a
//!   worker carries over is written before it is read (the contract on
//!   [`GradModel`]) — so it does not depend on which worker ran it or
//!   what that worker ran before;
//! * batch-norm statistics are computed per chunk (ghost batch norm)
//!   and the running buffers are merged by accumulating each chunk's
//!   delta against the minibatch's starting values, again in chunk
//!   order;
//! * the minibatch loss is reduced in `f64` in chunk order.

use std::mem;

use adrias_core::rng::{SeedableRng, SliceRandom, Xoshiro256pp};
use adrias_core::thread::scope;

use crate::adam::Adam;
use crate::tensor::Tensor;

/// A model whose parameters, gradients, and running buffers can be
/// visited in a stable order, making it trainable by
/// [`accumulate_minibatch`] and [`fit`].
///
/// `Clone` must deep-copy parameters, gradients, and RNG state; `Send +
/// Sync` let worker models run on scoped threads.
///
/// **The pass contract.** A worker model is reused for chunk after
/// chunk: before each one its parameters and buffers are overwritten
/// through [`GradModel::visit_params`] / [`GradModel::visit_buffers`]
/// and its gradients set to `+0.0`; nothing else is reset. The `pass`
/// closure must therefore leave no other state that the next chunk
/// reads before writing: it reseeds every dropout stream from the seed
/// it is handed, and every workspace, cache and mask the layers keep is
/// overwritten by the forward that precedes its backward (true of
/// every layer in this crate). Under that contract a chunk's gradients,
/// buffers and loss are a function of the parameters, the buffers and
/// the dropout seed alone, whichever worker runs it.
pub trait GradModel: Clone + Send + Sync {
    /// Visits every `(parameter, gradient)` pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Visits every non-trainable running buffer (e.g. batch-norm
    /// statistics) in a stable order. Defaults to no buffers.
    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        let _ = f;
    }

    /// Zeroes all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }
}

/// Aggregate throughput counters for a training run.
///
/// Counting happens outside the hot loop (one call per minibatch), so
/// collection costs nothing measurable and the counters are exact: the
/// chunk count is derived from the same `ceil(len / grad_chunk)` split
/// that [`accumulate_minibatch`] performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Completed epochs.
    pub epochs: u64,
    /// Minibatches processed.
    pub minibatches: u64,
    /// Gradient chunks dispatched across all minibatches.
    pub grad_chunks: u64,
    /// Samples seen (with repetition across epochs).
    pub samples: u64,
}

impl TrainStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one minibatch of `batch_len` samples split into chunks
    /// of at most `grad_chunk`.
    ///
    /// # Panics
    ///
    /// Panics if `grad_chunk` is zero.
    pub fn record_minibatch(&mut self, batch_len: usize, grad_chunk: usize) {
        assert!(grad_chunk > 0, "grad_chunk must be positive");
        self.minibatches += 1;
        self.grad_chunks += batch_len.div_ceil(grad_chunk) as u64;
        self.samples += batch_len as u64;
    }

    /// Records one completed epoch.
    pub fn record_epoch(&mut self) {
        self.epochs += 1;
    }

    /// Adds `other`'s counters into `self` (e.g. to combine the stats
    /// of several models trained by one stack).
    pub fn merge(&mut self, other: &TrainStats) {
        self.epochs += other.epochs;
        self.minibatches += other.minibatches;
        self.grad_chunks += other.grad_chunks;
        self.samples += other.samples;
    }
}

/// Resolves a configured worker count: `0` means "auto", which reads
/// the `ADRIAS_WORKERS` environment variable and falls back to the
/// number of available cores.
pub fn resolved_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::env::var("ADRIAS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Mixes seed components into a single RNG seed with a
/// splitmix64-style avalanche, so nearby `(seed, step, chunk)` tuples
/// yield unrelated dropout streams.
pub fn mix_seed(parts: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &p in parts {
        h ^= p;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// Minibatches smaller than this many samples run on one worker
/// regardless of the configured count: at these sizes the scoped-thread
/// dispatch costs several times the forward/backward work it
/// distributes (the `train_step_workers_2` bench regressed
/// ~3.7× against serial before this floor). The threshold depends only
/// on `batch.len()`, and worker count never changes the reduction
/// order, so results stay bit-identical on either side of it.
pub const SERIAL_BATCH_FLOOR: usize = 256;

/// Runs one minibatch of data-parallel gradient accumulation.
///
/// `batch` is the sample indices of this minibatch; it is split into
/// chunks of at most `grad_chunk` samples. For every chunk, a worker
/// model reloaded from `master` runs `pass(&mut worker, chunk_index,
/// chunk_indices)`, which must perform a forward/backward pass over
/// exactly those samples and return the chunk's mean loss (under the
/// contract on [`GradModel`]). The chunks' parameter gradients are
/// reduced into `master` weighted by chunk size (so the result is the
/// batch-mean gradient under ghost batch norm), running buffers are
/// merged by chunk-order delta accumulation, and the weighted mean loss
/// is returned.
///
/// This is [`fit`]'s step with workers kept for this one call; `fit`
/// keeps them for its whole run. The reduction is **bit-identical for
/// any `workers` value**; see the module docs for why. Batches below
/// [`SERIAL_BATCH_FLOOR`] skip thread dispatch entirely (a pure
/// scheduling decision — the chunk split and reduction order are
/// unchanged).
///
/// # Panics
///
/// Panics if `batch` is empty or `grad_chunk` is zero.
pub fn accumulate_minibatch<M, F>(
    master: &mut M,
    batch: &[usize],
    grad_chunk: usize,
    workers: usize,
    pass: &F,
) -> f32
where
    M: GradModel,
    F: Fn(&mut M, usize, &[usize]) -> f32 + Sync,
{
    KeptWorkers::new(master).minibatch(master, batch, grad_chunk, workers, pass)
}

/// One chunk's results, moved out of its worker by swapping: the
/// tensors stay allocated and rotate between the worker and the slot.
#[derive(Default)]
struct ChunkSlot {
    loss: f32,
    grads: Vec<Tensor>,
    bufs: Vec<Tensor>,
}

/// The state one training run keeps across its minibatches: one model
/// per worker thread, the minibatch's starting parameters and buffers,
/// and a result slot per chunk.
struct KeptWorkers<M> {
    /// Worker models, cloned from the master once each; only their
    /// workspaces and caches carry from chunk to chunk.
    models: Vec<M>,
    /// The master's parameters as the minibatch began.
    params: Vec<Tensor>,
    /// The master's running buffers as the minibatch began (`S₀`).
    base: Vec<Tensor>,
    /// One slot per chunk of the widest threaded minibatch so far; the
    /// serial path reduces each chunk as it finishes and uses slot 0.
    slots: Vec<ChunkSlot>,
}

impl<M: GradModel> KeptWorkers<M> {
    fn new(master: &M) -> Self {
        Self {
            models: vec![master.clone()],
            params: Vec::new(),
            base: Vec::new(),
            slots: vec![ChunkSlot::default()],
        }
    }

    /// See [`accumulate_minibatch`].
    fn minibatch<F>(
        &mut self,
        master: &mut M,
        batch: &[usize],
        grad_chunk: usize,
        workers: usize,
        pass: &F,
    ) -> f32
    where
        F: Fn(&mut M, usize, &[usize]) -> f32 + Sync,
    {
        assert!(grad_chunk > 0, "grad_chunk must be positive");
        assert!(!batch.is_empty(), "empty minibatch");
        let workers = if batch.len() < SERIAL_BATCH_FLOOR {
            1
        } else {
            workers.max(1)
        };
        master.zero_grad();
        let mut i = 0;
        master.visit_params(&mut |p, _| {
            kept(&mut self.params, i).copy_from(p);
            i += 1;
        });
        let mut j = 0;
        master.visit_buffers(&mut |b| {
            kept(&mut self.base, j).copy_from(b);
            j += 1;
        });

        let n_total = batch.len() as f32;
        let n_chunks = batch.len().div_ceil(grad_chunk);
        // Chunks per thread: the contiguous split of
        // `adrias_core::thread::map_chunks`.
        let per_thread = n_chunks.div_ceil(workers);
        let mut total_loss = 0.0f64;
        if per_thread == n_chunks {
            let (model, slot) = (&mut self.models[0], &mut self.slots[0]);
            for (chunk, idxs) in batch.chunks(grad_chunk).enumerate() {
                run_chunk(model, &self.params, &self.base, slot, pass, chunk, idxs);
                let w = idxs.len() as f32 / n_total;
                total_loss += reduce_chunk(master, slot, &self.base, w);
            }
            return total_loss as f32;
        }

        let threads = n_chunks.div_ceil(per_thread);
        while self.models.len() < threads {
            self.models.push(master.clone());
        }
        if self.slots.len() < n_chunks {
            self.slots.resize_with(n_chunks, ChunkSlot::default);
        }
        let (params, base) = (&self.params, &self.base);
        scope(|s| {
            let mut jobs = self
                .models
                .iter_mut()
                .zip(batch.chunks(per_thread * grad_chunk))
                .zip(self.slots.chunks_mut(per_thread))
                .enumerate()
                .map(|(t, ((model, samples), slots))| {
                    move || {
                        let chunks = samples.chunks(grad_chunk).zip(slots).enumerate();
                        for (k, (idxs, slot)) in chunks {
                            run_chunk(model, params, base, slot, pass, t * per_thread + k, idxs);
                        }
                    }
                });
            let first = jobs.next().expect("a non-empty batch has a chunk");
            for job in jobs {
                s.spawn(job);
            }
            first();
        });
        for (idxs, slot) in batch.chunks(grad_chunk).zip(&mut self.slots) {
            let w = idxs.len() as f32 / n_total;
            total_loss += reduce_chunk(master, slot, &self.base, w);
        }
        total_loss as f32
    }
}

/// `v[i]`, pushing an empty tensor first if `v` ends at `i`.
fn kept(v: &mut Vec<Tensor>, i: usize) -> &mut Tensor {
    if v.len() == i {
        v.push(Tensor::default());
    }
    &mut v[i]
}

/// Reloads `model` with `params` and `base`, zeroes its gradients, runs
/// `pass` on chunk `chunk` and swaps the results into `slot`.
fn run_chunk<M, F>(
    model: &mut M,
    params: &[Tensor],
    base: &[Tensor],
    slot: &mut ChunkSlot,
    pass: &F,
    chunk: usize,
    idxs: &[usize],
) where
    M: GradModel,
    F: Fn(&mut M, usize, &[usize]) -> f32,
{
    let mut i = 0;
    model.visit_params(&mut |p, g| {
        p.copy_from(&params[i]);
        // A gradient swapped in from a slot may not have its shape yet.
        g.reshape_for(p.rows(), p.cols());
        g.fill(0.0);
        i += 1;
    });
    let mut j = 0;
    model.visit_buffers(&mut |b| {
        b.copy_from(&base[j]);
        j += 1;
    });
    slot.loss = pass(model, chunk, idxs);
    let mut i = 0;
    model.visit_params(&mut |_, g| {
        mem::swap(g, kept(&mut slot.grads, i));
        i += 1;
    });
    let mut j = 0;
    model.visit_buffers(&mut |b| {
        mem::swap(b, kept(&mut slot.bufs, j));
        j += 1;
    });
}

/// Adds one chunk's gradients, weighted `w`, and its buffer delta into
/// `master`, and returns its share of the minibatch loss.
fn reduce_chunk<M: GradModel>(
    master: &mut M,
    slot: &mut ChunkSlot,
    base: &[Tensor],
    w: f32,
) -> f64 {
    let mut i = 0;
    master.visit_params(&mut |_, g| {
        g.add_scaled_assign(&slot.grads[i], w);
        i += 1;
    });
    let mut j = 0;
    master.visit_buffers(&mut |b| {
        // S ← S + (r_c − S₀): each chunk contributes its delta against
        // the minibatch's starting values, independent of the others.
        let delta = &mut slot.bufs[j];
        delta.add_scaled_assign(&base[j], -1.0);
        b.add_assign(delta);
        j += 1;
    });
    f64::from(w) * f64::from(slot.loss)
}

/// The hyper-parameters of one [`fit`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitPlan {
    /// Passes over the sample indices.
    pub epochs: usize,
    /// Samples per optimizer step.
    pub batch_size: usize,
    /// Samples per gradient chunk (clamped to at least 1).
    pub grad_chunk: usize,
    /// Worker threads, resolved through [`resolved_workers`].
    pub workers: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Run seed: chunk `c` of step `s` is handed the dropout seed
    /// `mix_seed(&[seed, s, c])`.
    pub seed: u64,
    /// The shuffle stream is seeded `seed ^ shuffle_salt`, so models
    /// sharing a seed still draw distinct sample orders.
    pub shuffle_salt: u64,
}

/// The training loop: `plan.epochs` shuffled passes over sample indices
/// `0..n` in minibatches of `plan.batch_size`, each one
/// [`accumulate_minibatch`] followed by an Adam step over
/// [`GradModel::visit_params`]. Returns the mean minibatch loss of every
/// epoch and the work counters.
///
/// `pass(model, dropout_seed, idxs)` runs forward and backward over the
/// samples `idxs` on a worker model and returns their mean loss;
/// `dropout_seed` depends only on `(plan.seed, step, chunk)`, and `pass`
/// must reseed every dropout stream from it (the contract on
/// [`GradModel`]). The worker models are cloned once per worker thread
/// for the whole run and reloaded by copy before every chunk, so their
/// workspaces are allocated by the first chunk only. The loss trace
/// inherits [`accumulate_minibatch`]'s contract: bit-identical at every
/// worker count.
///
/// # Panics
///
/// Panics if `plan.batch_size` is zero.
pub fn fit<M, F>(model: &mut M, n: usize, plan: &FitPlan, pass: &F) -> (Vec<f32>, TrainStats)
where
    M: GradModel,
    F: Fn(&mut M, u64, &[usize]) -> f32 + Sync,
{
    let workers = resolved_workers(plan.workers);
    let grad_chunk = plan.grad_chunk.max(1);
    let mut rng = Xoshiro256pp::seed_from_u64(plan.seed ^ plan.shuffle_salt);
    let mut opt = Adam::new(plan.learning_rate);
    let mut epoch_losses = Vec::with_capacity(plan.epochs);
    let mut idx: Vec<usize> = (0..n).collect();
    let mut step = 0u64;
    let mut stats = TrainStats::new();
    let mut workers_kept = KeptWorkers::new(model);
    for _ in 0..plan.epochs {
        idx.shuffle(&mut rng);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for minibatch in idx.chunks(plan.batch_size) {
            stats.record_minibatch(minibatch.len(), grad_chunk);
            let loss =
                workers_kept.minibatch(model, minibatch, grad_chunk, workers, &|m, chunk, idxs| {
                    pass(m, mix_seed(&[plan.seed, step, chunk as u64]), idxs)
                });
            opt.begin_step();
            model.visit_params(&mut |p, g| opt.update(p, g));
            total += f64::from(loss);
            batches += 1;
            step += 1;
        }
        epoch_losses.push((total / batches.max(1) as f64) as f32);
        stats.record_epoch();
    }
    (epoch_losses, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, Linear};
    use crate::loss::MseLoss;
    use adrias_core::rng::{SeedableRng, Xoshiro256pp};

    #[derive(Clone)]
    struct Toy {
        lin: Linear,
    }

    impl GradModel for Toy {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
            self.lin.visit_params(f);
        }
    }

    fn toy() -> (Toy, Tensor, Tensor) {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let model = Toy {
            lin: Linear::new(3, 1, &mut rng),
        };
        let x = crate::init::uniform(16, 3, 1.0, &mut rng);
        let y = Tensor::from_fn(16, 1, |r, _| x.get(r, 0) - x.get(r, 2));
        (model, x, y)
    }

    fn run(workers: usize) -> (f32, Vec<Tensor>, Vec<Tensor>) {
        run_sized(workers, 16)
    }

    fn run_sized(workers: usize, batch_len: usize) -> (f32, Vec<Tensor>, Vec<Tensor>) {
        let (mut model, x, y) = toy();
        let batch: Vec<usize> = (0..batch_len).map(|i| i % 16).collect();
        let loss = accumulate_minibatch(&mut model, &batch, 4, workers, &|m, _, idxs| {
            let rows: Vec<Tensor> = idxs.iter().map(|&i| x.rows_slice(i, i + 1)).collect();
            let refs: Vec<&Tensor> = rows.iter().collect();
            let xb = Tensor::vcat(&refs);
            let yb = Tensor::from_fn(idxs.len(), 1, |r, _| y.get(idxs[r], 0));
            let mut mse = MseLoss::new();
            let pred = m.lin.forward(&xb, true);
            let l = mse.forward(&pred, &yb);
            let g = mse.backward();
            m.lin.backward(&g);
            l
        });
        let mut params = Vec::new();
        let mut grads = Vec::new();
        model.visit_params(&mut |p, g| {
            params.push(p.clone());
            grads.push(g.clone());
        });
        (loss, params, grads)
    }

    #[test]
    fn loss_and_gradients_are_worker_count_invariant() {
        // Straddle SERIAL_BATCH_FLOOR: 16 stays below it (dispatch is
        // skipped), 300 is above it (threads really spawn) — the bits
        // must agree across worker counts on both sides.
        for batch_len in [16, 300] {
            let one = run_sized(1, batch_len);
            for workers in [2, 3, 8, 16] {
                let other = run_sized(workers, batch_len);
                assert_eq!(
                    one.0.to_bits(),
                    other.0.to_bits(),
                    "{workers} workers, batch {batch_len}"
                );
                assert_eq!(one.1, other.1, "params differ at {workers} workers");
                assert_eq!(one.2, other.2, "grads differ at {workers} workers");
            }
        }
    }

    /// `fit` adds a shuffle, Adam and a loop around
    /// `accumulate_minibatch` and inherits its contract — stated once
    /// here for every model trained through it. 300-sample minibatches
    /// sit above `SERIAL_BATCH_FLOOR`, so the threads really spawn.
    #[test]
    fn fit_returns_one_loss_trace_at_every_worker_count() {
        let run = |workers: usize| {
            let (mut model, x, y) = toy();
            let plan = FitPlan {
                epochs: 3,
                batch_size: 300,
                grad_chunk: 4,
                workers,
                learning_rate: 1e-2,
                seed: 7,
                shuffle_salt: 0x5A17,
            };
            let (losses, stats) = fit(&mut model, 600, &plan, &|m, _, idxs| {
                let xb = Tensor::from_fn(idxs.len(), 3, |r, c| x.get(idxs[r] % 16, c));
                let yb = Tensor::from_fn(idxs.len(), 1, |r, _| y.get(idxs[r] % 16, 0));
                let mut mse = MseLoss::new();
                let pred = m.lin.forward(&xb, true);
                let l = mse.forward(&pred, &yb);
                m.lin.backward(&mse.backward());
                l
            });
            assert_eq!(stats.epochs, 3);
            assert_eq!(stats.minibatches, 6);
            assert_eq!(stats.samples, 1800);
            let mut params = Vec::new();
            model.visit_params(&mut |p, _| params.push(p.clone()));
            let bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
            (bits, params)
        };
        let one = run(1);
        let loss = |epoch: usize| f32::from_bits(one.0[epoch]);
        assert!(loss(2) < loss(0), "Adam did not descend");
        for workers in [2, 8] {
            assert_eq!(run(workers), one, "{workers} workers");
        }
    }

    #[test]
    fn serial_floor_is_bitwise_invisible() {
        // The floor only changes scheduling; a batch just below and the
        // same batch forced through multi-worker code paths (by
        // exceeding the floor with repeated indices) share chunk
        // boundaries, so per-chunk losses are reproducible either way.
        let below = run_sized(8, SERIAL_BATCH_FLOOR - 4);
        let below_again = run_sized(2, SERIAL_BATCH_FLOOR - 4);
        assert_eq!(below.0.to_bits(), below_again.0.to_bits());
        assert_eq!(below.1, below_again.1);
        let above = run_sized(8, SERIAL_BATCH_FLOOR + 4);
        let above_again = run_sized(2, SERIAL_BATCH_FLOOR + 4);
        assert_eq!(above.0.to_bits(), above_again.0.to_bits());
        assert_eq!(above.1, above_again.1);
    }

    #[test]
    fn accumulated_gradient_matches_manual_chunk_average() {
        let (_, grads_auto) = {
            let r = run(1);
            (r.0, r.2)
        };
        // Manual reduction: mean of per-chunk gradients weighted by size
        // (equal chunks here), computed with the same kernels.
        let (model, x, y) = toy();
        let mut expected: Vec<Tensor> = Vec::new();
        for c in 0..4 {
            let idxs: Vec<usize> = (c * 4..(c + 1) * 4).collect();
            let mut m = model.clone();
            let rows: Vec<Tensor> = idxs.iter().map(|&i| x.rows_slice(i, i + 1)).collect();
            let refs: Vec<&Tensor> = rows.iter().collect();
            let xb = Tensor::vcat(&refs);
            let yb = Tensor::from_fn(4, 1, |r, _| y.get(idxs[r], 0));
            let mut mse = MseLoss::new();
            let pred = m.lin.forward(&xb, true);
            mse.forward(&pred, &yb);
            m.lin.backward(&mse.backward());
            let mut i = 0;
            m.visit_params(&mut |_, g| {
                if expected.len() <= i {
                    expected.push(Tensor::zeros(g.rows(), g.cols()));
                }
                expected[i].add_scaled_assign(g, 0.25);
                i += 1;
            });
        }
        for (a, e) in grads_auto.iter().zip(&expected) {
            let diff = (a - e).norm();
            assert!(diff < 1e-6, "gradient mismatch: {diff}");
        }
    }

    #[test]
    fn a_poisoned_gradient_does_not_survive_the_next_step() {
        // `accumulate_minibatch` starts from `zero_grad`; a NaN left in
        // a gradient by a bad minibatch must not leak into this one.
        let (mut model, x, y) = toy();
        model.visit_params(&mut |_, g| g.set(0, 0, f32::NAN));
        let batch: Vec<usize> = (0..16).collect();
        let loss = accumulate_minibatch(&mut model, &batch, 4, 1, &|m, _, idxs| {
            let xb = Tensor::from_fn(idxs.len(), 3, |r, c| x.get(idxs[r], c));
            let yb = Tensor::from_fn(idxs.len(), 1, |r, _| y.get(idxs[r], 0));
            let mut mse = MseLoss::new();
            let pred = m.lin.forward(&xb, true);
            let l = mse.forward(&pred, &yb);
            m.lin.backward(&mse.backward());
            l
        });
        assert!(loss.is_finite());
        model.visit_params(&mut |_, g| assert!(g.data().iter().all(|v| v.is_finite())));
    }

    #[test]
    fn train_stats_count_minibatches_chunks_and_samples() {
        let mut stats = TrainStats::new();
        stats.record_minibatch(10, 4); // 3 chunks
        stats.record_minibatch(8, 4); // 2 chunks
        stats.record_epoch();
        assert_eq!(stats.epochs, 1);
        assert_eq!(stats.minibatches, 2);
        assert_eq!(stats.grad_chunks, 5);
        assert_eq!(stats.samples, 18);

        let mut total = TrainStats::new();
        total.merge(&stats);
        total.merge(&stats);
        assert_eq!(total.grad_chunks, 10);
        assert_eq!(total.epochs, 2);
    }

    #[test]
    fn resolved_workers_prefers_explicit_config() {
        assert_eq!(resolved_workers(3), 3);
        assert!(resolved_workers(0) >= 1);
    }

    #[test]
    #[should_panic(expected = "empty minibatch")]
    fn empty_batch_rejected() {
        let (mut model, _, _) = toy();
        let _ = accumulate_minibatch(&mut model, &[], 4, 1, &|_, _, _| 0.0);
    }
}
