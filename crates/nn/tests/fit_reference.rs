//! `fit` on kept workers against the loop it replaced: every gradient
//! chunk run on a fresh clone of a per-minibatch snapshot of the model,
//! the chunk's gradients moved out and its batch-norm buffers cloned,
//! then reduced in chunk order — `accumulate_minibatch` as it was
//! written before the workers were kept, kept here verbatim as the
//! oracle, inside the same shuffle / Adam loop. Kept workers carry their
//! LSTM workspaces and layer caches from chunk to chunk; the two must
//! agree **bit for bit** on the loss trace, every parameter and every
//! batch-norm running statistic, at every worker count, on both sides
//! of `SERIAL_BATCH_FLOOR`, with ragged chunks and minibatches and with
//! sequence lengths that change from chunk to chunk.

use adrias_core::rng::{SeedableRng, SliceRandom, Xoshiro256pp};
use adrias_core::thread::map_chunks;
use adrias_nn::{
    fit, init, mix_seed, Adam, FitPlan, GradModel, Layer, Linear, Lstm, MseLoss, NonLinearBlock,
    Tensor, SERIAL_BATCH_FLOOR,
};

const INPUTS: usize = 3;
const HIDDEN: usize = 6;

/// Two stacked LSTMs read at their last step, a non-linear block
/// (batch-norm buffers, dropout) and a linear read-out.
#[derive(Clone)]
struct Toy {
    l1: Lstm,
    l2: Lstm,
    block: NonLinearBlock,
    out: Linear,
}

impl Toy {
    fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        Self {
            l1: Lstm::new(INPUTS, HIDDEN, &mut rng),
            l2: Lstm::new(HIDDEN, HIDDEN, &mut rng),
            block: NonLinearBlock::new(HIDDEN, 8, 0.25, &mut rng),
            out: Linear::new(8, 1, &mut rng),
        }
    }

    fn forward(&mut self, seq: &[Tensor], train: bool) -> Tensor {
        let h = self.l2.forward_last(&self.l1.forward_seq(seq));
        let x = self.block.forward(&h, train);
        self.out.forward(&x, train)
    }

    fn backward(&mut self, grad: &Tensor) {
        let g = self.out.backward(grad);
        let g = self.block.backward(&g);
        let d_seq = self.l2.backward_last(&g);
        self.l1.backward_seq_params(&d_seq);
    }

    /// Every parameter, then every running buffer, as bit patterns.
    fn state_bits(&mut self) -> Vec<Vec<u32>> {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut state = Vec::new();
        self.visit_params(&mut |p, _| state.push(bits(p)));
        self.visit_buffers(&mut |b| state.push(bits(b)));
        state
    }
}

impl GradModel for Toy {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.l1.visit_params(f);
        self.l2.visit_params(f);
        self.block.visit_params(f);
        self.out.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.block.visit_buffers(f);
    }
}

/// Per-sample sequences of the longest length and a learnable target.
struct Data {
    steps: Vec<Tensor>, // MAX_STEPS tensors of n × INPUTS
    target: Tensor,
}

const MAX_STEPS: usize = 7;

impl Data {
    fn new(n: usize) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(0xDA7A);
        let steps: Vec<Tensor> = (0..MAX_STEPS)
            .map(|_| init::uniform(n, INPUTS, 1.0, &mut rng))
            .collect();
        let target = Tensor::from_fn(n, 1, |r, _| {
            steps.iter().map(|s| s.get(r, 0) - 0.5 * s.get(r, 2)).sum()
        });
        Self { steps, target }
    }

    /// The chunk's input: its length is a function of its first sample,
    /// so it changes from chunk to chunk and from minibatch to
    /// minibatch, and a kept worker's workspace shrinks and grows.
    fn batch(&self, idxs: &[usize]) -> (Vec<Tensor>, Tensor) {
        let len = 2 + idxs[0] % (MAX_STEPS - 1);
        let seq = self.steps[..len]
            .iter()
            .map(|s| Tensor::from_fn(idxs.len(), INPUTS, |r, c| s.get(idxs[r], c)))
            .collect();
        let target = Tensor::from_fn(idxs.len(), 1, |r, _| self.target.get(idxs[r], 0));
        (seq, target)
    }
}

/// A training pass as the predictor models write it: reseed dropout,
/// forward, MSE, backward. With `poison`, it then runs the LSTMs and
/// the head (in evaluation mode, which updates no buffer) on a NaN
/// input, leaving NaN in every workspace arena and layer cache the
/// worker carries into its next chunk — without touching the chunk's
/// gradients, buffers or loss.
fn pass(m: &mut Toy, data: &Data, seed: u64, idxs: &[usize], poison: bool) -> f32 {
    m.block.reseed_dropout(seed, 1);
    let (seq, target) = data.batch(idxs);
    let mut mse = MseLoss::new();
    let pred = m.forward(&seq, true);
    let loss = mse.forward(&pred, &target);
    m.backward(&mse.backward());
    if poison {
        let nan: Vec<Tensor> = (0..MAX_STEPS)
            .map(|_| Tensor::full(idxs.len() + 3, INPUTS, f32::NAN))
            .collect();
        let _ = m.forward(&nan, false);
    }
    loss
}

/// `accumulate_minibatch` as it was: a snapshot per minibatch and a
/// fresh clone of it per chunk.
fn accumulate_minibatch_cloned<M, F>(
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
    let workers = if batch.len() < SERIAL_BATCH_FLOOR {
        1
    } else {
        workers.max(1)
    };
    master.zero_grad();

    let mut snapshot = master.clone();
    let base_buffers = buffer_values(&mut snapshot);
    let chunks: Vec<(usize, &[usize])> = batch.chunks(grad_chunk).enumerate().collect();

    // (loss, samples, gradients, buffer values) per chunk, in chunk order.
    let results: Vec<(f32, usize, Vec<Tensor>, Vec<Tensor>)> =
        map_chunks(&chunks, workers, |assigned| {
            assigned
                .iter()
                .map(|&(chunk_index, idxs)| {
                    let mut clone = snapshot.clone();
                    let loss = pass(&mut clone, chunk_index, idxs);
                    let grads = take_grads(&mut clone);
                    let bufs = buffer_values(&mut clone);
                    (loss, idxs.len(), grads, bufs)
                })
                .collect()
        });

    let n_total = batch.len() as f32;
    let mut total_loss = 0.0f64;
    for (loss, n_chunk, grads, bufs) in &results {
        let w = *n_chunk as f32 / n_total;
        total_loss += f64::from(w) * f64::from(*loss);
        let mut i = 0;
        master.visit_params(&mut |_, g| {
            g.add_scaled_assign(&grads[i], w);
            i += 1;
        });
        let mut j = 0;
        master.visit_buffers(&mut |b| {
            let mut delta = bufs[j].clone();
            delta.add_scaled_assign(&base_buffers[j], -1.0);
            b.add_assign(&delta);
            j += 1;
        });
    }
    total_loss as f32
}

fn take_grads<M: GradModel>(model: &mut M) -> Vec<Tensor> {
    let mut grads = Vec::new();
    model.visit_params(&mut |_, g| grads.push(std::mem::take(g)));
    grads
}

fn buffer_values<M: GradModel>(model: &mut M) -> Vec<Tensor> {
    let mut bufs = Vec::new();
    model.visit_buffers(&mut |b| bufs.push(b.clone()));
    bufs
}

/// `fit`'s loop around the cloning step: the same shuffle, seeds and
/// Adam step.
fn fit_cloned<M, F>(model: &mut M, n: usize, plan: &FitPlan, pass: &F) -> Vec<f32>
where
    M: GradModel,
    F: Fn(&mut M, u64, &[usize]) -> f32 + Sync,
{
    let grad_chunk = plan.grad_chunk.max(1);
    let mut rng = Xoshiro256pp::seed_from_u64(plan.seed ^ plan.shuffle_salt);
    let mut opt = Adam::new(plan.learning_rate);
    let mut epoch_losses = Vec::new();
    let mut idx: Vec<usize> = (0..n).collect();
    let mut step = 0u64;
    for _ in 0..plan.epochs {
        idx.shuffle(&mut rng);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for minibatch in idx.chunks(plan.batch_size) {
            let loss = accumulate_minibatch_cloned(
                model,
                minibatch,
                grad_chunk,
                plan.workers,
                &|m, chunk, idxs| pass(m, mix_seed(&[plan.seed, step, chunk as u64]), idxs),
            );
            opt.begin_step();
            model.visit_params(&mut |p, g| opt.update(p, g));
            total += f64::from(loss);
            batches += 1;
            step += 1;
        }
        epoch_losses.push((total / batches.max(1) as f64) as f32);
    }
    epoch_losses
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Trains one toy model with `fit` and one with the oracle on `n`
/// samples and compares every bit.
fn check(n: usize, batch_size: usize, grad_chunk: usize, poison: bool) {
    let data = Data::new(n);
    for workers in [1, 2, 8] {
        let plan = FitPlan {
            epochs: 2,
            batch_size,
            grad_chunk,
            workers,
            learning_rate: 5e-3,
            seed: 11,
            shuffle_salt: 0x0AC1E,
        };
        let label = format!("n {n}, batch {batch_size}, chunk {grad_chunk}, {workers} workers");
        let mut kept = Toy::new(3);
        let (losses, stats) = fit(&mut kept, n, &plan, &|m, seed, idxs| {
            pass(m, &data, seed, idxs, poison)
        });
        let mut cloned = Toy::new(3);
        let want = fit_cloned(&mut cloned, n, &plan, &|m, seed, idxs| {
            pass(m, &data, seed, idxs, false)
        });
        assert_eq!(stats.samples, 2 * n as u64, "{label}");
        assert!(losses.iter().all(|l| l.is_finite()), "{label}: {losses:?}");
        assert_eq!(bits(&losses), bits(&want), "{label}: loss trace");
        assert_eq!(kept.state_bits(), cloned.state_bits(), "{label}: state");
    }
}

#[test]
fn below_the_serial_floor_with_ragged_chunks_and_minibatches() {
    // Minibatches 40, 40, 20: chunks of 16, 16, 8 and 16, 4.
    check(100, 40, 16, false);
}

#[test]
fn above_the_serial_floor_where_threads_spawn() {
    // Minibatches 300, 300, 100: 19 chunks (the last 12 samples) on
    // threads, then a ragged serial minibatch on the same kept workers.
    const { assert!(300 >= SERIAL_BATCH_FLOOR) };
    check(700, 300, 16, false);
}

#[test]
fn a_worker_poisoned_after_each_chunk_gives_the_next_chunk_its_bits() {
    // The oracle's pass does not poison (its clones are dropped); the
    // kept workers must not notice that theirs did, on either path.
    check(100, 40, 16, true);
    check(700, 300, 16, true);
}
