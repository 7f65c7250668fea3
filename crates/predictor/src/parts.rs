//! The two shapes both predictor models are assembled from (Fig. 11a /
//! 11b): an [`Encoder`] — two stacked LSTM layers read at their last
//! step — and a [`Head`] — the triplet of non-linear blocks and the
//! linear read-out. [`crate::SystemStateModel`] is one encoder and a
//! head; [`crate::PerfModel`] is two encoders (history, signature) whose
//! features are concatenated with the side input in front of a head.
//!
//! Each part has the training pair (`forward` / `backward`, allocating,
//! any batch size) and the evaluation lane on caller-owned scratch
//! ([`Encoder::features_into`], [`Head::forward_eval`]), bit-identical
//! to `forward` in evaluation mode. Construction draws from the RNG in
//! field order and `visit_params` walks in field order; both orders are
//! part of the saved-model format (see [`crate::persist`]).

use adrias_core::rng::Rng;
use adrias_nn::{AlignedVec, Layer, Linear, Lstm, LstmScratch, NonLinearBlock, Tensor};
use adrias_telemetry::METRIC_COUNT;

use crate::dataset::SEQ_LEN;

/// Two stacked LSTM layers over a sequence of metric rows.
#[derive(Debug, Clone)]
pub(crate) struct Encoder {
    l1: Lstm,
    l2: Lstm,
}

/// Activation scratch of one [`Encoder`] at batch 1.
#[derive(Debug, Clone)]
pub(crate) struct EncoderScratch {
    l1: LstmScratch,
    l2: LstmScratch,
}

impl EncoderScratch {
    pub(crate) fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        self.l1.visit_storage(f);
        self.l2.visit_storage(f);
    }
}

impl Encoder {
    /// Draws layer 1, then layer 2.
    pub(crate) fn new<R: Rng + ?Sized>(hidden: usize, rng: &mut R) -> Self {
        Self {
            l1: Lstm::new(METRIC_COUNT, hidden, rng),
            l2: Lstm::new(hidden, hidden, rng),
        }
    }

    /// Training-path forward: the top layer's last hidden state
    /// (`batch × hidden`).
    pub(crate) fn forward(&mut self, seq: &[Tensor]) -> Tensor {
        self.l2.forward_last(&self.l1.forward_seq(seq))
    }

    /// Backpropagates a gradient on [`Encoder::forward`]'s output.
    pub(crate) fn backward(&mut self, d_last: &Tensor) {
        let d_seq = self.l2.backward_last(d_last);
        self.l1.backward_seq_params(&d_seq);
    }

    pub(crate) fn zero_grad(&mut self) {
        self.l1.zero_grad();
        self.l2.zero_grad();
    }

    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.l1.visit_params(f);
        self.l2.visit_params(f);
    }

    pub(crate) fn make_scratch(&self) -> EncoderScratch {
        EncoderScratch {
            l1: LstmScratch::new(&self.l1, 1, SEQ_LEN),
            l2: LstmScratch::new(&self.l2, 1, SEQ_LEN),
        }
    }

    pub(crate) fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        self.l1.visit_storage(f);
        self.l2.visit_storage(f);
    }

    /// [`Encoder::forward`] for one window, allocation-free: `seq` is
    /// the window as a flat `steps × METRIC_COUNT` arena
    /// ([`crate::scratch::fill_seq`]), the result the `1 × hidden`
    /// feature row, borrowed from `scratch`.
    pub(crate) fn features_into<'a>(
        &self,
        seq: &[f32],
        scratch: &'a mut EncoderScratch,
    ) -> &'a [f32] {
        let h1 = self.l1.forward_seq_scratch(seq, 1, &mut scratch.l1);
        self.l2.forward_last_scratch(h1, 1, &mut scratch.l2)
    }
}

/// Three non-linear blocks and the linear read-out.
#[derive(Debug, Clone)]
pub(crate) struct Head {
    blocks: Vec<NonLinearBlock>,
    out: Linear,
}

/// Evaluation buffers of one [`Head`] for a fixed number of rows.
#[derive(Debug, Clone)]
pub(crate) struct HeadScratch {
    /// Per-block batch-norm evaluation scales, captured at build time.
    inv_std: Vec<AlignedVec>,
    /// Ping-pong activation buffers for the blocks.
    x0: Tensor,
    x1: Tensor,
    /// Read-out staging.
    out: Tensor,
}

impl HeadScratch {
    /// The output of the last [`Head::forward_eval`] on this scratch.
    #[cfg(test)]
    pub(crate) fn output(&self) -> &Tensor {
        &self.out
    }

    pub(crate) fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        for inv_std in &self.inv_std {
            f("head_scratch.inv_std", inv_std);
        }
        f("head_scratch.x0", self.x0.data());
        f("head_scratch.x1", self.x1.data());
        f("head_scratch.out", self.out.data());
    }
}

impl Head {
    /// Draws the three blocks (`inputs → width → width → width`), then
    /// the read-out (`width → outputs`).
    pub(crate) fn new<R: Rng + ?Sized>(
        inputs: usize,
        width: usize,
        outputs: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        let blocks = vec![
            NonLinearBlock::new(inputs, width, dropout, rng),
            NonLinearBlock::new(width, width, dropout, rng),
            NonLinearBlock::new(width, width, dropout, rng),
        ];
        Self {
            blocks,
            out: Linear::new(width, outputs, rng),
        }
    }

    pub(crate) fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        for b in &mut self.blocks {
            x = b.forward(&x, train);
        }
        self.out.forward(&x, train)
    }

    /// Returns the gradient on [`Head::forward`]'s input.
    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = self.out.backward(grad_out);
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g);
        }
        g
    }

    pub(crate) fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }

    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.out.visit_params(f);
    }

    pub(crate) fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        for b in &self.blocks {
            b.visit_storage(f);
        }
        self.out.visit_storage(f);
    }

    /// Visits the batch-norm running statistics, block by block.
    pub(crate) fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for b in &mut self.blocks {
            b.visit_buffers(f);
        }
    }

    /// Rebases every dropout stream on `seed` (salted per block), so a
    /// training worker's masks depend only on `(run seed, step, chunk)`,
    /// not on the chunks it ran before.
    pub(crate) fn reseed_dropout(&mut self, seed: u64) {
        for (i, b) in self.blocks.iter_mut().enumerate() {
            b.reseed_dropout(seed, i as u64 + 1);
        }
    }

    /// Scratch for `rows` input rows. Snapshots the batch-norm running
    /// statistics, so build it after training.
    pub(crate) fn make_scratch(&self, rows: usize) -> HeadScratch {
        let width = self.out.in_features();
        HeadScratch {
            inv_std: self.blocks.iter().map(|b| b.eval_inv_std()).collect(),
            x0: Tensor::zeros(rows, width),
            x1: Tensor::zeros(rows, width),
            out: Tensor::zeros(rows, self.out.out_features()),
        }
    }

    /// `forward(input, false)` without allocating; the result is
    /// borrowed from `scratch`.
    pub(crate) fn forward_eval<'a>(
        &self,
        input: &Tensor,
        scratch: &'a mut HeadScratch,
    ) -> &'a Tensor {
        let HeadScratch {
            inv_std,
            x0,
            x1,
            out,
        } = scratch;
        let (mut cur, mut next) = (x0, x1);
        self.blocks[0].forward_eval_into(input, cur, &inv_std[0]);
        for (b, inv) in self.blocks.iter().zip(inv_std.iter()).skip(1) {
            b.forward_eval_into(cur, next, inv);
            std::mem::swap(&mut cur, &mut next);
        }
        self.out.forward_into(cur, out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::fill_seq;
    use adrias_core::rng::{SeedableRng, Xoshiro256pp};
    use adrias_nn::set_force_scalar;
    use adrias_telemetry::MetricVec;

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs `check` on the native kernels and again forced scalar. The
    /// toggle is process-global; both lanes compute the same bits, so
    /// tests running beside this one are unaffected.
    fn on_both_lanes(check: impl Fn()) {
        check();
        set_force_scalar(true);
        check();
        set_force_scalar(false);
    }

    #[test]
    fn features_into_is_forward_at_batch_one() {
        on_both_lanes(|| {
            let mut rng = Xoshiro256pp::seed_from_u64(3);
            let mut enc = Encoder::new(6, &mut rng);
            let rows: Vec<MetricVec> = (0..SEQ_LEN)
                .map(|t| {
                    let mut v = MetricVec::zero();
                    for (c, m) in adrias_telemetry::Metric::ALL.into_iter().enumerate() {
                        v.set(m, ((t * 7 + c) as f32 * 0.37).sin());
                    }
                    v
                })
                .collect();
            let seq_tensors: Vec<Tensor> = rows
                .iter()
                .map(|r| Tensor::row_vector(r.as_array()))
                .collect();
            let mut flat = vec![0.0; SEQ_LEN * METRIC_COUNT];
            fill_seq(&rows, &mut flat);
            let want = enc.forward(&seq_tensors);
            let mut scratch = enc.make_scratch();
            // Twice: the second call reuses a scratch that has run.
            for _ in 0..2 {
                assert_eq!(
                    bits(enc.features_into(&flat, &mut scratch)),
                    bits(want.data())
                );
            }
        });
    }

    #[test]
    fn forward_eval_is_forward_in_evaluation_mode() {
        on_both_lanes(|| {
            let mut rng = Xoshiro256pp::seed_from_u64(5);
            let mut head = Head::new(9, 8, 3, 0.2, &mut rng);
            // Move the batch-norm running statistics off their initial
            // values, as training would.
            for _ in 0..6 {
                let batch = Tensor::from_fn(5, 9, |_, _| rng.gen_range(-2.0f32..2.0));
                let _ = head.forward(batch, true);
            }
            for rows in [1usize, 2] {
                let x = Tensor::from_fn(rows, 9, |r, c| ((r * 9 + c) as f32 * 0.61).cos());
                let want = head.forward(x.clone(), false);
                let mut scratch = head.make_scratch(rows);
                let got = head.forward_eval(&x, &mut scratch);
                assert_eq!(got.shape(), want.shape());
                assert_eq!(bits(got.data()), bits(want.data()), "{rows} rows");
            }
        });
    }
}
