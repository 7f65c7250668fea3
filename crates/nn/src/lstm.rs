//! A sequence-input LSTM layer with backpropagation through time.
//!
//! Gate layout follows the usual convention: for input `x_t` (batch × in)
//! and previous hidden `h_{t-1}` (batch × hidden),
//!
//! ```text
//! z_t = x_t·W_ihᵀ + h_{t-1}·W_hhᵀ + b          (batch × 4·hidden)
//! i = σ(z[0:H])   f = σ(z[H:2H])
//! g = tanh(z[2H:3H])   o = σ(z[3H:4H])
//! c_t = f ⊙ c_{t-1} + i ⊙ g
//! h_t = o ⊙ tanh(c_t)
//! ```
//!
//! [`Lstm::forward_seq`] returns the hidden state at every step so LSTMs
//! can be stacked (the paper's models use two); [`Lstm::backward_seq`]
//! accepts a per-step output gradient and returns per-step input
//! gradients for the layer below, [`Lstm::backward_last`] a gradient on
//! the final hidden state only, and [`Lstm::backward_seq_params`] skips
//! the input gradients a bottom layer would throw away.
//!
//! The training path keeps its BPTT cache and step buffers in one
//! per-layer workspace of flat arenas, sized on first use: a
//! forward/backward pair on already-seen shapes allocates only the
//! tensors it returns.

use adrias_core::rng::Rng;

use crate::aligned::AlignedVec;
use crate::init;
use crate::kernels::{self, GateCaches, SeqArenas, StepCaches};
use crate::tensor::{gemm_into, Tensor};

/// Whether every element of both projection weights is finite: checked
/// once where the transposes are made, it lets every product with them
/// drop the GEMM's zero-skip without a scan ([`kernels::gemm_acc`]).
fn both_finite(w_ih_t: &Tensor, w_hh_t: &Tensor) -> bool {
    kernels::all_finite(w_ih_t.data()) && kernels::all_finite(w_hh_t.data())
}

/// The `[i, f, g, o]` blocks of one gate slot, `bh` values each.
fn gate_blocks(slot: &mut [f32], bh: usize) -> [&mut [f32]; 4] {
    let (i, rest) = slot.split_at_mut(bh);
    let (f, rest) = rest.split_at_mut(bh);
    let (g, o) = rest.split_at_mut(bh);
    [i, f, g, o]
}

/// Reusable buffers for the allocation-free eval-mode forward pass
/// ([`Lstm::forward_seq_scratch`]).
///
/// Construction transposes the projection weights once and sizes every
/// intermediate buffer, so the steady-state forward performs zero heap
/// allocations (buffers grow only if a later call uses a larger batch
/// or a longer sequence). Sequences live in flat `steps × batch × width`
/// arenas, step `t` one contiguous slot — the layout a stacked layer
/// reads as the left operand of its own input projection. A scratch is
/// bound to the `Lstm` it was built from; rebuild it if the weights
/// change.
#[derive(Debug, Clone, Default)]
pub struct LstmScratch {
    w_ih_t: Tensor, // in × 4H
    w_hh_t: Tensor, // H × 4H
    /// Every weight is finite, checked when the transposes were made:
    /// the projections may then drop the zero-skip at any batch size
    /// ([`kernels::gemm_acc`]).
    weights_finite: bool,
    /// Steps of the most recent forward (`0`: none has run).
    steps: usize,
    /// `X·W_ihᵀ` for the whole sequence, slot `t` (`batch × 4H`); the
    /// step loop turns slot `t` into the pre-activations `z_t` in place.
    zx: AlignedVec,
    /// `h_{t−1}·W_hhᵀ` of the current step (`batch × 4H`).
    zh: AlignedVec,
    /// Hidden states, `steps + 1` slots: slot 0 is the zero initial
    /// state, slot `t + 1` the output of step `t`.
    h: AlignedVec,
    c: AlignedVec,
    c_next: AlignedVec,
}

impl LstmScratch {
    /// Builds a scratch for `lstm`, pre-transposing its weights and
    /// pre-sizing the arenas for `batch` rows and `seq_len` steps.
    pub fn new(lstm: &Lstm, batch: usize, seq_len: usize) -> Self {
        let mut s = Self::default();
        lstm.w_ih.transpose_into(&mut s.w_ih_t);
        lstm.w_hh.transpose_into(&mut s.w_hh_t);
        s.weights_finite = both_finite(&s.w_ih_t, &s.w_hh_t);
        s.size_for(lstm.hidden_size, batch, seq_len);
        s
    }

    /// Sizes every arena for `steps × batch` rows (growing allocations
    /// only past their high-water mark) and zeroes the initial state.
    fn size_for(&mut self, hidden: usize, batch: usize, steps: usize) {
        let (bh, bz) = (batch * hidden, batch * 4 * hidden);
        self.zx.resize(steps * bz, 0.0);
        self.zh.resize(bz, 0.0);
        self.h.resize((steps + 1) * bh, 0.0);
        self.h[..bh].fill(0.0);
        self.c.zeroed(bh);
        self.c_next.resize(bh, 0.0);
    }

    /// The hidden state after the last step of the most recent
    /// [`Lstm::forward_seq_scratch`] call on this scratch (`batch × H`,
    /// row-major) — what [`Lstm::forward_last_scratch`] returns,
    /// re-borrowable without re-running the forward.
    ///
    /// # Panics
    ///
    /// Panics if no forward has run yet.
    pub fn last_output(&self) -> &[f32] {
        assert!(self.steps > 0, "no forward has run on this scratch");
        // `h` is exactly `steps + 1` slots long; the last one.
        let slot = self.h.len() / (self.steps + 1);
        &self.h[self.steps * slot..]
    }

    /// Visits every `f32` buffer the scratch owns, by name — the
    /// alignment tests walk a whole trained stack through these.
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        for (name, buf) in [
            ("scratch.w_ih_t", self.w_ih_t.data()),
            ("scratch.w_hh_t", self.w_hh_t.data()),
            ("scratch.zx", &self.zx),
            ("scratch.zh", &self.zh),
            ("scratch.h", &self.h),
            ("scratch.c", &self.c),
            ("scratch.c_next", &self.c_next),
        ] {
            f(name, buf);
        }
    }
}

/// Training-path state of one [`Lstm`]: the BPTT cache of the most
/// recent [`Lstm::forward_seq`] as flat per-sequence arenas, the
/// transposed projection weights, and the buffers of both passes.
/// Buffers only ever grow.
///
/// Every sequence arena is laid out **newest first**: step `t` of a
/// `steps`-step pass owns slot `r = steps − 1 − t`, one contiguous
/// `batch × width` block. BPTT visits the steps in that order, so the
/// `k` rows of the one `dW += dzᵀ·x` product per sequence are the
/// arenas as they lie.
///
/// BPTT writes each step's pre-activation gradient over gate
/// activations it has already consumed, so it spends the cache: a
/// second backward needs a second forward.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// Steps and batch rows of the cached forward; `steps == 0` means
    /// no forward has run.
    steps: usize,
    batch: usize,
    /// `w_ih` / `w_hh` transposed (`in × 4H`, `H × 4H`), valid while
    /// `weights_t_fresh`; [`Lstm::visit_params`] hands out the weights
    /// mutably and clears the flag.
    w_ih_t: Tensor,
    w_hh_t: Tensor,
    weights_t_fresh: bool,
    /// Every weight was finite when the transposes were made.
    weights_finite: bool,
    /// Inputs `x_t`, slot `r`.
    x: AlignedVec,
    /// Hidden and cell states, `steps + 1` slots: slot `r + 1` is what
    /// step `t` sees as `h_{t-1}` / `c_{t-1}`, and slot `r` the state it
    /// leaves — slot 0 the last step's, slot `steps` the zero initial
    /// state.
    h: AlignedVec,
    c: AlignedVec,
    /// `steps + 1` slots of `batch × 4H`: the gate activations of slot
    /// `r` as four `batch × H` blocks `[i | f | g | o]` in slot `r + 1`.
    /// BPTT writes the pre-activation gradient `dz` of slot `r` (the
    /// same size) into slot `r`, whose gates it has used, so slots
    /// `0..steps` end up holding every step's `dz`, newest first.
    gates: AlignedVec,
    /// `tanh(c_t)`, slot `r`.
    tanh_c: AlignedVec,
    /// Forward pre-activations (`batch × 4H` each).
    zx: AlignedVec,
    zh: AlignedVec,
    /// Backward: the recurrent gradients (`batch × H`) and the bias
    /// column sums (`4H`).
    d_h_next: AlignedVec,
    d_c_next: AlignedVec,
    bias_sum: AlignedVec,
}

/// A single LSTM layer.
///
/// # Examples
///
/// ```
/// use adrias_nn::{Lstm, Tensor};
/// use adrias_core::rng::SeedableRng;
///
/// let mut rng = adrias_core::rng::Xoshiro256pp::seed_from_u64(0);
/// let mut lstm = Lstm::new(3, 8, &mut rng);
/// let seq: Vec<Tensor> = (0..5).map(|_| Tensor::zeros(2, 3)).collect();
/// let hidden = lstm.forward_seq(&seq);
/// assert_eq!(hidden.len(), 5);
/// assert_eq!(hidden[4].shape(), (2, 8));
/// ```
#[derive(Debug, Clone)]
pub struct Lstm {
    input_size: usize,
    hidden_size: usize,
    w_ih: Tensor, // 4H × in
    w_hh: Tensor, // 4H × H
    bias: Tensor, // 1 × 4H
    grad_w_ih: Tensor,
    grad_w_hh: Tensor,
    grad_bias: Tensor,
    ws: Workspace,
}

impl Lstm {
    /// Creates an LSTM mapping `input_size` features to a hidden state of
    /// `hidden_size`, with PyTorch-style `U(-1/√H, 1/√H)` initialization.
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        let bound = 1.0 / (hidden_size as f32).sqrt();
        Self {
            input_size,
            hidden_size,
            w_ih: init::uniform(4 * hidden_size, input_size, bound, rng),
            w_hh: init::uniform(4 * hidden_size, hidden_size, bound, rng),
            bias: init::uniform(1, 4 * hidden_size, bound, rng),
            grad_w_ih: Tensor::zeros(4 * hidden_size, input_size),
            grad_w_hh: Tensor::zeros(4 * hidden_size, hidden_size),
            grad_bias: Tensor::zeros(1, 4 * hidden_size),
            ws: Workspace::default(),
        }
    }

    /// Input feature count.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden-state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Runs the LSTM over `seq` (each element `batch × input_size`),
    /// returning the hidden state after every step.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is empty or any step has the wrong width.
    pub fn forward_seq(&mut self, seq: &[Tensor]) -> Vec<Tensor> {
        self.run_forward(seq);
        let (steps, batch, h) = (self.ws.steps, self.ws.batch, self.hidden_size);
        self.ws.h[..steps * batch * h]
            .chunks_exact(batch * h)
            .rev()
            .map(|h_t| Tensor::from_slice(batch, h, h_t))
            .collect()
    }

    /// Convenience: forward and return only the final hidden state.
    pub fn forward_last(&mut self, seq: &[Tensor]) -> Tensor {
        self.run_forward(seq);
        let (batch, h) = (self.ws.batch, self.hidden_size);
        Tensor::from_slice(batch, h, &self.ws.h[..batch * h])
    }

    /// The training-mode forward: fills the workspace's BPTT cache
    /// (including every hidden state) for `seq`.
    fn run_forward(&mut self, seq: &[Tensor]) {
        assert!(!seq.is_empty(), "LSTM requires a non-empty sequence");
        let batch = seq[0].rows();
        let (inp, h) = (self.input_size, self.hidden_size);
        let hw = 4 * h;
        let (steps, bx, bh, bz) = (seq.len(), batch * inp, batch * h, batch * hw);
        // Transposed (and checked) once per weight update, not per step
        // or per call, so every step runs the cache-blocked `gemm_into`
        // kernel (contiguous inner loops over the 4H gate lanes), each
        // output element accumulating over `k` in increasing order.
        if !self.ws.weights_t_fresh {
            self.w_ih.transpose_into(&mut self.ws.w_ih_t);
            self.w_hh.transpose_into(&mut self.ws.w_hh_t);
            self.ws.weights_finite = both_finite(&self.ws.w_ih_t, &self.ws.w_hh_t);
            self.ws.weights_t_fresh = true;
        }
        let ws = &mut self.ws;
        // The cache is invalid until the last step has been written.
        ws.steps = 0;
        ws.x.resize(steps * bx, 0.0);
        for buf in [&mut ws.h, &mut ws.c] {
            buf.resize((steps + 1) * bh, 0.0);
            buf[steps * bh..].fill(0.0);
        }
        ws.gates.resize((steps + 1) * bz, 0.0);
        ws.tanh_c.resize(steps * bh, 0.0);
        ws.zx.resize(bz, 0.0);
        ws.zh.resize(bz, 0.0);
        for (t, x) in seq.iter().enumerate() {
            assert_eq!(
                x.cols(),
                inp,
                "LSTM expects {} input features, got {}",
                inp,
                x.cols()
            );
            assert_eq!(x.rows(), batch, "inconsistent batch size inside sequence");
            let r = steps - 1 - t;
            ws.x[r * bx..(r + 1) * bx].copy_from_slice(x.data());
            let w_finite = ws.weights_finite;
            gemm_into(
                x.data(),
                ws.w_ih_t.data(),
                &mut ws.zx,
                (batch, inp, hw),
                w_finite,
            );
            // Step `t` reads state slot `r + 1` and writes slot `r`.
            let (h_next, h_prev) = ws.h[r * bh..(r + 2) * bh].split_at_mut(bh);
            gemm_into(
                h_prev,
                ws.w_hh_t.data(),
                &mut ws.zh,
                (batch, h, hw),
                w_finite,
            );
            // z = zx + zh + bias (row broadcast), fused in place into zx
            // via the vectorised whole-batch sweep.
            kernels::add2_bias_rows(&mut ws.zx, &ws.zh, self.bias.data());
            // Fused vectorised gate pass: one whole-batch sweep computes
            // every gate, the new cell state and the hidden output
            // ([`kernels::lstm_gates_train_batch`] — the same canonical
            // expressions on the SIMD and scalar paths), straight into
            // the arena slots.
            let (c_next, c_prev) = ws.c[r * bh..(r + 2) * bh].split_at_mut(bh);
            let [i, f, g, o] = gate_blocks(&mut ws.gates[(r + 1) * bz..(r + 2) * bz], bh);
            kernels::lstm_gates_train_batch(
                &ws.zx,
                c_prev,
                h,
                &mut GateCaches {
                    i,
                    f,
                    g,
                    o,
                    c: c_next,
                    tanh_c: &mut ws.tanh_c[r * bh..(r + 1) * bh],
                    h: h_next,
                },
            );
        }
        ws.steps = steps;
        ws.batch = batch;
    }

    /// Eval-mode [`Lstm::forward_seq`] into reusable `scratch` buffers:
    /// no BPTT cache, no per-step allocations, `&self` receiver.
    ///
    /// `seq` is the whole input sequence as one flat
    /// `steps × batch × input_size` arena (step `t` one contiguous
    /// `batch × input_size` slot) and the result the per-step hidden
    /// states in the same layout, `steps × batch × hidden` — so a
    /// stacked layer takes the layer below's result as its `seq`.
    ///
    /// The input projection `X·W_ihᵀ` of all `steps · batch` rows is one
    /// GEMM ahead of the step loop; a step then costs the recurrent
    /// projection, the fuse `(zx_t + zh_t) + b` and the gate sweep, and
    /// the whole loop is one kernel dispatch
    /// (`kernels::lstm_seq_eval`). Every GEMM output element is its
    /// own `k`-ordered chain whatever rows share the call, and the fuse
    /// and the sweep are the kernel bodies of [`Lstm::forward_seq`] on
    /// the same operands, so every hidden state is bit-identical to the
    /// training-path forward.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is empty or not a whole number of
    /// `batch × input_size` steps, or if `scratch` was built for a
    /// different `Lstm` shape.
    pub fn forward_seq_scratch<'s>(
        &self,
        seq: &[f32],
        batch: usize,
        scratch: &'s mut LstmScratch,
    ) -> &'s [f32] {
        let (inp, h) = (self.input_size, self.hidden_size);
        let hw = 4 * h;
        let (bx, bh) = (batch * inp, batch * h);
        assert!(
            !seq.is_empty() && bx > 0,
            "LSTM requires a non-empty sequence"
        );
        assert!(
            seq.len().is_multiple_of(bx),
            "LSTM expects whole steps of {batch} x {inp} inputs, got {} values",
            seq.len()
        );
        assert_eq!(
            scratch.w_ih_t.shape(),
            (inp, hw),
            "scratch built for a different LSTM shape"
        );
        let steps = seq.len() / bx;
        scratch.size_for(h, batch, steps);
        gemm_into(
            seq,
            scratch.w_ih_t.data(),
            &mut scratch.zx,
            (steps * batch, inp, hw),
            scratch.weights_finite,
        );
        kernels::lstm_seq_eval(
            scratch.w_hh_t.data(),
            scratch.weights_finite,
            self.bias.data(),
            h,
            &mut SeqArenas {
                zx: &mut scratch.zx,
                zh: &mut scratch.zh,
                h: &mut scratch.h,
                c: &mut scratch.c,
                c_next: &mut scratch.c_next,
            },
        );
        scratch.steps = steps;
        &scratch.h[bh..]
    }

    /// Eval-mode last-hidden-state readout (`batch × hidden`) via
    /// [`Lstm::forward_seq_scratch`].
    pub fn forward_last_scratch<'s>(
        &self,
        seq: &[f32],
        batch: usize,
        scratch: &'s mut LstmScratch,
    ) -> &'s [f32] {
        self.forward_seq_scratch(seq, batch, scratch);
        scratch.last_output()
    }

    /// Backpropagates through time.
    ///
    /// `grad_hidden[t]` is the gradient of the loss w.r.t. the hidden
    /// output at step `t` (pass zero tensors for unused steps). Parameter
    /// gradients accumulate; the return value is the gradient w.r.t. each
    /// input step, for a stacked layer below. Every backward spends the
    /// cached forward: a second one needs a forward of its own.
    ///
    /// # Panics
    ///
    /// Panics if `grad_hidden` does not match the cached forward pass,
    /// or if a backward has already spent it.
    pub fn backward_seq(&mut self, grad_hidden: &[Tensor]) -> Vec<Tensor> {
        self.check_grad_steps(grad_hidden.len());
        self.bptt(|t| Some(&grad_hidden[t]), true)
    }

    /// [`Lstm::backward_seq`] for a bottom layer: accumulates the same
    /// parameter gradients, bit for bit, and skips the per-step input
    /// gradients nobody would read.
    ///
    /// # Panics
    ///
    /// Panics if `grad_hidden` does not match the cached forward pass.
    pub fn backward_seq_params(&mut self, grad_hidden: &[Tensor]) {
        self.check_grad_steps(grad_hidden.len());
        self.bptt(|t| Some(&grad_hidden[t]), false);
    }

    /// Backpropagates a gradient on the **final** hidden state only —
    /// [`Lstm::backward_seq`] with zero tensors at every earlier step.
    pub fn backward_last(&mut self, grad_last: &Tensor) -> Vec<Tensor> {
        let steps = self.ws.steps;
        self.bptt(|t| (t + 1 == steps).then_some(grad_last), true)
    }

    fn check_grad_steps(&self, grad_steps: usize) {
        assert_eq!(
            grad_steps, self.ws.steps,
            "gradient steps {} do not match cached forward steps {}",
            grad_steps, self.ws.steps
        );
    }

    /// BPTT over the cached forward. `grad_at(t)` is the loss gradient
    /// on hidden output `t`, `None` standing for a zero tensor; the
    /// per-step input gradients are computed and returned only if
    /// `want_inputs` (otherwise the result is empty).
    ///
    /// Each step is one fused gate sweep into its `dz` slot, the bias
    /// column sums and the two `dz·W` products, all on workspace
    /// buffers. The weight gradients `dW += dzᵀ·x` and `dzᵀ·h` wait for
    /// the end of the sequence: step after step they are the chains of
    /// one product whose `k` rows are the newest-first `dz`, `x` and
    /// `h` arenas, so one [`kernels::transa_acc`] each applies every
    /// term in the per-step order. Every accumulator sees the operations
    /// of the tensor-op formulation (`tests/bptt_reference.rs`) in the
    /// same order, so the gradients are bit-identical to it.
    fn bptt<'g>(
        &mut self,
        grad_at: impl Fn(usize) -> Option<&'g Tensor>,
        want_inputs: bool,
    ) -> Vec<Tensor> {
        let ws = &mut self.ws;
        let (steps, batch) = (ws.steps, ws.batch);
        assert!(steps > 0, "Lstm backward before forward_seq");
        let (inp, h) = (self.input_size, self.hidden_size);
        let hw = 4 * h;
        let (bh, bz) = (batch * h, batch * hw);
        // The weights are the transposes' values while those are fresh.
        let w_finite = ws.weights_t_fresh && ws.weights_finite;
        // The loop below writes over the gate activations it reads.
        ws.steps = 0;
        ws.bias_sum.resize(hw, 0.0);
        ws.d_h_next.zeroed(bh);
        ws.d_c_next.zeroed(bh);
        let mut d_inputs = if want_inputs {
            vec![Tensor::zeros(batch, inp); steps]
        } else {
            Vec::new()
        };
        for r in 0..steps {
            let t = steps - 1 - r;
            let grad_h = grad_at(t).map(|g| {
                assert_eq!(g.shape(), (batch, h), "hidden gradient shape at step {t}");
                g.data()
            });
            let (dz, gates) = ws.gates[r * bz..(r + 2) * bz].split_at_mut(bz);
            let [i, f, g, o] = gate_blocks(gates, bh);
            kernels::lstm_gates_backward_batch(
                &StepCaches {
                    i,
                    f,
                    g,
                    o,
                    tanh_c: &ws.tanh_c[r * bh..(r + 1) * bh],
                    c_prev: &ws.c[(r + 1) * bh..(r + 2) * bh],
                },
                grad_h,
                &ws.d_h_next,
                &mut ws.d_c_next,
                h,
                dz,
            );
            // db += Σ_rows dz: the column sums first (from +0.0, in row
            // order), then one add into the accumulator.
            ws.bias_sum.fill(0.0);
            for dz_row in dz.chunks_exact(hw) {
                for (s, &v) in ws.bias_sum.iter_mut().zip(dz_row) {
                    *s += v;
                }
            }
            for (g, &s) in self.grad_bias.data_mut().iter_mut().zip(ws.bias_sum.iter()) {
                *g += s;
            }
            // Input and recurrent gradients.
            if want_inputs {
                gemm_into(
                    dz,
                    self.w_ih.data(),
                    d_inputs[t].data_mut(),
                    (batch, hw, inp),
                    w_finite,
                );
            }
            if t > 0 {
                let shape = (batch, hw, h);
                gemm_into(dz, self.w_hh.data(), &mut ws.d_h_next, shape, w_finite);
            }
        }
        // Parameter gradients: slot `r` of `h` from 1 on is what step
        // `t` saw as `h_{t-1}`.
        let (dz, rows) = (&ws.gates[..steps * bz], steps * batch);
        let grad_w_ih = self.grad_w_ih.data_mut();
        kernels::transa_acc(dz, &ws.x, grad_w_ih, (rows, hw, inp));
        let grad_w_hh = self.grad_w_hh.data_mut();
        kernels::transa_acc(dz, &ws.h[bh..], grad_w_hh, (rows, hw, h));
        d_inputs
    }

    /// Visits `(parameter, gradient)` pairs in a stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        // The visitor may rewrite the weights (optimizer step, load).
        self.ws.weights_t_fresh = false;
        f(&mut self.w_ih, &mut self.grad_w_ih);
        f(&mut self.w_hh, &mut self.grad_w_hh);
        f(&mut self.bias, &mut self.grad_bias);
    }

    /// Visits every `f32` buffer the layer owns, by name: parameters,
    /// gradients, the cached transposes and the training workspace.
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        let ws = &self.ws;
        for (name, buf) in [
            ("lstm.w_ih", self.w_ih.data()),
            ("lstm.w_hh", self.w_hh.data()),
            ("lstm.bias", self.bias.data()),
            ("lstm.grad_w_ih", self.grad_w_ih.data()),
            ("lstm.grad_w_hh", self.grad_w_hh.data()),
            ("lstm.grad_bias", self.grad_bias.data()),
            ("lstm.ws.w_ih_t", ws.w_ih_t.data()),
            ("lstm.ws.w_hh_t", ws.w_hh_t.data()),
            ("lstm.ws.x", &ws.x),
            ("lstm.ws.h", &ws.h),
            ("lstm.ws.c", &ws.c),
            ("lstm.ws.gates", &ws.gates),
            ("lstm.ws.tanh_c", &ws.tanh_c),
            ("lstm.ws.zx", &ws.zx),
            ("lstm.ws.zh", &ws.zh),
            ("lstm.ws.d_h_next", &ws.d_h_next),
            ("lstm.ws.d_c_next", &ws.d_c_next),
            ("lstm.ws.bias_sum", &ws.bias_sum),
        ] {
            f(name, buf);
        }
    }

    /// Zeroes accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        // Not through `visit_params`: the weights are not touched, so
        // the cached transposes stay valid.
        for g in [
            &mut self.grad_w_ih,
            &mut self.grad_w_hh,
            &mut self.grad_bias,
        ] {
            g.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_core::rng::SeedableRng;
    use adrias_core::rng::Xoshiro256pp;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(1234)
    }

    fn toy_seq(t: usize, batch: usize, dim: usize, rng: &mut Xoshiro256pp) -> Vec<Tensor> {
        (0..t)
            .map(|_| init::uniform(batch, dim, 1.0, rng))
            .collect()
    }

    #[test]
    fn forward_shapes_are_consistent() {
        let mut r = rng();
        let mut lstm = Lstm::new(4, 6, &mut r);
        let seq = toy_seq(7, 3, 4, &mut r);
        let out = lstm.forward_seq(&seq);
        assert_eq!(out.len(), 7);
        for h in &out {
            assert_eq!(h.shape(), (3, 6));
        }
    }

    #[test]
    fn hidden_states_are_bounded_by_tanh() {
        let mut r = rng();
        let mut lstm = Lstm::new(2, 4, &mut r);
        let seq = toy_seq(20, 2, 2, &mut r);
        for h in lstm.forward_seq(&seq) {
            assert!(h.data().iter().all(|&v| v.abs() <= 1.0));
        }
    }

    /// Every step of `seq`, one after the other: the flat arena layout
    /// of [`Lstm::forward_seq_scratch`].
    fn flat(seq: &[Tensor]) -> Vec<f32> {
        seq.iter().flat_map(|x| x.data().iter().copied()).collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// The training-path forward is the oracle: per-step projections,
    /// tensors in and out. The shapes are the two decision stacks
    /// (system 7→48→48, perf 7→24→24, one window of 24 pooled steps) and
    /// a ragged multi-row one; each runs with dispatch live and forced
    /// portable.
    #[test]
    fn scratch_forward_is_bit_identical_to_forward_seq() {
        for (inp, hidden, batch, steps) in [
            (7, 48, 1, 24),
            (48, 48, 1, 24),
            (7, 24, 1, 24),
            (4, 6, 3, 9),
        ] {
            let mut r = rng();
            let mut lstm = Lstm::new(inp, hidden, &mut r);
            let seq = toy_seq(steps, batch, inp, &mut r);
            let short = toy_seq(steps / 2, batch.min(2), inp, &mut r);
            let long = toy_seq(steps + 3, batch + 1, inp, &mut r);
            let want = flat(&lstm.forward_seq(&seq));
            let want_short = lstm.forward_last(&short);
            let want_long = flat(&lstm.forward_seq(&long));
            let mut scratch = LstmScratch::new(&lstm, batch, steps);
            crate::kernels::tests::both_paths(|| {
                // Twice through the same scratch: the second pass must
                // see no stale state from the first.
                for _ in 0..2 {
                    let got = lstm.forward_seq_scratch(&flat(&seq), batch, &mut scratch);
                    assert_eq!(bits(got), bits(&want), "{inp}->{hidden} x{batch} T{steps}");
                    assert_eq!(
                        bits(scratch.last_output()),
                        bits(&want[(steps - 1) * batch * hidden..])
                    );
                }
                // Shrink, then grow past the built size, then back.
                let got = lstm.forward_last_scratch(&flat(&short), short[0].rows(), &mut scratch);
                assert_eq!(bits(got), bits(want_short.data()));
                let got = lstm.forward_seq_scratch(&flat(&long), batch + 1, &mut scratch);
                assert_eq!(bits(got), bits(&want_long));
                let got = lstm.forward_seq_scratch(&flat(&seq), batch, &mut scratch);
                assert_eq!(bits(got), bits(&want));
            });
            // The arenas above grew past their built size (`size_for`),
            // as did the workspace (`long` after `short`); a clone of a
            // clone owns fresh allocations. All of it stays aligned.
            let aligned = &mut |name: &'static str, buf: &[f32]| {
                let phase = buf.as_ptr() as usize % crate::aligned::ALIGN;
                assert!(buf.is_empty() || phase == 0, "{name} at phase {phase}");
            };
            scratch.visit_storage(aligned);
            scratch.clone().clone().visit_storage(aligned);
            lstm.visit_storage(aligned);
            lstm.clone().clone().visit_storage(aligned);
        }
    }

    #[test]
    #[should_panic(expected = "whole steps")]
    fn scratch_forward_rejects_a_partial_step() {
        let lstm = Lstm::new(3, 2, &mut rng());
        let mut scratch = LstmScratch::new(&lstm, 2, 4);
        let _ = lstm.forward_seq_scratch(&[0.0; 3 * 2 * 4 + 1], 2, &mut scratch);
    }

    #[test]
    fn forward_is_deterministic() {
        let mut r1 = rng();
        let mut lstm1 = Lstm::new(3, 5, &mut r1);
        let mut r2 = rng();
        let mut lstm2 = Lstm::new(3, 5, &mut r2);
        let seq = toy_seq(4, 2, 3, &mut rng());
        assert_eq!(lstm1.forward_last(&seq), lstm2.forward_last(&seq));
    }

    /// BPTT gradient check against finite differences on several
    /// parameters and an input element.
    #[test]
    fn bptt_gradients_match_finite_differences() {
        let mut r = rng();
        let mut lstm = Lstm::new(3, 4, &mut r);
        let seq = toy_seq(5, 2, 3, &mut r);
        let target = init::uniform(2, 4, 1.0, &mut r);

        let loss_of = |lstm: &mut Lstm, seq: &[Tensor]| -> f32 {
            let h = lstm.forward_last(seq);
            (&h - &target).map(|v| v * v).data().iter().sum::<f32>()
        };

        // Analytic gradients.
        let h = lstm.forward_last(&seq);
        let d_h = (&h - &target).map(|v| 2.0 * v);
        lstm.zero_grad();
        let d_inputs = lstm.backward_last(&d_h);

        let eps = 1e-3;
        let base = loss_of(&mut lstm.clone(), &seq);

        // Check several weight coordinates across all three parameters.
        for (pick, coords) in [(0usize, (2usize, 1usize)), (1, (5, 2)), (2, (0, 7))] {
            let mut probe = lstm.clone();
            let mut analytic = 0.0;
            {
                let mut idx = 0;
                probe.visit_params(&mut |p, g| {
                    if idx == pick {
                        let v = p.get(coords.0.min(p.rows() - 1), coords.1.min(p.cols() - 1));
                        p.set(
                            coords.0.min(p.rows() - 1),
                            coords.1.min(p.cols() - 1),
                            v + eps,
                        );
                        analytic = g.get(coords.0.min(g.rows() - 1), coords.1.min(g.cols() - 1));
                    }
                    idx += 1;
                });
            }
            let numeric = (loss_of(&mut probe, &seq) - base) / eps;
            assert!(
                (numeric - analytic).abs() < 0.08 * numeric.abs().max(0.5),
                "param {pick}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Check an input gradient at t=1.
        let mut seq2: Vec<Tensor> = seq.clone();
        let v = seq2[1].get(1, 2);
        seq2[1].set(1, 2, v + eps);
        let numeric = (loss_of(&mut lstm.clone(), &seq2) - base) / eps;
        let analytic = d_inputs[1].get(1, 2);
        assert!(
            (numeric - analytic).abs() < 0.08 * numeric.abs().max(0.5),
            "input grad numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn lstm_can_learn_to_sum_a_sequence() {
        // A sanity training task: predict the (scaled) sum of a short
        // scalar sequence from the last hidden state through a fixed
        // linear readout learned jointly.
        use crate::adam::Adam;
        use crate::layer::{Layer, Linear};
        use crate::loss::MseLoss;

        let mut r = rng();
        let mut lstm = Lstm::new(1, 8, &mut r);
        let mut head = Linear::new(8, 1, &mut r);
        let mut opt = Adam::new(5e-3);
        let mut loss = MseLoss::new();

        // 32 sequences of length 6.
        let seqs: Vec<Vec<f32>> = (0..32)
            .map(|_| (0..6).map(|_| r.gen_range(-0.5..0.5)).collect())
            .collect();
        let targets = Tensor::from_fn(32, 1, |row, _| seqs[row].iter().sum::<f32>() * 0.5);
        let batch_seq: Vec<Tensor> = (0..6)
            .map(|t| Tensor::from_fn(32, 1, |row, _| seqs[row][t]))
            .collect();

        let mut final_loss = f32::MAX;
        for _ in 0..300 {
            let h = lstm.forward_last(&batch_seq);
            let pred = head.forward(&h, true);
            final_loss = loss.forward(&pred, &targets);
            let d_pred = loss.backward();
            lstm.zero_grad();
            head.zero_grad();
            let d_h = head.backward(&d_pred);
            lstm.backward_last(&d_h);
            opt.begin_step();
            head.visit_params(&mut |p, g| opt.update(p, g));
            lstm.visit_params(&mut |p, g| opt.update(p, g));
        }
        assert!(
            final_loss < 0.01,
            "LSTM failed to learn sequence sum: loss {final_loss}"
        );
    }

    #[test]
    fn zero_grad_clears_a_poisoned_gradient() {
        use crate::layer::{Layer, Linear};
        use crate::loss::MseLoss;

        let mut r = rng();
        let mut lstm = Lstm::new(2, 3, &mut r);
        let mut head = Linear::new(3, 1, &mut r);
        let seq = toy_seq(4, 2, 2, &mut r);
        let target = init::uniform(2, 1, 1.0, &mut r);
        // One bad minibatch: a NaN and an infinity.
        lstm.visit_params(&mut |_, g| {
            g.set(0, 0, f32::NAN);
            g.set(0, 1, f32::NEG_INFINITY);
        });
        head.visit_params(&mut |_, g| g.set(0, 0, f32::NAN));
        lstm.zero_grad();
        head.zero_grad();
        lstm.visit_params(&mut |_, g| {
            assert!(g.data().iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        });

        let mut loss = MseLoss::new();
        let pred = head.forward(&lstm.forward_last(&seq), true);
        assert!(loss.forward(&pred, &target).is_finite());
        let d_h = head.backward(&loss.backward());
        lstm.backward_last(&d_h);
        lstm.visit_params(&mut |_, g| assert!(g.data().iter().all(|v| v.is_finite())));
        head.visit_params(&mut |_, g| assert!(g.data().iter().all(|v| v.is_finite())));
    }

    #[test]
    #[should_panic(expected = "non-empty sequence")]
    fn empty_sequence_rejected() {
        let mut lstm = Lstm::new(1, 1, &mut rng());
        let _ = lstm.forward_seq(&[]);
    }

    /// BPTT writes its gradients over the gate activations it reads.
    #[test]
    #[should_panic(expected = "before forward")]
    fn a_second_backward_needs_a_second_forward() {
        let mut lstm = Lstm::new(2, 3, &mut rng());
        let h = lstm.forward_last(&toy_seq(4, 2, 2, &mut rng()));
        lstm.backward_last(&h);
        let _ = lstm.backward_last(&h);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_rejected() {
        let mut lstm = Lstm::new(1, 1, &mut rng());
        let _ = lstm.backward_last(&Tensor::zeros(1, 1));
    }
}
