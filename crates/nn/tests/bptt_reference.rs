//! The fused, allocation-free BPTT of `Lstm` against a reference written
//! with plain `Tensor` ops — the formulation `Lstm::forward_seq` /
//! `backward_seq` used before the training floor was rebuilt (one
//! temporary tensor per intermediate, `hcat` to assemble `dz`, a loop of
//! `axpy` calls for `dW += dzᵀ·x`). The two must agree **bit for bit**
//! on hidden states, parameter gradients and input gradients: the
//! trained policy is a function of every gradient bit, so this is what
//! makes the fused path a pure speed-up.

use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias_nn::kernels::{self, GateCaches};
use adrias_nn::{Lstm, Tensor};

struct StepCache {
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    i: Tensor,
    f: Tensor,
    g: Tensor,
    o: Tensor,
    tanh_c: Tensor,
}

/// The tensor-op LSTM: same parameters as the `Lstm` it was built from,
/// its own gradient accumulators and per-step cache.
struct Reference {
    hidden: usize,
    params: Vec<Tensor>, // w_ih (4H × in), w_hh (4H × H), bias (1 × 4H)
    grads: Vec<Tensor>,
    cache: Vec<StepCache>,
}

/// `out += aᵀ·b` as the loop of small calls: increasing `k`, one `axpy`
/// per non-zero coefficient.
fn transa_acc_naive(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let n = b.cols();
    for k in 0..a.rows() {
        for r in 0..a.cols() {
            let av = a.get(k, r);
            if av != 0.0 {
                kernels::axpy(av, b.row(k), &mut out.data_mut()[r * n..(r + 1) * n]);
            }
        }
    }
}

impl Reference {
    fn of(lstm: &mut Lstm) -> Self {
        let mut params = Vec::new();
        lstm.visit_params(&mut |p, _| params.push(p.clone()));
        let grads = params
            .iter()
            .map(|p| Tensor::zeros(p.rows(), p.cols()))
            .collect();
        Self {
            hidden: lstm.hidden_size(),
            params,
            grads,
            cache: Vec::new(),
        }
    }

    fn forward_seq(&mut self, seq: &[Tensor]) -> Vec<Tensor> {
        let batch = seq[0].rows();
        let h = self.hidden;
        let w_ih_t = self.params[0].transpose();
        let w_hh_t = self.params[1].transpose();
        let mut h_prev = Tensor::zeros(batch, h);
        let mut c_prev = Tensor::zeros(batch, h);
        self.cache.clear();
        let mut outputs = Vec::new();
        for x in seq {
            let mut z = x.matmul(&w_ih_t);
            let zh = h_prev.matmul(&w_hh_t);
            kernels::add2_bias_rows(z.data_mut(), zh.data(), self.params[2].data());
            let mut gates: Vec<Tensor> = (0..7).map(|_| Tensor::zeros(batch, h)).collect();
            let [i, f, g, o, c, tanh_c, h_t] = &mut gates[..] else {
                unreachable!()
            };
            kernels::lstm_gates_train_batch(
                z.data(),
                c_prev.data(),
                h,
                &mut GateCaches {
                    i: i.data_mut(),
                    f: f.data_mut(),
                    g: g.data_mut(),
                    o: o.data_mut(),
                    c: c.data_mut(),
                    tanh_c: tanh_c.data_mut(),
                    h: h_t.data_mut(),
                },
            );
            let [i, f, g, o, c, tanh_c, h_t]: [Tensor; 7] = gates.try_into().unwrap();
            self.cache.push(StepCache {
                x: x.clone(),
                h_prev: std::mem::replace(&mut h_prev, h_t.clone()),
                c_prev: std::mem::replace(&mut c_prev, c),
                i,
                f,
                g,
                o,
                tanh_c,
            });
            outputs.push(h_t);
        }
        outputs
    }

    fn backward_seq(&mut self, grad_hidden: &[Tensor]) -> Vec<Tensor> {
        let batch = self.cache[0].x.rows();
        let mut d_h_next = Tensor::zeros(batch, self.hidden);
        let mut d_c_next = Tensor::zeros(batch, self.hidden);
        let mut d_inputs = vec![Tensor::zeros(0, 0); self.cache.len()];
        for t in (0..self.cache.len()).rev() {
            let cache = &self.cache[t];
            let d_h = &grad_hidden[t] + &d_h_next;
            // h = o ⊙ tanh(c)
            let d_o = &d_h * &cache.tanh_c;
            let d_c = &(&d_h * &cache.o).zip(&cache.tanh_c, |dh_o, tc| dh_o * (1.0 - tc * tc))
                + &d_c_next;
            // c = f ⊙ c_prev + i ⊙ g
            let d_f = &d_c * &cache.c_prev;
            let d_i = &d_c * &cache.g;
            let d_g = &d_c * &cache.i;
            d_c_next = &d_c * &cache.f;
            // Pre-activation gradients.
            let dz_i = d_i.zip(&cache.i, |d, s| d * s * (1.0 - s));
            let dz_f = d_f.zip(&cache.f, |d, s| d * s * (1.0 - s));
            let dz_g = d_g.zip(&cache.g, |d, g| d * (1.0 - g * g));
            let dz_o = d_o.zip(&cache.o, |d, s| d * s * (1.0 - s));
            let dz = dz_i.hcat(&dz_f).hcat(&dz_g).hcat(&dz_o); // batch × 4H
            transa_acc_naive(&dz, &cache.x, &mut self.grads[0]);
            transa_acc_naive(&dz, &cache.h_prev, &mut self.grads[1]);
            self.grads[2].add_assign(&dz.sum_rows());
            d_inputs[t] = dz.matmul(&self.params[0]);
            d_h_next = dz.matmul(&self.params[1]);
        }
        d_inputs
    }
}

fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn grads_of(lstm: &mut Lstm) -> Vec<Tensor> {
    let mut grads = Vec::new();
    lstm.visit_params(&mut |_, g| grads.push(g.clone()));
    grads
}

/// Uniform noise with exact zeros mixed in, so the zero-skips of both
/// GEMM shapes are exercised.
fn noisy_seq(steps: usize, batch: usize, width: usize, rng: &mut Xoshiro256pp) -> Vec<Tensor> {
    (0..steps)
        .map(|_| {
            Tensor::from_fn(batch, width, |_, _| {
                if rng.gen_range(0..9) == 0 {
                    0.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
        })
        .collect()
}

/// One forward + full backward on both implementations, compared on
/// every output; gradients keep accumulating across calls on both.
fn pass_matches(lstm: &mut Lstm, reference: &mut Reference, seq: &[Tensor], grads: &[Tensor]) {
    let shape = (seq[0].cols(), seq[0].rows(), seq.len());
    let hidden = lstm.forward_seq(seq);
    let d_inputs = lstm.backward_seq(grads);
    let want_hidden = reference.forward_seq(seq);
    let want_d_inputs = reference.backward_seq(grads);
    assert_eq!(bits(&hidden), bits(&want_hidden), "hidden states {shape:?}");
    assert_eq!(
        bits(&d_inputs),
        bits(&want_d_inputs),
        "input grads {shape:?}"
    );
    assert_eq!(
        bits(&grads_of(lstm)),
        bits(&reference.grads),
        "parameter grads {shape:?}"
    );
}

#[test]
fn fused_bptt_is_bit_identical_to_the_tensor_op_reference() {
    for (inp, h, batch, steps) in [
        (7, 48, 32, 24),
        (7, 48, 16, 24),
        (48, 48, 16, 24),
        (3, 5, 1, 2),
    ] {
        let mut rng = Xoshiro256pp::seed_from_u64(0xB977 + (inp * h * batch) as u64);
        let mut lstm = Lstm::new(inp, h, &mut rng);
        let mut reference = Reference::of(&mut lstm);
        let seq = noisy_seq(steps, batch, inp, &mut rng);
        let grads = noisy_seq(steps, batch, h, &mut rng);
        // A smaller pass in between: the workspace shrinks and regrows,
        // and nothing of one pass may leak into the next.
        let small_seq = noisy_seq(steps - 1, batch.div_ceil(2), inp, &mut rng);
        let small_grads = noisy_seq(steps - 1, batch.div_ceil(2), h, &mut rng);

        pass_matches(&mut lstm, &mut reference, &seq, &grads);
        pass_matches(&mut lstm, &mut reference, &small_seq, &small_grads);
        // Third pass accumulates onto the non-zero gradients of the
        // first two.
        pass_matches(&mut lstm, &mut reference, &seq, &grads);

        // A last-state readout is the per-step call with zero tensors.
        let mut zero_padded = vec![Tensor::zeros(batch, h); steps];
        zero_padded[steps - 1] = grads[steps - 1].clone();
        lstm.forward_seq(&seq);
        let d_last = lstm.backward_last(&grads[steps - 1]);
        reference.forward_seq(&seq);
        let want_d_last = reference.backward_seq(&zero_padded);
        assert_eq!(
            bits(&d_last),
            bits(&want_d_last),
            "backward_last input grads"
        );
        assert_eq!(bits(&grads_of(&mut lstm)), bits(&reference.grads));
    }
}

#[test]
fn params_only_backward_accumulates_the_same_parameter_gradients() {
    for (inp, h, batch, steps) in [(7, 48, 16, 24), (3, 5, 1, 2)] {
        let mut rng = Xoshiro256pp::seed_from_u64(0x9A7A + h as u64);
        let mut full = Lstm::new(inp, h, &mut rng);
        let mut params_only = full.clone();
        let seq = noisy_seq(steps, batch, inp, &mut rng);
        let grads = noisy_seq(steps, batch, h, &mut rng);
        for _ in 0..2 {
            full.forward_seq(&seq);
            full.backward_seq(&grads);
            params_only.forward_seq(&seq);
            params_only.backward_seq_params(&grads);
            assert_eq!(
                bits(&grads_of(&mut full)),
                bits(&grads_of(&mut params_only))
            );
        }
    }
}

/// The forced-scalar kernels reproduce the native gradients bit for bit
/// (on a host without AVX2 both runs are the scalar path).
#[test]
fn forced_scalar_bptt_matches_native() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5CA1);
    let lstm = Lstm::new(7, 19, &mut rng);
    let seq = noisy_seq(6, 5, 7, &mut rng);
    let grads = noisy_seq(6, 5, 19, &mut rng);
    let run = |force: bool| {
        let mut lstm = lstm.clone();
        adrias_nn::set_force_scalar(force);
        lstm.forward_seq(&seq);
        let d_inputs = lstm.backward_seq(&grads);
        adrias_nn::set_force_scalar(false);
        (bits(&d_inputs), bits(&grads_of(&mut lstm)))
    };
    assert_eq!(run(false), run(true));
}
