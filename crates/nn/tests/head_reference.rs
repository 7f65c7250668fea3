//! The four head layers' training path against the code it replaced:
//! `Linear`, `Relu`, `BatchNorm1d` and `Dropout` as they were written
//! before the path moved to row-major sweeps — per-column `get`/`set`
//! loops, `from_fn` builds, a fresh cache per call — kept here verbatim
//! as the oracle, with the accumulate-GEMMs of `Linear::backward` as the
//! naive zero-skipping loops they are specified as. Layer and oracle
//! must agree **bit for bit** on every output, input gradient, parameter
//! gradient and running statistic, in train and eval mode, across calls
//! that reuse the layer's buffers at other batch sizes, on both lanes.

use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias_nn::{BatchNorm1d, Dropout, Layer, Linear, Relu, Tensor};

/// A layer as it was: forward, backward, and every tensor it keeps
/// (parameters, gradients, running statistics) in visiting order.
trait Oracle {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;
    fn state(&self) -> Vec<Tensor>;
}

/// `out += aᵀ·b`, per element increasing `k`, skipping zero
/// coefficients.
fn transa_acc_naive(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    for r in 0..a.cols() {
        for c in 0..b.cols() {
            let mut acc = out.get(r, c);
            for k in 0..a.rows() {
                if a.get(k, r) != 0.0 {
                    acc += a.get(k, r) * b.get(k, c);
                }
            }
            out.set(r, c, acc);
        }
    }
}

/// `a·b` from `+0.0`, per element increasing `k`, skipping zero
/// coefficients.
fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.cols());
    transa_acc_naive(&a.transpose(), b, &mut out);
    out
}

struct OldLinear {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl OldLinear {
    fn of(layer: &mut Linear) -> Self {
        let mut state = Vec::new();
        layer.visit_params(&mut |p, g| state.extend([p.clone(), g.clone()]));
        let [weight, grad_weight, bias, grad_bias] = state.try_into().expect("W and b");
        Self {
            weight,
            bias,
            grad_weight,
            grad_bias,
            cached_input: None,
        }
    }
}

impl Oracle for OldLinear {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.cached_input = Some(input.clone());
        input
            .matmul_transb(&self.weight)
            .add_row_broadcast(&self.bias)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("forward first");
        transa_acc_naive(grad_out, input, &mut self.grad_weight);
        self.grad_bias.add_assign(&grad_out.sum_rows());
        matmul_naive(grad_out, &self.weight)
    }

    fn state(&self) -> Vec<Tensor> {
        [&self.weight, &self.grad_weight, &self.bias, &self.grad_bias]
            .map(Tensor::clone)
            .to_vec()
    }
}

#[derive(Default)]
struct OldRelu {
    mask: Option<Tensor>,
}

impl Oracle for OldRelu {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.mask = Some(input.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out * self.mask.as_ref().expect("forward first")
    }

    fn state(&self) -> Vec<Tensor> {
        Vec::new()
    }
}

struct OldBatchNorm {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<(Tensor, Vec<f32>)>,
}

impl OldBatchNorm {
    fn of(layer: &mut BatchNorm1d) -> Self {
        let mut state = Vec::new();
        layer.visit_params(&mut |p, g| state.extend([p.clone(), g.clone()]));
        layer.visit_buffers(&mut |b| state.push(b.clone()));
        let [gamma, grad_gamma, beta, grad_beta, running_mean, running_var] =
            state.try_into().expect("γ, β and the running statistics");
        Self {
            gamma,
            beta,
            grad_gamma,
            grad_beta,
            running_mean,
            running_var,
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }
}

impl Oracle for OldBatchNorm {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (n, d) = input.shape();
        if train && n > 1 {
            let mut mean = vec![0.0f32; d];
            let mut var = vec![0.0f32; d];
            for c in 0..d {
                let mut s = 0.0;
                for r in 0..n {
                    s += input.get(r, c);
                }
                mean[c] = s / n as f32;
                let mut v = 0.0;
                for r in 0..n {
                    v += (input.get(r, c) - mean[c]).powi(2);
                }
                var[c] = v / n as f32;
            }
            for c in 0..d {
                let rm = self.running_mean.get(0, c);
                let rv = self.running_var.get(0, c);
                self.running_mean
                    .set(0, c, (1.0 - self.momentum) * rm + self.momentum * mean[c]);
                self.running_var
                    .set(0, c, (1.0 - self.momentum) * rv + self.momentum * var[c]);
            }
            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            let x_hat = Tensor::from_fn(n, d, |r, c| (input.get(r, c) - mean[c]) * inv_std[c]);
            let out = Tensor::from_fn(n, d, |r, c| {
                self.gamma.get(0, c) * x_hat.get(r, c) + self.beta.get(0, c)
            });
            self.cache = Some((x_hat, inv_std));
            out
        } else {
            let inv_std: Vec<f32> = (0..d)
                .map(|c| 1.0 / (self.running_var.get(0, c) + self.eps).sqrt())
                .collect();
            let std: Vec<f32> = (0..d)
                .map(|c| (self.running_var.get(0, c) + self.eps).sqrt())
                .collect();
            let out = Tensor::from_fn(n, d, |r, c| {
                self.gamma.get(0, c) * (input.get(r, c) - self.running_mean.get(0, c)) * inv_std[c]
                    + self.beta.get(0, c)
            });
            let x_hat = Tensor::from_fn(n, d, |r, c| {
                (input.get(r, c) - self.running_mean.get(0, c)) / std[c]
            });
            self.cache = Some((x_hat, inv_std));
            out
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (x_hat, inv_std) = self.cache.as_ref().expect("forward first");
        let (n, d) = grad_out.shape();
        let mut sum_dy = vec![0.0f32; d];
        let mut sum_dy_xhat = vec![0.0f32; d];
        for c in 0..d {
            for r in 0..n {
                let dy = grad_out.get(r, c);
                sum_dy[c] += dy;
                sum_dy_xhat[c] += dy * x_hat.get(r, c);
            }
        }
        for c in 0..d {
            self.grad_beta
                .set(0, c, self.grad_beta.get(0, c) + sum_dy[c]);
            self.grad_gamma
                .set(0, c, self.grad_gamma.get(0, c) + sum_dy_xhat[c]);
        }
        let nf = n as f32;
        Tensor::from_fn(n, d, |r, c| {
            let dy = grad_out.get(r, c);
            self.gamma.get(0, c) * inv_std[c] / nf
                * (nf * dy - sum_dy[c] - x_hat.get(r, c) * sum_dy_xhat[c])
        })
    }

    fn state(&self) -> Vec<Tensor> {
        [
            &self.gamma,
            &self.grad_gamma,
            &self.beta,
            &self.grad_beta,
            &self.running_mean,
            &self.running_var,
        ]
        .map(Tensor::clone)
        .to_vec()
    }
}

struct OldDropout {
    p: f32,
    rng: Xoshiro256pp,
    mask: Option<Tensor>,
}

impl Oracle for OldDropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = Some(Tensor::full(input.rows(), input.cols(), 1.0));
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let mask = Tensor::from_fn(input.rows(), input.cols(), |_, _| {
            if self.rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let out = input * &mask;
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out * self.mask.as_ref().expect("forward first")
    }

    fn state(&self) -> Vec<Tensor> {
        Vec::new()
    }
}

/// Every parameter and gradient of `layer`, in the oracle's order.
fn params_of(layer: &mut impl Layer) -> Vec<Tensor> {
    let mut state = Vec::new();
    layer.visit_params(&mut |p, g| state.extend([p.clone(), g.clone()]));
    state
}

fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// `rows × cols` values in `[-2, 2)` with exact zeros of both signs and
/// subnormals mixed in.
fn noisy(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| match rng.gen_range(0..10) {
        0 => 0.0,
        1 => -0.0,
        2 => 1e-41,
        _ => rng.gen_range(-2.0..2.0),
    })
}

/// Batch sizes of successive calls: buffers sized by one call are
/// reused, shrunk and regrown by the next; `1` is batch-norm's
/// single-sample branch.
const BATCHES: [usize; 4] = [6, 3, 1, 9];

/// Runs `layer` and `oracle` through forward and backward at every
/// batch of [`BATCHES`] in `train` mode and compares everything, the
/// layer's state as `state` reads it.
fn matches<L: Layer>(
    what: &str,
    (layer, oracle): (&mut L, &mut dyn Oracle),
    (inp, out): (usize, usize),
    train: bool,
    state: impl Fn(&mut L) -> Vec<Tensor>,
    rng: &mut Xoshiro256pp,
) {
    for batch in BATCHES {
        let x = noisy(batch, inp, rng);
        let g = noisy(batch, out, rng);
        let at = format!("{what}, train={train}, batch {batch}");
        let y = layer.forward(&x, train);
        assert_eq!(
            bits(&[y]),
            bits(&[oracle.forward(&x, train)]),
            "{at}: output"
        );
        let dx = layer.backward(&g);
        assert_eq!(
            bits(&[dx]),
            bits(&[oracle.backward(&g)]),
            "{at}: input grad"
        );
        assert_eq!(bits(&state(layer)), bits(&oracle.state()), "{at}: state");
    }
}

fn check_all_layers() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x4EAD);
    for train in [true, false] {
        let mut linear = Linear::new(13, 10, &mut rng);
        let oracle = &mut OldLinear::of(&mut linear);
        let pair = (&mut linear, oracle as &mut dyn Oracle);
        matches("Linear", pair, (13, 10), train, params_of, &mut rng);

        let pair = (&mut Relu::new(), &mut OldRelu::default() as &mut dyn Oracle);
        matches("Relu", pair, (11, 11), train, params_of, &mut rng);

        let mut bn = BatchNorm1d::new(11);
        let oracle = &mut OldBatchNorm::of(&mut bn);
        let with_buffers = |bn: &mut BatchNorm1d| {
            let mut state = params_of(bn);
            bn.visit_buffers(&mut |b| state.push(b.clone()));
            state
        };
        let pair = (&mut bn, oracle as &mut dyn Oracle);
        matches("BatchNorm1d", pair, (11, 11), train, with_buffers, &mut rng);

        for p in [0.0, 0.3] {
            let oracle = &mut OldDropout {
                p,
                rng: Xoshiro256pp::seed_from_u64(17),
                mask: None,
            };
            let pair = (&mut Dropout::new(p, 17), oracle as &mut dyn Oracle);
            matches("Dropout", pair, (12, 12), train, params_of, &mut rng);
        }
    }
}

#[test]
fn head_layers_are_bit_identical_to_the_code_they_replaced() {
    check_all_layers();
}

/// The forced-portable kernels under the layers give the same bits
/// (on a host without AVX2 both runs are the portable lane).
#[test]
fn head_layers_match_the_old_code_forced_scalar() {
    adrias_nn::set_force_scalar(true);
    check_all_layers();
    adrias_nn::set_force_scalar(false);
}
