//! Feed-forward layers and the [`Layer`] trait.

use adrias_core::rng::Xoshiro256pp;
use adrias_core::rng::{Rng, SeedableRng};

use crate::aligned::AlignedVec;
use crate::init;
use crate::tensor::Tensor;

/// A differentiable module with explicit forward/backward passes.
///
/// Inputs and outputs are `batch × features` tensors. `forward` caches
/// whatever the subsequent `backward` needs; calling `backward` without a
/// preceding `forward` panics. Parameter gradients accumulate until
/// [`Layer::zero_grad`].
pub trait Layer {
    /// Computes the layer output. `train` toggles training-only behaviour
    /// (dropout masking, batch-norm statistics updates).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out` (gradient w.r.t. the output), returning
    /// the gradient w.r.t. the input and accumulating parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every `(parameter, gradient)` pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Zeroes all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }
}

/// The rows of `t`, each a slice.
fn rows(t: &Tensor) -> std::slice::ChunksExact<'_, f32> {
    t.data().chunks_exact(t.cols().max(1))
}

/// The rows of `t`, each a mutable slice.
fn rows_mut(t: &mut Tensor) -> std::slice::ChunksExactMut<'_, f32> {
    let cols = t.cols().max(1);
    t.data_mut().chunks_exact_mut(cols)
}

/// `acc[c] += xs[c]` for every column `c`.
fn add_into(acc: &mut [f32], xs: &[f32]) {
    for (a, &x) in acc.iter_mut().zip(xs) {
        *a += x;
    }
}

/// A fully-connected layer `y = x·Wᵀ + b`.
///
/// # Examples
///
/// ```
/// use adrias_nn::{Layer, Linear, Tensor};
/// use adrias_core::rng::SeedableRng;
///
/// let mut rng = adrias_core::rng::Xoshiro256pp::seed_from_u64(0);
/// let mut lin = Linear::new(3, 2, &mut rng);
/// let x = Tensor::zeros(4, 3);
/// let y = lin.forward(&x, true);
/// assert_eq!(y.shape(), (4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor, // out × in
    bias: Tensor,   // 1 × out
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer mapping `in_features` to `out_features`.
    ///
    /// Weights are Xavier-uniform; biases start slightly positive (see
    /// [`init::positive_bias`]) so units followed by a ReLU cannot all
    /// start dead on unlucky seeds.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self {
            weight: init::xavier_uniform(out_features, in_features, rng),
            bias: init::positive_bias(out_features),
            grad_weight: Tensor::zeros(out_features, in_features),
            grad_bias: Tensor::zeros(1, out_features),
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.weight.cols()
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }

    /// The weight matrix (`out × in`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias row vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Evaluation forward into a caller-provided buffer: `out = x·Wᵀ + b`.
    ///
    /// Computes exactly the expressions of [`Layer::forward`] (so the
    /// output is bit-identical) but takes `&self`, skips the backward
    /// cache and reuses `out`'s allocation — the inference fast lane
    /// calls this with pooled scratch tensors so the steady-state
    /// decision path performs zero heap allocations.
    pub fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        assert_eq!(
            input.cols(),
            self.in_features(),
            "linear expects {} features, got {}",
            self.in_features(),
            input.cols()
        );
        input.matmul_transb_into(&self.weight, out);
        out.add_row_broadcast_assign(&self.bias);
    }

    /// Visits every `f32` buffer the layer owns, by name (see
    /// [`crate::Lstm::visit_storage`]).
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        f("linear.weight", self.weight.data());
        f("linear.bias", self.bias.data());
        f("linear.grad_weight", self.grad_weight.data());
        f("linear.grad_bias", self.grad_bias.data());
        if let Some(x) = &self.cached_input {
            f("linear.cached_input", x.data());
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(input, &mut out);
        self.cached_input.get_or_insert_default().copy_from(input);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Linear::backward before forward");
        // dW += dYᵀ · X, db += Σ dY, dX = dY · W
        grad_out.matmul_transa_acc(input, &mut self.grad_weight);
        self.grad_bias.add_assign(&grad_out.sum_rows());
        grad_out.matmul(&self.weight)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let mask = self.mask.get_or_insert_default();
        mask.reshape_for(input.rows(), input.cols());
        for (m, &v) in mask.data_mut().iter_mut().zip(input.data()) {
            *m = if v > 0.0 { 1.0 } else { 0.0 };
        }
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("Relu::backward before forward");
        grad_out * mask
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
}

/// 1-D batch normalization over the batch dimension.
///
/// Training mode normalizes with batch statistics and maintains running
/// estimates; evaluation mode uses the running estimates.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone, Default)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `features` columns.
    pub fn new(features: usize) -> Self {
        Self {
            gamma: Tensor::full(1, features, 1.0),
            beta: Tensor::zeros(1, features),
            grad_gamma: Tensor::zeros(1, features),
            grad_beta: Tensor::zeros(1, features),
            running_mean: Tensor::zeros(1, features),
            running_var: Tensor::full(1, features, 1.0),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of normalized features.
    pub fn features(&self) -> usize {
        self.gamma.cols()
    }
}

impl BatchNorm1d {
    /// Visits the non-trainable state (running mean and variance) in a
    /// stable order — used by model persistence; optimizers must not
    /// touch these.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    /// Precomputes the per-feature `1/√(running_var+eps)` used by the
    /// evaluation branch of [`Layer::forward`]. The inference fast lane
    /// computes this once per trained model and reuses it for every
    /// decision, keeping `sqrt` and the allocation off the hot path.
    pub fn eval_inv_std(&self) -> AlignedVec {
        let var = self.running_var.data().iter();
        AlignedVec::from_iter_exact(self.features(), var.map(|v| 1.0 / (v + self.eps).sqrt()))
    }

    /// Applies the evaluation-mode affine map in place:
    /// `x ← γ·(x − running_mean)·inv_std + β` — element for element the
    /// expression of the eval branch of [`Layer::forward`], so the
    /// output is bit-identical. `inv_std` must come from
    /// [`BatchNorm1d::eval_inv_std`] on this same layer.
    pub fn forward_eval_assign(&self, x: &mut Tensor, inv_std: &[f32]) {
        let d = self.features();
        assert_eq!(x.cols(), d, "batchnorm feature mismatch");
        assert_eq!(inv_std.len(), d, "inv_std built for a different layer");
        let gamma = self.gamma.data();
        let beta = self.beta.data();
        let mean = self.running_mean.data();
        let n = x.rows();
        let data = x.data_mut();
        for r in 0..n {
            let row = &mut data[r * d..(r + 1) * d];
            crate::kernels::bn_affine(row, mean, inv_std, gamma, beta);
        }
    }

    /// Visits every `f32` buffer the layer owns, by name (see
    /// [`crate::Lstm::visit_storage`]).
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        for (name, tensor) in [
            ("batchnorm.gamma", &self.gamma),
            ("batchnorm.beta", &self.beta),
            ("batchnorm.grad_gamma", &self.grad_gamma),
            ("batchnorm.grad_beta", &self.grad_beta),
            ("batchnorm.running_mean", &self.running_mean),
            ("batchnorm.running_var", &self.running_var),
        ] {
            f(name, tensor.data());
        }
        if let Some(cache) = &self.cache {
            f("batchnorm.x_hat", cache.x_hat.data());
        }
    }
}

impl Layer for BatchNorm1d {
    // Row-major sweeps: every per-column sum still adds its rows in
    // increasing order from `+0.0`, and every element keeps its
    // expression, so the layer's bits are those of the per-column loops
    // it replaced (`tests/head_reference.rs`).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (n, d) = input.shape();
        assert_eq!(d, self.features(), "batchnorm feature mismatch");
        let cache = self.cache.get_or_insert_default();
        cache.x_hat.reshape_for(n, d);
        let mut out = input.clone();
        if train && n > 1 {
            let nf = n as f32;
            let mut mean = vec![0.0f32; d];
            for row in rows(input) {
                add_into(&mut mean, row);
            }
            mean.iter_mut().for_each(|s| *s /= nf);
            let mut var = vec![0.0f32; d];
            for row in rows(input) {
                for ((v, &x), &mu) in var.iter_mut().zip(row).zip(&mean) {
                    *v += (x - mu).powi(2);
                }
            }
            var.iter_mut().for_each(|v| *v /= nf);
            let running = self.running_mean.data_mut().iter_mut().zip(&mean);
            for (rm, &mu) in running {
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mu;
            }
            let running = self.running_var.data_mut().iter_mut().zip(&var);
            for (rv, &v) in running {
                *rv = (1.0 - self.momentum) * *rv + self.momentum * v;
            }
            cache.inv_std.clear();
            cache
                .inv_std
                .extend(var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
            let (gamma, beta) = (self.gamma.data(), self.beta.data());
            for (x_hat, y) in rows_mut(&mut cache.x_hat).zip(rows_mut(&mut out)) {
                for (c, (h, y)) in x_hat.iter_mut().zip(y).enumerate() {
                    *h = (*y - mean[c]) * cache.inv_std[c];
                    *y = gamma[c] * *h + beta[c];
                }
            }
        } else {
            // Evaluation (or degenerate single-sample batch): use running
            // statistics; backward through eval mode treats the
            // normalization as a fixed affine map. The per-feature
            // `sqrt` terms are computed once per call, not per row.
            let (mean, var) = (self.running_mean.data(), self.running_var.data());
            cache.inv_std.clear();
            cache
                .inv_std
                .extend(var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
            let std: Vec<f32> = var.iter().map(|&v| (v + self.eps).sqrt()).collect();
            for (x_hat, x) in rows_mut(&mut cache.x_hat).zip(rows(input)) {
                for (c, (h, &x)) in x_hat.iter_mut().zip(x).enumerate() {
                    *h = (x - mean[c]) / std[c];
                }
            }
            let (gamma, beta) = (self.gamma.data(), self.beta.data());
            for y in rows_mut(&mut out) {
                crate::kernels::bn_affine(y, mean, &cache.inv_std, gamma, beta);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm1d::backward before forward");
        let (n, d) = grad_out.shape();
        assert_eq!(cache.x_hat.shape(), (n, d), "batchnorm grad shape mismatch");
        let mut sum_dy = vec![0.0f32; d];
        let mut sum_dy_xhat = vec![0.0f32; d];
        for (dy, x_hat) in rows(grad_out).zip(rows(&cache.x_hat)) {
            add_into(&mut sum_dy, dy);
            for ((s, &dy), &h) in sum_dy_xhat.iter_mut().zip(dy).zip(x_hat) {
                *s += dy * h;
            }
        }
        add_into(self.grad_beta.data_mut(), &sum_dy);
        add_into(self.grad_gamma.data_mut(), &sum_dy_xhat);
        let nf = n as f32;
        let gamma = self.gamma.data();
        let scale: Vec<f32> = (0..d).map(|c| gamma[c] * cache.inv_std[c] / nf).collect();
        let mut dx = grad_out.clone();
        for (dx, x_hat) in rows_mut(&mut dx).zip(rows(&cache.x_hat)) {
            for (c, (g, &h)) in dx.iter_mut().zip(x_hat).enumerate() {
                *g = scale[c] * (nf * *g - sum_dy[c] - h * sum_dy_xhat[c]);
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.gamma, &mut self.grad_gamma);
        f(&mut self.beta, &mut self.grad_beta);
    }
}

/// Inverted dropout: zeroes activations with probability `p` during
/// training and scales survivors by `1/(1-p)`; identity in evaluation.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: Xoshiro256pp,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        Self {
            p,
            rng: Xoshiro256pp::seed_from_u64(seed),
            mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    /// Resets the internal RNG to a fresh stream derived from `seed`.
    ///
    /// The data-parallel trainer reseeds dropout per gradient chunk so
    /// the masks depend only on `(run seed, step, chunk)` — never on
    /// which worker executed the chunk or how many workers exist.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = Xoshiro256pp::seed_from_u64(seed);
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mask = self.mask.get_or_insert_default();
        mask.reshape_for(input.rows(), input.cols());
        if !train || self.p == 0.0 {
            mask.fill(1.0);
            return input.clone();
        }
        // One draw per element, in row-major order.
        let keep = 1.0 - self.p;
        for m in mask.data_mut() {
            *m = if self.rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        input * mask
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("Dropout::backward before forward");
        grad_out * mask
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
}

/// A feed-forward container applying layers in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a container from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_core::rng::Xoshiro256pp;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(42)
    }

    /// Numerical-gradient check for Linear.
    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut r = rng();
        let mut lin = Linear::new(3, 2, &mut r);
        let x = init::xavier_uniform(4, 3, &mut r);
        let target = init::xavier_uniform(4, 2, &mut r);

        let loss_of = |lin: &mut Linear, x: &Tensor| {
            let y = lin.forward(x, true);
            (&y - &target).map(|v| v * v).data().iter().sum::<f32>()
        };

        // Analytic gradient.
        let y = lin.forward(&x, true);
        let dy = (&y - &target).map(|v| 2.0 * v);
        lin.zero_grad();
        let dx = lin.backward(&dy);

        // Finite differences on one weight and one input element.
        let eps = 1e-3;
        let base = loss_of(&mut lin, &x);

        let mut lin2 = lin.clone();
        let w = lin2.weight.get(1, 2);
        lin2.weight.set(1, 2, w + eps);
        let num_dw = (loss_of(&mut lin2, &x) - base) / eps;
        assert!(
            (num_dw - lin.grad_weight.get(1, 2)).abs() < 0.05 * num_dw.abs().max(1.0),
            "dW numeric {num_dw} vs analytic {}",
            lin.grad_weight.get(1, 2)
        );

        let mut x2 = x.clone();
        x2.set(0, 1, x.get(0, 1) + eps);
        let num_dx = (loss_of(&mut lin, &x2) - base) / eps;
        assert!(
            (num_dx - dx.get(0, 1)).abs() < 0.05 * num_dx.abs().max(1.0),
            "dX numeric {num_dx} vs analytic {}",
            dx.get(0, 1)
        );
    }

    #[test]
    fn relu_zeroes_negatives_and_their_grads() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(1, 4, vec![-1.0, 0.5, -0.1, 2.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.5, 0.0, 2.0]);
        let g = relu.backward(&Tensor::full(1, 4, 1.0));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn batchnorm_normalizes_batch_in_training() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(4, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        let y = bn.forward(&x, true);
        for c in 0..2 {
            let col: Vec<f32> = (0..4).map(|r| y.get(r, c)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 4.0;
            let var: f32 = col.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "column {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "column {c} var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_vec(8, 1, (0..8).map(|i| i as f32).collect());
        for _ in 0..50 {
            bn.forward(&x, true);
        }
        // After many updates the running stats approximate the batch ones,
        // so eval output should be close to normalized too.
        let y = bn.forward(&x, false);
        assert!(y.mean().abs() < 0.2);
    }

    #[test]
    fn batchnorm_gradients_match_finite_differences() {
        let mut bn = BatchNorm1d::new(2);
        let mut r = rng();
        let x = init::xavier_uniform(6, 2, &mut r);
        let target = init::xavier_uniform(6, 2, &mut r);
        let y = bn.forward(&x, true);
        let dy = (&y - &target).map(|v| 2.0 * v);
        bn.zero_grad();
        let dx = bn.backward(&dy);

        let loss_of = |bn: &mut BatchNorm1d, x: &Tensor| {
            let y = bn.forward(x, true);
            (&y - &target).map(|v| v * v).data().iter().sum::<f32>()
        };
        let eps = 1e-3;
        let mut bn_probe = bn.clone();
        let base = loss_of(&mut bn_probe, &x);
        let mut x2 = x.clone();
        x2.set(2, 1, x.get(2, 1) + eps);
        let mut bn_probe2 = bn.clone();
        let num = (loss_of(&mut bn_probe2, &x2) - base) / eps;
        assert!(
            (num - dx.get(2, 1)).abs() < 0.1 * num.abs().max(1.0),
            "numeric {num} vs analytic {}",
            dx.get(2, 1)
        );
    }

    #[test]
    fn dropout_is_identity_in_eval() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::full(4, 4, 2.0);
        assert_eq!(d.forward(&x, false), x);
    }

    #[test]
    fn dropout_preserves_expectation_in_train() {
        let mut d = Dropout::new(0.3, 5);
        let x = Tensor::full(200, 50, 1.0);
        let y = d.forward(&x, true);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Some elements must actually be dropped.
        assert!(y.data().contains(&0.0));
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 8);
        let x = Tensor::full(4, 4, 1.0);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::full(4, 4, 1.0));
        assert_eq!(y, g, "forward and backward must share the mask");
    }

    #[test]
    fn sequential_chains_forward_and_backward() {
        let mut r = rng();
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(2, 4, &mut r)),
            Box::new(Relu::new()),
            Box::new(Linear::new(4, 1, &mut r)),
        ]);
        let x = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), (3, 1));
        let dx = net.backward(&Tensor::full(3, 1, 1.0));
        assert_eq!(dx.shape(), (3, 2));
        let mut count = 0;
        net.visit_params(&mut |_, _| count += 1);
        assert_eq!(count, 4, "two Linear layers × (W, b)");
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let mut relu = Relu::new();
        let _ = relu.backward(&Tensor::zeros(1, 1));
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn dropout_rejects_p_one() {
        let _ = Dropout::new(1.0, 0);
    }
}
