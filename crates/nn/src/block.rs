//! The paper's non-linear block: Linear → ReLU → BatchNorm → Dropout.
//!
//! Both Adrias models route their hidden representation through a
//! "triplet of non-linear blocks, that combine fully-connected layers
//! with ReLU activation functions, batch normalization and dropout
//! layers to expose non-linearity and avoid overfit" (§V-B2). This module
//! packages one such block.

use adrias_core::rng::Rng;

use crate::aligned::AlignedVec;
use crate::layer::{BatchNorm1d, Dropout, Layer, Linear, Relu};
use crate::tensor::Tensor;

/// One fully-connected non-linear block.
///
/// # Examples
///
/// ```
/// use adrias_nn::{Layer, NonLinearBlock, Tensor};
/// use adrias_core::rng::SeedableRng;
///
/// let mut rng = adrias_core::rng::Xoshiro256pp::seed_from_u64(0);
/// let mut block = NonLinearBlock::new(8, 16, 0.1, &mut rng);
/// let x = Tensor::zeros(4, 8);
/// assert_eq!(block.forward(&x, true).shape(), (4, 16));
/// ```
#[derive(Debug, Clone)]
pub struct NonLinearBlock {
    linear: Linear,
    relu: Relu,
    norm: BatchNorm1d,
    dropout: Dropout,
}

impl NonLinearBlock {
    /// Creates a block mapping `in_features` → `out_features` with the
    /// given dropout probability.
    pub fn new<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        dropout_p: f32,
        rng: &mut R,
    ) -> Self {
        let seed = rng.gen::<u64>();
        Self {
            linear: Linear::new(in_features, out_features, rng),
            relu: Relu::new(),
            norm: BatchNorm1d::new(out_features),
            dropout: Dropout::new(dropout_p, seed),
        }
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.linear.out_features()
    }

    /// Visits the batch-norm running statistics (see
    /// [`BatchNorm1d::visit_buffers`]).
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.norm.visit_buffers(f);
    }

    /// Reseeds the dropout RNG (see [`Dropout::reseed`]); `salt`
    /// distinguishes sibling blocks inside one model.
    pub fn reseed_dropout(&mut self, seed: u64, salt: u64) {
        self.dropout
            .reseed(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }

    /// Precomputes the batch-norm evaluation scale (see
    /// [`BatchNorm1d::eval_inv_std`]) — one buffer per trained block,
    /// reused by every [`NonLinearBlock::forward_eval_into`] call.
    pub fn eval_inv_std(&self) -> AlignedVec {
        self.norm.eval_inv_std()
    }

    /// Evaluation forward into a caller-provided buffer, bit-identical
    /// to `forward(input, false)`: linear → ReLU → batch-norm with
    /// running statistics, all applied in `out`'s existing allocation
    /// (dropout is the identity in evaluation). `inv_std` must come
    /// from [`NonLinearBlock::eval_inv_std`] on this same block.
    pub fn forward_eval_into(&self, input: &Tensor, out: &mut Tensor, inv_std: &[f32]) {
        self.linear.forward_into(input, out);
        crate::kernels::relu(out.data_mut());
        self.norm.forward_eval_assign(out, inv_std);
    }

    /// Visits every `f32` buffer of the linear and batch-norm layers,
    /// by name (see [`crate::Lstm::visit_storage`]).
    pub fn visit_storage(&self, f: &mut dyn FnMut(&'static str, &[f32])) {
        self.linear.visit_storage(f);
        self.norm.visit_storage(f);
    }
}

impl Layer for NonLinearBlock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let x = self.linear.forward(input, train);
        let x = self.relu.forward(&x, train);
        let x = self.norm.forward(&x, train);
        self.dropout.forward(&x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.dropout.backward(grad_out);
        let g = self.norm.backward(&g);
        let g = self.relu.backward(&g);
        self.linear.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.linear.visit_params(f);
        self.norm.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_core::rng::SeedableRng;
    use adrias_core::rng::Xoshiro256pp;

    #[test]
    fn forward_backward_shapes() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let mut block = NonLinearBlock::new(5, 7, 0.2, &mut rng);
        let x = crate::init::uniform(3, 5, 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape(), (3, 7));
        let dx = block.backward(&Tensor::full(3, 7, 1.0));
        assert_eq!(dx.shape(), (3, 5));
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let mut block = NonLinearBlock::new(4, 4, 0.5, &mut rng);
        let x = crate::init::uniform(2, 4, 1.0, &mut rng);
        let a = block.forward(&x, false);
        let b = block.forward(&x, false);
        assert_eq!(a, b);
    }

    #[test]
    fn eval_into_is_bit_identical_to_forward() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut block = NonLinearBlock::new(5, 9, 0.3, &mut rng);
        // Move the running statistics away from their initial values so
        // the eval branch exercises non-trivial mean/variance.
        for _ in 0..8 {
            let batch = crate::init::uniform(6, 5, 2.0, &mut rng);
            let _ = block.forward(&batch, true);
        }
        let x = crate::init::uniform(3, 5, 1.5, &mut rng);
        let want = block.forward(&x, false);
        let inv_std = block.eval_inv_std();
        let mut out = Tensor::zeros(1, 1);
        block.forward_eval_into(&x, &mut out, &inv_std);
        assert_eq!(out.shape(), want.shape());
        for (a, b) in out.data().iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "eval-into must be bit-identical");
        }
    }

    #[test]
    fn has_linear_and_norm_params() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let mut block = NonLinearBlock::new(4, 4, 0.1, &mut rng);
        let mut count = 0;
        block.visit_params(&mut |_, _| count += 1);
        // Linear (W, b) + BatchNorm (γ, β).
        assert_eq!(count, 4);
        assert_eq!(block.out_features(), 4);
    }

    #[test]
    fn block_trains_on_simple_regression() {
        use crate::adam::Adam;
        use crate::layer::Sequential;
        use crate::loss::MseLoss;

        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut net = Sequential::new(vec![
            Box::new(NonLinearBlock::new(2, 16, 0.05, &mut rng)),
            Box::new(Linear::new(16, 1, &mut rng)),
        ]);
        let x = crate::init::uniform(64, 2, 1.0, &mut rng);
        let y = Tensor::from_fn(64, 1, |r, _| x.get(r, 0) - 0.5 * x.get(r, 1));
        let mut opt = Adam::new(1e-2);
        let mut loss = MseLoss::new();
        let mut last = f32::MAX;
        for _ in 0..400 {
            let pred = net.forward(&x, true);
            last = loss.forward(&pred, &y);
            let g = loss.backward();
            net.zero_grad();
            net.backward(&g);
            opt.begin_step();
            net.visit_params(&mut |p, g| opt.update(p, g));
        }
        assert!(last < 0.05, "block failed to train: {last}");
    }
}
