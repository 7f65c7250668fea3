//! The Adam optimizer.

use crate::tensor::Tensor;

/// Adam with bias correction (Kingma & Ba, 2015).
///
/// Optimizer state is keyed by *visitation order*: call
/// [`Adam::begin_step`] once per training step, then [`Adam::update`] for
/// every parameter in the same stable order each step (e.g. via the
/// layers' `visit_params`). State tensors are allocated lazily on the
/// first step.
///
/// # Examples
///
/// ```
/// use adrias_nn::{Adam, Tensor};
///
/// let mut opt = Adam::new(0.1);
/// let mut param = Tensor::full(1, 1, 1.0);
/// let grad = Tensor::full(1, 1, 1.0);
/// for _ in 0..10 {
///     opt.begin_step();
///     opt.update(&mut param, &grad);
/// }
/// assert!(param.get(0, 0) < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    state: Vec<(Tensor, Tensor)>,
    cursor: usize,
}

impl Adam {
    /// Creates an optimizer with the given learning rate and PyTorch
    /// default moments (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: Vec::new(),
            cursor: 0,
        }
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Starts a new optimization step; resets the parameter cursor.
    pub fn begin_step(&mut self) {
        self.t += 1;
        self.cursor = 0;
    }

    /// Applies one Adam update to `param` given `grad`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the state registered for this slot
    /// on earlier steps (i.e. visitation order changed), or if called
    /// before [`Adam::begin_step`].
    pub fn update(&mut self, param: &mut Tensor, grad: &Tensor) {
        assert!(self.t > 0, "call begin_step before update");
        assert_eq!(
            param.shape(),
            grad.shape(),
            "param/grad shape mismatch: {:?} vs {:?}",
            param.shape(),
            grad.shape()
        );
        if self.cursor == self.state.len() {
            self.state.push((
                Tensor::zeros(param.rows(), param.cols()),
                Tensor::zeros(param.rows(), param.cols()),
            ));
        }
        let (m, v) = &mut self.state[self.cursor];
        assert_eq!(
            m.shape(),
            param.shape(),
            "optimizer state shape mismatch at slot {} — unstable visitation order?",
            self.cursor
        );
        self.cursor += 1;

        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.lr;
        let eps = self.eps;
        for idx in 0..param.len() {
            let g = grad.data()[idx];
            let md = &mut m.data_mut()[idx];
            *md = b1 * *md + (1.0 - b1) * g;
            let m_hat = *md / bc1;
            let vd = &mut v.data_mut()[idx];
            *vd = b2 * *vd + (1.0 - b2) * g * g;
            let v_hat = *vd / bc2;
            param.data_mut()[idx] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // f(x) = (x - 3)², ∇f = 2(x - 3).
        let mut opt = Adam::new(0.1);
        let mut x = Tensor::full(1, 1, 0.0);
        for _ in 0..300 {
            let grad = x.map(|v| 2.0 * (v - 3.0));
            opt.begin_step();
            opt.update(&mut x, &grad);
        }
        assert!((x.get(0, 0) - 3.0).abs() < 0.05, "x = {}", x.get(0, 0));
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        let mut opt = Adam::new(0.01);
        let mut x = Tensor::full(1, 1, 0.0);
        opt.begin_step();
        opt.update(&mut x, &Tensor::full(1, 1, 5.0));
        // Bias-corrected first step ≈ lr regardless of gradient scale.
        assert!((x.get(0, 0) + 0.01).abs() < 1e-4);
    }

    #[test]
    fn handles_multiple_params_in_stable_order() {
        let mut opt = Adam::new(0.1);
        let mut a = Tensor::full(1, 1, 1.0);
        let mut b = Tensor::full(2, 2, 1.0);
        for _ in 0..5 {
            opt.begin_step();
            opt.update(&mut a, &Tensor::full(1, 1, 1.0));
            opt.update(&mut b, &Tensor::full(2, 2, 1.0));
        }
        assert!(a.get(0, 0) < 1.0);
        assert!(b.get(1, 1) < 1.0);
        assert_eq!(opt.steps(), 5);
    }

    #[test]
    #[should_panic(expected = "unstable visitation order")]
    fn shape_change_across_steps_detected() {
        let mut opt = Adam::new(0.1);
        let mut a = Tensor::full(1, 1, 1.0);
        let mut b = Tensor::full(2, 2, 1.0);
        opt.begin_step();
        opt.update(&mut a, &Tensor::full(1, 1, 1.0));
        opt.begin_step();
        opt.update(&mut b, &Tensor::full(2, 2, 1.0));
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn update_before_begin_step_panics() {
        let mut opt = Adam::new(0.1);
        let mut x = Tensor::zeros(1, 1);
        let g = Tensor::zeros(1, 1);
        opt.update(&mut x, &g);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_lr_rejected() {
        let _ = Adam::new(0.0);
    }
}
