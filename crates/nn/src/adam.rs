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
        // One zipped sweep: no index to check, so the compiler vectorises
        // it. Every element keeps its expressions, each operation one
        // correctly rounded IEEE-754 operation per lane.
        let moments = m.data_mut().iter_mut().zip(v.data_mut().iter_mut());
        let terms = param.data_mut().iter_mut().zip(grad.data());
        for ((p, &g), (md, vd)) in terms.zip(moments) {
            *md = b1 * *md + (1.0 - b1) * g;
            let m_hat = *md / bc1;
            *vd = b2 * *vd + (1.0 - b2) * g * g;
            let v_hat = *vd / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
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

    /// The per-index loop `update` was written as, kept as its oracle.
    fn update_by_index(opt: &Adam, param: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
        let (b1, b2, lr, eps) = (opt.beta1, opt.beta2, opt.lr, opt.eps);
        let bc1 = 1.0 - b1.powi(opt.t as i32);
        let bc2 = 1.0 - b2.powi(opt.t as i32);
        for idx in 0..param.len() {
            let g = grad[idx];
            m[idx] = b1 * m[idx] + (1.0 - b1) * g;
            let m_hat = m[idx] / bc1;
            v[idx] = b2 * v[idx] + (1.0 - b2) * g * g;
            let v_hat = v[idx] / bc2;
            param[idx] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    #[test]
    fn update_is_the_per_index_loop_bit_for_bit() {
        // Signed zeros, subnormals, the smallest normal and values whose
        // square overflows, between ordinary values spread over twelve
        // decades; 301 elements, so no vector width divides the sweep.
        let special = [0.0, -0.0, 1e-41, -3e-43, 1.2e-38, 1e30, -1e30];
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |i: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i.is_multiple_of(5) {
                special[(s >> 32) as usize % special.len()]
            } else {
                let mantissa = (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                mantissa * 10f32.powi((s % 12) as i32 - 6)
            }
        };
        let n = 301;
        let mut param = Tensor::from_fn(1, n, |_, c| next(c));
        let mut want: Vec<f32> = param.data().to_vec();
        let (mut m, mut v) = (vec![0.0f32; n], vec![0.0f32; n]);
        let mut opt = Adam::new(3e-3);
        for step in 0..4 {
            let grad = Tensor::from_fn(1, n, |_, c| next(c + step));
            opt.begin_step();
            opt.update(&mut param, &grad);
            update_by_index(&opt, &mut want, grad.data(), &mut m, &mut v);
            let got: Vec<u32> = param.data().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "step {step}");
        }
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
