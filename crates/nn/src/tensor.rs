//! A row-major 2-D `f32` matrix.

use crate::aligned::AlignedVec;
use crate::kernels;

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Cache-block edge of the `matmul_transb` sweep. 32×32 f32 tiles
/// (4 KiB per operand tile) keep the working set inside L1 while
/// leaving the element-wise accumulation contract untouched.
const BLOCK: usize = 32;

/// A dense row-major matrix of `f32` values.
///
/// This is deliberately small: just the operations the layers in this
/// crate need. Shapes are validated eagerly; mismatches panic with the
/// offending dimensions. The elements live in an [`AlignedVec`]: the
/// first one sits on a 64-byte boundary in every tensor, however it
/// was built, cloned, grown or loaded (DESIGN.md §14).
///
/// # Examples
///
/// ```
/// use adrias_nn::Tensor;
///
/// let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
/// let c = a.matmul(&b);
/// assert_eq!(c.shape(), (2, 2));
/// assert_eq!(c.get(0, 0), 58.0);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: AlignedVec,
}

impl Tensor {
    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: AlignedVec::filled(rows * cols, value),
        }
    }

    /// Builds a tensor from row-major data, copying it into aligned
    /// storage of its own (`data`'s allocation is dropped); prefer
    /// [`Tensor::from_slice`] when the values are only borrowed.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self::from_slice(rows, cols, &data)
    }

    /// Builds a tensor from borrowed row-major data: one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: AlignedVec::from_slice(data),
        }
    }

    /// Builds a tensor element-wise from a function of `(row, col)`,
    /// called in row-major order.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let cells = (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c)));
        Self {
            rows,
            cols,
            data: AlignedVec::from_iter_exact(rows * cols, cells.map(|(r, c)| f(r, c))),
        }
    }

    /// A `1 × values.len()` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_slice(1, values.len(), values)
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ other`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions do not match.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self @ other` written into `out`, reusing its
    /// buffer (`out` is overwritten, and resized only if its shape does
    /// not match).
    ///
    /// One [`kernels::gemm_acc`] sweep over a zeroed `out`: each output
    /// element is accumulated over `k` in increasing order with the
    /// `self[r][k] == 0.0` skip, so the result is bit-identical to the
    /// naive triple loop whatever the register tiling.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions do not match.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, kk, n) = (self.rows, self.cols, other.cols);
        out.reshape_for(m, n);
        gemm_into(&self.data, &other.data, &mut out.data, (m, kk, n), false);
    }

    /// Matrix product against a transposed right operand,
    /// `self @ otherᵀ`, where `other` is stored row-major as `n × k`.
    ///
    /// This is the layout of every weight matrix in this crate
    /// (`out_features × in_features`), so forward passes can consume the
    /// weights directly instead of materializing `other.transpose()` on
    /// every call. Both operands are walked row-contiguously.
    pub fn matmul_transb(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_transb_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_transb`] into a reusable output buffer.
    ///
    /// Each output element is a canonical lane-ordered dot product
    /// ([`kernels::dot`]): 8-way strided partial sums over `k` plus a
    /// fixed tree reduction, identical on the SIMD and scalar paths. A
    /// batched call is bit-identical, row for row, to per-sample
    /// (batch = 1) calls.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions (`self.cols` vs `other.cols`) do
    /// not match.
    pub fn matmul_transb_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transb shape mismatch: {}x{} @ ({}x{})T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, kk, n) = (self.rows, self.cols, other.rows);
        out.reshape_for(m, n);
        // Each cache tile is one [`kernels::dot_rows`] sweep — columns
        // four at a time, remainder singly; every output element is a
        // canonical lane-ordered dot product (8-way strided partial sums
        // over `k`, fixed tree reduction — DESIGN.md §14) on every lane
        // type, so neither the grouping nor the vector width ever
        // changes a single bit of the result.
        for r0 in (0..m).step_by(BLOCK) {
            let r1 = (r0 + BLOCK).min(m);
            for c0 in (0..n).step_by(BLOCK) {
                let c1 = (c0 + BLOCK).min(n);
                for r in r0..r1 {
                    let a_row = &self.data[r * kk..(r + 1) * kk];
                    let out_row = &mut out.data[r * n..(r + 1) * n];
                    kernels::dot_rows(a_row, &other.data[c0 * kk..c1 * kk], &mut out_row[c0..c1]);
                }
            }
        }
    }

    /// Accumulates `selfᵀ @ other` into `out` (`out += selfᵀ @ other`),
    /// where `self` is `k × m` and `other` is `k × n`.
    ///
    /// This is the gradient-accumulation shape (`dW += dYᵀ · X`): one
    /// register-blocked [`kernels::transa_acc`] sweep, each output
    /// element accumulated over `k` in increasing order with the
    /// `self[k][r] == 0.0` skip; no transpose is ever materialized.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or `out` is not `m × n`.
    pub fn matmul_transa_acc(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transa shape mismatch: ({}x{})T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (self.cols, other.cols),
            out.shape(),
            "matmul_transa output must be {}x{}, got {:?}",
            self.cols,
            other.cols,
            out.shape()
        );
        kernels::transa_acc(
            &self.data,
            &other.data,
            &mut out.data,
            (self.rows, self.cols, other.cols),
        );
    }

    /// In-place scaled addition `self += factor · other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Tensor, factor: f32) {
        self.assert_same_shape(other, "add_scaled_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data()) {
            *a += factor * b;
        }
    }

    /// Reuses the existing allocation for a `rows × cols` result,
    /// growing it only when the target is larger than any prior use.
    pub(crate) fn reshape_for(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Tensor::transpose`] into a reusable buffer (allocation-free
    /// once `out` has reached size).
    pub fn transpose_into(&self, out: &mut Tensor) {
        out.reshape_for(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Copies `other` into `self`, reusing the existing buffer.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.reshape_for(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: AlignedVec::from_iter_exact(self.len(), self.data.iter().map(|&v| f(v))),
        }
    }

    /// Element-wise combination with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other, "zip");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: AlignedVec::from_iter_exact(
                self.len(),
                self.data.iter().zip(other.data()).map(|(&a, &b)| f(a, b)),
            ),
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// Overwrites every element with `value`. `fill(0.0)`, unlike
    /// `scale_assign(0.0)`, also clears non-finite entries
    /// (`NaN · 0 = NaN`) and never leaves a `-0.0`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// In-place scaling.
    pub fn scale_assign(&mut self, factor: f32) {
        for a in self.data.iter_mut() {
            *a *= factor;
        }
    }

    /// Adds a `1 × cols` row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(
            (1, self.cols),
            bias.shape(),
            "broadcast bias must be 1x{}, got {:?}",
            self.cols,
            bias.shape()
        );
        Tensor::from_fn(self.rows, self.cols, |r, c| self.get(r, c) + bias.get(0, c))
    }

    /// In-place [`Tensor::add_row_broadcast`]: adds a `1 × cols` row
    /// vector to every row of `self` without allocating. Each element
    /// computes the same `x + b` as the allocating version, so the
    /// result is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Tensor) {
        assert_eq!(
            (1, self.cols),
            bias.shape(),
            "broadcast bias must be 1x{}, got {:?}",
            self.cols,
            bias.shape()
        );
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &b) in row.iter_mut().zip(bias.data()) {
                *v += b;
            }
        }
    }

    /// Column-wise sum, producing a `1 × cols` row vector. Each column
    /// adds its rows in increasing row order starting from `+0.0`.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        if self.cols > 0 {
            for row in self.data.chunks_exact(self.cols) {
                for (s, &v) in out.data.iter_mut().zip(row) {
                    *s += v;
                }
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hcat(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "hcat row mismatch: {} vs {}",
            self.rows, other.rows
        );
        let rows = (0..self.rows).flat_map(|r| [self.row(r), other.row(r)]);
        Tensor {
            rows: self.rows,
            cols: self.cols + other.cols,
            data: AlignedVec::concat(self.len() + other.len(), rows),
        }
    }

    /// The sub-matrix of columns `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn columns(&self, start: usize, end: usize) -> Tensor {
        assert!(
            start <= end && end <= self.cols,
            "bad column range {start}..{end}"
        );
        let rows = (0..self.rows).map(|r| &self.row(r)[start..end]);
        Tensor {
            rows: self.rows,
            cols: end - start,
            data: AlignedVec::concat(self.rows * (end - start), rows),
        }
    }

    /// The sub-matrix of rows `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn rows_slice(&self, start: usize, end: usize) -> Tensor {
        assert!(
            start <= end && end <= self.rows,
            "bad row range {start}..{end}"
        );
        Tensor::from_slice(
            end - start,
            self.cols,
            &self.data[start * self.cols..end * self.cols],
        )
    }

    /// Vertical concatenation of `tensors` (all with equal column count).
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or column counts differ.
    pub fn vcat(tensors: &[&Tensor]) -> Tensor {
        assert!(!tensors.is_empty(), "vcat of nothing");
        let cols = tensors[0].cols;
        let rows: usize = tensors.iter().map(|t| t.rows).sum();
        let parts = tensors.iter().map(|t| {
            assert_eq!(t.cols, cols, "vcat column mismatch");
            t.data()
        });
        Tensor {
            rows,
            cols,
            data: AlignedVec::concat(rows * cols, parts),
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Mean of all elements; `0.0` when empty.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op} shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }
}

/// Slice-level body of [`Tensor::matmul_into`]: overwrites the
/// row-major `m × n` `out` with `a @ b` for row-major `a` (`m × kk`)
/// and `b` (`kk × n`); `shape` is `(m, kk, n)`. The LSTM calls it
/// directly on its flat step buffers, with `b_finite` from the check it
/// made of its weights when it transposed them; otherwise the kernel
/// checks `b` itself. The `+0.0` fill makes `out` clean by construction
/// ([`kernels::Vouched`]).
///
/// # Panics
///
/// Panics if the slice lengths do not match `shape`.
pub(crate) fn gemm_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    shape: (usize, usize, usize),
    b_finite: bool,
) {
    let (m, kk, n) = shape;
    assert!(
        a.len() == m * kk && b.len() == kk * n && out.len() == m * n,
        "gemm shape mismatch: {m}x{kk} @ {kk}x{n}"
    );
    out.fill(0.0);
    let vouched = kernels::Vouched {
        b_finite,
        out_clean: true,
    };
    kernels::gemm_acc_vouched(a, (kk, 1), b, out, shape, vouched);
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Add for &Tensor {
    type Output = Tensor;

    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub for &Tensor {
    type Output = Tensor;

    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul for &Tensor {
    type Output = Tensor;

    /// Element-wise (Hadamard) product.
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Tensor::full(5, 5, 9.9);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // A second call into the same buffer must not see stale values.
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 40) as f32 / 1e6 - 8.0
        };
        // Odd sizes exercise partial tiles on every block edge.
        let a = Tensor::from_fn(37, 45, |_, _| next());
        let b = Tensor::from_fn(51, 45, |_, _| next());
        // `matmul` accumulates in increasing `k` while `matmul_transb`
        // uses the canonical lane order, so the comparison is
        // approximate (both are correct summations of the same terms);
        // the bit-exact spec for transb is `naive_transb` below.
        let got = a.matmul_transb(&b);
        let want = a.matmul(&b.transpose());
        assert_eq!(got.shape(), want.shape());
        for (x, y) in got.data().iter().zip(want.data()) {
            assert!(
                (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                "transb diverged from transpose product: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_blocking_is_bitwise_identical_per_row() {
        // A batched product must equal per-row products bit for bit:
        // the batched engine's parity guarantee rests on this.
        let a = Tensor::from_fn(67, 33, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.37 - 1.0);
        let b = Tensor::from_fn(41, 33, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.29 - 0.7);
        let batched = a.matmul_transb(&b);
        for r in 0..a.rows() {
            let single = a.rows_slice(r, r + 1).matmul_transb(&b);
            assert_eq!(single.data(), batched.row(r), "row {r} differs");
        }
    }

    #[test]
    fn matmul_transa_acc_accumulates_gradient_shape() {
        let dy = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = Tensor::from_vec(2, 2, vec![7.0, 8.0, 9.0, 10.0]);
        let mut grad = Tensor::full(3, 2, 1.0);
        dy.matmul_transa_acc(&x, &mut grad);
        let mut expected = dy.transpose().matmul(&x);
        expected.add_assign(&Tensor::full(3, 2, 1.0));
        assert_eq!(grad, expected);
    }

    #[test]
    fn add_scaled_assign_matches_manual() {
        let mut a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.data(), &[6.0, 12.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "matmul_transb shape mismatch")]
    fn matmul_transb_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 4);
        let _ = a.matmul_transb(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn broadcast_and_sum_rows_are_inverse_ish() {
        let x = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::row_vector(&[10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(x.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn hcat_and_columns_round_trip() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 1, vec![5.0, 6.0]);
        let cat = a.hcat(&b);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.columns(0, 2), a);
        assert_eq!(cat.columns(2, 3), b);
    }

    #[test]
    fn hcat_columns_and_sum_rows_match_elementwise_definitions() {
        // Ragged widths on both sides, and zero-width / zero-row edges.
        for (rows, left, right) in [
            (3usize, 5usize, 2usize),
            (1, 1, 9),
            (4, 0, 3),
            (2, 3, 0),
            (0, 2, 2),
        ] {
            let a = irregular(rows, left, 31);
            let b = irregular(rows, right, 32);
            let cat = a.hcat(&b);
            let want = Tensor::from_fn(rows, left + right, |r, c| {
                if c < left {
                    a.get(r, c)
                } else {
                    b.get(r, c - left)
                }
            });
            assert_eq!(cat, want, "hcat {rows}x{left}|{right}");
            assert_eq!(cat.columns(0, left), a);
            assert_eq!(cat.columns(left, left + right), b);
            assert_eq!(cat.columns(left, left).shape(), (rows, 0));

            let sums = cat.sum_rows();
            assert_eq!(sums.shape(), (1, left + right));
            for c in 0..left + right {
                let mut s = 0.0f32;
                for r in 0..rows {
                    s += cat.get(r, c);
                }
                assert_eq!(sums.get(0, c).to_bits(), s.to_bits(), "sum_rows column {c}");
            }
        }
    }

    #[test]
    fn fill_clears_non_finite_entries() {
        let mut t = Tensor::from_vec(1, 4, vec![f32::NAN, f32::INFINITY, -3.0, 1.0]);
        t.fill(0.0);
        assert!(t.data().iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    }

    #[test]
    fn vcat_and_rows_slice_round_trip() {
        let a = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let cat = Tensor::vcat(&[&a, &b]);
        assert_eq!(cat.shape(), (3, 2));
        assert_eq!(cat.rows_slice(0, 1), a);
        assert_eq!(cat.rows_slice(1, 3), b);
    }

    #[test]
    fn elementwise_operators() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * &b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn map_and_scale() {
        let a = Tensor::from_vec(1, 2, vec![1.0, -2.0]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
        let mut b = a.clone();
        b.scale_assign(3.0);
        assert_eq!(b.data(), &[3.0, -6.0]);
    }

    #[test]
    fn norm_and_mean() {
        let a = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(Tensor::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn debug_is_never_empty() {
        let t = Tensor::zeros(1, 1);
        assert!(!format!("{t:?}").is_empty());
        let big = Tensor::zeros(100, 100);
        assert!(format!("{big:?}").contains("100x100"));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let t = Tensor::zeros(1, 1);
        let _ = t.get(1, 0);
    }

    /// Unblocked, unrolled scalar reference kernels for the parity
    /// tests below.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        Tensor::from_fn(a.rows(), b.cols(), |r, c| {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                let av = a.get(r, k);
                if av == 0.0 {
                    continue;
                }
                acc += av * b.get(k, c);
            }
            acc
        })
    }

    /// The lane-order accumulation contract (DESIGN.md §14), written
    /// out longhand: 8 strided partial sums over `k` (lane `j` takes
    /// the terms with `k ≡ j mod 8`, in increasing `k`), collapsed by
    /// the fixed tree reduction. This is the bit-exact spec every
    /// `matmul_transb` implementation — scalar or SIMD, any blocking,
    /// any thread count — must reproduce.
    fn naive_transb(a: &Tensor, b: &Tensor) -> Tensor {
        Tensor::from_fn(a.rows(), b.rows(), |r, c| {
            let mut lanes = [0.0f32; 8];
            for k in 0..a.cols() {
                lanes[k % 8] += a.get(r, k) * b.get(c, k);
            }
            let s04 = lanes[0] + lanes[4];
            let s15 = lanes[1] + lanes[5];
            let s26 = lanes[2] + lanes[6];
            let s37 = lanes[3] + lanes[7];
            (s04 + s26) + (s15 + s37)
        })
    }

    fn irregular(rows: usize, cols: usize, salt: u64) -> Tensor {
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Tensor::from_fn(rows, cols, |r, c| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Mix in exact zeros so the zero-skip path is exercised.
            if (r * 31 + c * 7 + (s as usize & 3)).is_multiple_of(9) {
                0.0
            } else {
                (s >> 40) as f32 / 2e6 - 4.0
            }
        })
    }

    /// Gradcheck-style parity: the register micro-kernels must be
    /// bit-identical to the naive scalar kernels on odd shapes where no
    /// dimension is a multiple of the unroll factor or the cache block.
    #[test]
    fn micro_kernels_match_scalar_on_odd_shapes() {
        for (m, k, n, salt) in [
            (1usize, 1usize, 1usize, 1u64),
            (3, 5, 7, 2),
            (33, 35, 37, 3), // one past a 32-wide block edge
            (31, 65, 2, 4),  // NR tail of 2
            (2, 7, 3, 5),    // columns below one unroll group
            (66, 33, 41, 6), // multi-row tail in matmul_into
            // A single output row is cut into near-equal strips of at
            // most 8 vectors: 5, 6, 6 + 6, 7 + 7 + 6, 8 + 8 + 8, and
            // 7 + 6 + 6 + 6 with a ragged last vector.
            (1, 9, 40, 7),
            (1, 24, 48, 8),
            (1, 24, 96, 9),
            (1, 48, 160, 10),
            (1, 48, 192, 11),
            (1, 48, 195, 12),
        ] {
            let a = irregular(m, k, salt);
            let b_t = irregular(n, k, salt ^ 0xABCD);
            let got = a.matmul_transb(&b_t);
            let want = naive_transb(&a, &b_t);
            assert_eq!(
                got.data(),
                want.data(),
                "transb micro-kernel diverged at {m}x{k} @ ({n}x{k})T"
            );
            let b = irregular(k, n, salt ^ 0x1234);
            let got = a.matmul(&b);
            let want = naive_matmul(&a, &b);
            assert_eq!(
                got.data(),
                want.data(),
                "matmul micro-kernel diverged at {m}x{k} @ {k}x{n}"
            );
        }
    }

    /// Property test for the tentpole contract at the matmul level:
    /// the SIMD and forced-scalar paths agree bit for bit on ragged
    /// shapes (rows/cols/k not multiples of the 8-lane width, empty
    /// edges). On hosts without AVX2 both runs take the scalar path and
    /// the assertion is trivially green.
    #[test]
    fn simd_and_scalar_matmuls_agree_bit_for_bit_on_ragged_shapes() {
        for (m, k, n, salt) in [
            (1usize, 1usize, 1usize, 41u64),
            (0, 5, 3, 42), // empty row edge
            (3, 0, 4, 43), // empty k: all dots reduce pure zeros
            (5, 7, 9, 44),
            (8, 8, 8, 45),
            (9, 17, 33, 46),
            (33, 35, 37, 47),
            (66, 63, 41, 48),
            (1, 24, 96, 49),  // the single-row strips: 6 + 6,
            (1, 48, 195, 50), // 7 + 6 + 6 + 6 with a ragged tail
        ] {
            let a = irregular(m, k, salt);
            let b_t = irregular(n, k, salt ^ 0x5EED);
            let b = irregular(k, n, salt ^ 0xF00D);
            let grad_a = irregular(m, n, salt ^ 0x0DD);
            let (native, scalar) = crate::kernels::tests::both_paths(|| {
                let mut acc = Tensor::zeros(k, n);
                a.matmul_transa_acc(&grad_a, &mut acc);
                (a.matmul_transb(&b_t), a.matmul(&b), acc)
            });
            for (which, x, y) in [
                ("transb", &native.0, &scalar.0),
                ("matmul", &native.1, &scalar.1),
                ("transa_acc", &native.2, &scalar.2),
            ] {
                assert_eq!(x.shape(), y.shape());
                for (p, q) in x.data().iter().zip(y.data()) {
                    assert_eq!(
                        p.to_bits(),
                        q.to_bits(),
                        "{which} diverged between SIMD and scalar at {m}x{k}x{n}"
                    );
                }
            }
            // And the SIMD path must still meet the longhand spec.
            assert_eq!(native.0.data(), naive_transb(&a, &b_t).data());
        }
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let a = irregular(7, 5, 21);
        let mut out = Tensor::full(2, 2, 9.0);
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
    }

    #[test]
    fn add_row_broadcast_assign_matches_allocating_version() {
        let a = irregular(6, 9, 22);
        let bias = irregular(1, 9, 23);
        let want = a.add_row_broadcast(&bias);
        let mut got = a.clone();
        got.add_row_broadcast_assign(&bias);
        assert_eq!(got.data(), want.data());
    }

    /// Storage is aligned however a tensor got it, growth in place
    /// included, and where it sits is no part of a tensor's value.
    #[test]
    fn storage_is_aligned_and_its_offset_is_not_part_of_equality() {
        let phase = |t: &Tensor| t.data().as_ptr() as usize % crate::aligned::ALIGN;
        let a = irregular(5, 7, 25);
        let mut grown = Tensor::zeros(1, 3);
        grown.copy_from(&a); // `reshape_for` past the capacity
        let wide = irregular(7, 33, 26);
        let mut product = Tensor::zeros(1, 1);
        a.matmul_into(&wide, &mut product);
        let loaded = crate::serialize::read_tensors(&crate::serialize::write_tensors(&[("a", &a)]))
            .expect("round trip");
        for t in [
            &a,
            &a.clone().clone(),
            &grown,
            &product,
            &loaded[0].1,
            &a.transpose(),
            &a.hcat(&a),
            &a.columns(1, 4),
            &a.rows_slice(1, 3),
            &Tensor::vcat(&[&a, &a]),
            &a.map(f32::abs),
            &(&a + &a),
            &Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]),
            &Tensor::row_vector(&[1.0; 9]),
            &Tensor::full(3, 3, 2.0),
        ] {
            assert_eq!(phase(t), 0, "{t:?}");
        }
        assert_eq!(grown, a);
        assert_eq!(loaded[0].1, a);

        let shifted = |offset| Tensor {
            rows: 5,
            cols: 7,
            data: AlignedVec::with_offset(a.data(), offset),
        };
        assert_eq!(shifted(1), shifted(5));
        assert_eq!(shifted(3), a);
    }

    #[test]
    fn copy_from_reuses_buffer() {
        let a = irregular(4, 3, 24);
        let mut b = Tensor::zeros(10, 10);
        b.copy_from(&a);
        assert_eq!(b, a);
    }
}
