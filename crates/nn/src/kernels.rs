//! The f32 kernel layer: every kernel written once, over the `Lane`
//! trait (DESIGN.md §14).
//!
//! `Lane` *is* the numeric contract: eight f32 lanes and a closed set
//! of operations, each a single correctly-rounded IEEE-754 operation
//! per lane — separate multiply and add (**no FMA**), `max`/`min` with
//! `_mm256_max_ps` semantics, negation as a sign-bit flip. Two types
//! implement it: `Portable` (a `[f32; 8]`, plain Rust) and `Avx2` (a
//! `__m256`). Every kernel body in `generic` is one
//! `#[inline(always)]` function over `L: Lane`; the public entry points
//! instantiate it at `Portable`, or — behind runtime detection — at
//! `Avx2` inside one `#[target_feature(enable = "avx2")]` wrapper per
//! kernel. Both instantiations therefore execute the same operations on
//! the same values in the same order, and agree bit for bit *because
//! they are the same source*, not because two copies are tested against
//! each other.
//!
//! What the bodies fix, beyond the per-lane operations:
//!
//! * **Dot products** ([`dot`], [`dot_rows`]): lane `j` accumulates the
//!   terms with index `≡ j (mod 8)` in increasing order, the
//!   sub-[`LANES`] tail folds into lanes `0..tail`, and one fixed tree
//!   (`tree_reduce`) collapses the lanes — in scalar arithmetic, on
//!   every instantiation.
//! * **Element-wise sweeps** ([`axpy`], [`add2_bias_rows`], [`relu`],
//!   [`bn_affine`], the LSTM gate sweeps): one fixed expression per
//!   output element; a ragged tail is a partial load and store around
//!   the same expression.
//! * **The accumulate-GEMM** ([`gemm_acc`]; [`transa_acc`] and
//!   `Tensor::matmul_into` are its two stride modes): every output
//!   element is the chain `out ← out + a·b` over increasing `k`,
//!   skipping `a == 0.0`. A tile of running values waits in registers
//!   between updates instead of in `out`; that changes where a value
//!   lives, never the updates or their order. Where no input can tell
//!   a skipped term from an added one — every `b` finite, no `out`
//!   start value `-0.0` or NaN — the tile adds it instead of branching
//!   (`Vouched`).
//!
//! A `#[target_feature]` function cannot inline into a caller compiled
//! for the base target, so each public kernel covers a whole product,
//! column block, batch or — `lstm_seq_eval` — sequence per call: one
//! dispatch, with every lane operation inlined inside the wrapper.
//!
//! What the bodies do *not* fix is scheduling: how many passes a sweep
//! makes, how a GEMM's columns are cut into strips, how much one
//! dispatch covers. Those move no bit as long as each element keeps its
//! expression and its chain order (DESIGN.md §14, "Scheduling is
//! outside the contract").
//!
//! Dispatch can be forced to `Portable` for A/B measurement and
//! cross-checking: `ADRIAS_FORCE_SCALAR=1` in the environment (read
//! once), or [`set_force_scalar`] in-process (the bench harness uses it
//! to derive the `simd_*_speedup_x` keys). Flipping the switch never
//! changes a result — CI byte-compares a forced run against the native
//! run end to end.
//!
//! **Adding an ISA** (AVX-512 at 8 lanes, NEON as two `float32x4_t`):
//! 1. add a module like `avx2` holding a private lane type;
//! 2. `impl Lane` for it, one intrinsic per method;
//! 3. list the kernels in its `wrappers!` block under the new
//!    `#[target_feature]`;
//! 4. add its detection beside `has_avx2` and its arm to `at!`;
//! 5. add it to `tests::lanes` — the oracle table then covers it.
//!
//! A 16-lane AVX-512 `Lane` is not on that list: [`LANES`] is part of
//! the dot-product contract, so it would mean a trait generic over its
//! width, and it was measured first — on the development host the
//! canonical sigmoid chain runs 1.04–1.09× faster in `zmm` than in
//! `ymm` registers (one 512-bit FP pipe against two 256-bit ones). Not
//! worth generalising the trait for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Lane count of the contract: 8 f32 (one AVX2 `__m256`). Fixed on
/// every host, so the dot-product reduction shape never varies.
pub const LANES: usize = 8;

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);
static ENV_FORCE_SCALAR: OnceLock<bool> = OnceLock::new();

fn env_force_scalar() -> bool {
    *ENV_FORCE_SCALAR.get_or_init(|| std::env::var("ADRIAS_FORCE_SCALAR").is_ok_and(|v| v == "1"))
}

/// Forces (or releases) the portable lane for this process, overriding
/// feature detection. The bench harness flips this to measure
/// `simd_*_speedup_x` in one process; results are bit-identical either
/// way, so toggling is always safe.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Whether this CPU can run the [`avx2`] wrappers (detected once).
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static HAS_AVX2: OnceLock<bool> = OnceLock::new();
        *HAS_AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX2 lane is live: the CPU has AVX2 and neither
/// `ADRIAS_FORCE_SCALAR=1` nor [`set_force_scalar`] is in effect.
pub fn simd_active() -> bool {
    has_avx2() && !env_force_scalar() && !FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Eight f32 lanes and the operations the kernels are written in.
///
/// Every arithmetic method is one correctly-rounded IEEE-754 operation
/// per lane, so any two implementations agree bit for bit on every
/// kernel. All methods are safe: memory access goes through references
/// that already prove their bounds, and an implementation that needs an
/// ISA extension keeps its type private to the module whose
/// `#[target_feature]` wrappers are its only users (see [`avx2`]).
pub(crate) trait Lane: Copy {
    /// All lanes `x`.
    fn splat(x: f32) -> Self;
    /// Lane `j` is `xs[j]`.
    fn load(xs: &[f32; LANES]) -> Self;
    /// `xs[j]` becomes lane `j`.
    fn store(self, xs: &mut [f32; LANES]);
    /// Ragged-tail load: lane `j` is `xs[j]` for `j < xs.len()`
    /// (at most [`LANES`]), `+0.0` beyond.
    fn load_head(xs: &[f32]) -> Self;
    /// Ragged-tail store: writes lanes `0..xs.len()` (at most
    /// [`LANES`]) and nothing else.
    fn store_head(self, xs: &mut [f32]);
    /// `self + o`.
    fn add(self, o: Self) -> Self;
    /// `self − o`.
    fn sub(self, o: Self) -> Self;
    /// `self · o`, never fused with a following add.
    fn mul(self, o: Self) -> Self;
    /// `self / o`.
    fn div(self, o: Self) -> Self;
    /// `if self > o { self } else { o }` — `_mm256_max_ps`: `o` when
    /// either side is NaN, and for `max(-0.0, +0.0)`.
    fn max(self, o: Self) -> Self;
    /// `if self < o { self } else { o }` — `_mm256_min_ps`.
    fn min(self, o: Self) -> Self;
    /// Sign-bit flip, the exact bit operation of scalar `-x`.
    fn neg(self) -> Self;
    /// `2^k` for integer-valued lanes `k ∈ [-126, 127]`, built in the
    /// exponent field.
    fn exp2i(self) -> Self;

    /// The lanes as an array, for the scalar tail fold and reduction.
    #[inline(always)]
    fn to_array(self) -> [f32; LANES] {
        let mut lanes = [0.0; LANES];
        self.store(&mut lanes);
        lanes
    }
}

/// The portable lane: eight f32 in an array, every operation a plain
/// per-lane loop the compiler is free to vectorise at the base target's
/// width.
#[derive(Clone, Copy)]
pub(crate) struct Portable([f32; LANES]);

impl Portable {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        let mut lanes = self.0;
        for (x, y) in lanes.iter_mut().zip(o.0) {
            *x = f(*x, y);
        }
        Self(lanes)
    }
}

impl Lane for Portable {
    #[inline(always)]
    fn splat(x: f32) -> Self {
        Self([x; LANES])
    }
    #[inline(always)]
    fn load(xs: &[f32; LANES]) -> Self {
        Self(*xs)
    }
    #[inline(always)]
    fn store(self, xs: &mut [f32; LANES]) {
        *xs = self.0;
    }
    #[inline(always)]
    fn load_head(xs: &[f32]) -> Self {
        // Lane by lane: a variable-length copy would compile to a
        // `memcpy` call per vector.
        Self(std::array::from_fn(|j| xs.get(j).copied().unwrap_or(0.0)))
    }
    #[inline(always)]
    fn store_head(self, xs: &mut [f32]) {
        for (j, lane) in self.0.into_iter().enumerate() {
            if let Some(x) = xs.get_mut(j) {
                *x = lane;
            }
        }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |x, y| x + y)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |x, y| x - y)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |x, y| x * y)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self.zip(o, |x, y| x / y)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        self.zip(o, |x, y| if x > y { x } else { y })
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        self.zip(o, |x, y| if x < y { x } else { y })
    }
    #[inline(always)]
    fn neg(self) -> Self {
        Self(self.0.map(|x| -x))
    }
    #[inline(always)]
    fn exp2i(self) -> Self {
        // `k` is integer-valued, so the truncating cast is exact and
        // matches a round-to-nearest vector conversion.
        Self(
            self.0
                .map(|k| f32::from_bits((((k as i32) + 127) << 23) as u32)),
        )
    }
}

/// The AVX2 lane and its kernel wrappers. `Avx2` is private to this
/// module, so the only code that can name the AVX2 instantiation of a
/// kernel is a wrapper below — each compiled with
/// `#[target_feature(enable = "avx2")]`, which makes calling it
/// `unsafe` outside such a function. That call-site obligation ("AVX2
/// was detected") is the layer's single safety contract; `at!`
/// discharges it.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::{
        __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_castsi256_ps, _mm256_cvtps_epi32,
        _mm256_div_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_set1_epi32,
        _mm256_set1_ps, _mm256_slli_epi32, _mm256_storeu_ps, _mm256_sub_ps, _mm256_xor_ps,
    };

    use super::{generic, GateCaches, Lane, SeqArenas, StepCaches, Vouched, LANES};

    #[derive(Clone, Copy)]
    struct Avx2(__m256);

    /// A mask enabling exactly the first `min(active, LANES)` lanes.
    #[inline(always)]
    #[allow(unsafe_code)]
    fn lane_mask(active: usize) -> __m256i {
        static MASKS: [i32; 2 * LANES] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        let window: &[i32; LANES] = MASKS[LANES - active.min(LANES)..]
            .first_chunk()
            .expect("window starts at most LANES in");
        // SAFETY: AVX2 by the module contract; reads the 32 bytes of
        // `window`.
        unsafe { _mm256_loadu_si256(std::ptr::from_ref(window).cast()) }
    }

    // SAFETY (every block below): the intrinsics need AVX2, which holds
    // by the module contract — these methods only ever run inlined into
    // a `#[target_feature(enable = "avx2")]` wrapper. The pointer
    // intrinsics touch exactly the `[f32; LANES]` behind the reference
    // they are given, or, masked, the first `min(len, LANES)` elements
    // of the slice — a disabled lane is neither read nor written.
    #[allow(unsafe_code)]
    impl Lane for Avx2 {
        #[inline(always)]
        fn splat(x: f32) -> Self {
            Self(unsafe { _mm256_set1_ps(x) })
        }
        #[inline(always)]
        fn load(xs: &[f32; LANES]) -> Self {
            Self(unsafe { _mm256_loadu_ps(xs.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, xs: &mut [f32; LANES]) {
            unsafe { _mm256_storeu_ps(xs.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn load_head(xs: &[f32]) -> Self {
            Self(unsafe { _mm256_maskload_ps(xs.as_ptr(), lane_mask(xs.len())) })
        }
        #[inline(always)]
        fn store_head(self, xs: &mut [f32]) {
            unsafe { _mm256_maskstore_ps(xs.as_mut_ptr(), lane_mask(xs.len()), self.0) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Self(unsafe { _mm256_add_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Self(unsafe { _mm256_sub_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Self(unsafe { _mm256_mul_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            Self(unsafe { _mm256_div_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            Self(unsafe { _mm256_max_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn min(self, o: Self) -> Self {
            Self(unsafe { _mm256_min_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            Self(unsafe { _mm256_xor_ps(self.0, _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN))) })
        }
        #[inline(always)]
        fn exp2i(self) -> Self {
            // Integer-valued lanes: the round-to-nearest conversion is
            // exact.
            Self(unsafe {
                let biased = _mm256_add_epi32(_mm256_cvtps_epi32(self.0), _mm256_set1_epi32(127));
                _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23))
            })
        }
    }

    /// One `#[target_feature]` wrapper per kernel around its
    /// [`generic`] body at `Avx2`.
    macro_rules! wrappers {
        ($(fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?;)*) => {$(
            #[target_feature(enable = "avx2")]
            pub(super) fn $name($($arg: $ty),*) $(-> $ret)? {
                generic::$name::<Avx2>($($arg),*)
            }
        )*};
    }

    wrappers! {
        fn dot(a: &[f32], b: &[f32]) -> f32;
        fn dot_rows(a: &[f32], b_rows: &[f32], out: &mut [f32]);
        fn axpy(alpha: f32, x: &[f32], y: &mut [f32]);
        fn gemm_acc(
            a: &[f32],
            a_strides: (usize, usize),
            b: &[f32],
            out: &mut [f32],
            shape: (usize, usize, usize),
            vouched: Vouched,
        );
        fn all_finite(xs: &[f32]) -> bool;
        fn add2_bias_rows(z: &mut [f32], w: &[f32], b: &[f32]);
        fn relu(xs: &mut [f32]);
        fn bn_affine(row: &mut [f32], mean: &[f32], inv_std: &[f32], gamma: &[f32], beta: &[f32]);
        fn lstm_gates_train_batch(
            z: &[f32],
            c_prev: &[f32],
            hidden: usize,
            out: &mut GateCaches<'_>,
        );
        fn lstm_gates_eval_batch(
            z: &[f32],
            c_prev: &[f32],
            hidden: usize,
            c_out: &mut [f32],
            h_out: &mut [f32],
        );
        fn lstm_gates_backward_batch(
            cache: &StepCaches<'_>,
            grad_h: Option<&[f32]>,
            d_h_next: &[f32],
            d_c_next: &mut [f32],
            hidden: usize,
            dz: &mut [f32],
        );
        fn lstm_seq_eval(
            w_hh_t: &[f32],
            w_hh_finite: bool,
            bias: &[f32],
            hidden: usize,
            seq: &mut SeqArenas<'_>,
        );
    }

    // Each tile of the accumulate-GEMM by name, for the oracle table.
    #[cfg(test)]
    wrappers! {
        fn gemm_tiles(
            a: &[f32],
            a_strides: (usize, usize),
            b: &[f32],
            out: &mut [f32],
            shape: (usize, usize, usize),
            skip: bool,
        );
    }
}

/// Runs `generic::$kernel` at the AVX2 lane when `$avx2`, at
/// [`Portable`] otherwise. `$avx2` may be true only where [`has_avx2`]
/// is: the entry points pass [`simd_active`], the tests a lane list
/// filtered by detection.
macro_rules! at {
    ($avx2:expr, $kernel:ident($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        let result = if $avx2 {
            // SAFETY: AVX2 was detected at runtime (the macro's
            // precondition), the one requirement of the `avx2` wrappers.
            unsafe { avx2::$kernel($($arg),*) }
        } else {
            generic::$kernel::<Portable>($($arg),*)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let result = {
            let _ = $avx2;
            generic::$kernel::<Portable>($($arg),*)
        };
        result
    }};
}

/// The canonical fixed-shape lane reduction: pairwise over a stride of
/// 4, then 2, then 1 — the element flow of an AVX2 horizontal
/// reduction, executed in scalar arithmetic by every instantiation.
#[inline]
fn tree_reduce(s: [f32; LANES]) -> f32 {
    let s04 = s[0] + s[4];
    let s15 = s[1] + s[5];
    let s26 = s[2] + s[6];
    let s37 = s[3] + s[7];
    (s04 + s26) + (s15 + s37)
}

/// Folds the sub-[`LANES`] tail of a dot product into the lane
/// accumulators (lane `j` takes tail element `j`), then reduces.
#[inline]
fn tail_reduce(mut lanes: [f32; LANES], a_tail: &[f32], b_tail: &[f32]) -> f32 {
    for ((l, &x), &y) in lanes.iter_mut().zip(a_tail).zip(b_tail) {
        *l += x * y;
    }
    tree_reduce(lanes)
}

/// Canonical lane-ordered dot product `Σ a[i]·b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    at!(simd_active(), dot(a, b))
}

/// Row sweep of canonical dot products: `out[c] = dot(a, b_rows[c])`
/// for every row `c` of the packed `out.len() × a.len()` right block —
/// the `matmul_transb` micro-kernel. Columns go four at a time so four
/// independent accumulator chains overlap; each output element still
/// follows the single-accumulator lane order of [`dot`].
///
/// # Panics
///
/// Panics if `b_rows` is not `out.len() × a.len()`.
pub fn dot_rows(a: &[f32], b_rows: &[f32], out: &mut [f32]) {
    assert_eq!(b_rows.len(), out.len() * a.len(), "dot_rows shape mismatch");
    at!(simd_active(), dot_rows(a, b_rows, out))
}

/// `y += alpha · x`, element-wise: one multiply then one add per
/// output element. The plain-loop spec of the accumulate-GEMM — a
/// sequence of `axpy` calls over increasing `k` is what [`gemm_acc`]
/// computes.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    at!(simd_active(), axpy(alpha, x, y))
}

/// The accumulate-GEMM `out[r][c] += Σ_k a(r, k) · b[k][c]` for
/// row-major `b` (`k × n`) and `out` (`m × n`); `shape` is `(m, k, n)`
/// and `a(r, k)` is `a[r · a_strides.0 + k · a_strides.1]`, so one
/// kernel serves a row-major `m × k` left operand (strides `(k, 1)`,
/// `Tensor::matmul_into`) and a transposed `k × m` one (strides
/// `(1, m)`, [`transa_acc`]).
///
/// Per output element the sequence is fixed: start from the value in
/// `out`, then for increasing `k` with `a(r, k) != 0.0`, one multiply
/// and one add. The zero-skip is observable (`0·∞` is NaN, and
/// `-0.0 + 0·b` is `+0.0` where skipping leaves `-0.0`), so it is part
/// of the contract. The body keeps a tile of output rows × column
/// vectors in registers across the whole `k` loop — loaded once, stored
/// once, a ragged last column vector through a partial load and store —
/// which moves no bit: the element sees the same start value and the
/// same updates in the same order.
///
/// With `m ≥ 8` rows the kernel first checks both operands the skip
/// guards against: when every element of `b` is finite and no element
/// of `out` is `-0.0` or NaN, it runs a tile without the branch (see
/// `Vouched` for why no bit can tell). Below 8 rows the scan would
/// cost more than the branch, and the tile keeps it.
///
/// # Panics
///
/// Panics if `b` or `out` do not match `shape`, or `a` is too short
/// for the last coefficient of a tile (each tile checks its own range
/// before its `k` loop).
pub fn gemm_acc(
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
    shape: (usize, usize, usize),
) {
    gemm_acc_vouched(a, a_strides, b, out, shape, Vouched::default());
}

/// What the caller of [`gemm_acc_vouched`] knows about its operands by
/// construction; the kernel checks what it is not told (when `m ≥ 8`).
///
/// Together the two facts make the zero-skip invisible, so the tile may
/// add `a·b` where the contract skips it. A skipped term is `0·b`,
/// which for finite `b` is `±0`. A running value that is neither `-0.0`
/// nor NaN is unchanged by adding `±0`; it cannot become `-0.0` later,
/// since a sum is `-0.0` only when both addends are; and one that turns
/// NaN on the way stays NaN. Every element therefore ends on the bits
/// the skipping chain gives.
#[derive(Clone, Copy, Default)]
pub(crate) struct Vouched {
    /// Every element of `b` is finite.
    pub(crate) b_finite: bool,
    /// No element of `out` is `-0.0` or NaN.
    pub(crate) out_clean: bool,
}

/// [`gemm_acc`] with what the caller vouches for: `Tensor::matmul_into`
/// zero-fills `out`, and an `Lstm` checks its weights once when it
/// transposes them.
pub(crate) fn gemm_acc_vouched(
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
    shape: (usize, usize, usize),
    vouched: Vouched,
) {
    let (m, k, n) = shape;
    assert!(
        b.len() == k * n && out.len() == m * n,
        "gemm_acc shape mismatch: {m}x{k} @ {k}x{n}"
    );
    at!(
        simd_active(),
        gemm_acc(a, a_strides, b, out, shape, vouched)
    )
}

/// Whether every element is finite — the check behind
/// [`Vouched::b_finite`] for a caller that keeps its operand.
pub(crate) fn all_finite(xs: &[f32]) -> bool {
    at!(simd_active(), all_finite(xs))
}

/// The gradient-accumulation GEMM `out += aᵀ·b` for row-major `a`
/// (`k × m`), `b` (`k × n`) and `out` (`m × n`); `shape` is
/// `(k, m, n)`. [`gemm_acc`] with the left operand read transposed.
///
/// # Panics
///
/// Panics if the slice lengths are not `k·m`, `k·n` and `m·n`.
pub fn transa_acc(a: &[f32], b: &[f32], out: &mut [f32], shape: (usize, usize, usize)) {
    let (k, m, n) = shape;
    assert_eq!(a.len(), k * m, "transa_acc left operand is not {k}x{m}");
    gemm_acc(a, (1, m), b, out, (m, k, n));
}

/// The LSTM pre-activation fuse `z = (z + w) + b` over a whole batch:
/// every `b.len()`-wide row of `z` adds its row of `w`, then the shared
/// bias row, with explicit left association.
///
/// # Panics
///
/// Panics if `z` and `w` differ in length or are not a whole number of
/// `b.len()`-wide rows.
pub fn add2_bias_rows(z: &mut [f32], w: &[f32], b: &[f32]) {
    assert_eq!(z.len(), w.len(), "add2_bias_rows length mismatch");
    assert!(
        !b.is_empty() && z.len().is_multiple_of(b.len()),
        "add2_bias_rows rows must be bias-width"
    );
    at!(simd_active(), add2_bias_rows(z, w, b))
}

/// Canonical ReLU sweep `x = max(x, 0)` with `_mm256_max_ps` semantics
/// (`-0.0` maps to `+0.0`).
pub fn relu(xs: &mut [f32]) {
    at!(simd_active(), relu(xs))
}

/// The batch-norm eval affine `x = γ·(x − μ)·inv_std + β`, element-wise
/// with the exact association of the reference layer (`((γ·(x − μ))·s)
/// + β`).
///
/// # Panics
///
/// Panics if the parameter rows differ from `row` in length.
pub fn bn_affine(row: &mut [f32], mean: &[f32], inv_std: &[f32], gamma: &[f32], beta: &[f32]) {
    let n = row.len();
    assert!(
        mean.len() == n && inv_std.len() == n && gamma.len() == n && beta.len() == n,
        "bn_affine length mismatch"
    );
    at!(simd_active(), bn_affine(row, mean, inv_std, gamma, beta))
}

/// Mutable destinations of a training-mode LSTM gate sweep: the BPTT
/// caches plus the new cell and hidden states, each `batch` rows of
/// `hidden`.
pub struct GateCaches<'a> {
    /// Input gate `i = σ(z_i)`.
    pub i: &'a mut [f32],
    /// Forget gate `f = σ(z_f)`.
    pub f: &'a mut [f32],
    /// Candidate `g = tanh(z_g)`.
    pub g: &'a mut [f32],
    /// Output gate `o = σ(z_o)`.
    pub o: &'a mut [f32],
    /// New cell state `c = f·c_prev + i·g`.
    pub c: &'a mut [f32],
    /// `tanh(c)`.
    pub tanh_c: &'a mut [f32],
    /// Hidden output `h = o·tanh(c)`.
    pub h: &'a mut [f32],
}

/// Asserts the batch shape the forward gate sweeps share: `c_prev` is
/// whole `hidden`-wide rows and `z` carries `4·hidden` per row.
fn assert_gate_batch(z: &[f32], c_prev: &[f32], hidden: usize) {
    assert!(hidden > 0, "hidden width must be non-zero");
    assert!(
        c_prev.len().is_multiple_of(hidden),
        "c_prev must be whole hidden rows"
    );
    assert_eq!(
        z.len(),
        4 * c_prev.len(),
        "gate batch must be 4x hidden per row"
    );
}

/// Fused training-mode LSTM gate sweep over a whole batch: `z` holds
/// `batch` rows of `4·hidden` pre-activations (gate order
/// `i, f, g, o`), `c_prev` and every cache slice hold `batch` rows of
/// `hidden`. Computes all four gates, the new cell state, `tanh(c)`
/// and the hidden output, writing every BPTT cache — in two passes per
/// row (the gates and `c`, then `tanh(c)` and `h`), so that the
/// `tanh(c)` chains overlap instead of each waiting at the end of its
/// gates'.
///
/// # Panics
///
/// Panics if `hidden` is zero or any slice is not a whole number of
/// rows of its expected width.
pub fn lstm_gates_train_batch(z: &[f32], c_prev: &[f32], hidden: usize, out: &mut GateCaches<'_>) {
    assert_gate_batch(z, c_prev, hidden);
    let bh = c_prev.len();
    assert!(
        [
            out.i.len(),
            out.f.len(),
            out.g.len(),
            out.o.len(),
            out.c.len(),
            out.tanh_c.len(),
            out.h.len()
        ] == [bh; 7],
        "gate cache length mismatch"
    );
    at!(
        simd_active(),
        lstm_gates_train_batch(z, c_prev, hidden, out)
    )
}

/// Eval-mode [`lstm_gates_train_batch`]: the same per-element
/// expressions, writing only the new cell and hidden rows.
///
/// # Panics
///
/// Panics if `hidden` is zero or any slice is not a whole number of
/// rows of its expected width.
pub fn lstm_gates_eval_batch(
    z: &[f32],
    c_prev: &[f32],
    hidden: usize,
    c_out: &mut [f32],
    h_out: &mut [f32],
) {
    assert_gate_batch(z, c_prev, hidden);
    assert!(
        c_out.len() == c_prev.len() && h_out.len() == c_prev.len(),
        "gate output length mismatch"
    );
    at!(
        simd_active(),
        lstm_gates_eval_batch(z, c_prev, hidden, c_out, h_out)
    )
}

/// The arenas of one eval-mode LSTM layer over a whole sequence
/// ([`lstm_seq_eval`]), `steps × batch` rows.
pub(crate) struct SeqArenas<'a> {
    /// In: the input projections `x_t·W_ihᵀ`, step `t` one
    /// `batch × 4·hidden` slot. Out: the pre-activations `z_t`.
    pub zx: &'a mut [f32],
    /// Staging for one step's recurrent projection (`batch × 4·hidden`).
    pub zh: &'a mut [f32],
    /// Hidden states, `steps + 1` slots of `batch × hidden`: slot 0 is
    /// the initial state (read), slot `t + 1` the output of step `t`
    /// (written).
    pub h: &'a mut [f32],
    /// The initial cell state (`batch × hidden`); it and `c_next` take
    /// turns holding the running one, so both are clobbered.
    pub c: &'a mut [f32],
    /// The other cell-state buffer.
    pub c_next: &'a mut [f32],
}

/// Every step of an eval-mode LSTM layer in one dispatch: for each
/// step `t`, the recurrent projection `zh = h_{t-1}·W_hhᵀ` ([`gemm_acc`]
/// on a zeroed `zh`, `w_hh_t` being `hidden × 4·hidden`), the fuse
/// `z_t = (zx_t + zh) + b` ([`add2_bias_rows`]) and the gate sweep
/// ([`lstm_gates_eval_batch`]) — those kernels' bodies on those
/// operands in that order, so every value is what the step-by-step
/// composition of the public kernels writes. What it saves is the
/// three `#[target_feature]` crossings per step with their shape
/// checks — ≈ 10 ns of a step, which shows on a 24-wide layer and not
/// on a 48-wide one — and the step loop as a second thing to maintain
/// in `lstm.rs`.
///
/// `w_hh_finite` is [`Vouched::b_finite`] for every recurrent product
/// (`zh` is zeroed in here, so its start values are clean): the
/// `LstmScratch` checks its weights once, when it is built, and with
/// that a single-row product drops the zero-skip too.
///
/// # Panics
///
/// Panics if `hidden` is zero or any slice is not whole rows of the
/// width documented on [`SeqArenas`].
pub(crate) fn lstm_seq_eval(
    w_hh_t: &[f32],
    w_hh_finite: bool,
    bias: &[f32],
    hidden: usize,
    seq: &mut SeqArenas<'_>,
) {
    assert!(hidden > 0, "hidden width must be non-zero");
    let (hw, bh) = (4 * hidden, seq.c.len());
    assert!(
        bh > 0 && bh.is_multiple_of(hidden) && seq.c_next.len() == bh,
        "cell state must be whole hidden rows"
    );
    assert!(
        w_hh_t.len() == hidden * hw && bias.len() == hw && seq.zh.len() == 4 * bh,
        "recurrent projection shape mismatch"
    );
    assert!(
        seq.zx.len().is_multiple_of(4 * bh) && seq.h.len() == seq.zx.len() / 4 + bh,
        "sequence arenas must hold whole steps"
    );
    at!(
        simd_active(),
        lstm_seq_eval(w_hh_t, w_hh_finite, bias, hidden, seq)
    )
}

/// The forward caches one BPTT step reads back: the four gates,
/// `tanh(c_t)` and the previous cell state, each `batch` rows of
/// `hidden`.
pub struct StepCaches<'a> {
    /// Input gate `i`.
    pub i: &'a [f32],
    /// Forget gate `f`.
    pub f: &'a [f32],
    /// Candidate `g`.
    pub g: &'a [f32],
    /// Output gate `o`.
    pub o: &'a [f32],
    /// `tanh(c_t)`.
    pub tanh_c: &'a [f32],
    /// Previous cell state `c_{t-1}`.
    pub c_prev: &'a [f32],
}

/// Fused whole-batch backward gate sweep of one BPTT step: from the
/// step's forward caches, the hidden-state gradient
/// (`grad_h + d_h_next`; `grad_h = None` is a row of `+0.0`s, the
/// unsupervised steps of a last-state readout) and the cell gradient
/// `d_c_next` flowing back from step `t + 1`, writes the `batch × 4·hidden`
/// pre-activation gradient `dz` (gate order `i, f, g, o`) and replaces
/// `d_c_next` with the cell gradient for step `t − 1`.
///
/// One fixed expression per output, in the association of the
/// tensor-op BPTT it replaced: `d_h = grad_h + d_h_next`,
/// `d_c = (d_h·o)·(1 − tc²) + d_c_next`, sigmoid gates `(d·s)·(1 − s)`,
/// the candidate `d·(1 − g²)`.
///
/// # Panics
///
/// Panics if `hidden` is zero or any slice is not `batch` rows of its
/// expected width.
pub fn lstm_gates_backward_batch(
    cache: &StepCaches<'_>,
    grad_h: Option<&[f32]>,
    d_h_next: &[f32],
    d_c_next: &mut [f32],
    hidden: usize,
    dz: &mut [f32],
) {
    assert!(hidden > 0, "hidden width must be non-zero");
    let bh = d_c_next.len();
    assert!(
        bh.is_multiple_of(hidden),
        "d_c_next must be whole hidden rows"
    );
    assert_eq!(dz.len(), 4 * bh, "dz must be 4x hidden per row");
    assert!(
        [
            cache.i.len(),
            cache.f.len(),
            cache.g.len(),
            cache.o.len(),
            cache.tanh_c.len(),
            cache.c_prev.len(),
            d_h_next.len(),
            grad_h.map_or(bh, <[f32]>::len)
        ] == [bh; 8],
        "gate gradient length mismatch"
    );
    at!(
        simd_active(),
        lstm_gates_backward_batch(cache, grad_h, d_h_next, d_c_next, hidden, dz)
    )
}

/// The kernel bodies, each written once over `L: Lane`. Everything is
/// `#[inline(always)]` so that an instantiation compiles as one
/// function with its wrapper's target features; a body that stayed
/// out of line would be built for the base target and pass every lane
/// value through memory.
mod generic {
    use std::array::from_fn;

    use super::{tail_reduce, GateCaches, Lane, SeqArenas, StepCaches, LANES};
    use crate::vmath::{sigmoid, tanh};

    #[inline(always)]
    fn chunk(xs: &[f32], at: usize) -> &[f32; LANES] {
        xs[at..].first_chunk().expect("a whole vector in bounds")
    }

    #[inline(always)]
    fn chunk_mut(xs: &mut [f32], at: usize) -> &mut [f32; LANES] {
        xs[at..]
            .first_chunk_mut()
            .expect("a whole vector in bounds")
    }

    /// The element-wise driver: `outs[j][e] = f(ins[..][e], outs[..][e])[j]`
    /// for every element `e`, whole vectors first — two per iteration,
    /// so two independent dependency chains overlap — then one partial
    /// load and store for a ragged tail (its dead lanes compute on
    /// `+0.0` and are never stored).
    #[inline(always)]
    fn sweep<L: Lane, const I: usize, const O: usize>(
        ins: [&[f32]; I],
        outs: [&mut [f32]; O],
        f: impl Fn([L; I], [L; O]) -> [L; O],
    ) {
        let n = outs[0].len();
        assert!(
            ins.iter().all(|s| s.len() == n) && outs.iter().all(|s| s.len() == n),
            "sweep length mismatch"
        );
        // (whole vectors, ragged tail) of every slice; equal lengths
        // make every `[v]` below provably in bounds.
        let ins = ins.map(|s| s.as_chunks::<LANES>());
        let mut outs = outs.map(|s| s.as_chunks_mut::<LANES>());
        let vectors = n / LANES;
        for pair in 0..vectors / 2 {
            let v = 2 * pair;
            let x0 = from_fn(|j| L::load(&ins[j].0[v]));
            let x1 = from_fn(|j| L::load(&ins[j].0[v + 1]));
            let y0 = from_fn(|j| L::load(&outs[j].0[v]));
            let y1 = from_fn(|j| L::load(&outs[j].0[v + 1]));
            let (r0, r1) = (f(x0, y0), f(x1, y1));
            for j in 0..O {
                r0[j].store(&mut outs[j].0[v]);
                r1[j].store(&mut outs[j].0[v + 1]);
            }
        }
        if !vectors.is_multiple_of(2) {
            let v = vectors - 1;
            let x = from_fn(|j| L::load(&ins[j].0[v]));
            let y = from_fn(|j| L::load(&outs[j].0[v]));
            for (r, out) in f(x, y).into_iter().zip(&mut outs) {
                r.store(&mut out.0[v]);
            }
        }
        if !n.is_multiple_of(LANES) {
            let x = from_fn(|j| L::load_head(ins[j].1));
            let y = from_fn(|j| L::load_head(outs[j].1));
            for (r, out) in f(x, y).into_iter().zip(&mut outs) {
                r.store_head(out.1);
            }
        }
    }

    /// `C` canonical dot products of `a` against the rows `bs`, their
    /// accumulator chains interleaved: lane `j` of each sums its terms
    /// `≡ j (mod 8)` in increasing order, then the shared tail fold and
    /// tree reduction.
    #[inline(always)]
    fn dots<L: Lane, const C: usize>(a: &[f32], bs: [&[f32]; C]) -> [f32; C] {
        let n = a.len();
        let bs = bs.map(|b| &b[..n]);
        let mut acc = [L::splat(0.0); C];
        let mut k = 0;
        while k + LANES <= n {
            let x = L::load(chunk(a, k));
            for (s, b) in acc.iter_mut().zip(bs) {
                *s = s.add(x.mul(L::load(chunk(b, k))));
            }
            k += LANES;
        }
        let mut sums = [0.0; C];
        for ((sum, s), b) in sums.iter_mut().zip(acc).zip(bs) {
            *sum = tail_reduce(s.to_array(), &a[k..], &b[k..]);
        }
        sums
    }

    #[inline(always)]
    pub(super) fn dot<L: Lane>(a: &[f32], b: &[f32]) -> f32 {
        dots::<L, 1>(a, [b])[0]
    }

    #[inline(always)]
    pub(super) fn dot_rows<L: Lane>(a: &[f32], b_rows: &[f32], out: &mut [f32]) {
        let k = a.len();
        let row = |c: usize| &b_rows[c * k..(c + 1) * k];
        let mut c = 0;
        while c + 4 <= out.len() {
            let sums = dots::<L, 4>(a, [row(c), row(c + 1), row(c + 2), row(c + 3)]);
            out[c..c + 4].copy_from_slice(&sums);
            c += 4;
        }
        while c < out.len() {
            out[c] = dot::<L>(a, row(c));
            c += 1;
        }
    }

    #[inline(always)]
    pub(super) fn axpy<L: Lane>(alpha: f32, x: &[f32], y: &mut [f32]) {
        let alpha = L::splat(alpha);
        sweep::<L, 1, 1>(
            [x],
            [y],
            #[inline(always)]
            |[x], [y]| [y.add(alpha.mul(x))],
        );
    }

    /// Vector `v` of a tile row: whole, or — the `ragged` last one —
    /// whatever is left of `row`.
    #[inline(always)]
    fn load_vector<L: Lane>(row: &[f32], v: usize, ragged: bool) -> L {
        if ragged {
            L::load_head(&row[v * LANES..])
        } else {
            L::load(chunk(row, v * LANES))
        }
    }

    /// One `R`-row × `V`-vector output tile of [`gemm_acc`] with its
    /// top-left element at `(r0, c0)`: accumulators live in registers
    /// from the one load of `out` to the one store, across the whole
    /// `k` loop (one step per `n`-wide row of `b`). With `RAGGED` the
    /// tile runs to the end of the row and its last vector is partial.
    /// With `SKIP` a zero coefficient skips its term; without, the
    /// caller has established that the term cannot change a bit
    /// ([`super::Vouched`]).
    #[inline(always)]
    fn tile<L: Lane, const R: usize, const V: usize, const RAGGED: bool, const SKIP: bool>(
        a: &[f32],
        (row_stride, k_stride): (usize, usize),
        b: &[f32],
        out: &mut [f32],
        n: usize,
        (r0, c0): (usize, usize),
    ) {
        // The largest coefficient index the `k` loop forms: row
        // `r0 + R − 1` at the last of `b`'s rows. Checking it once here
        // is what lets the loop read `a` unchecked — a bounds check per
        // coefficient measured 5–24 % slower across the LSTM's GEMM
        // shapes (9 % on a batch-32 forward + backward).
        let depth = b.len() / n;
        let last = r0
            .checked_add(R - 1)
            .and_then(|r| r.checked_mul(row_stride))
            .zip(depth.saturating_sub(1).checked_mul(k_stride))
            .and_then(|(r, k)| r.checked_add(k));
        assert!(
            depth == 0 || last.is_some_and(|i| i < a.len()),
            "gemm tile reads past its left operand"
        );
        let width = if RAGGED { n - c0 } else { V * LANES };
        let mut acc = [[L::splat(0.0); V]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            let out_row = &out[(r0 + r) * n + c0..][..width];
            for (v, lanes) in row.iter_mut().enumerate() {
                *lanes = load_vector(out_row, v, RAGGED && v + 1 == V);
            }
        }
        for (kk, b_row) in b.chunks_exact(n).enumerate() {
            let b_row = &b_row[c0..][..width];
            for (r, row) in acc.iter_mut().enumerate() {
                // SAFETY: `r < R` and `kk < depth`, so with unsigned
                // strides this index is at most `last`, which the
                // assert above placed inside `a` without overflow.
                #[allow(unsafe_code)]
                let coeff = unsafe { *a.get_unchecked((r0 + r) * row_stride + kk * k_stride) };
                if SKIP && coeff == 0.0 {
                    continue;
                }
                let coeff = L::splat(coeff);
                for (v, lanes) in row.iter_mut().enumerate() {
                    let bv = load_vector(b_row, v, RAGGED && v + 1 == V);
                    *lanes = lanes.add(coeff.mul(bv));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let out_row = &mut out[(r0 + r) * n + c0..][..width];
            for (v, lanes) in row.iter().enumerate() {
                if RAGGED && v + 1 == V {
                    lanes.store_head(&mut out_row[v * LANES..]);
                } else {
                    lanes.store(chunk_mut(out_row, v * LANES));
                }
            }
        }
    }

    /// All output rows of one `V`-vector column strip starting at
    /// column `c0`: `R`-row tiles, then single rows for the remainder.
    #[inline(always)]
    fn strip<L: Lane, const R: usize, const V: usize, const SKIP: bool>(
        a: &[f32],
        a_strides: (usize, usize),
        b: &[f32],
        out: &mut [f32],
        (m, n): (usize, usize),
        c0: usize,
        ragged: bool,
    ) {
        let mut r0 = 0;
        while r0 + R <= m {
            if ragged {
                tile::<L, R, V, true, SKIP>(a, a_strides, b, out, n, (r0, c0));
            } else {
                tile::<L, R, V, false, SKIP>(a, a_strides, b, out, n, (r0, c0));
            }
            r0 += R;
        }
        while r0 < m {
            if ragged {
                tile::<L, 1, V, true, SKIP>(a, a_strides, b, out, n, (r0, c0));
            } else {
                tile::<L, 1, V, false, SKIP>(a, a_strides, b, out, n, (r0, c0));
            }
            r0 += 1;
        }
    }

    /// The columns are cut into strips of 6, 2 or 1 vectors, each swept
    /// in tiles of 2, 6 or 8 rows: at most 12 accumulators, leaving
    /// registers for the broadcast coefficient and the `b` vector, and
    /// at least 8 independent add chains to cover the add latency. A
    /// single output row (`m == 1`, a decision's forward pass) cannot
    /// stack rows, so its chains are its vectors: the row is cut into
    /// the fewest strips of at most 8 vectors, as equal as they come
    /// (12 → 6 + 6, 20 → 7 + 7 + 6, 24 → 8 + 8 + 8), so that no strip
    /// is left with the two or three chains of a remainder.
    #[inline(always)]
    fn strips<L: Lane, const SKIP: bool>(
        a: &[f32],
        a_strides: (usize, usize),
        b: &[f32],
        out: &mut [f32],
        shape: (usize, usize, usize),
    ) {
        let (m, _, n) = shape;
        let vectors = n.div_ceil(LANES);
        let mut v0 = 0;
        while v0 < vectors {
            let left = vectors - v0;
            let width = match left {
                _ if m == 1 => left.div_ceil(left.div_ceil(8)),
                6.. => 6,
                2.. => 2,
                _ => 1,
            };
            let ragged = !n.is_multiple_of(LANES) && v0 + width == vectors;
            let c0 = v0 * LANES;
            match (m, width) {
                (1, 8) => strip::<L, 1, 8, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                (1, 7) => strip::<L, 1, 7, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                (1, 6) => strip::<L, 1, 6, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                (1, 5) => strip::<L, 1, 5, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                (1, 4) => strip::<L, 1, 4, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                (1, 3) => strip::<L, 1, 3, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                (1, 2) => strip::<L, 1, 2, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                (1, _) => strip::<L, 1, 1, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                (_, 6) => strip::<L, 2, 6, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                (_, 2) => strip::<L, 6, 2, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
                _ => strip::<L, 8, 1, SKIP>(a, a_strides, b, out, (m, n), c0, ragged),
            }
            v0 += width;
        }
    }

    /// Rows of `b` one pass of the tiles covers. A deeper product runs
    /// the tiles once per block of rows, each element's running value
    /// waiting in `out` between blocks: scheduling, which moves no bit.
    /// What it buys is locality. A transposed left operand gives a tile
    /// one cache line per coefficient pair, and over a sequence's
    /// 24 × 16 rows those lines and `b`'s drop out of L1 between
    /// neighbouring tiles. Blocks of 64 keep them in: the BPTT weight
    /// gradient 192 × 384 × 7 ran −15 % (48 wide: −10 %) against one
    /// pass, and no decision-time product is this deep.
    const K_BLOCK: usize = 64;

    /// Every tile of one product, skipping zero coefficients or not, in
    /// blocks of [`K_BLOCK`] rows of `b`.
    #[inline(always)]
    pub(super) fn gemm_tiles<L: Lane>(
        a: &[f32],
        a_strides: (usize, usize),
        b: &[f32],
        out: &mut [f32],
        shape: (usize, usize, usize),
        skip: bool,
    ) {
        let (m, depth, n) = shape;
        if out.is_empty() {
            return;
        }
        for k0 in (0..depth).step_by(K_BLOCK) {
            let k1 = depth.min(k0 + K_BLOCK);
            // Coefficient `(r, k0 + k)` of `a` is `(r, k)` of this view;
            // a short `a` is left to the tile's range check.
            let a = a.get(k0 * a_strides.1..).unwrap_or_default();
            let b = &b[k0 * n..k1 * n];
            let shape = (m, k1 - k0, n);
            if skip {
                strips::<L, true>(a, a_strides, b, out, shape);
            } else {
                strips::<L, false>(a, a_strides, b, out, shape);
            }
        }
    }

    /// The sign bit of an `f32`.
    const SIGN: u32 = 0x8000_0000;

    /// Whether every element is finite: no magnitude reaches `∞`'s
    /// bits. The scans are integer max/min reductions over the bit
    /// patterns, which compile to vector operations at the width of the
    /// wrapper they inline into (`L` names which); an early-exit `all`
    /// does not.
    #[inline(always)]
    pub(super) fn all_finite<L: Lane>(xs: &[f32]) -> bool {
        let max = xs
            .iter()
            .fold(0, |max: u32, x| max.max(x.to_bits() & !SIGN));
        max < f32::INFINITY.to_bits()
    }

    /// Whether no element is `-0.0` (bits `SIGN`) or NaN (a magnitude
    /// above `∞`'s), i.e. every element is left as it is by adding
    /// `±0`.
    #[inline(always)]
    fn absorbs_zeros(xs: &[f32]) -> bool {
        let (max, min) = xs.iter().fold((0, u32::MAX), |(max, min): (u32, u32), x| {
            (max.max(x.to_bits() & !SIGN), min.min(x.to_bits() ^ SIGN))
        });
        max <= f32::INFINITY.to_bits() && min != 0
    }

    /// Rows from which a scan of `b` (`k × n`) and `out` (`m × n`) costs
    /// little next to the product's `m·k·n` terms.
    const SCAN_ROWS: usize = 8;

    /// The accumulate-GEMM: the skip-free tiles where what the caller
    /// vouches for, or what the scans find, makes the zero-skip
    /// invisible ([`super::Vouched`]); the skipping tiles otherwise.
    #[inline(always)]
    pub(super) fn gemm_acc<L: Lane>(
        a: &[f32],
        a_strides: (usize, usize),
        b: &[f32],
        out: &mut [f32],
        shape: (usize, usize, usize),
        vouched: super::Vouched,
    ) {
        let scan = shape.0 >= SCAN_ROWS;
        let invisible = (vouched.b_finite || scan && all_finite::<L>(b))
            && (vouched.out_clean || scan && absorbs_zeros(out));
        gemm_tiles::<L>(a, a_strides, b, out, shape, !invisible);
    }

    #[inline(always)]
    pub(super) fn add2_bias_rows<L: Lane>(z: &mut [f32], w: &[f32], b: &[f32]) {
        let n = b.len();
        for (z_row, w_row) in z.chunks_exact_mut(n).zip(w.chunks_exact(n)) {
            sweep::<L, 2, 1>(
                [w_row, b],
                [z_row],
                #[inline(always)]
                |[w, b], [z]| [z.add(w).add(b)],
            );
        }
    }

    #[inline(always)]
    pub(super) fn relu<L: Lane>(xs: &mut [f32]) {
        let zero = L::splat(0.0);
        sweep::<L, 0, 1>(
            [],
            [xs],
            #[inline(always)]
            |[], [x]| [x.max(zero)],
        );
    }

    #[inline(always)]
    pub(super) fn bn_affine<L: Lane>(
        row: &mut [f32],
        mean: &[f32],
        inv_std: &[f32],
        gamma: &[f32],
        beta: &[f32],
    ) {
        sweep::<L, 4, 1>(
            [mean, inv_std, gamma, beta],
            [row],
            #[inline(always)]
            |[mean, inv_std, gamma, beta], [x]| [gamma.mul(x.sub(mean)).mul(inv_std).add(beta)],
        );
    }

    /// First pass of the forward LSTM cell on one vector of each
    /// pre-activation quarter and of `c_prev`: the gates and the new
    /// cell state, `[i, f, g, o, c]`.
    #[inline(always)]
    fn cell_gates<L: Lane>([zi, zf, zg, zo, c_prev]: [L; 5]) -> [L; 5] {
        let (i, f, g, o) = (sigmoid(zi), sigmoid(zf), tanh(zg), sigmoid(zo));
        [i, f, g, o, f.mul(c_prev).add(i.mul(g))]
    }

    /// Second pass: `[tanh(c), h]` from the output gate and the new
    /// cell state. `tanh(c)` hangs off the end of all four gate chains;
    /// computed in the same iteration it is pure exposed latency (an
    /// iteration of `cell_gates` fills the reorder window by itself),
    /// as a sweep of its own its short iterations overlap.
    #[inline(always)]
    fn cell_output<L: Lane>(o: L, c: L) -> [L; 2] {
        let tanh_c = tanh(c);
        [tanh_c, o.mul(tanh_c)]
    }

    /// Batch row `r`'s five [`cell_gates`] inputs: the `(i, f, g, o)`
    /// quarters of its `4·hidden` pre-activation row, and `c_prev`.
    #[inline(always)]
    fn cell_inputs<'a>(z: &'a [f32], c_prev: &'a [f32], hidden: usize, r: usize) -> [&'a [f32]; 5] {
        let (zi, rest) = z[r * 4 * hidden..(r + 1) * 4 * hidden].split_at(hidden);
        let (zf, rest) = rest.split_at(hidden);
        let (zg, zo) = rest.split_at(hidden);
        [zi, zf, zg, zo, &c_prev[r * hidden..(r + 1) * hidden]]
    }

    #[inline(always)]
    pub(super) fn lstm_gates_train_batch<L: Lane>(
        z: &[f32],
        c_prev: &[f32],
        hidden: usize,
        out: &mut GateCaches<'_>,
    ) {
        for r in 0..c_prev.len() / hidden {
            let at = r * hidden..(r + 1) * hidden;
            sweep::<L, 5, 5>(
                cell_inputs(z, c_prev, hidden, r),
                [
                    &mut out.i[at.clone()],
                    &mut out.f[at.clone()],
                    &mut out.g[at.clone()],
                    &mut out.o[at.clone()],
                    &mut out.c[at.clone()],
                ],
                #[inline(always)]
                |x, _| cell_gates(x),
            );
            sweep::<L, 2, 2>(
                [&out.o[at.clone()], &out.c[at.clone()]],
                [&mut out.tanh_c[at.clone()], &mut out.h[at]],
                #[inline(always)]
                |[o, c], _| cell_output(o, c),
            );
        }
    }

    #[inline(always)]
    pub(super) fn lstm_gates_eval_batch<L: Lane>(
        z: &[f32],
        c_prev: &[f32],
        hidden: usize,
        c_out: &mut [f32],
        h_out: &mut [f32],
    ) {
        for r in 0..c_prev.len() / hidden {
            let at = r * hidden..(r + 1) * hidden;
            // The output gate waits in `h_out` between the passes.
            sweep::<L, 5, 2>(
                cell_inputs(z, c_prev, hidden, r),
                [&mut c_out[at.clone()], &mut h_out[at.clone()]],
                #[inline(always)]
                |x, _| {
                    let [.., o, c] = cell_gates(x);
                    [c, o]
                },
            );
            sweep::<L, 1, 1>(
                [&c_out[at.clone()]],
                [&mut h_out[at]],
                #[inline(always)]
                |[c], [o]| {
                    let [_, h] = cell_output(o, c);
                    [h]
                },
            );
        }
    }

    #[inline(always)]
    pub(super) fn lstm_seq_eval<L: Lane>(
        w_hh_t: &[f32],
        w_hh_finite: bool,
        bias: &[f32],
        hidden: usize,
        seq: &mut SeqArenas<'_>,
    ) {
        let (hw, bh) = (4 * hidden, seq.c.len());
        let batch = bh / hidden;
        let vouched = super::Vouched {
            b_finite: w_hh_finite,
            out_clean: true,
        };
        let (mut c, mut c_next) = (&mut *seq.c, &mut *seq.c_next);
        for (t, z) in seq.zx.chunks_exact_mut(batch * hw).enumerate() {
            let (h_prev, h_next) = seq.h[t * bh..(t + 2) * bh].split_at_mut(bh);
            seq.zh.fill(0.0);
            let shape = (batch, hidden, hw);
            gemm_acc::<L>(h_prev, (hidden, 1), w_hh_t, seq.zh, shape, vouched);
            add2_bias_rows::<L>(z, seq.zh, bias);
            lstm_gates_eval_batch::<L>(z, c, hidden, c_next, h_next);
            std::mem::swap(&mut c, &mut c_next);
        }
    }

    /// One vector of the backward gate sweep: from the cached
    /// `[i, f, g, o, tanh(c), c_prev]`, the hidden gradient `d_h` and
    /// the incoming cell gradient, `[dz_i, dz_f, dz_g, dz_o]` and the
    /// outgoing cell gradient.
    #[inline(always)]
    fn cell_backward<L: Lane>([i, f, g, o, tc, c_prev]: [L; 6], d_h: L, d_c_next: L) -> [L; 5] {
        let one = L::splat(1.0);
        let d_o = d_h.mul(tc);
        let d_c = d_h.mul(o).mul(one.sub(tc.mul(tc))).add(d_c_next);
        let d_f = d_c.mul(c_prev);
        let d_i = d_c.mul(g);
        let d_g = d_c.mul(i);
        [
            d_i.mul(i).mul(one.sub(i)),
            d_f.mul(f).mul(one.sub(f)),
            d_g.mul(one.sub(g.mul(g))),
            d_o.mul(o).mul(one.sub(o)),
            d_c.mul(f),
        ]
    }

    #[inline(always)]
    pub(super) fn lstm_gates_backward_batch<L: Lane>(
        cache: &StepCaches<'_>,
        grad_h: Option<&[f32]>,
        d_h_next: &[f32],
        d_c_next: &mut [f32],
        hidden: usize,
        dz: &mut [f32],
    ) {
        for (r, dz_row) in dz.chunks_exact_mut(4 * hidden).enumerate() {
            let at = r * hidden..(r + 1) * hidden;
            let (dz_i, rest) = dz_row.split_at_mut(hidden);
            let (dz_f, rest) = rest.split_at_mut(hidden);
            let (dz_g, dz_o) = rest.split_at_mut(hidden);
            let outs = [dz_i, dz_f, dz_g, dz_o, &mut d_c_next[at.clone()]];
            let cached = [
                &cache.i[at.clone()],
                &cache.f[at.clone()],
                &cache.g[at.clone()],
                &cache.o[at.clone()],
                &cache.tanh_c[at.clone()],
                &cache.c_prev[at.clone()],
            ];
            let [i, f, g, o, tc, c_prev] = cached;
            let d_h_next = &d_h_next[at.clone()];
            match grad_h {
                Some(grad_h) => sweep::<L, 8, 5>(
                    [i, f, g, o, tc, c_prev, &grad_h[at], d_h_next],
                    outs,
                    #[inline(always)]
                    |[i, f, g, o, tc, c_prev, grad_h, d_h_next], [.., d_c_next]| {
                        cell_backward([i, f, g, o, tc, c_prev], grad_h.add(d_h_next), d_c_next)
                    },
                ),
                None => sweep::<L, 7, 5>(
                    [i, f, g, o, tc, c_prev, d_h_next],
                    outs,
                    #[inline(always)]
                    |[i, f, g, o, tc, c_prev, d_h_next], [.., d_c_next]| {
                        let d_h = L::splat(0.0).add(d_h_next);
                        cell_backward([i, f, g, o, tc, c_prev], d_h, d_c_next)
                    },
                ),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::vmath::tests::{sigmoid, tanh};

    /// Runs `f` with dispatch live and again forced portable, under the
    /// one lock every test that flips the process-global toggle shares.
    /// Kernel-level tests do not need it — they pick their lane with
    /// `at!`; it is for the end-to-end `Tensor` legs.
    pub(crate) fn both_paths<T>(mut f: impl FnMut() -> T) -> (T, T) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().expect("a toggling test panicked");
        set_force_scalar(false);
        let native = f();
        set_force_scalar(true);
        let forced = f();
        set_force_scalar(false);
        (native, forced)
    }

    /// The `at!` selectors this host can run: portable, and AVX2 when
    /// detected.
    fn lanes() -> impl Iterator<Item = bool> {
        [false, true]
            .into_iter()
            .filter(|&avx2| !avx2 || has_avx2())
    }

    /// Values in `[-4, 4.4)` with exact zeros mixed in.
    fn noisy(n: usize, salt: u64) -> Vec<f32> {
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if (i + (s as usize & 7)).is_multiple_of(11) {
                    0.0
                } else {
                    (s >> 40) as f32 / 2e6 - 4.0
                }
            })
            .collect()
    }

    /// Bit patterns, with every NaN collapsed to one: which operand's
    /// payload and sign a NaN result inherits is the one thing IEEE-754
    /// (and Rust) leave open, so it is not part of the contract.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// One row of the table: a kernel, run at a lane (`true` = AVX2) on
    /// inputs derived from a ragged size, and a plain-`f32` oracle on the
    /// same inputs. Both return every output, concatenated.
    type Row = (
        &'static str,
        fn(bool, usize) -> Vec<f32>,
        fn(usize) -> Vec<f32>,
    );

    /// Empty, below one vector, around one and two vectors, `8k ± 1`.
    const SIZES: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100];

    fn check(rows: &[Row]) {
        for &(name, run, oracle) in rows {
            for n in SIZES {
                let want = bits(&oracle(n));
                for avx2 in lanes() {
                    assert_eq!(
                        bits(&run(avx2, n)),
                        want,
                        "{name} left its oracle at n={n} (avx2={avx2})"
                    );
                }
            }
        }
    }

    /// The dot-product contract longhand: lane `k mod 8`, then the tree.
    fn dot_oracle(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 8];
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            lanes[k % 8] += x * y;
        }
        ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]))
    }

    /// Rows of the right block in the [`dot_rows`] cases: a four-group
    /// plus a remainder.
    const DOT_ROWS: usize = 6;

    #[test]
    fn simd_and_scalar_kernels_agree_bit_for_bit_on_ragged_lengths() {
        check(&[
            (
                "dot",
                |avx2, n| vec![at!(avx2, dot(&noisy(n, 1), &noisy(n, 2)))],
                |n| vec![dot_oracle(&noisy(n, 1), &noisy(n, 2))],
            ),
            (
                "dot_rows",
                |avx2, n| {
                    let mut out = vec![f32::NAN; DOT_ROWS];
                    at!(
                        avx2,
                        dot_rows(&noisy(n, 3), &noisy(DOT_ROWS * n, 4), &mut out)
                    );
                    out
                },
                |n| {
                    let (a, b) = (noisy(n, 3), noisy(DOT_ROWS * n, 4));
                    (0..DOT_ROWS)
                        .map(|c| dot_oracle(&a, &b[c * n..(c + 1) * n]))
                        .collect()
                },
            ),
            (
                "axpy",
                |avx2, n| {
                    let mut y = noisy(n, 6);
                    at!(avx2, axpy(0.37, &noisy(n, 5), &mut y));
                    y
                },
                |n| {
                    let (x, y) = (noisy(n, 5), noisy(n, 6));
                    x.iter().zip(y).map(|(x, y)| y + 0.37 * x).collect()
                },
            ),
            (
                "add2_bias_rows",
                |avx2, n| {
                    let width = n.max(1);
                    let mut z = noisy(3 * width, 7);
                    at!(
                        avx2,
                        add2_bias_rows(&mut z, &noisy(3 * width, 8), &noisy(width, 9))
                    );
                    z
                },
                |n| {
                    let width = n.max(1);
                    let (z, w, b) = (noisy(3 * width, 7), noisy(3 * width, 8), noisy(width, 9));
                    (0..3 * width)
                        .map(|e| (z[e] + w[e]) + b[e % width])
                        .collect()
                },
            ),
            (
                "relu",
                |avx2, n| {
                    let mut xs = noisy(n, 10);
                    xs.iter_mut().step_by(3).for_each(|x| *x = -0.0);
                    at!(avx2, relu(&mut xs));
                    xs
                },
                // `-0.0 > 0.0` is false, so `-0.0` leaves as `+0.0`.
                |n| {
                    noisy(n, 10)
                        .iter()
                        .enumerate()
                        .map(|(e, &x)| if e % 3 != 0 && x > 0.0 { x } else { 0.0 })
                        .collect()
                },
            ),
            (
                "bn_affine",
                |avx2, n| {
                    let mut row = noisy(n, 11);
                    let [mean, inv_std, gamma, beta] = [12, 13, 14, 15].map(|salt| noisy(n, salt));
                    at!(avx2, bn_affine(&mut row, &mean, &inv_std, &gamma, &beta));
                    row
                },
                |n| {
                    let [x, mean, inv_std, gamma, beta] =
                        [11, 12, 13, 14, 15].map(|salt| noisy(n, salt));
                    (0..n)
                        .map(|e| ((gamma[e] * (x[e] - mean[e])) * inv_std[e]) + beta[e])
                        .collect()
                },
            ),
        ]);
    }

    /// A left-operand layout of [`gemm_acc`]: strides for logical
    /// element `(r, k)` of an `m × depth` matrix.
    type Strides = fn(usize, usize) -> (usize, usize);
    const ROW_MAJOR: Strides = |_, depth| (depth, 1);
    const TRANSPOSED: Strides = |m, _| (1, m);

    /// Output rows × depths swept per column count: every tile height
    /// (1, 2, 6, 8) with a remainder row, an empty `k` loop, row counts
    /// on both sides of the scan that can drop the zero-skip, and a
    /// depth of two whole row blocks and a ragged third.
    const GEMM_SHAPES: [(usize, usize); 7] =
        [(1, 5), (2, 0), (3, 1), (7, 4), (9, 11), (13, 16), (10, 131)];

    /// `[a, b, out]` for a shape `(m, depth, n)` and the left operand's
    /// strides.
    type Operands = fn((usize, usize, usize), (usize, usize)) -> [Vec<f32>; 3];

    fn salt((m, depth, n): (usize, usize, usize)) -> u64 {
        (m * 1000 + depth * 100 + n) as u64
    }

    /// Coefficients with `0.0` and `-0.0` among them, a right operand
    /// carrying `±∞` and NaN, and a pre-loaded output with `-0.0`
    /// entries — so a kernel that multiplies through a zero coefficient
    /// instead of skipping it turns a finite (or `-0.0`) oracle output
    /// into NaN (or `+0.0`).
    fn gemm_operands(shape: (usize, usize, usize), _: (usize, usize)) -> [Vec<f32>; 3] {
        let (m, depth, n) = shape;
        let mut a = noisy(m * depth, salt(shape));
        a.iter_mut().skip(2).step_by(5).for_each(|x| *x = -0.0);
        let mut b = noisy(depth * n, salt(shape) ^ 0xB);
        for (e, x) in b.iter_mut().enumerate() {
            match e % 23 {
                4 => *x = f32::INFINITY,
                11 => *x = f32::NEG_INFINITY,
                17 => *x = f32::NAN,
                _ => {}
            }
        }
        let mut out = noisy(m * n, salt(shape) ^ 0xC);
        out.iter_mut().skip(1).step_by(4).for_each(|x| *x = -0.0);
        [a, b, out]
    }

    /// The operands training feeds the GEMM, where the zero-skip cannot
    /// be seen: finite `b`, no `-0.0` in `out`, and about half the
    /// coefficients exact zeros of either sign, as behind a ReLU mask.
    fn relu_like(shape: (usize, usize, usize), _: (usize, usize)) -> [Vec<f32>; 3] {
        let (m, depth, n) = shape;
        let mut a = noisy(m * depth, salt(shape));
        for (e, x) in a.iter_mut().enumerate() {
            if *x < 0.0 {
                *x = if e % 3 == 0 { -0.0 } else { 0.0 };
            }
        }
        let b = noisy(depth * n, salt(shape) ^ 0xB);
        let out = noisy(m * n, salt(shape) ^ 0xC);
        [a, b, out]
    }

    /// [`relu_like`] with one value planted where a skipped term decides
    /// the bits of `out[0][0]`: row 0 of `a` all `+0.0` and `b[0][0]`
    /// positive, then per `CASE` `b[0][0]` = `+∞`, `−∞` or NaN, or the
    /// start value `out[0][0]` = `-0.0` or NaN.
    fn degenerate<const CASE: usize>(
        shape: (usize, usize, usize),
        (_, k_stride): (usize, usize),
    ) -> [Vec<f32>; 3] {
        let [mut a, mut b, mut out] = relu_like(shape, (0, 0));
        let (m, depth, n) = shape;
        if m * depth * n == 0 {
            return [a, b, out];
        }
        (0..depth).for_each(|k| a[k * k_stride] = 0.0);
        b[0] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0, 1.0][CASE];
        out[0] = [0.5, 0.5, 0.5, -0.0, f32::NAN][CASE];
        [a, b, out]
    }

    /// Every shape of [`GEMM_SHAPES`] at `n` columns, through the
    /// dispatch (`skip` = `None`) or one tile kind, concatenated.
    fn gemm_run(
        avx2: bool,
        n: usize,
        strides: Strides,
        operands: Operands,
        skip: Option<bool>,
    ) -> Vec<f32> {
        let mut all = Vec::new();
        for (m, depth) in GEMM_SHAPES {
            let (shape, strides) = ((m, depth, n), strides(m, depth));
            let [a, b, mut out] = operands(shape, strides);
            match skip {
                None => at!(
                    avx2,
                    gemm_acc(&a, strides, &b, &mut out, shape, Vouched::default())
                ),
                Some(skip) => at!(avx2, gemm_tiles(&a, strides, &b, &mut out, shape, skip)),
            }
            all.extend(out);
        }
        all
    }

    /// The accumulate-GEMM as the naive triple loop: per element, start
    /// from `out`, increasing `k`, skip exact zeros, multiply then add.
    fn gemm_oracle(n: usize, strides: Strides, operands: Operands) -> Vec<f32> {
        let mut all = Vec::new();
        for (m, depth) in GEMM_SHAPES {
            let (row_stride, k_stride) = strides(m, depth);
            let [a, b, mut out] = operands((m, depth, n), (row_stride, k_stride));
            for r in 0..m {
                for c in 0..n {
                    for k in 0..depth {
                        let coeff = a[r * row_stride + k * k_stride];
                        if coeff != 0.0 {
                            out[r * n + c] += coeff * b[k * n + c];
                        }
                    }
                }
            }
            all.extend(out);
        }
        all
    }

    /// The oracle table of the GEMM: each of `tiles` on each lane, in
    /// both stride modes — every strip width, row remainders, the ragged
    /// last vector — against the triple loop.
    fn check_gemm(operands: Operands, tiles: &[Option<bool>]) {
        for (layout, strides) in [("row-major", ROW_MAJOR), ("transposed", TRANSPOSED)] {
            for n in SIZES {
                let want = bits(&gemm_oracle(n, strides, operands));
                for avx2 in lanes() {
                    for &skip in tiles {
                        assert_eq!(
                            bits(&gemm_run(avx2, n, strides, operands, skip)),
                            want,
                            "{layout} left operand, skip {skip:?}, n={n} (avx2={avx2})"
                        );
                    }
                }
            }
        }
    }

    /// Where no input can see the zero-skip, the skipping tile, the
    /// skip-free one and the dispatch between them all meet the spec;
    /// each degenerate value the skip guards against routes the dispatch
    /// to the skipping tile, whose bits are the spec's.
    #[test]
    fn tile_dispatch_drops_the_zero_skip_only_where_it_is_invisible() {
        check_gemm(relu_like, &[Some(true), Some(false), None]);
        for operands in [
            degenerate::<0> as Operands,
            degenerate::<1>,
            degenerate::<2>,
            degenerate::<3>,
            degenerate::<4>,
        ] {
            check_gemm(operands, &[None]);
        }
        // The planted value is seen: skip-free tiles leave the spec.
        let (shape, strides) = ((9, 11, 9), ROW_MAJOR(9, 11));
        for (operands, want) in [
            (degenerate::<0> as Operands, 0.5f32),
            (degenerate::<3>, -0.0),
        ] {
            let [a, b, mut out] = operands(shape, strides);
            generic::gemm_tiles::<Portable>(&a, strides, &b, &mut out, shape, false);
            assert_ne!(out[0].to_bits(), want.to_bits());
        }
    }

    /// Both stride modes of the one tile against the triple loop on
    /// degenerate operands, then through the public entry points against
    /// the loop of [`axpy`] calls they are specified as.
    #[test]
    fn transa_acc_matches_spec_and_naive_axpy_loop_on_ragged_shapes() {
        check_gemm(gemm_operands, &[None]);

        let (k, m, n) = (5, 7, 19);
        let [a, b, out0] = gemm_operands((m, k, n), (1, m));
        let mut blocked = out0.clone();
        transa_acc(&a, &b, &mut blocked, (k, m, n));
        let mut naive = out0;
        for kk in 0..k {
            for r in 0..m {
                if a[kk * m + r] != 0.0 {
                    let b_row = &b[kk * n..(kk + 1) * n];
                    axpy(a[kk * m + r], b_row, &mut naive[r * n..(r + 1) * n]);
                }
            }
        }
        assert_eq!(bits(&blocked), bits(&naive), "transa_acc != axpy loop");

        // The skip, in isolation: zero coefficients of either sign never
        // touch `b`, so `-0.0` survives next to `∞` and NaN.
        for strides in [(2, 1), (1, 1)] {
            let mut out = [-0.0f32];
            gemm_acc(
                &[0.0, -0.0],
                strides,
                &[f32::INFINITY, f32::NAN],
                &mut out,
                (1, 2, 1),
            );
            assert_eq!(out[0].to_bits(), (-0.0f32).to_bits());
        }
        // Degenerate edges: nothing to accumulate, nothing to write.
        let mut out = vec![1.5f32; 6];
        transa_acc(&[], &[], &mut out, (0, 2, 3));
        assert_eq!(out, vec![1.5; 6]);
        transa_acc(&[], &[1.0, 2.0], &mut [], (2, 0, 1));
        transa_acc(&[1.0, 2.0], &[], &mut [], (2, 1, 0));
    }

    /// Batch rows in the gate-sweep cases; the size is the hidden width.
    const BATCH: usize = 3;

    /// The forward cell element by element: `[i, f, g, o, c, tanh_c, h]`
    /// as `BATCH × hidden` blocks.
    fn cell_oracle(hidden: usize) -> [Vec<f32>; 7] {
        let (z, c_prev) = (noisy(BATCH * 4 * hidden, 21), noisy(BATCH * hidden, 22));
        let mut out: [Vec<f32>; 7] = Default::default();
        for r in 0..BATCH {
            for j in 0..hidden {
                let zq = |q: usize| z[(4 * r + q) * hidden + j];
                let (i, f, g, o) = (sigmoid(zq(0)), sigmoid(zq(1)), tanh(zq(2)), sigmoid(zq(3)));
                let c = f * c_prev[r * hidden + j] + i * g;
                let tanh_c = tanh(c);
                for (block, v) in out.iter_mut().zip([i, f, g, o, c, tanh_c, o * tanh_c]) {
                    block.push(v);
                }
            }
        }
        out
    }

    /// Train and eval sweeps against the element-wise cell; sharing the
    /// oracle is what pins eval to be train minus the caches.
    #[test]
    fn gate_sweeps_agree_across_paths_and_with_each_other() {
        check(&[
            (
                "lstm_gates_train_batch",
                |avx2, n| {
                    let hidden = n.max(1);
                    let (z, c_prev) = (noisy(BATCH * 4 * hidden, 21), noisy(BATCH * hidden, 22));
                    let mut out: [Vec<f32>; 7] =
                        std::array::from_fn(|_| vec![f32::NAN; BATCH * hidden]);
                    let [i, f, g, o, c, tanh_c, h] = &mut out;
                    let mut caches = GateCaches {
                        i,
                        f,
                        g,
                        o,
                        c,
                        tanh_c,
                        h,
                    };
                    at!(
                        avx2,
                        lstm_gates_train_batch(&z, &c_prev, hidden, &mut caches)
                    );
                    out.concat()
                },
                |n| cell_oracle(n.max(1)).concat(),
            ),
            (
                "lstm_gates_eval_batch",
                |avx2, n| {
                    let hidden = n.max(1);
                    let (z, c_prev) = (noisy(BATCH * 4 * hidden, 21), noisy(BATCH * hidden, 22));
                    let mut out = [(); 2].map(|()| vec![f32::NAN; BATCH * hidden]);
                    let [c, h] = &mut out;
                    at!(avx2, lstm_gates_eval_batch(&z, &c_prev, hidden, c, h));
                    out.concat()
                },
                |n| {
                    cell_oracle(n.max(1))[4..]
                        .iter()
                        .step_by(2)
                        .flatten()
                        .copied()
                        .collect()
                },
            ),
        ]);
    }

    /// One layer's eval forward through [`lstm_seq_eval`] — its
    /// recurrent products skip-free when `vouch` — and through the
    /// step-by-step composition of the public kernels it fuses, whose
    /// few-row products keep the skip: `(pre-activations, hidden states,
    /// final cell state)` of each.
    type SeqRun = (Vec<f32>, Vec<f32>, Vec<f32>);

    fn seq_runs(hidden: usize, batch: usize, steps: usize, vouch: bool) -> (SeqRun, SeqRun) {
        let (hw, bh) = (4 * hidden, batch * hidden);
        let salt = (hidden * 100 + batch * 10 + steps) as u64;
        let w_hh_t: Vec<f32> = noisy(hidden * hw, salt).iter().map(|w| w / 8.0).collect();
        let bias = noisy(hw, salt ^ 1);
        let zx0 = noisy(steps * batch * hw, salt ^ 2);
        let mut h0 = vec![0.0; (steps + 1) * bh];
        h0[..bh].copy_from_slice(&noisy(bh, salt ^ 3));
        let c0 = noisy(bh, salt ^ 4);

        let (mut zx, mut h, mut c, mut c_next) =
            (zx0.clone(), h0.clone(), c0.clone(), vec![f32::NAN; bh]);
        lstm_seq_eval(
            &w_hh_t,
            vouch,
            &bias,
            hidden,
            &mut SeqArenas {
                zx: &mut zx,
                zh: &mut vec![f32::NAN; batch * hw],
                h: &mut h,
                c: &mut c,
                c_next: &mut c_next,
            },
        );
        // An odd step count leaves the running state in `c_next`.
        let fused = (zx, h, if steps.is_multiple_of(2) { c } else { c_next });

        let (mut zx, mut h, mut c) = (zx0, h0, c0);
        for (t, z) in zx.chunks_exact_mut(batch * hw).enumerate() {
            let (h_prev, h_next) = h[t * bh..(t + 2) * bh].split_at_mut(bh);
            let mut zh = vec![0.0; batch * hw];
            gemm_acc(h_prev, (hidden, 1), &w_hh_t, &mut zh, (batch, hidden, hw));
            add2_bias_rows(z, &zh, &bias);
            let mut c_new = vec![f32::NAN; bh];
            lstm_gates_eval_batch(z, &c, hidden, &mut c_new, h_next);
            c = c_new;
        }
        (fused, (zx, h, c))
    }

    /// Dispatch granularity is scheduling: the one-dispatch sequence
    /// kernel writes what the per-step kernels write, on either lane,
    /// and on finite weights whether or not its caller vouches for them.
    #[test]
    fn fused_sequence_kernel_equals_the_step_by_step_composition() {
        for hidden in [10, 12, 24, 33, 48] {
            for (batch, vouch) in [1, 2, 5].into_iter().flat_map(|b| [(b, false), (b, true)]) {
                for steps in [1, 2, 24] {
                    let (native, forced) = both_paths(|| seq_runs(hidden, batch, steps, vouch));
                    for (lane, (fused, stepwise)) in [("native", &native), ("portable", &forced)] {
                        for (what, got, want) in [
                            ("z", &fused.0, &stepwise.0),
                            ("h", &fused.1, &stepwise.1),
                            ("c", &fused.2, &stepwise.2),
                        ] {
                            assert_eq!(
                                bits(got),
                                bits(want),
                                "{what} differs on the {lane} lane at H={hidden} B={batch} T={steps} \
                                 (vouched: {vouch})"
                            );
                        }
                    }
                    assert_eq!(bits(&native.0 .1), bits(&forced.0 .1), "lanes differ");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole steps")]
    fn sequence_kernel_rejects_a_partial_step() {
        let (mut zx, mut zh, mut h) = ([0.0; 8 + 1], [0.0; 8], [0.0; 4 + 2]);
        let (mut c, mut c_next) = ([0.0; 2], [0.0; 2]);
        lstm_seq_eval(
            &[0.0; 16],
            true,
            &[0.0; 8],
            2,
            &mut SeqArenas {
                zx: &mut zx,
                zh: &mut zh,
                h: &mut h,
                c: &mut c,
                c_next: &mut c_next,
            },
        );
    }

    /// Backward-sweep inputs: the six cached blocks, `grad_h`,
    /// `d_h_next`, `d_c_next`, each `BATCH × hidden`.
    fn backward_inputs(hidden: usize) -> [Vec<f32>; 9] {
        std::array::from_fn(|j| noisy(BATCH * hidden, 31 + j as u64))
    }

    fn backward_run(avx2: bool, hidden: usize, supervised: bool) -> Vec<f32> {
        let [i, f, g, o, tanh_c, c_prev, grad_h, d_h_next, mut d_c] = backward_inputs(hidden);
        let cache = StepCaches {
            i: &i,
            f: &f,
            g: &g,
            o: &o,
            tanh_c: &tanh_c,
            c_prev: &c_prev,
        };
        let grad_h = supervised.then_some(&grad_h[..]);
        let mut dz = vec![f32::NAN; BATCH * 4 * hidden];
        at!(
            avx2,
            lstm_gates_backward_batch(&cache, grad_h, &d_h_next, &mut d_c, hidden, &mut dz)
        );
        [dz, d_c].concat()
    }

    /// The documented expressions element by element; an unsupervised
    /// step's `grad_h` is `+0.0`.
    fn backward_oracle(hidden: usize, supervised: bool) -> Vec<f32> {
        let [i, f, g, o, tanh_c, c_prev, grad_h, d_h_next, d_c_next] = backward_inputs(hidden);
        let mut dz = vec![0.0; BATCH * 4 * hidden];
        let mut d_c_prev = Vec::new();
        for r in 0..BATCH {
            for j in 0..hidden {
                let e = r * hidden + j;
                let d_h = if supervised { grad_h[e] } else { 0.0 } + d_h_next[e];
                let d_c = (d_h * o[e]) * (1.0 - tanh_c[e] * tanh_c[e]) + d_c_next[e];
                let quarters = [
                    ((d_c * g[e]) * i[e]) * (1.0 - i[e]),
                    ((d_c * c_prev[e]) * f[e]) * (1.0 - f[e]),
                    (d_c * i[e]) * (1.0 - g[e] * g[e]),
                    ((d_h * tanh_c[e]) * o[e]) * (1.0 - o[e]),
                ];
                for (q, v) in quarters.into_iter().enumerate() {
                    dz[(4 * r + q) * hidden + j] = v;
                }
                d_c_prev.push(d_c * f[e]);
            }
        }
        [dz, d_c_prev].concat()
    }

    #[test]
    fn backward_gate_sweep_agrees_across_paths() {
        check(&[
            (
                "lstm_gates_backward_batch, supervised step",
                |avx2, n| backward_run(avx2, n.max(1), true),
                |n| backward_oracle(n.max(1), true),
            ),
            (
                "lstm_gates_backward_batch, unsupervised step",
                |avx2, n| backward_run(avx2, n.max(1), false),
                |n| backward_oracle(n.max(1), false),
            ),
        ]);
    }

    #[test]
    fn tree_reduce_is_the_fixed_avx_shape() {
        let s = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        let want = ((1.0f32 + 16.0) + (4.0 + 64.0)) + ((2.0 + 32.0) + (8.0 + 128.0));
        assert_eq!(tree_reduce(s).to_bits(), want.to_bits());
    }

    #[test]
    fn force_scalar_toggle_is_observable() {
        let (native, forced) = both_paths(simd_active);
        assert_eq!(native, has_avx2() && !env_force_scalar());
        assert!(!forced, "forced scalar must disable SIMD");
    }
}
