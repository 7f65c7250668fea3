//! `f32` storage whose first element sits on a 64-byte boundary.
//!
//! The SIMD lanes of [`crate::kernels`] load and store 32 (AVX2) or 64
//! (AVX-512) bytes at a time. The global allocator only promises
//! `f32`'s own alignment (in practice 16 bytes), so a plain `Vec<f32>`
//! starts on an odd 16-byte phase about half the time, every other
//! `ymm` access then straddles a cache line, and a forecast miss costs
//! ≈ 15 % more — decided by the process's allocation history, not by
//! its code. A `zmm` access straddles one unless it starts on a line,
//! so the AVX-512 lane needs the whole 64: at a 32-byte phase a 48-wide
//! LSTM layer's one-row forward ran 21.7 µs against 18.8 µs.
//! [`AlignedVec`] takes that lottery out in safe code: it
//! over-allocates by `PAD` (15) elements and starts at
//! `as_ptr().align_offset(64)`. The kernels keep their
//! unaligned-tolerant loads, so a caller's plain slice or a ragged row
//! in the middle of an arena needs no second path; alignment here is a
//! performance guarantee, never a safety precondition.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Alignment of the first element, in bytes: one AVX-512 vector, one
/// cache line.
pub const ALIGN: usize = 64;

/// Spare elements that make any start phase reachable: `f32`s are
/// 4-byte aligned, so the next 64-byte boundary is at most 15 away.
const PAD: usize = ALIGN / size_of::<f32>() - 1;

/// A growable `f32` buffer, dereferencing to a slice whose first
/// element is [`ALIGN`]-byte aligned.
///
/// The offset belongs to one allocation: [`Clone`], and growth past
/// the capacity, allocate anew and derive it again (a field-wise copy
/// would carry a stale one). Equality compares contents only.
#[derive(Default)]
pub struct AlignedVec {
    /// `offset` elements of padding, then the contents; never
    /// reallocated in place.
    raw: Vec<f32>,
    offset: usize,
}

impl AlignedVec {
    /// An empty buffer with room for `len` aligned elements.
    fn with_room(len: usize) -> Self {
        if len == 0 {
            return Self::default();
        }
        let mut raw = Vec::with_capacity(len + PAD);
        let offset = start_of(&raw);
        raw.resize(offset, 0.0);
        Self { raw, offset }
    }

    /// `len` copies of `value` (one allocation; zeroed pages straight
    /// from the allocator when `value` is `0.0`).
    pub fn filled(len: usize, value: f32) -> Self {
        if len == 0 {
            return Self::default();
        }
        let mut raw = vec![value; len + PAD];
        let offset = start_of(&raw);
        raw.truncate(offset + len);
        Self { raw, offset }
    }

    /// A copy of `values` (one allocation).
    pub fn from_slice(values: &[f32]) -> Self {
        Self::concat(values.len(), [values])
    }

    /// The `parts` one after the other, `len` elements in all (one
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if the parts do not add up to `len`.
    pub fn concat<'a>(len: usize, parts: impl IntoIterator<Item = &'a [f32]>) -> Self {
        let mut out = Self::with_room(len);
        for part in parts {
            assert!(out.len() + part.len() <= len, "parts exceed {len} values");
            out.raw.extend_from_slice(part);
        }
        assert_eq!(out.len(), len, "parts fall short of {len} values");
        out
    }

    /// The first `len` items of `values` (one allocation).
    ///
    /// # Panics
    ///
    /// Panics if `values` ends early.
    pub fn from_iter_exact(len: usize, values: impl IntoIterator<Item = f32>) -> Self {
        let mut out = Self::with_room(len);
        out.raw.extend(values.into_iter().take(len));
        assert_eq!(out.len(), len, "iterator ended before {len} values");
        out
    }

    /// Resizes to `len` elements, new ones set to `value`. Within the
    /// capacity nothing moves; past it the contents move to a fresh,
    /// exactly sized allocation with its own offset.
    pub fn resize(&mut self, len: usize, value: f32) {
        if self.offset + len > self.raw.capacity() {
            let mut grown = Self::with_room(len);
            grown.raw.extend_from_slice(self);
            *self = grown;
        }
        self.raw.resize(self.offset + len, value);
    }

    /// Resizes to `len` zeros, reusing the allocation when it fits.
    pub fn zeroed(&mut self, len: usize) {
        self.raw.truncate(self.offset);
        self.resize(len, 0.0);
    }

    /// `values` behind `offset` elements of padding, wherever that
    /// lands: equality tests need two offsets that surely differ.
    #[cfg(test)]
    pub(crate) fn with_offset(values: &[f32], offset: usize) -> Self {
        let mut raw = vec![f32::NAN; offset];
        raw.extend_from_slice(values);
        Self { raw, offset }
    }
}

/// Elements to skip so that `raw`'s contents start [`ALIGN`]-byte
/// aligned. `align_offset` may decline (`usize::MAX`); the buffer is
/// then merely unaligned, which every kernel tolerates.
fn start_of(raw: &[f32]) -> usize {
    let offset = raw.as_ptr().align_offset(ALIGN);
    if offset <= PAD {
        offset
    } else {
        0
    }
}

impl Deref for AlignedVec {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.raw[self.offset..]
    }
}

impl DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.raw[self.offset..]
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(v: &AlignedVec) -> usize {
        v.as_ptr() as usize % ALIGN
    }

    /// Every way a buffer comes to own an allocation lands on the
    /// boundary — including the ones that must re-derive the offset.
    #[test]
    fn every_construction_clone_and_growth_is_aligned() {
        // Odd sizes, so neighbouring allocations land on every phase.
        for len in [1usize, 3, 7, 8, 9, 31, 48, 100, 1001] {
            let values: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let built = [
                AlignedVec::filled(len, 1.5),
                AlignedVec::from_slice(&values),
                AlignedVec::from_iter_exact(len, values.iter().copied()),
            ];
            for v in &built {
                assert_eq!((phase(v), v.len()), (0, len));
            }
            assert_eq!(built[1], built[2]);
            assert_eq!(&built[1][..], &values[..]);

            let clone = built[1].clone();
            let clone_of_clone = clone.clone();
            assert_eq!((phase(&clone), phase(&clone_of_clone)), (0, 0));
            assert_eq!(clone_of_clone, built[1]);

            // Growth past the capacity keeps the contents and the phase;
            // shrinking and regrowing within it moves nothing.
            let mut grown = clone_of_clone;
            grown.resize(3 * len + 5, -1.0);
            assert_eq!(phase(&grown), 0);
            assert_eq!(&grown[..len], &values[..]);
            assert!(grown[len..].iter().all(|&x| x == -1.0));
            let at = grown.as_ptr();
            grown.resize(len, 0.0);
            grown.resize(3 * len + 5, 2.0);
            assert_eq!(grown.as_ptr(), at);
            assert!(grown[len..].iter().all(|&x| x == 2.0));
            grown.zeroed(2 * len);
            assert_eq!((grown.as_ptr(), grown.len()), (at, 2 * len));
            assert!(grown.iter().all(|&x| x.to_bits() == 0));
        }
    }

    #[test]
    fn equality_ignores_the_offset() {
        let values = [1.0, 2.0, 3.0];
        let (a, b) = (
            AlignedVec::with_offset(&values, 1),
            AlignedVec::with_offset(&values, 6),
        );
        assert_eq!(a, b);
        assert_eq!(a, AlignedVec::from_slice(&values));
        assert_ne!(a, AlignedVec::from_slice(&[f32::NAN, 1.0, 2.0, 3.0]));
        assert_ne!(a, AlignedVec::from_slice(&values[..2]));
    }

    #[test]
    fn an_empty_buffer_owns_nothing() {
        for v in [
            AlignedVec::default(),
            AlignedVec::filled(0, 1.0),
            AlignedVec::from_slice(&[]),
        ] {
            assert!(v.is_empty());
            assert_eq!(v.raw.capacity(), 0);
        }
        let mut v = AlignedVec::default();
        v.resize(5, 1.0);
        assert_eq!((phase(&v), &v[..]), (0, &[1.0; 5][..]));
    }

    #[test]
    #[should_panic(expected = "ended before")]
    fn a_short_iterator_is_rejected() {
        let _ = AlignedVec::from_iter_exact(3, [1.0, 2.0]);
    }
}
