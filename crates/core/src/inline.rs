//! Fixed-length storage that lives inside its owner: [`InlineArray`].
//!
//! The §3.1 buffer keeps its control state in a small register file
//! beside the slot RAM, not behind a pointer. A `Vec` per register
//! column puts every column in its own allocator chunk, so one switch is
//! dozens of heap blocks and a large fabric's working set is scattered
//! across the heap. [`InlineArray`] holds up to `N` elements in the owning
//! struct itself and falls back to one exact-size heap block above that,
//! behind the same slice API — the common small shapes cost no pointer
//! hop and no allocation, and unusual large ones still work.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A slice of `T` whose length is fixed at construction, stored inline
/// when it has at most `N` elements and in one `Box<[T]>` otherwise.
///
/// It dereferences to `[T]`, so indexing, iteration, `fill`,
/// `copy_from_slice` and every other slice method work identically on
/// both arms. `N` is a layout choice of the owning type, not a capacity
/// limit: any length is accepted.
///
/// # Examples
///
/// ```
/// use damq_core::InlineArray;
///
/// let mut small: InlineArray<u16, 4> = InlineArray::new(0, 3);
/// let mut large: InlineArray<u16, 4> = InlineArray::new(0, 9);
/// assert!(small.is_inline() && !large.is_inline());
/// small[2] = 7;
/// large[8] = 7;
/// assert_eq!(&small[..], &[0, 0, 7]);
/// assert_eq!(large.len(), 9);
/// ```
#[derive(Clone)]
pub struct InlineArray<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// The first `len` elements of `buf` are the contents; the rest is
    /// filler that is never exposed. `len <= N` by construction; the
    /// accessors still clamp it (`min(N)`) so the compiler can see the
    /// bound and drops the slicing panic path from every caller. The
    /// length is a `u16` so it shares the enum tag's word: the header of
    /// an array of small records is 4 bytes, not 16.
    Inline {
        len: u16,
        buf: [T; N],
    },
    Heap(Box<[T]>),
}

impl<T: Copy, const N: usize> InlineArray<T, N> {
    /// Creates `len` copies of `value` (the `vec![value; len]` of this
    /// type): inline if `len <= N`, one heap block otherwise.
    pub fn new(value: T, len: usize) -> Self {
        match u16::try_from(len) {
            Ok(short) if len <= N => InlineArray(Repr::Inline {
                len: short,
                buf: [value; N],
            }),
            _ => InlineArray(Repr::Heap(vec![value; len].into_boxed_slice())),
        }
    }
}

impl<T, const N: usize> InlineArray<T, N> {
    /// Whether the elements live inside `self` (no heap block).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Number of elements, read from the length register without
    /// building the slice — what a register file's shape is read back
    /// from (a DAMQ buffer's fanout and capacity are its list and slot
    /// counts).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Heap(heap) => heap.len(),
        }
    }
}

impl<T, const N: usize> Deref for InlineArray<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len).min(N)],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineArray<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..usize::from(*len).min(N)],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineArray<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const BOUND: usize = 6;

    /// Every observable of the array equals the `Vec` model's.
    fn assert_matches(array: &InlineArray<u64, BOUND>, model: &[u64], ctx: &str) {
        assert_eq!(array.len(), model.len(), "len {ctx}");
        assert_eq!(array.is_inline(), model.len() <= BOUND, "arm {ctx}");
        assert_eq!(&array[..], model, "contents {ctx}");
        assert!(array.iter().eq(model.iter()), "iteration {ctx}");
        assert_eq!(format!("{array:?}"), format!("{model:?}"), "debug {ctx}");
    }

    /// Seeded differential run against a plain `Vec` on both sides of the
    /// inline bound: index writes, `fill`, `copy_from_slice` and `Clone`.
    #[test]
    fn both_arms_behave_like_a_vec() {
        let mut rng = StdRng::seed_from_u64(0x1A7E);
        for len in [0, BOUND - 1, BOUND, BOUND + 1, 4 * BOUND] {
            let mut array: InlineArray<u64, BOUND> = InlineArray::new(9, len);
            let mut model = vec![9u64; len];
            assert_matches(&array, &model, &format!("fresh, len {len}"));
            for step in 0..200 {
                let ctx = format!("len {len} step {step}");
                match rng.random_range(0..4usize) {
                    0 if len > 0 => {
                        let i = rng.random_range(0..len);
                        let v = rng.random_range(0..1000u64);
                        array[i] = v;
                        model[i] = v;
                    }
                    1 => {
                        let v = rng.random_range(0..1000u64);
                        array.fill(v);
                        model.fill(v);
                    }
                    2 => {
                        let src: Vec<u64> =
                            (0..len).map(|_| rng.random_range(0..1000u64)).collect();
                        array.copy_from_slice(&src);
                        model.copy_from_slice(&src);
                    }
                    _ => {
                        // A clone is independent of its source.
                        let mut copy = array.clone();
                        assert_matches(&copy, &model, &ctx);
                        copy.fill(u64::MAX);
                    }
                }
                assert_matches(&array, &model, &ctx);
            }
        }
    }

    #[test]
    #[should_panic]
    fn index_past_the_length_panics_on_the_inline_arm() {
        // The filler beyond `len` is not reachable.
        let array: InlineArray<u64, BOUND> = InlineArray::new(0, 2);
        let _ = array[2];
    }
}
