//! Bit words: the per-cycle yes/no state of a crossbar.
//!
//! Whether an output is already driven is one bit. Every switch up to
//! radix 64 needs one machine word of them, held inline and cleared with
//! one store at the end of the cycle; wider switches keep the bits past
//! the first word in one heap block and behave identically.

/// A fixed-size set of small indices, one bit each, all clear at birth.
///
/// The first 64 indices live in a word inside the set itself, so the
/// common shapes test a bit with one compare and one shift — no pointer,
/// no bounds check; indices from 64 up live in one exact-size heap block
/// (empty, and unallocated, when there are none).
#[derive(Debug, Clone)]
pub(crate) struct BitWords {
    first: u64,
    rest: Box<[u64]>,
}

impl BitWords {
    /// A set over indices `0..bits`.
    pub(crate) fn new(bits: usize) -> Self {
        BitWords {
            first: 0,
            rest: vec![0; bits.div_ceil(64).saturating_sub(1)].into_boxed_slice(),
        }
    }

    /// Whether index `i` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` lies beyond the last word.
    pub(crate) fn get(&self, i: usize) -> bool {
        let word = if i < 64 {
            self.first
        } else {
            self.rest[i / 64 - 1]
        };
        word >> (i % 64) & 1 != 0
    }

    /// Adds index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` lies beyond the last word.
    pub(crate) fn set(&mut self, i: usize) {
        let word = if i < 64 {
            &mut self.first
        } else {
            &mut self.rest[i / 64 - 1]
        };
        *word |= 1 << (i % 64);
    }

    /// Empties the set.
    pub(crate) fn clear(&mut self) {
        self.first = 0;
        // Not `fill`: that is an out-of-line `memset` call even for the
        // empty block of every switch up to radix 8.
        for word in &mut *self.rest {
            *word = 0;
        }
    }

    /// Whether the whole set lives inside its owner (no heap block).
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        self.rest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_and_clears_across_word_boundaries() {
        // 16 bits (radix 4), exactly one word (radix 8), four words
        // (radix 16).
        for bits in [16usize, 64, 256] {
            let mut set = BitWords::new(bits);
            assert_eq!(set.is_inline(), bits <= 64, "{bits}");
            let picks = [0, 1, bits / 2 - 1, bits / 2, bits - 1];
            for &i in &picks {
                assert!(!set.get(i), "{bits}/{i}");
                set.set(i);
                assert!(set.get(i), "{bits}/{i}");
            }
            // Exactly the picks are set: neighbours of a set bit stay clear.
            assert!((0..bits).all(|i| set.get(i) == picks.contains(&i)));
            set.clear();
            assert!((0..bits).all(|i| !set.get(i)), "{bits}");
        }
    }

    #[test]
    fn empty_universe_is_an_empty_set() {
        let set = BitWords::new(0);
        assert!(set.is_inline());
        assert!(!set.get(0));
    }
}
