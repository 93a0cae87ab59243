//! FIFO buffer behaviour inside the 2×2 long-clock switch.
//!
//! A FIFO's state cannot be summarised by per-output counts: the *order* of
//! destinations in the queue matters, because only the head packet is ever
//! transmittable. The state is therefore the exact sequence of destination
//! outputs in each input queue.

use std::fmt;

use crate::switch2x2::BufferModel2x2;

/// FIFO buffers of `capacity` packets each, for the 2×2 Markov model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoModel {
    capacity: u8,
}

/// Joint state: the destination sequence of each input queue, packed into
/// `Copy` words — per queue a length and the destinations as a bitstring,
/// head at bit 0 (bits at and above the length are zero, so equal queues
/// are equal words). Ordered by the lengths, then the bitstrings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FifoState {
    len: [u8; 2],
    bits: [u8; 2],
}

impl FifoState {
    /// Packs two destination sequences (each element 0 or 1), head first.
    ///
    /// # Panics
    ///
    /// Panics if a queue is longer than [`FifoModel::MAX_CAPACITY`] or
    /// names an output other than 0 or 1.
    pub fn pack(queues: [&[u8]; 2]) -> Self {
        let mut state = FifoState::default();
        for (input, queue) in queues.into_iter().enumerate() {
            assert!(queue.len() <= FifoModel::MAX_CAPACITY, "queue too long");
            for &output in queue {
                assert!(output <= 1, "a 2x2 switch has outputs 0 and 1");
                state.push(input, output);
            }
        }
        state
    }

    /// The two destination sequences, head first.
    pub fn unpack(&self) -> [Vec<u8>; 2] {
        [0, 1].map(|i| (0..self.len[i]).map(|k| (self.bits[i] >> k) & 1).collect())
    }

    /// The destination of queue `input`'s head packet, if any.
    fn head(&self, input: usize) -> Option<u8> {
        (self.len[input] > 0).then_some(self.bits[input] & 1)
    }

    fn push(&mut self, input: usize, output: u8) {
        self.bits[input] |= output << self.len[input];
        self.len[input] += 1;
    }

    /// This state with the heads of the `inputs` queues transmitted.
    fn popped(mut self, inputs: &[usize]) -> Self {
        for &input in inputs {
            self.bits[input] >>= 1;
            self.len[input] -= 1;
        }
        self
    }
}

impl fmt::Debug for FifoState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.unpack().fmt(f)
    }
}

impl FifoModel {
    /// Largest capacity the packed [`FifoState`] holds — and, at up to
    /// 511² ordered states, about the largest chain worth enumerating.
    pub const MAX_CAPACITY: usize = 8;

    /// Creates the model with `capacity` packet slots per input buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds [`FifoModel::MAX_CAPACITY`]
    /// ([`discard_probability`](crate::discard_probability) reports
    /// both as errors instead).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "FIFO capacity {capacity} exceeds the model's bound of {}",
            Self::MAX_CAPACITY
        );
        FifoModel {
            capacity: capacity as u8,
        }
    }

    /// Packet slots per input buffer.
    pub fn capacity(&self) -> usize {
        usize::from(self.capacity)
    }
}

impl BufferModel2x2 for FifoModel {
    type State = FifoState;

    fn empty(&self) -> FifoState {
        FifoState::default()
    }

    fn occupancy(&self, state: &FifoState) -> u32 {
        u32::from(state.len[0]) + u32::from(state.len[1])
    }

    fn accept(&self, state: &mut FifoState, input: usize, output: usize) -> bool {
        let fits = state.len[input] < self.capacity;
        if fits {
            state.push(input, output as u8);
        }
        fits
    }

    fn departures(&self, state: &FifoState, mut emit: impl FnMut(FifoState, f64, u32)) {
        match (state.head(0), state.head(1)) {
            (None, None) => emit(*state, 1.0, 0),
            (Some(_), None) => emit(state.popped(&[0]), 1.0, 1),
            (None, Some(_)) => emit(state.popped(&[1]), 1.0, 1),
            (Some(h0), Some(h1)) if h0 != h1 => emit(state.popped(&[0, 1]), 1.0, 2),
            // Head-of-line conflict: one of the two heads goes, from the
            // longest queue, ties split evenly.
            (Some(_), Some(_)) => match state.len[0].cmp(&state.len[1]) {
                std::cmp::Ordering::Greater => emit(state.popped(&[0]), 1.0, 1),
                std::cmp::Ordering::Less => emit(state.popped(&[1]), 1.0, 1),
                std::cmp::Ordering::Equal => {
                    emit(state.popped(&[0]), 0.5, 1);
                    emit(state.popped(&[1]), 0.5, 1);
                }
            },
        }
    }

    fn swap_inputs(&self, state: &FifoState) -> FifoState {
        let mut next = *state;
        next.len.reverse();
        next.bits.reverse();
        next
    }

    fn swap_outputs(&self, state: &FifoState) -> FifoState {
        let mut next = *state;
        for (bits, len) in next.bits.iter_mut().zip(state.len) {
            // Flip the destinations, not the zero padding above them.
            *bits ^= ((1u16 << len) - 1) as u8;
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch2x2::branches;

    #[test]
    fn accept_respects_capacity() {
        let m = FifoModel::new(2);
        let mut s = m.empty();
        assert!(m.accept(&mut s, 0, 1));
        assert!(m.accept(&mut s, 0, 0));
        assert!(!m.accept(&mut s, 0, 1));
        assert_eq!(s.unpack()[0], vec![1, 0]);
        assert!(m.accept(&mut s, 1, 1), "other input unaffected");
    }

    #[test]
    fn distinct_heads_both_depart() {
        let m = FifoModel::new(3);
        let s = FifoState::pack([&[0, 1], &[1]]);
        let branches = branches(&m, &s);
        assert_eq!(branches, vec![(FifoState::pack([&[1], &[]]), 1.0, 2)]);
    }

    #[test]
    fn conflicting_heads_longest_queue_wins() {
        let m = FifoModel::new(3);
        let s = FifoState::pack([&[0], &[0, 1]]);
        let branches = branches(&m, &s);
        // The shorter queue keeps its head.
        assert_eq!(branches, vec![(FifoState::pack([&[0], &[1]]), 1.0, 1)]);
    }

    #[test]
    fn conflicting_heads_tie_splits() {
        let m = FifoModel::new(3);
        let s = FifoState::pack([&[1, 0], &[1, 1]]);
        let branches = branches(&m, &s);
        assert_eq!(
            branches,
            vec![
                (FifoState::pack([&[0], &[1, 1]]), 0.5, 1),
                (FifoState::pack([&[1, 0], &[1]]), 0.5, 1),
            ]
        );
    }

    #[test]
    fn head_of_line_blocking_visible_in_model() {
        // Input 0's second packet wants the idle output 1, but its head
        // conflicts with input 1's head on output 0: only 1 packet departs
        // on the conflict branch involving input 1.
        let m = FifoModel::new(3);
        let s = FifoState::pack([&[0, 1], &[0]]);
        let branches = branches(&m, &s);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].2, 1, "HOL blocking: out1 stays idle");
    }

    #[test]
    fn single_nonempty_queue_departs_one() {
        let m = FifoModel::new(2);
        let s = FifoState::pack([&[], &[0, 0]]);
        let branches = branches(&m, &s);
        assert_eq!(branches, vec![(FifoState::pack([&[], &[0]]), 1.0, 1)]);
    }

    #[test]
    fn swaps_exchange_queues_and_flip_destinations_below_the_length() {
        let m = FifoModel::new(FifoModel::MAX_CAPACITY);
        let full = [0, 1, 1, 0, 0, 0, 1, 0];
        let s = FifoState::pack([&full, &[1]]);
        assert_eq!(m.swap_inputs(&s), FifoState::pack([&[1], &full]));
        assert_eq!(
            m.swap_outputs(&s),
            FifoState::pack([&[1, 0, 0, 1, 1, 1, 0, 1], &[0]])
        );
        assert_eq!(m.swap_outputs(&m.empty()), m.empty());
    }

    #[test]
    fn debug_prints_the_unpacked_queues() {
        let s = FifoState::pack([&[0, 1, 1], &[]]);
        assert_eq!(format!("{s:?}"), "[[0, 1, 1], []]");
    }

    #[test]
    #[should_panic(expected = "exceeds the model's bound")]
    fn capacity_past_the_packing_bound_panics() {
        let _ = FifoModel::new(FifoModel::MAX_CAPACITY + 1);
    }
}
