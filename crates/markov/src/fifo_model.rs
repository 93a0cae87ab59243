//! FIFO buffer behaviour inside the 2×2 long-clock switch.
//!
//! A FIFO's state cannot be summarised by per-output counts: only the head
//! packet is ever transmittable, so which destination sits at the head
//! matters. It need not be the whole destination sequence, though. Each
//! packet behind the head had its destination drawn uniformly on arrival,
//! and nothing — acceptance, arbitration, any reward — reads it until that
//! packet reaches the head. By the principle of deferred decisions the
//! draw can be made then instead: the state is each queue's length and its
//! head's destination, and when a head departs from a queue that still
//! holds packets, the new head's destination is revealed, either output
//! with probability ½. The same deferral applies at arrival: a packet
//! that joins a non-empty queue leaves the same state whichever output it
//! is bound for, so [`Switch2x2`](crate::Switch2x2) emits its two
//! destinations as one branch (see the `switch2x2` module docs).
//!
//! The head-only chain is exact. It aggregates the chain over full
//! destination sequences, and from any distribution that is uniform over
//! the hidden destinations its step lands on one that is uniform again —
//! weak lumpability with a uniform within-class distribution (Kemeny &
//! Snell, *Finite Markov Chains*, §6.3–6.4). Stationary probabilities,
//! discards, departures and occupancy are the full chain's, projected.
//! Per queue there are `1 + 2·capacity` states instead of
//! `2^(capacity+1) − 1`; [`arrangements`](BufferModel2x2::arrangements)
//! says how many full states each one stands for. The differential in
//! `crates/markov/tests/explore_reference.rs` holds the model to the full
//! chain.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::switch2x2::BufferModel2x2;

/// FIFO buffers of `capacity` packets each, for the 2×2 Markov model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoModel {
    capacity: u8,
}

/// Joint state of the two FIFO queues as far as the switch can observe
/// it: per queue, its length and its head packet's destination (0 on an
/// empty queue, so equal observations are equal words). The packets
/// behind each head are hidden; see the module docs for why that is
/// exact. Ordered by the lengths, then the heads: the word `[len₀, len₁,
/// head₀, head₁]` read big-endian, so [`Switch2x2`](crate::Switch2x2)
/// finds each orbit's least member by integer compares.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct FifoState {
    len: [u8; 2],
    head: [u8; 2],
}

impl Ord for FifoState {
    fn cmp(&self, other: &Self) -> Ordering {
        self.word().cmp(&other.word())
    }
}

impl PartialOrd for FifoState {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for FifoState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.word());
    }
}

impl FifoState {
    /// The state two destination sequences (each element 0 or 1, head
    /// first) project to: their lengths and heads. Sequences that differ
    /// only behind their heads pack to the same state.
    ///
    /// # Panics
    ///
    /// Panics if a queue is longer than [`FifoModel::MAX_CAPACITY`] or
    /// names an output other than 0 or 1.
    pub fn pack(queues: [&[u8]; 2]) -> Self {
        let mut state = FifoState::default();
        for (input, queue) in queues.into_iter().enumerate() {
            assert!(queue.len() <= FifoModel::MAX_CAPACITY, "queue too long");
            assert!(
                queue.iter().all(|&output| output <= 1),
                "a 2x2 switch has outputs 0 and 1"
            );
            state.len[input] = queue.len() as u8;
            state.head[input] = queue.first().copied().unwrap_or(0);
        }
        state
    }

    /// Packets in queue `input` (0 or 1).
    pub fn len(&self, input: usize) -> usize {
        usize::from(self.len[input])
    }

    /// The destination of queue `input`'s head packet, if any.
    pub fn head(&self, input: usize) -> Option<u8> {
        (self.len[input] > 0).then_some(self.head[input])
    }

    /// The lengths, then the heads, as one word, first byte most
    /// significant.
    fn word(&self) -> u32 {
        let ([len0, len1], [head0, head1]) = (self.len, self.head);
        u32::from_be_bytes([len0, len1, head0, head1])
    }
}

impl fmt::Debug for FifoState {
    /// The two queues head first, each hidden packet written `_`:
    /// `[[1, _, _], []]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let queue = |input| match self.head(input) {
            Some(head) => format!("[{head}{}]", ", _".repeat(self.len(input) - 1)),
            None => "[]".to_owned(),
        };
        write!(f, "[{}, {}]", queue(0), queue(1))
    }
}

impl FifoModel {
    /// Largest capacity the model accepts. The head-only chain itself
    /// would hold far more (it grows as capacity², not 4^capacity); the
    /// bound is where the chain over full destination sequences, which
    /// the model is proved against, can still be enumerated.
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

/// Emits `state` with the heads of `inputs` transmitted, at probability
/// `p`. Each of those queues that still holds packets reveals its new
/// head, bound for either output with probability ½: up to four branches,
/// new heads in counting order (the first revealed queue's bit varies
/// fastest).
fn reveal(state: &FifoState, inputs: &[usize], p: f64, emit: &mut impl FnMut(FifoState, f64, u32)) {
    let mut next = *state;
    let (mut hidden, mut revealed) = ([0; 2], 0);
    for &input in inputs {
        next.len[input] -= 1;
        next.head[input] = 0;
        if next.len[input] > 0 {
            hidden[revealed] = input;
            revealed += 1;
        }
    }
    // Exact: `p` is 1 or ½ and the divisor a power of two.
    let share = p / f64::from(1u8 << revealed);
    for word in 0..1u8 << revealed {
        for (bit, &input) in hidden[..revealed].iter().enumerate() {
            next.head[input] = (word >> bit) & 1;
        }
        emit(next, share, inputs.len() as u32);
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
            // Behind a head the destination stays hidden until it leads.
            if state.len[input] == 0 {
                state.head[input] = output as u8;
            }
            state.len[input] += 1;
        }
        fits
    }

    fn departures(&self, state: &FifoState, mut emit: impl FnMut(FifoState, f64, u32)) {
        let emit = &mut emit;
        match (state.head(0), state.head(1)) {
            (None, None) => emit(*state, 1.0, 0),
            (Some(_), None) => reveal(state, &[0], 1.0, emit),
            (None, Some(_)) => reveal(state, &[1], 1.0, emit),
            (Some(h0), Some(h1)) if h0 != h1 => reveal(state, &[0, 1], 1.0, emit),
            // Head-of-line conflict: one of the two heads goes, from the
            // longest queue, ties split evenly.
            (Some(_), Some(_)) => match state.len[0].cmp(&state.len[1]) {
                std::cmp::Ordering::Greater => reveal(state, &[0], 1.0, emit),
                std::cmp::Ordering::Less => reveal(state, &[1], 1.0, emit),
                std::cmp::Ordering::Equal => {
                    reveal(state, &[0], 0.5, emit);
                    reveal(state, &[1], 0.5, emit);
                }
            },
        }
    }

    fn swap_inputs(&self, state: &FifoState) -> FifoState {
        let mut next = *state;
        next.len.reverse();
        next.head.reverse();
        next
    }

    fn swap_outputs(&self, state: &FifoState) -> FifoState {
        let mut next = *state;
        for (head, len) in next.head.iter_mut().zip(state.len) {
            // Flip a head, not an empty queue's zero.
            *head ^= u8::from(len > 0);
        }
        next
    }

    /// `2^(Σ max(len − 1, 0))`: every destination sequence behind the two
    /// heads.
    fn arrangements(&self, state: &FifoState) -> usize {
        let hidden = |len: u8| u32::from(len.saturating_sub(1));
        1 << (hidden(state.len[0]) + hidden(state.len[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch2x2::branches;

    #[test]
    fn accept_respects_capacity_and_keeps_the_head() {
        let m = FifoModel::new(2);
        let mut s = m.empty();
        assert!(m.accept(&mut s, 0, 1));
        assert!(m.accept(&mut s, 0, 0));
        assert!(!m.accept(&mut s, 0, 1));
        assert_eq!(s, FifoState::pack([&[1, 0], &[]]));
        assert_eq!((s.len(0), s.head(0)), (2, Some(1)));
        assert!(m.accept(&mut s, 1, 1), "other input unaffected");
        assert_eq!((s.len(1), s.head(1)), (1, Some(1)));
    }

    #[test]
    fn distinct_heads_both_depart_and_a_remaining_head_is_revealed() {
        let m = FifoModel::new(3);
        let s = FifoState::pack([&[0, 1], &[1]]);
        assert_eq!(
            branches(&m, &s),
            vec![
                (FifoState::pack([&[0], &[]]), 0.5, 2),
                (FifoState::pack([&[1], &[]]), 0.5, 2),
            ]
        );
    }

    #[test]
    fn two_reveals_split_four_ways() {
        let m = FifoModel::new(3);
        let s = FifoState::pack([&[0, 0], &[1, 1, 1]]);
        let new = |h0: u8, h1: u8| FifoState::pack([&[h0], &[h1, 0]]);
        assert_eq!(
            branches(&m, &s),
            vec![
                (new(0, 0), 0.25, 2),
                (new(1, 0), 0.25, 2),
                (new(0, 1), 0.25, 2),
                (new(1, 1), 0.25, 2),
            ]
        );
    }

    #[test]
    fn conflicting_heads_longest_queue_wins() {
        let m = FifoModel::new(3);
        let s = FifoState::pack([&[0], &[0, 1]]);
        // The shorter queue keeps its head.
        assert_eq!(
            branches(&m, &s),
            vec![
                (FifoState::pack([&[0], &[0]]), 0.5, 1),
                (FifoState::pack([&[0], &[1]]), 0.5, 1),
            ]
        );
    }

    #[test]
    fn conflicting_heads_tie_splits() {
        let m = FifoModel::new(3);
        let s = FifoState::pack([&[1], &[1]]);
        assert_eq!(
            branches(&m, &s),
            vec![
                (FifoState::pack([&[], &[1]]), 0.5, 1),
                (FifoState::pack([&[1], &[]]), 0.5, 1),
            ]
        );
    }

    #[test]
    fn head_of_line_blocking_visible_in_model() {
        // Input 0's second packet may want the idle output 1, but its head
        // conflicts with input 1's head on output 0: one packet departs.
        let m = FifoModel::new(3);
        let s = FifoState::pack([&[0, 1], &[0]]);
        let branches = branches(&m, &s);
        assert_eq!(branches.len(), 2, "the new head is revealed");
        assert!(branches.iter().all(|b| b.2 == 1), "HOL blocking: out1 idle");
    }

    #[test]
    fn a_queue_that_empties_reveals_nothing() {
        let m = FifoModel::new(2);
        let s = FifoState::pack([&[], &[1]]);
        assert_eq!(branches(&m, &s), vec![(m.empty(), 1.0, 1)]);
    }

    #[test]
    fn swaps_exchange_queues_and_flip_only_heads() {
        let m = FifoModel::new(FifoModel::MAX_CAPACITY);
        let full = [0, 1, 1, 0, 0, 0, 1, 0];
        let s = FifoState::pack([&full, &[]]);
        assert_eq!(m.swap_inputs(&s), FifoState::pack([&[], &full]));
        assert_eq!(m.swap_outputs(&s), FifoState::pack([&[1; 8], &[]]));
        assert_eq!(m.swap_outputs(&m.empty()), m.empty());
    }

    #[test]
    fn arrangements_count_the_hidden_sequences() {
        let m = FifoModel::new(8);
        assert_eq!(m.arrangements(&m.empty()), 1);
        assert_eq!(m.arrangements(&FifoState::pack([&[1], &[0]])), 1);
        assert_eq!(m.arrangements(&FifoState::pack([&[1, 0, 0], &[0, 1]])), 8);
        assert_eq!(
            m.arrangements(&FifoState::pack([&[0; 8], &[1; 8]])),
            1 << 14
        );
    }

    #[test]
    fn pack_projects_sequences_onto_lengths_and_heads() {
        let s = FifoState::pack([&[0, 1, 1], &[]]);
        assert_eq!(s, FifoState::pack([&[0, 0, 0], &[]]));
        assert_ne!(s, FifoState::pack([&[1, 1, 1], &[]]));
        assert_eq!(
            (s.len(0), s.head(0), s.len(1), s.head(1)),
            (3, Some(0), 0, None)
        );
    }

    #[test]
    fn debug_marks_hidden_packets() {
        let s = FifoState::pack([&[1, 0, 1], &[]]);
        assert_eq!(format!("{s:?}"), "[[1, _, _], []]");
        assert_eq!(
            format!("{:?}", FifoState::pack([&[0], &[1, 1]])),
            "[[0], [1, _]]"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the model's bound")]
    fn capacity_past_the_bound_panics() {
        let _ = FifoModel::new(FifoModel::MAX_CAPACITY + 1);
    }
}
