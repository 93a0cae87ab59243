//! SAFC buffer behaviour inside the 2×2 long-clock switch.
//!
//! Storage is statically split exactly like SAMQ, but the fully-connected
//! read fabric lets one input buffer feed **both** outputs in the same
//! cycle. Each output independently serves the input with the longer queue
//! for it.

use crate::switch2x2::{
    fully_connected_departures, swap_count_inputs, swap_count_outputs, BufferModel2x2, Counts,
};

/// SAFC buffers with `capacity / 2` packet slots statically reserved per
/// output queue and one read port per output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafcModel {
    per_queue: u8,
}

impl SafcModel {
    /// Creates the model with `capacity` total slots per input buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, odd, or exceeds 510.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            capacity.is_multiple_of(2),
            "statically-allocated 2x2 buffers need an even capacity, got {capacity}"
        );
        let per_queue = u8::try_from(capacity / 2).expect("capacity fits");
        SafcModel { per_queue }
    }

    /// Total slots per input buffer.
    pub fn capacity(&self) -> usize {
        usize::from(self.per_queue) * 2
    }

    /// Slots reserved for each output's queue.
    pub fn per_queue_capacity(&self) -> usize {
        usize::from(self.per_queue)
    }
}

impl BufferModel2x2 for SafcModel {
    type State = Counts;

    fn empty(&self) -> Counts {
        [[0, 0], [0, 0]]
    }

    fn occupancy(&self, state: &Counts) -> u32 {
        state.iter().flatten().map(|&c| u32::from(c)).sum()
    }

    fn accept(&self, state: &mut Counts, input: usize, output: usize) -> bool {
        if state[input][output] < self.per_queue {
            state[input][output] += 1;
            true
        } else {
            false
        }
    }

    fn departures(&self, state: &Counts, emit: impl FnMut(Counts, f64, u32)) {
        fully_connected_departures(state, emit);
    }

    fn swap_inputs(&self, state: &Counts) -> Counts {
        swap_count_inputs(state)
    }

    fn swap_outputs(&self, state: &Counts) -> Counts {
        swap_count_outputs(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch2x2::branches;

    #[test]
    fn one_input_can_feed_both_outputs() {
        let m = SafcModel::new(4);
        let s: Counts = [[1, 1], [0, 0]];
        let branches = branches(&m, &s);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].2, 2, "fully connected sends both");
        assert_eq!(branches[0].0, [[0, 0], [0, 0]]);
    }

    #[test]
    fn samq_cannot_do_what_safc_does_here() {
        // Contrast with the single-read-port logic on the same state.
        let samq = crate::samq_model::SamqModel::new(4);
        let s: Counts = [[1, 1], [0, 0]];
        let branches = branches(&samq, &s);
        for (_, _, sent) in branches {
            assert_eq!(sent, 1, "single read port sends only one");
        }
    }

    #[test]
    fn per_output_conflicts_resolve_independently() {
        let m = SafcModel::new(6);
        // out0 contested (input1 longer); out1 contested (tie -> branches).
        let s: Counts = [[1, 2], [3, 2]];
        let branches = branches(&m, &s);
        assert_eq!(branches.len(), 2);
        for (next, p, sent) in branches {
            assert_eq!(sent, 2);
            assert!((p - 0.5).abs() < 1e-15);
            // input1 always serves out0.
            assert_eq!(next[1][0], 2);
        }
    }

    #[test]
    fn acceptance_is_static_like_samq() {
        let m = SafcModel::new(2); // one slot per queue
        let mut s = m.empty();
        assert!(m.accept(&mut s, 1, 0));
        assert!(!m.accept(&mut s, 1, 0));
        assert!(m.accept(&mut s, 1, 1));
    }
}
