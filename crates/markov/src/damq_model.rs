//! DAMQ buffer behaviour inside the 2×2 long-clock switch.
//!
//! Per-output queues with a **shared** slot pool: the state per input is
//! just the pair of queue lengths, constrained by their *sum* (dynamic
//! allocation). The order of packets within a queue is immaterial because
//! any queued packet for output *o* is interchangeable under fixed-length,
//! single-destination semantics.

use crate::switch2x2::{
    single_read_port_departures, swap_count_inputs, swap_count_outputs, BufferModel2x2, Counts,
};

/// DAMQ buffers of `capacity` shared packet slots per input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DamqModel {
    capacity: u8,
}

impl DamqModel {
    /// Creates the model with `capacity` packet slots per input buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds 255.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let capacity = u8::try_from(capacity).expect("capacity fits in u8");
        DamqModel { capacity }
    }

    /// Packet slots per input buffer.
    pub fn capacity(&self) -> usize {
        usize::from(self.capacity)
    }
}

impl BufferModel2x2 for DamqModel {
    type State = Counts;

    fn empty(&self) -> Counts {
        [[0, 0], [0, 0]]
    }

    fn occupancy(&self, state: &Counts) -> u32 {
        state.iter().flatten().map(|&c| u32::from(c)).sum()
    }

    fn accept(&self, state: &mut Counts, input: usize, output: usize) -> bool {
        if state[input][0] + state[input][1] < self.capacity {
            state[input][output] += 1;
            true
        } else {
            false
        }
    }

    fn departures(&self, state: &Counts, emit: impl FnMut(Counts, f64, u32)) {
        single_read_port_departures(state, emit);
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
    fn shared_pool_accepts_any_mix_up_to_capacity() {
        let m = DamqModel::new(3);
        let mut s = m.empty();
        assert!(m.accept(&mut s, 0, 0));
        assert!(m.accept(&mut s, 0, 0));
        assert!(m.accept(&mut s, 0, 1));
        // Pool exhausted for input 0, regardless of output.
        assert!(!m.accept(&mut s, 0, 0));
        assert!(!m.accept(&mut s, 0, 1));
        assert_eq!(s[0], [2, 1]);
    }

    #[test]
    fn no_head_of_line_blocking_in_departures() {
        // Input 0 holds packets for both outputs; input 1 for out0 only.
        // Two packets depart (crossed assignment), unlike the FIFO model.
        let m = DamqModel::new(4);
        let s: Counts = [[1, 1], [1, 0]];
        let branches = branches(&m, &s);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].2, 2);
        assert_eq!(branches[0].0, [[1, 0], [0, 0]]);
    }

    #[test]
    fn conflict_only_case_sends_one_from_longest() {
        let m = DamqModel::new(4);
        let s: Counts = [[3, 0], [1, 0]];
        let branches = branches(&m, &s);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].0, [[2, 0], [1, 0]]);
        assert_eq!(branches[0].2, 1);
    }

    #[test]
    fn empty_buffers_idle() {
        let m = DamqModel::new(2);
        let branches = branches(&m, &m.empty());
        assert_eq!(branches, vec![([[0, 0], [0, 0]], 1.0, 0)]);
    }
}
