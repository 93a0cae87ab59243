//! SAMQ buffer behaviour inside the 2×2 long-clock switch.
//!
//! Identical departure behaviour to DAMQ (per-output queues behind a single
//! read port) but the storage is **statically split**: each of the two
//! queues owns `capacity / 2` slots, so a packet can be discarded while the
//! other queue's slots sit empty. The paper's Table 2 only lists even buffer
//! sizes for SAMQ/SAFC for exactly this reason.

use crate::switch2x2::{
    single_read_port_departures, swap_count_inputs, swap_count_outputs, BufferModel2x2, Counts,
};

/// SAMQ buffers with `capacity / 2` packet slots statically reserved per
/// output queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamqModel {
    per_queue: u8,
}

impl SamqModel {
    /// Creates the model with `capacity` total slots per input buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, odd, or exceeds 510 (the static split
    /// of a 2×2 switch requires an even capacity).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            capacity.is_multiple_of(2),
            "statically-allocated 2x2 buffers need an even capacity, got {capacity}"
        );
        let per_queue = u8::try_from(capacity / 2).expect("capacity fits");
        SamqModel { per_queue }
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

impl BufferModel2x2 for SamqModel {
    type State = Counts;

    fn empty(&self) -> Counts {
        Counts::default()
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
    fn static_partition_rejects_despite_free_space() {
        let m = SamqModel::new(4); // 2 slots per queue
        let mut s = m.empty();
        assert!(m.accept(&mut s, 0, 1));
        assert!(m.accept(&mut s, 0, 1));
        // Queue for out1 full; out0's two slots are empty but unusable.
        assert!(!m.accept(&mut s, 0, 1));
        assert!(m.accept(&mut s, 0, 0));
    }

    #[test]
    #[should_panic(expected = "even capacity")]
    fn odd_capacity_panics() {
        let _ = SamqModel::new(3);
    }

    #[test]
    fn departures_match_damq_logic() {
        let samq = SamqModel::new(4);
        let damq = crate::damq_model::DamqModel::new(4);
        let s = Counts([[2, 1], [0, 2]]);
        assert_eq!(branches(&samq, &s), branches(&damq, &s));
    }
}
