//! DAFC buffer behaviour inside the 2×2 long-clock switch (ablation).
//!
//! Dynamic shared storage (like [`DamqModel`](crate::DamqModel)) combined
//! with a read port per output (like [`SafcModel`](crate::SafcModel)):
//! the fourth corner of the allocation × connectivity design matrix, used
//! to measure how much read bandwidth matters once storage is shared.

use crate::switch2x2::{
    fully_connected_departures, swap_count_inputs, swap_count_outputs, BufferModel2x2, Counts,
};

/// DAFC buffers of `capacity` shared packet slots per input, fully
/// connected to the outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DafcModel {
    capacity: u8,
}

impl DafcModel {
    /// Creates the model with `capacity` packet slots per input buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds 255.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let capacity = u8::try_from(capacity).expect("capacity fits in u8");
        DafcModel { capacity }
    }

    /// Packet slots per input buffer.
    pub fn capacity(&self) -> usize {
        usize::from(self.capacity)
    }
}

impl BufferModel2x2 for DafcModel {
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
    fn dynamic_acceptance_like_damq() {
        let m = DafcModel::new(2);
        let mut s = m.empty();
        assert!(m.accept(&mut s, 0, 1));
        assert!(m.accept(&mut s, 0, 1));
        assert!(!m.accept(&mut s, 0, 0), "shared pool exhausted");
    }

    #[test]
    fn fully_connected_departures_like_safc() {
        let m = DafcModel::new(4);
        let s: Counts = [[2, 1], [0, 0]];
        let branches = branches(&m, &s);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].2, 2, "one input feeds both outputs");
    }
}
