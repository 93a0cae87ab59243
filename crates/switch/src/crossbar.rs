//! The crossbar connection matrix.
//!
//! A crossbar connects input buffers to output ports. Within one cycle each
//! output may be driven by at most one input; how many connections a single
//! input may hold simultaneously depends on the buffer design (1, or the
//! fanout for SAFC's fully-connected fabric). [`Crossbar`] tracks and
//! validates the connections made during one arbitration round.

use damq_core::{InputPort, OutputPort};

use crate::bits::BitWords;

/// Per-cycle crossbar state: which outputs are already driven.
///
/// The arbiter grants an output to the first buffer that wins it and
/// every later buffer only needs to know the output is gone, so the
/// state is one bit per output — a single word for any switch up to
/// radix 64, cleared with one store when the cycle ends.
///
/// # Examples
///
/// ```
/// use damq_switch::Crossbar;
/// use damq_core::{InputPort, OutputPort};
///
/// let mut xbar = Crossbar::new(4, 4);
/// assert!(xbar.try_connect(InputPort::new(1), OutputPort::new(2)));
/// assert!(!xbar.try_connect(InputPort::new(3), OutputPort::new(2))); // taken
/// assert!(!xbar.is_free(OutputPort::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    inputs: usize,
    outputs: usize,
    driven: BitWords,
    connections_made: u64,
    cycles: u64,
}

impl Crossbar {
    /// Creates an `inputs`×`outputs` crossbar with no connections.
    pub fn new(inputs: usize, outputs: usize) -> Self {
        Crossbar {
            inputs,
            outputs,
            driven: BitWords::new(outputs),
            connections_made: 0,
            cycles: 0,
        }
    }

    /// Number of input ports.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output ports.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Whether `output` is still unclaimed this cycle.
    pub fn is_free(&self, output: OutputPort) -> bool {
        output.index() < self.outputs && !self.driven.get(output.index())
    }

    /// Claims `output` for `input`. Returns `false` (and changes nothing) if
    /// the output is already driven or out of range.
    pub fn try_connect(&mut self, input: InputPort, output: OutputPort) -> bool {
        if input.index() >= self.inputs || !self.is_free(output) {
            return false;
        }
        self.driven.set(output.index());
        self.connections_made += 1;
        true
    }

    /// Connections established in the current cycle.
    pub fn active_connections(&self) -> usize {
        self.driven.count()
    }

    /// Clears all connections, ending the cycle.
    pub fn release_all(&mut self) {
        self.driven.clear();
        self.cycles += 1;
    }

    /// Ends a cycle in which no connection was attempted (the switch was
    /// quiescent). Equivalent to `release_all` on an unused crossbar, minus
    /// the redundant clear.
    pub fn tick_idle_cycle(&mut self) {
        debug_assert!(self.driven.is_clear());
        self.cycles += 1;
    }

    /// Mean fraction of outputs driven per completed cycle (crossbar
    /// utilisation so far).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 || self.outputs == 0 {
            0.0
        } else {
            self.connections_made as f64 / (self.cycles as f64 * self.outputs as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connects_and_blocks_double_drive() {
        let mut x = Crossbar::new(2, 2);
        assert!(x.try_connect(InputPort::new(0), OutputPort::new(0)));
        assert!(x.try_connect(InputPort::new(1), OutputPort::new(1)));
        assert!(!x.try_connect(InputPort::new(0), OutputPort::new(1)));
        assert_eq!(x.active_connections(), 2);
    }

    #[test]
    fn one_input_may_drive_many_outputs() {
        // The fully-connected (SAFC) case: input 0 feeds all outputs.
        let mut x = Crossbar::new(4, 4);
        for o in 0..4 {
            assert!(x.try_connect(InputPort::new(0), OutputPort::new(o)));
        }
        assert_eq!(x.active_connections(), 4);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut x = Crossbar::new(2, 2);
        assert!(!x.try_connect(InputPort::new(2), OutputPort::new(0)));
        assert!(!x.try_connect(InputPort::new(0), OutputPort::new(2)));
    }

    #[test]
    fn release_all_resets_and_counts_cycles() {
        let mut x = Crossbar::new(2, 2);
        x.try_connect(InputPort::new(0), OutputPort::new(1));
        x.release_all();
        assert!(x.is_free(OutputPort::new(1)));
        assert_eq!(x.active_connections(), 0);
        // One of two outputs used for one cycle -> 50% utilisation.
        assert!((x.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn outputs_past_one_word_connect_and_release() {
        let mut x = Crossbar::new(70, 70);
        for o in [0, 63, 64, 69] {
            assert!(x.try_connect(InputPort::new(o), OutputPort::new(o)));
            assert!(!x.is_free(OutputPort::new(o)));
        }
        assert_eq!(x.active_connections(), 4);
        assert!(!x.try_connect(InputPort::new(0), OutputPort::new(70)));
        x.release_all();
        assert!((0..70).all(|o| x.is_free(OutputPort::new(o))));
    }

    #[test]
    fn utilization_zero_before_any_cycle() {
        assert_eq!(Crossbar::new(2, 2).utilization(), 0.0);
    }
}
