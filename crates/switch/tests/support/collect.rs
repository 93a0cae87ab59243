//! The switch tests' collecting adapter: one cycle run through
//! `Switch::transmit_cycle_with`, flow control answered by a closure and
//! the departures gathered into a `Vec`. It allocates every cycle, which
//! the kernel never does, so it lives with the tests. The crate's unit
//! tests and its integration tests share it by `#[path]`; each includer
//! has the names imported below in scope.

use super::{CycleSink, FrontMeta, InputPort, OutputPort, Packet, Switch, SwitchBuffer};

/// One packet that left a switch in a cycle.
#[derive(Debug)]
pub struct Departure {
    /// Buffer the packet came from.
    pub input: InputPort,
    /// Output port it left through.
    pub output: OutputPort,
    /// The packet itself (hop already recorded).
    pub packet: Packet,
}

struct Collect<F> {
    can_send: F,
    departures: Vec<Departure>,
}

impl<F: FnMut(OutputPort, FrontMeta) -> bool> CycleSink for Collect<F> {
    fn can_send(&mut self, output: OutputPort, front: FrontMeta) -> bool {
        (self.can_send)(output, front)
    }

    fn depart(&mut self, input: InputPort, output: OutputPort, packet: Packet) {
        self.departures.push(Departure {
            input,
            output,
            packet,
        });
    }
}

/// Runs one arbitration cycle of `switch` with `can_send` as its flow
/// control, and returns the departures in the order the kernel made them.
pub fn transmit<B: SwitchBuffer>(
    switch: &mut Switch<B>,
    can_send: impl FnMut(OutputPort, FrontMeta) -> bool,
) -> Vec<Departure> {
    let mut sink = Collect {
        can_send,
        departures: Vec::new(),
    };
    switch.transmit_cycle_with(&mut sink);
    sink.departures
}
