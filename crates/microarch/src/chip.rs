//! The ComCoBB chip: ports, buffers, crossbar and clock.
//!
//! The chip has four network ports and a processor interface, all joined by
//! a 5×5 crossbar (paper §3). Every input port owns a DAMQ buffer
//! ([`LinkedSlotBuffer`]), a router with a virtual-circuit table, and a
//! receiver FSM; every output port owns a transmitter FSM. A central
//! arbiter connects buffers to outputs each cycle.
//!
//! [`Chip::tick`] advances one 20 MHz clock cycle in two phases:
//!
//! * **phase 0** — transmitters drive their output latches onto the links
//!   and pull the next byte through the crossbar; receivers consume the
//!   synchronizer output and write data bytes into buffer slots;
//! * **phase 1** — the arbiter makes new connections (from queue state as
//!   of the previous cycle, modelling its one-cycle latency), then routers
//!   route headers and length registers are latched.
//!
//! This schedule reproduces Table 1 of the paper exactly: a packet whose
//! start bit arrives at cycle 0 has its start bit driven downstream at
//! cycle 4, phase 0 — virtual cut-through in four clock cycles.

use crate::arbiter::CentralArbiter;
use crate::error::MicroarchError;
use crate::link::{InputWire, OutputLog};
use crate::ports::{Receiver, Transmitter};
use crate::router::{RouteEntry, RoutingTable};
use crate::slotbuf::{LinkedSlotBuffer, DEFAULT_SLOTS};
use crate::trace::{ChipEvent, Phase, Trace};

/// Number of ports on the ComCoBB chip: four network ports plus the
/// processor interface.
pub const COMCOBB_PORTS: usize = 5;

/// Index of the processor-interface port.
pub const PROCESSOR_PORT: usize = 4;

/// Static configuration of a chip instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipConfig {
    ports: usize,
    slots_per_buffer: usize,
}

impl ChipConfig {
    /// The ComCoBB configuration: 5 ports, 12 slots per buffer.
    pub fn comcobb() -> Self {
        ChipConfig {
            ports: COMCOBB_PORTS,
            slots_per_buffer: DEFAULT_SLOTS,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Slots per input buffer.
    pub fn slots(&self) -> usize {
        self.slots_per_buffer
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::comcobb()
    }
}

/// A cycle-accurate behavioural model of the ComCoBB communication
/// coprocessor.
///
/// # Examples
///
/// Virtual cut-through in four cycles (the paper's Table 1):
///
/// ```
/// use damq_microarch::{Chip, ChipConfig, RouteEntry};
///
/// let mut chip = Chip::new(ChipConfig::comcobb());
/// chip.program_route(0, 0x21, RouteEntry { output: 2, new_header: 0x22 })?;
/// chip.input_wire_mut(0).drive_packet(0, 0x21, &[1, 2, 3, 4]);
/// chip.run_until(20);
///
/// let sent = chip.output_log(2).packets();
/// assert_eq!(sent, vec![(4, 0x22, vec![1, 2, 3, 4])]);
/// # Ok::<(), damq_microarch::MicroarchError>(())
/// ```
#[derive(Debug)]
pub struct Chip {
    config: ChipConfig,
    cycle: u64,
    wires: Vec<InputWire>,
    logs: Vec<OutputLog>,
    buffers: Vec<LinkedSlotBuffer>,
    tables: Vec<RoutingTable>,
    receivers: Vec<Receiver>,
    transmitters: Vec<Transmitter>,
    arbiter: CentralArbiter,
    /// Input read buses currently free (a DAMQ buffer feeds one output
    /// at a time, so a connected bus is unavailable until end of packet).
    input_bus_free: Vec<bool>,
    /// Whether each output's downstream node can accept a packet.
    downstream_ready: Vec<bool>,
    trace: Trace,
}

impl Chip {
    /// Builds an idle chip.
    pub fn new(config: ChipConfig) -> Self {
        let n = config.ports();
        Chip {
            config,
            cycle: 0,
            wires: (0..n).map(|_| InputWire::new()).collect(),
            logs: (0..n).map(|_| OutputLog::new()).collect(),
            buffers: (0..n)
                .map(|_| LinkedSlotBuffer::new(config.slots(), n))
                .collect(),
            tables: (0..n).map(|_| RoutingTable::new(n)).collect(),
            receivers: (0..n).map(Receiver::new).collect(),
            transmitters: (0..n).map(Transmitter::new).collect(),
            arbiter: CentralArbiter::new(n),
            input_bus_free: vec![true; n],
            downstream_ready: vec![true; n],
            trace: Trace::new(),
        }
    }

    /// The chip's configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The next cycle to be simulated.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Programs a virtual circuit on `input`: packets whose header is
    /// `header` leave through `entry.output` carrying `entry.new_header`.
    ///
    /// # Errors
    ///
    /// [`MicroarchError::RouteTurnsBack`] if the entry routes straight back
    /// out of the arrival port (forbidden on the ComCoBB), or
    /// [`MicroarchError::NoRoute`] if the output index is invalid.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn program_route(
        &mut self,
        input: usize,
        header: u8,
        entry: RouteEntry,
    ) -> Result<(), MicroarchError> {
        if entry.output == input {
            return Err(MicroarchError::RouteTurnsBack { port: input });
        }
        self.tables[input].set(header, entry)
    }

    /// Mutable access to the stimulus wire feeding `input` (drive packets
    /// on it before/while running).
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn input_wire_mut(&mut self, input: usize) -> &mut InputWire {
        &mut self.wires[input]
    }

    /// What output port `output` has driven so far.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range.
    pub fn output_log(&self, output: usize) -> &OutputLog {
        &self.logs[output]
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Turns cycle/phase event tracing on or off (on by default). Long
    /// multi-chip simulations disable it to keep memory flat.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Read access to the buffer behind `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn buffer(&self, input: usize) -> &LinkedSlotBuffer {
        &self.buffers[input]
    }

    /// Simulates the downstream node on `output` asserting or deasserting
    /// its flow-control ready line.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range.
    pub fn set_downstream_ready(&mut self, output: usize, ready: bool) {
        self.downstream_ready[output] = ready;
    }

    /// This chip's own flow-control ready line for `input`: asserted while
    /// the buffer can absorb a maximum-size packet (4 slots), the
    /// conservative policy a sender checks before driving a start bit.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn ready(&self, input: usize) -> bool {
        self.buffers[input].free_slots() >= 4
    }

    /// Advances one clock cycle (both phases).
    pub fn tick(&mut self) {
        let cycle = self.cycle;

        // ---- Phase 0: data movement. Transmitters first (their reads lag
        // the writes by two cycles, so ordering within the phase is safe),
        // then receivers.
        for port in 0..self.config.ports() {
            let released = self.transmitters[port].phase0(
                cycle,
                &mut self.buffers,
                &mut self.logs[port],
                &mut self.trace,
            );
            if let Some(input) = released {
                self.input_bus_free[input] = true;
            }
        }
        for port in 0..self.config.ports() {
            self.receivers[port].phase0(
                cycle,
                &self.wires[port],
                &mut self.buffers[port],
                &mut self.trace,
            );
        }

        // ---- Phase 1: control. The arbiter sees queue state as of the
        // previous cycle's routing (it runs before this cycle's routers),
        // modelling the request->latch cycle of Table 1.
        let output_idle: Vec<bool> = (0..self.config.ports())
            .map(|o| self.transmitters[o].is_idle() && self.downstream_ready[o])
            .collect();
        let buffers = &self.buffers;
        let grants = self
            .arbiter
            .arbitrate(&output_idle, &mut self.input_bus_free, |i, o| {
                buffers[i].queue_packets(o) > 0 && !buffers[i].transmitting(o)
            });
        for grant in grants {
            let header = self.buffers[grant.input]
                .begin_transmit(grant.output)
                .expect("arbiter only grants queues with data");
            self.transmitters[grant.output].connect(grant.input, header);
            self.trace.record(
                cycle,
                Phase::One,
                grant.output,
                ChipEvent::Granted { input: grant.input },
            );
        }
        for port in 0..self.config.ports() {
            self.receivers[port].phase1(
                cycle,
                &self.tables[port],
                &mut self.buffers[port],
                &mut self.trace,
            );
        }

        self.cycle += 1;
    }

    /// Runs until (and excluding) `cycle`.
    pub fn run_until(&mut self, cycle: u64) {
        while self.cycle < cycle {
            self.tick();
        }
    }

    /// Runs until the chip is quiescent (no receptions, transmissions or
    /// scheduled stimulus remain), up to `max_cycle`.
    ///
    /// Returns the cycle at which the chip went idle.
    ///
    /// # Panics
    ///
    /// Panics if the chip is still busy at `max_cycle` (a stuck-packet
    /// bug).
    pub fn run_to_quiescence(&mut self, max_cycle: u64) -> u64 {
        loop {
            let stimulus_pending = self
                .wires
                .iter()
                .any(|w| w.last_driven_cycle().is_some_and(|c| c >= self.cycle));
            let receiving = self.receivers.iter().any(|r| !r.is_idle());
            let transmitting = self.transmitters.iter().any(|t| !t.is_idle());
            let queued = (0..self.config.ports()).any(|i| {
                (0..self.config.ports())
                    .any(|o| self.buffers[i].queue_packets(o) > 0 && self.downstream_ready[o])
            });
            if !stimulus_pending && !receiving && !transmitting && !queued {
                return self.cycle;
            }
            assert!(
                self.cycle < max_cycle,
                "chip still busy at cycle {max_cycle}"
            );
            self.tick();
        }
    }

    /// Verifies every buffer's linked-list invariants without panicking.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn audit(&self) -> Result<(), damq_core::AuditError> {
        for buffer in &self.buffers {
            buffer.audit()?;
        }
        Ok(())
    }

    /// Verifies every buffer's linked-list invariants.
    ///
    /// # Panics
    ///
    /// Panics with a description on violation.
    pub fn check_invariants(&self) {
        for buffer in &self.buffers {
            buffer.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSymbol;

    fn chip() -> Chip {
        let mut chip = Chip::new(ChipConfig::comcobb());
        // Simple circuits: header 0xN0 + port -> output N with header+1.
        for input in 0..COMCOBB_PORTS {
            for output in 0..COMCOBB_PORTS {
                if output == input {
                    continue;
                }
                let header = (output as u8) << 4 | input as u8;
                chip.program_route(
                    input,
                    header,
                    RouteEntry {
                        output,
                        new_header: header.wrapping_add(1),
                    },
                )
                .unwrap();
            }
        }
        chip
    }

    #[test]
    fn table_1_virtual_cut_through_in_four_cycles() {
        let mut chip = chip();
        // Start bit at cycle 0 into port 0, routed to output 2.
        chip.input_wire_mut(0).drive_packet(0, 0x20, &[9, 8, 7]);
        chip.run_until(16);
        let log = chip.output_log(2);
        // Table 1: start bit out at cycle 4 phase 0.
        assert_eq!(log.start_bit_cycles(), vec![4]);
        let packets = log.packets();
        assert_eq!(packets, vec![(4, 0x21, vec![9, 8, 7])]);
        chip.check_invariants();
    }

    #[test]
    fn table_1_event_sequence() {
        let mut chip = chip();
        chip.input_wire_mut(0).drive_packet(0, 0x20, &[1]);
        chip.run_until(12);
        let t = chip.trace();
        let at = |ev: fn(&ChipEvent) -> bool| {
            t.first(|e| ev(&e.event))
                .map(|e| (e.cycle, e.phase))
                .expect("event must occur")
        };
        // Cycle 0: start bit detected.
        assert_eq!(
            at(|e| matches!(e, ChipEvent::StartBitDetected)),
            (0, Phase::Zero)
        );
        // Cycle 2 phase 0: header released; phase 1: routed.
        assert_eq!(
            at(|e| matches!(e, ChipEvent::HeaderReleased)),
            (2, Phase::Zero)
        );
        assert_eq!(
            at(|e| matches!(e, ChipEvent::Routed { .. })),
            (2, Phase::One)
        );
        // Cycle 3 phase 1: arbitration latched, length latched.
        assert_eq!(
            at(|e| matches!(e, ChipEvent::Granted { .. })),
            (3, Phase::One)
        );
        assert_eq!(
            at(|e| matches!(e, ChipEvent::LengthLatched)),
            (3, Phase::One)
        );
        // Cycle 4 phase 0: first data byte written AND start bit sent.
        assert_eq!(
            at(|e| matches!(e, ChipEvent::ByteWritten { .. })),
            (4, Phase::Zero)
        );
        assert_eq!(
            at(|e| matches!(e, ChipEvent::StartBitSent)),
            (4, Phase::Zero)
        );
        // Cycle 5 phase 0: header byte on the downstream link.
        assert_eq!(at(|e| matches!(e, ChipEvent::HeaderSent)), (5, Phase::Zero));
        // Cycle 6 phase 0: length byte on the downstream link.
        assert_eq!(at(|e| matches!(e, ChipEvent::LengthSent)), (6, Phase::Zero));
    }

    #[test]
    fn max_length_packet_cut_through() {
        let mut chip = chip();
        let data: Vec<u8> = (0..32).collect();
        chip.input_wire_mut(3).drive_packet(0, 0x13, &data);
        chip.run_to_quiescence(100);
        assert_eq!(chip.output_log(1).packets(), vec![(4, 0x14, data)]);
        chip.check_invariants();
    }

    #[test]
    fn blocked_output_buffers_packet_then_forwards() {
        let mut chip = chip();
        chip.set_downstream_ready(2, false);
        chip.input_wire_mut(0).drive_packet(0, 0x20, &[5, 6]);
        chip.run_until(20);
        // Nothing sent; packet parked in the buffer.
        assert!(chip.output_log(2).events().is_empty());
        assert_eq!(chip.buffer(0).queue_packets(2), 1);
        // Downstream recovers.
        chip.set_downstream_ready(2, true);
        chip.run_to_quiescence(60);
        let packets = chip.output_log(2).packets();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].1, 0x21);
        assert_eq!(packets[0].2, vec![5, 6]);
        chip.check_invariants();
    }

    #[test]
    fn two_inputs_same_output_serialise() {
        let mut chip = chip();
        chip.input_wire_mut(0).drive_packet(0, 0x20, &[1]);
        chip.input_wire_mut(1).drive_packet(0, 0x21, &[2]);
        chip.run_to_quiescence(60);
        let packets = chip.output_log(2).packets();
        assert_eq!(packets.len(), 2);
        // One cut through at cycle 4; the loser follows after EOP.
        assert_eq!(packets[0].0, 4);
        assert!(packets[1].0 > packets[0].0 + 3);
        let mut data: Vec<u8> = packets.iter().map(|p| p.2[0]).collect();
        data.sort_unstable();
        assert_eq!(data, vec![1, 2]);
        chip.check_invariants();
    }

    #[test]
    fn two_inputs_different_outputs_flow_in_parallel() {
        let mut chip = chip();
        chip.input_wire_mut(0).drive_packet(0, 0x20, &[1, 1]);
        chip.input_wire_mut(1).drive_packet(0, 0x31, &[2, 2]);
        chip.run_to_quiescence(60);
        // Both cut through at cycle 4: no interference.
        assert_eq!(chip.output_log(2).start_bit_cycles(), vec![4]);
        assert_eq!(chip.output_log(3).start_bit_cycles(), vec![4]);
    }

    #[test]
    fn all_five_ports_active_simultaneously() {
        // Port i sends to output (i+1) mod 5: five concurrent cut-throughs.
        let mut chip = chip();
        for input in 0..COMCOBB_PORTS {
            let output = (input + 1) % COMCOBB_PORTS;
            let header = (output as u8) << 4 | input as u8;
            chip.input_wire_mut(input)
                .drive_packet(0, header, &[input as u8; 4]);
        }
        chip.run_to_quiescence(60);
        for input in 0..COMCOBB_PORTS {
            let output = (input + 1) % COMCOBB_PORTS;
            let packets = chip.output_log(output).packets();
            assert_eq!(packets.len(), 1, "output {output}");
            assert_eq!(packets[0].0, 4, "all ports cut through at cycle 4");
            assert_eq!(packets[0].2, vec![input as u8; 4]);
        }
        chip.check_invariants();
    }

    #[test]
    fn back_to_back_packets_on_one_link() {
        let mut chip = chip();
        let next = chip.input_wire_mut(0).drive_packet(0, 0x20, &[1, 2, 3]);
        chip.input_wire_mut(0).drive_packet(next, 0x30, &[4]);
        chip.run_to_quiescence(80);
        assert_eq!(chip.output_log(2).packets()[0].2, vec![1, 2, 3]);
        assert_eq!(chip.output_log(3).packets()[0].2, vec![4]);
        chip.check_invariants();
    }

    #[test]
    fn packet_to_processor_interface() {
        let mut chip = chip();
        let header = (PROCESSOR_PORT as u8) << 4; // 0x40 | input 0
        chip.input_wire_mut(0).drive_packet(0, header, &[42]);
        chip.run_to_quiescence(40);
        let delivered = chip.output_log(PROCESSOR_PORT).packets();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].2, vec![42]);
    }

    #[test]
    fn unrouted_header_drops_packet_cleanly() {
        let mut chip = chip();
        chip.input_wire_mut(0).drive_packet(0, 0xFF, &[1, 2]);
        // A good packet right behind it must still get through.
        chip.input_wire_mut(0).drive_packet(6, 0x20, &[3]);
        chip.run_to_quiescence(60);
        assert!(chip
            .trace()
            .first(|e| matches!(e.event, ChipEvent::PacketDropped))
            .is_some());
        let delivered = chip.output_log(2).packets();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].2, vec![3]);
        chip.check_invariants();
    }

    #[test]
    fn route_turning_back_is_rejected_at_programming_time() {
        let mut chip = chip();
        let err = chip
            .program_route(
                1,
                0x00,
                RouteEntry {
                    output: 1,
                    new_header: 0,
                },
            )
            .unwrap_err();
        assert_eq!(err, MicroarchError::RouteTurnsBack { port: 1 });
    }

    #[test]
    fn ready_line_tracks_free_slots() {
        let mut chip = chip();
        assert!(chip.ready(0));
        chip.set_downstream_ready(2, false);
        // Fill the buffer with three 4-slot packets (12 slots).
        let mut at = 0;
        for _ in 0..3 {
            at = chip.input_wire_mut(0).drive_packet(at, 0x20, &[0; 32]);
        }
        chip.run_until(at + 6);
        assert_eq!(chip.buffer(0).free_slots(), 0);
        assert!(!chip.ready(0));
        chip.set_downstream_ready(2, true);
        chip.run_to_quiescence(300);
        assert!(chip.ready(0));
        chip.check_invariants();
    }

    #[test]
    fn start_symbols_alternate_correctly_on_output_wire() {
        let mut chip = chip();
        chip.input_wire_mut(0).drive_packet(0, 0x20, &[1]);
        chip.run_to_quiescence(40);
        let events = chip.output_log(2).events();
        assert_eq!(events[0].1, LinkSymbol::StartBit);
        assert!(matches!(events[1].1, LinkSymbol::Byte(_)));
    }
}
