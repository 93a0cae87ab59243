//! The n×n switch: input buffers + crossbar + central arbiter.

use damq_core::{
    AnyBuffer, BufferStats, BuildBuffer, FrontMeta, InlineArray, InputPort, OutputPort, Packet,
    Rejected, SwitchBuffer,
};

use crate::arbiter::{Arbiter, Candidate};
use crate::config::SwitchConfig;
use crate::crossbar::Crossbar;
use crate::{INLINE_MATRIX, INLINE_PORTS};

/// One packet leaving a switch in a transmission cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Departure {
    /// Buffer the packet came from.
    pub input: InputPort,
    /// Output port it leaves through.
    pub output: OutputPort,
    /// The packet itself (hop already recorded).
    pub packet: Packet,
}

/// The caller's side of one arbitration cycle: flow control plus departure
/// handling, as a single object so the cycle kernel makes no allocations.
///
/// [`Switch::transmit_cycle_with`] consults [`can_send`](CycleSink::can_send)
/// while gathering candidates and hands each winning packet to
/// [`depart`](CycleSink::depart) the moment it is dequeued. One object
/// carries both halves because they typically share mutable state (the
/// network's per-output route scratch), which two separate closures could
/// not both borrow.
pub trait CycleSink {
    /// Flow control: may the head packet of `output`'s queue leave this
    /// cycle? Return `false` to block it (e.g. no space downstream).
    ///
    /// The probe sees [`FrontMeta`] — destination and length, read from
    /// the buffer's index registers — rather than the packet itself, so
    /// the examination walk never drags out-of-line payloads through the
    /// cache (see [`SwitchBuffer::front_meta`]).
    fn can_send(&mut self, output: OutputPort, front: FrontMeta) -> bool;

    /// Accepts a departing packet (hop already recorded). Called at most
    /// once per output per cycle.
    fn depart(&mut self, input: InputPort, output: OutputPort, packet: Packet);
}

/// Adapter giving the classic closure-plus-`Vec` surface of
/// [`Switch::transmit_cycle`] on top of [`CycleSink`].
struct CollectSink<F> {
    can_send: F,
    departures: Vec<Departure>,
}

impl<F: FnMut(OutputPort, FrontMeta) -> bool> CycleSink for CollectSink<F> {
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

/// An n×n switch with per-input buffers of a configurable design, a
/// crossbar, and a central arbiter.
///
/// The buffer type is a compile-time parameter. The default,
/// [`AnyBuffer`], picks the design at run time from the configuration's
/// [`BufferKind`](damq_core::BufferKind) through enum dispatch — no heap
/// indirection, and the per-design fast paths stay visible to the
/// inliner. Instantiate with a concrete design
/// (`Switch::<DamqBuffer>::typed(..)`) to monomorphize the switch fully.
///
/// The switch is driven externally in two phases per network cycle:
///
/// 1. [`Switch::transmit_cycle`] — the arbiter connects buffers to output
///    ports and dequeues at most one packet per output (and, except for
///    SAFC, at most one per buffer). The caller supplies a `can_send`
///    predicate implementing the flow-control discipline (always `true` for
///    discarding, downstream-space check for blocking).
/// 2. [`Switch::receive`] — arriving packets, already routed to an output
///    port, are stored; a full buffer rejects the packet and the caller
///    decides (per protocol) whether that is a discard or a stall.
///
/// # Examples
///
/// ```
/// use damq_core::{BufferKind, NodeId, InputPort, OutputPort, Packet};
/// use damq_switch::{Switch, SwitchConfig};
///
/// let mut sw = Switch::new(SwitchConfig::new(4).buffer_kind(BufferKind::Damq))?;
/// let p = Packet::builder(NodeId::new(0), NodeId::new(9)).build();
/// sw.receive(InputPort::new(1), OutputPort::new(3), p)?;
///
/// let sent = sw.transmit_cycle(|_out, _pkt| true);
/// assert_eq!(sent.len(), 1);
/// assert_eq!(sent[0].output, OutputPort::new(3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Switch<B: SwitchBuffer = AnyBuffer> {
    config: SwitchConfig,
    buffers: Vec<B>,
    arbiter: Arbiter,
    crossbar: Crossbar,
    hol_blocked_last_cycle: u64,
    hol_blocked_total: u64,
    /// Packets resident across all buffers, maintained incrementally on
    /// `receive`/dequeue so quiescence checks never touch the buffers.
    resident: usize,
    // Per-cycle scratch, hoisted out of the cycle kernel so steady-state
    // stepping performs no allocations, and held inline so a switch plus
    // its `Vec` of buffers is the whole hot state. All matrices are flat,
    // row-major ports x ports.
    served: InlineArray<bool, INLINE_MATRIX>,
    occupied: InlineArray<bool, INLINE_MATRIX>,
    lens: InlineArray<u16, INLINE_MATRIX>,
    dirty: InlineArray<bool, INLINE_PORTS>,
    /// One buffer's sendable queues; only a prefix is live at any time.
    candidates: InlineArray<Candidate, INLINE_PORTS>,
}

impl Switch {
    /// Builds a switch from its configuration, selecting the buffer design
    /// named by the configuration's
    /// [`BufferKind`](damq_core::BufferKind) at run time (the
    /// [`AnyBuffer`] default).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`](damq_core::ConfigError) if the buffer
    /// configuration is invalid for the chosen design (zero dimensions, or a
    /// capacity that does not divide among static partitions).
    pub fn new(config: SwitchConfig) -> Result<Self, damq_core::ConfigError> {
        Switch::typed(config)
    }
}

impl<B: BuildBuffer> Switch<B> {
    /// Builds a switch whose buffer type is fixed by the caller.
    ///
    /// Concrete designs ignore the configuration's `buffer_kind`
    /// (`Switch::<DamqBuffer>::typed(..)` holds DAMQ buffers regardless);
    /// the kind-erased [`AnyBuffer`] honours it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`](damq_core::ConfigError) as
    /// [`Switch::new`] does.
    pub fn typed(config: SwitchConfig) -> Result<Self, damq_core::ConfigError> {
        let ports = config.ports();
        let buffer_config = config.buffer_config();
        let buffers = (0..ports)
            .map(|_| B::build_buffer(buffer_config, config.kind()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Switch {
            config,
            buffers,
            arbiter: Arbiter::new(config.policy(), ports, ports),
            crossbar: Crossbar::new(ports, ports),
            hol_blocked_last_cycle: 0,
            hol_blocked_total: 0,
            resident: 0,
            served: InlineArray::new(false, ports * ports),
            occupied: InlineArray::new(false, ports * ports),
            lens: InlineArray::new(0, ports * ports),
            dirty: InlineArray::new(false, ports),
            candidates: InlineArray::new(
                Candidate {
                    output: OutputPort::new(0),
                    queue_len: 0,
                },
                ports,
            ),
        })
    }
}

impl<B: SwitchBuffer> Switch<B> {
    /// Number of input (and output) ports.
    pub fn ports(&self) -> usize {
        self.config.ports()
    }

    /// The switch's configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Read access to the buffer at `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn buffer(&self, input: InputPort) -> &B {
        &self.buffers[input.index()]
    }

    /// The arbiter (for inspecting priority/stale state in tests).
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// Whether the buffer at `input` could store a packet of `slots` slots
    /// routed to `output` right now.
    pub fn can_accept(&self, input: InputPort, output: OutputPort, slots: usize) -> bool {
        self.buffers[input.index()].can_accept(output, slots)
    }

    /// Batched backpressure snapshot: fills `caps[i * ports + o]` with
    /// the largest packet (in slots) input buffer `i` would accept for
    /// output `o` right now — `can_accept(i, o, s)` iff
    /// `s <= caps[i * ports + o]`. The network simulator takes this
    /// snapshot per stage while the switch is frozen, so its probe loop
    /// reads a flat array instead of chasing through buffer state.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is not `ports * ports` long.
    pub fn accept_capacities_into(&self, caps: &mut [u16]) {
        let ports = self.ports();
        assert_eq!(caps.len(), ports * ports, "capacity matrix shape");
        for (b, row) in self.buffers.iter().zip(caps.chunks_exact_mut(ports)) {
            for (o, cap) in row.iter_mut().enumerate() {
                *cap = b.accept_capacity(OutputPort::new(o)).min(u16::MAX as usize) as u16;
            }
        }
    }

    /// Stores a packet arriving on `input`, already routed to `output`.
    ///
    /// # Errors
    ///
    /// Returns the packet inside [`Rejected`] when the buffer cannot hold it
    /// (buffer full, static queue full, or packet too large).
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn receive(
        &mut self,
        input: InputPort,
        output: OutputPort,
        packet: Packet,
    ) -> Result<(), Rejected> {
        let stored = self.buffers[input.index()].try_enqueue(output, packet);
        if stored.is_ok() {
            self.resident += 1;
        }
        stored
    }

    /// Runs one arbitration/transmission cycle.
    ///
    /// Buffers are examined in the arbiter's rotating order. Each buffer
    /// offers its non-blocked queues (per `can_send`) as candidates, the
    /// arbiter picks one per read port, and the winning packets are
    /// dequeued. Each output port carries at most one packet per cycle.
    ///
    /// `can_send(output, packet)` implements flow control: return `false`
    /// to block that packet this cycle (e.g. no space downstream).
    ///
    /// Departing packets have their hop count incremented.
    ///
    /// # Determinism
    ///
    /// The cycle is a pure function of the switch's own state and the
    /// `can_send` answers: the examination order comes from the arbiter's
    /// priority pointer (stable for the whole cycle), candidates are
    /// walked in ascending output order, and no global or ambient state
    /// is consulted. This is what lets the sharded network simulator
    /// (`damq-net`'s `NetworkSim::with_threads`) arbitrate many switches
    /// concurrently — each call observes only its own switch plus
    /// read-only downstream probes — and still produce byte-identical
    /// results at any thread count. Mutation of *shared* state (the
    /// downstream `receive`) is the caller's job, after arbitration.
    pub fn transmit_cycle<F>(&mut self, can_send: F) -> Vec<Departure>
    where
        F: FnMut(OutputPort, FrontMeta) -> bool,
    {
        let mut sink = CollectSink {
            can_send,
            // lint: allow — compatibility adapter, not the cycle kernel.
            departures: Vec::new(),
        };
        self.transmit_cycle_with(&mut sink);
        sink.departures
    }

    /// Runs one arbitration/transmission cycle against a [`CycleSink`].
    ///
    /// Identical semantics to [`transmit_cycle`](Switch::transmit_cycle) —
    /// that method is a thin adapter over this one — but allocation-free:
    /// departures stream into the sink instead of a fresh `Vec`, and the
    /// per-cycle state (queue lengths, served/occupied matrices) lives in
    /// flat scratch arrays reused across cycles. Queue lengths are
    /// prefetched per buffer via
    /// [`queue_lens_into`](SwitchBuffer::queue_lens_into) — one batched
    /// register read instead of `ports x fanout` virtual calls — and kept
    /// consistent arithmetically: serving a queue decrements its cached
    /// length (exact for every per-output design; a FIFO's single read port
    /// never re-reads its row within the cycle), and rows of buffers that
    /// dequeued are re-fetched before the occupancy sweep, because a FIFO
    /// dequeue exposes a new head output and reshapes its whole row.
    pub fn transmit_cycle_with<S: CycleSink>(&mut self, sink: &mut S) {
        let ports = self.ports();
        // Borrow the scratch as plain slices once: the loops below then
        // index them without re-resolving each array's inline/heap arm.
        let served: &mut [bool] = &mut self.served;
        let occupied: &mut [bool] = &mut self.occupied;
        let lens: &mut [u16] = &mut self.lens;
        let dirty: &mut [bool] = &mut self.dirty;
        let candidates: &mut [Candidate] = &mut self.candidates;
        served.fill(false);
        dirty.fill(false);

        // Batched prefetch of every buffer's queue-length registers.
        for (b, row) in self.buffers.iter().zip(lens.chunks_exact_mut(ports)) {
            b.queue_lens_into(row);
        }

        // Inline rotating walk instead of collecting `examination_order()`:
        // the arbiter's priority pointer is stable for the whole cycle.
        // (Wrap by compare, not `%` — `ports` is a runtime value, so the
        // modulo is a hardware divide on the hottest loop in the kernel.)
        let mut i = self.arbiter.priority_port().index();
        for _ in 0..ports {
            let input = InputPort::new(i);
            let row = i * ports;
            let reads = self.buffers[i].read_ports();
            for _ in 0..reads {
                let mut offered = 0;
                let buffer = &self.buffers[i];
                for o in OutputPort::all(ports) {
                    if !self.crossbar.is_free(o) {
                        continue;
                    }
                    let queue_len = lens[row + o.index()] as usize;
                    if queue_len == 0 {
                        continue;
                    }
                    let front = buffer.front_meta(o).expect("nonempty queue has a front");
                    if sink.can_send(o, front) {
                        candidates[offered] = Candidate {
                            output: o,
                            queue_len,
                        };
                        offered += 1;
                    }
                }
                let Some(pick) = self.arbiter.select_queue(input, &candidates[..offered]) else {
                    break;
                };
                let connected = self.crossbar.try_connect(input, pick.output);
                debug_assert!(connected, "candidate filtered on free outputs");
                let mut packet = self.buffers[i]
                    .dequeue(pick.output)
                    .expect("candidate queue was nonempty");
                packet.record_hop();
                served[row + pick.output.index()] = true;
                lens[row + pick.output.index()] -= 1;
                dirty[i] = true;
                self.resident -= 1;
                sink.depart(input, pick.output, packet);
            }
            i += 1;
            if i == ports {
                i = 0;
            }
        }

        // Re-fetch rows whose buffer dequeued before deriving occupancy: a
        // FIFO dequeue can expose a head for a different output, reshaping
        // its whole row (per-output designs are already exact).
        for (i, b) in self.buffers.iter().enumerate() {
            if dirty[i] {
                b.queue_lens_into(&mut lens[i * ports..(i + 1) * ports]);
            }
        }
        for (occ, &len) in occupied.iter_mut().zip(lens.iter()) {
            *occ = len > 0;
        }
        self.arbiter.complete_cycle(served, occupied);
        self.crossbar.release_all();

        // End-of-cycle head-of-line accounting: packets still resident that
        // a per-output design could have offered but this design could not.
        self.hol_blocked_last_cycle = self.buffers.iter_mut().map(|b| b.note_hol_blocked()).sum();
        self.hol_blocked_total += self.hol_blocked_last_cycle;
    }

    /// Whether every input buffer is empty, in O(1) from the incrementally
    /// maintained resident count.
    pub fn is_quiescent(&self) -> bool {
        self.resident == 0
    }

    /// Advances a quiescent switch by one cycle without touching its
    /// buffers.
    ///
    /// Byte-identical to running [`transmit_cycle`](Switch::transmit_cycle)
    /// on an empty switch: the crossbar counts an idle cycle, the arbiter
    /// takes its idle step (dumb rotates; smart holds priority, and its
    /// stale counts are provably already zero — the cycle that emptied the
    /// switch observed every queue unoccupied), HOL accounting reads zero,
    /// and no buffer statistic moves (an empty FIFO records nothing).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the switch [`is_quiescent`](Switch::is_quiescent).
    pub fn note_idle_cycle(&mut self) {
        debug_assert!(self.is_quiescent(), "idle-skip on a non-quiescent switch");
        self.crossbar.tick_idle_cycle();
        self.arbiter.complete_idle_cycle();
        self.hol_blocked_last_cycle = 0;
    }

    /// Packets head-of-line blocked at the end of the most recent
    /// [`transmit_cycle`](Switch::transmit_cycle) (always 0 for per-output
    /// buffer designs).
    pub fn hol_blocked_last_cycle(&self) -> u64 {
        self.hol_blocked_last_cycle
    }

    /// Accumulated packet-cycles of head-of-line blocking since
    /// construction.
    pub fn hol_blocked_total(&self) -> u64 {
        self.hol_blocked_total
    }

    /// Total packets resident in all input buffers, in O(1) from the
    /// incrementally maintained count.
    pub fn packets_resident(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.buffers.iter().map(|b| b.packet_count()).sum::<usize>(),
            "resident cache drifted from the buffers"
        );
        self.resident
    }

    /// Total slots in use across all input buffers.
    pub fn occupied_slots(&self) -> usize {
        self.buffers.iter().map(|b| b.used_slots()).sum()
    }

    /// Total slot capacity across all input buffers.
    pub fn total_slots(&self) -> usize {
        self.buffers.iter().map(|b| b.capacity_slots()).sum()
    }

    /// Permanently disables one slot in the buffer at `input` (fault
    /// injection), hinting the partition for `hint` on statically-allocated
    /// designs.
    ///
    /// Returns `false` if `input` is out of range or every slot of that
    /// buffer is already dead — never panics, so fault plans may name
    /// arbitrary sites.
    pub fn kill_buffer_slot(&mut self, input: InputPort, hint: OutputPort) -> bool {
        match self.buffers.get_mut(input.index()) {
            Some(buffer) => buffer.kill_slot(hint),
            None => false,
        }
    }

    /// Slots lost to fault injection across all input buffers.
    pub fn dead_slots(&self) -> usize {
        self.buffers.iter().map(|b| b.dead_slots()).sum()
    }

    /// Fraction of buffer storage in use (0.0 = empty, 1.0 = full).
    pub fn occupancy_fraction(&self) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            self.occupied_slots() as f64 / total as f64
        }
    }

    /// Aggregated operation counters over all input buffers.
    pub fn aggregate_stats(&self) -> BufferStats {
        let mut total = BufferStats::new();
        for b in &self.buffers {
            total.merge(b.stats());
        }
        total
    }

    /// Zeroes every buffer's counters.
    pub fn reset_stats(&mut self) {
        for b in &mut self.buffers {
            b.reset_stats();
        }
    }

    /// Mean crossbar utilisation since construction.
    pub fn crossbar_utilization(&self) -> f64 {
        self.crossbar.utilization()
    }

    /// Verifies every buffer's structural invariants without panicking.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant (see
    /// [`AuditError`](damq_core::AuditError)).
    pub fn audit(&self) -> Result<(), damq_core::AuditError> {
        for b in &self.buffers {
            b.audit()?;
        }
        Ok(())
    }

    /// Checks every buffer's internal invariants (testing aid).
    ///
    /// # Panics
    ///
    /// Panics with a description on violation.
    pub fn check_invariants(&self) {
        for b in &self.buffers {
            b.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterPolicy;
    use damq_core::{BufferKind, NodeId};

    fn pkt(src: usize) -> Packet {
        Packet::builder(NodeId::new(src), NodeId::new(0)).build()
    }

    fn switch(kind: BufferKind) -> Switch {
        Switch::new(
            SwitchConfig::new(4)
                .buffer_kind(kind)
                .slots_per_buffer(4)
                .arbiter_policy(ArbiterPolicy::Dumb),
        )
        .unwrap()
    }

    /// Budget: 512 bytes, eight cache lines, for everything of a switch
    /// that is not its buffers. Today 488: the arbiter with its inline
    /// 4x4 stale matrix (112), the crossbar with four inline drivers (96),
    /// the configuration (32), the `Vec` of buffers (24), three counters
    /// and the five inline scratch arrays. With four 336-byte buffers
    /// and their 288-byte arenas a radix-4 DAMQ switch is 2.9 KB in five
    /// heap blocks; a field that doubles this part fails here first.
    #[test]
    fn layout_switch_fits_eight_cache_lines() {
        assert!(
            std::mem::size_of::<Switch>() <= 512,
            "Switch<AnyBuffer> grew to {} bytes",
            std::mem::size_of::<Switch>()
        );
    }

    /// The bound itself: a radix-4 switch keeps every scratch array
    /// inline, a radix-8 switch spills them, and both still arbitrate.
    #[test]
    fn scratch_spills_only_past_radix_four() {
        for (ports, inline) in [(4, true), (8, false)] {
            let mut sw = Switch::new(SwitchConfig::new(ports).slots_per_buffer(4)).unwrap();
            assert_eq!(sw.served.is_inline(), inline);
            assert_eq!(sw.occupied.is_inline(), inline);
            assert_eq!(sw.lens.is_inline(), inline);
            assert_eq!(sw.dirty.is_inline(), inline);
            assert_eq!(sw.candidates.is_inline(), inline);
            for i in 0..ports {
                sw.receive(InputPort::new(i), OutputPort::new((i + 1) % ports), pkt(i))
                    .unwrap();
            }
            assert_eq!(sw.transmit_cycle(|_, _| true).len(), ports);
        }
    }

    #[test]
    fn one_packet_per_output_per_cycle() {
        let mut sw = switch(BufferKind::Damq);
        // Two buffers hold packets for the same output.
        sw.receive(InputPort::new(0), OutputPort::new(2), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(1), OutputPort::new(2), pkt(1))
            .unwrap();
        let sent = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent.len(), 1);
        assert_eq!(sw.packets_resident(), 1);
        let sent = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent.len(), 1);
        assert_eq!(sw.packets_resident(), 0);
    }

    #[test]
    fn conflict_free_packets_all_leave_together() {
        let mut sw = switch(BufferKind::Damq);
        for i in 0..4 {
            sw.receive(InputPort::new(i), OutputPort::new((i + 1) % 4), pkt(i))
                .unwrap();
        }
        let sent = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent.len(), 4);
    }

    #[test]
    fn fifo_switch_suffers_head_of_line_blocking() {
        let mut sw = switch(BufferKind::Fifo);
        // Buffer 0: head -> out0, second -> out1. Buffer 1: head -> out0.
        sw.receive(InputPort::new(0), OutputPort::new(0), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(1))
            .unwrap();
        sw.receive(InputPort::new(1), OutputPort::new(0), pkt(2))
            .unwrap();
        // Cycle 1: only one packet can use out0; the out1 packet is blocked
        // behind buffer 0's head, so at most... in fact exactly one departs
        // if buffer 0 wins out0, two never happen.
        let sent = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent.len(), 1, "HOL blocking limits this cycle to 1");
        assert_eq!(sent[0].output, OutputPort::new(0));
    }

    #[test]
    fn hol_accounting_tracks_fifo_blocking() {
        let mut sw = switch(BufferKind::Fifo);
        sw.receive(InputPort::new(0), OutputPort::new(0), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(1))
            .unwrap();
        // Stall out0: the head cannot leave, so the out1 packet behind it
        // is head-of-line blocked this cycle.
        let sent = sw.transmit_cycle(|out, _| out.index() != 0);
        assert!(sent.is_empty());
        assert_eq!(sw.hol_blocked_last_cycle(), 1);
        // Unstall: the head departs, the out1 packet becomes the head and
        // is no longer blocked.
        let sent = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent.len(), 1);
        assert_eq!(sw.hol_blocked_last_cycle(), 0);
        assert_eq!(sw.hol_blocked_total(), 1);
        assert_eq!(sw.aggregate_stats().hol_blocked(), 1);

        let mut dsw = switch(BufferKind::Damq);
        dsw.receive(InputPort::new(0), OutputPort::new(0), pkt(0))
            .unwrap();
        dsw.receive(InputPort::new(0), OutputPort::new(1), pkt(1))
            .unwrap();
        let _ = dsw.transmit_cycle(|out, _| out.index() != 0);
        assert_eq!(
            dsw.hol_blocked_total(),
            0,
            "per-output designs never HOL-block"
        );
    }

    #[test]
    fn damq_switch_avoids_head_of_line_blocking() {
        let mut sw = switch(BufferKind::Damq);
        // Buffer 0: two packets for out1 (its longest queue) and one for
        // out0. Buffer 1: one packet for out0. A FIFO would serialise all
        // of buffer 0 behind whichever packet arrived first; DAMQ lets
        // buffer 0 serve out1 while buffer 1 serves out0.
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(1))
            .unwrap();
        sw.receive(InputPort::new(0), OutputPort::new(0), pkt(2))
            .unwrap();
        sw.receive(InputPort::new(1), OutputPort::new(0), pkt(3))
            .unwrap();
        let sent = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent.len(), 2, "multi-queue removes HOL blocking");
        let outputs: Vec<_> = sent.iter().map(|d| d.output.index()).collect();
        assert!(outputs.contains(&0) && outputs.contains(&1));
        // Everything drains within three cycles (one output-0 conflict).
        let sent2 = sw.transmit_cycle(|_, _| true);
        let sent3 = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent.len() + sent2.len() + sent3.len(), 4);
    }

    #[test]
    fn safc_buffer_sends_to_multiple_outputs_at_once() {
        let mut sw = switch(BufferKind::Safc);
        sw.receive(InputPort::new(0), OutputPort::new(0), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(1))
            .unwrap();
        let sent = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent.len(), 2, "fully-connected buffer uses both outputs");
        let inputs: Vec<_> = sent.iter().map(|d| d.input).collect();
        assert_eq!(inputs, vec![InputPort::new(0), InputPort::new(0)]);
    }

    #[test]
    fn damq_single_read_port_sends_one_per_cycle() {
        let mut sw = switch(BufferKind::Damq);
        sw.receive(InputPort::new(0), OutputPort::new(0), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(1))
            .unwrap();
        let sent = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent.len(), 1, "single read port");
    }

    #[test]
    fn blocked_outputs_hold_packets() {
        let mut sw = switch(BufferKind::Damq);
        sw.receive(InputPort::new(0), OutputPort::new(3), pkt(0))
            .unwrap();
        let sent = sw.transmit_cycle(|out, _| out.index() != 3);
        assert!(sent.is_empty());
        assert_eq!(sw.packets_resident(), 1);
    }

    #[test]
    fn departures_record_hops() {
        let mut sw = switch(BufferKind::Fifo);
        sw.receive(InputPort::new(2), OutputPort::new(1), pkt(0))
            .unwrap();
        let sent = sw.transmit_cycle(|_, _| true);
        assert_eq!(sent[0].packet.hops(), 1);
    }

    #[test]
    fn aggregate_stats_cover_all_buffers() {
        let mut sw = switch(BufferKind::Damq);
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(3), OutputPort::new(2), pkt(1))
            .unwrap();
        let _ = sw.transmit_cycle(|_, _| true);
        let stats = sw.aggregate_stats();
        assert_eq!(stats.packets_accepted(), 2);
        assert_eq!(stats.packets_forwarded(), 2);
    }

    #[test]
    fn full_buffer_rejects_and_caller_keeps_packet() {
        let mut sw = Switch::new(
            SwitchConfig::new(2)
                .buffer_kind(BufferKind::Damq)
                .slots_per_buffer(1),
        )
        .unwrap();
        sw.receive(InputPort::new(0), OutputPort::new(0), pkt(0))
            .unwrap();
        let rejected = sw
            .receive(InputPort::new(0), OutputPort::new(1), pkt(1))
            .unwrap_err();
        assert_eq!(rejected.packet.source(), NodeId::new(1));
    }

    #[test]
    fn occupancy_accounting() {
        let mut sw = switch(BufferKind::Damq);
        assert_eq!(sw.occupancy_fraction(), 0.0);
        assert_eq!(sw.total_slots(), 16);
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(2), OutputPort::new(3), pkt(1))
            .unwrap();
        assert_eq!(sw.occupied_slots(), 2);
        assert!((sw.occupancy_fraction() - 2.0 / 16.0).abs() < 1e-12);
        let _ = sw.transmit_cycle(|_, _| true);
        assert_eq!(sw.occupied_slots(), 0);
    }

    #[test]
    fn crossbar_utilization_accumulates() {
        let mut sw = switch(BufferKind::Damq);
        for i in 0..4 {
            sw.receive(InputPort::new(i), OutputPort::new((i + 1) % 4), pkt(i))
                .unwrap();
        }
        let _ = sw.transmit_cycle(|_, _| true); // 4/4 outputs used
        let _ = sw.transmit_cycle(|_, _| true); // 0/4 outputs used
        assert!((sw.crossbar_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quiescence_tracks_residency() {
        let mut sw = switch(BufferKind::Damq);
        assert!(sw.is_quiescent());
        sw.receive(InputPort::new(0), OutputPort::new(2), pkt(0))
            .unwrap();
        assert!(!sw.is_quiescent());
        let _ = sw.transmit_cycle(|_, _| true);
        assert!(sw.is_quiescent());
        // A rejected receive does not disturb the resident count.
        let mut tiny = Switch::new(
            SwitchConfig::new(2)
                .buffer_kind(BufferKind::Damq)
                .slots_per_buffer(1),
        )
        .unwrap();
        tiny.receive(InputPort::new(0), OutputPort::new(0), pkt(0))
            .unwrap();
        let _ = tiny.receive(InputPort::new(0), OutputPort::new(1), pkt(1));
        assert_eq!(tiny.packets_resident(), 1);
    }

    #[test]
    fn idle_cycle_is_byte_identical_to_empty_transmit_cycle() {
        for policy in ArbiterPolicy::ALL {
            for kind in BufferKind::ALL {
                let cfg = SwitchConfig::new(4)
                    .buffer_kind(kind)
                    .slots_per_buffer(4)
                    .arbiter_policy(policy);
                let mut full = Switch::new(cfg).unwrap();
                let mut fast = Switch::new(cfg).unwrap();
                // Shared non-trivial history so arbiter/crossbar state is
                // mid-stream, then drain to quiescence.
                for sw in [&mut full, &mut fast] {
                    sw.receive(InputPort::new(0), OutputPort::new(1), pkt(0))
                        .unwrap();
                    sw.receive(InputPort::new(2), OutputPort::new(1), pkt(1))
                        .unwrap();
                    while !sw.is_quiescent() {
                        let _ = sw.transmit_cycle(|_, _| true);
                    }
                }
                for cycle in 0..5 {
                    assert!(sw_state(&full) == sw_state(&fast), "{kind}/{policy}");
                    let sent = full.transmit_cycle(|_, _| true);
                    assert!(sent.is_empty());
                    fast.note_idle_cycle();
                    assert!(
                        sw_state(&full) == sw_state(&fast),
                        "{kind}/{policy} diverged at idle cycle {cycle}"
                    );
                }
                // Both resume identically when traffic returns.
                for sw in [&mut full, &mut fast] {
                    sw.receive(InputPort::new(1), OutputPort::new(3), pkt(2))
                        .unwrap();
                    let sent = sw.transmit_cycle(|_, _| true);
                    assert_eq!(sent.len(), 1);
                }
                assert!(sw_state(&full) == sw_state(&fast), "{kind}/{policy}");
            }
        }
    }

    /// Every externally observable piece of switch state.
    fn sw_state(sw: &Switch) -> (InputPort, u64, u64, usize, String, u64) {
        (
            sw.arbiter().priority_port(),
            sw.hol_blocked_last_cycle(),
            sw.hol_blocked_total(),
            sw.packets_resident(),
            format!("{:?}", sw.aggregate_stats()),
            sw.crossbar_utilization().to_bits(),
        )
    }

    #[test]
    fn smart_arbiter_state_progresses_only_on_service() {
        let mut sw = Switch::new(
            SwitchConfig::new(2)
                .buffer_kind(BufferKind::Damq)
                .arbiter_policy(ArbiterPolicy::Smart),
        )
        .unwrap();
        // Nothing to send: priority must stay at buffer 0.
        let _ = sw.transmit_cycle(|_, _| true);
        assert_eq!(sw.arbiter().priority_port(), InputPort::new(0));
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(0))
            .unwrap();
        let _ = sw.transmit_cycle(|_, _| true);
        assert_eq!(sw.arbiter().priority_port(), InputPort::new(1));
    }
}
