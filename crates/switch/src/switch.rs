//! The n×n switch: input buffers + crossbar + central arbiter.

use damq_core::{
    AnyBuffer, BufferKind, BufferStats, BuildBuffer, FrontMeta, InlineArray, InputPort, OutputPort,
    Packet, RejectReason, Rejected, SwitchBuffer,
};

use crate::arbiter::{Arbiter, Rank};
use crate::bits::BitWords;
use crate::config::SwitchConfig;
use crate::INLINE_PORTS;

/// The caller's side of one arbitration cycle: flow control plus departure
/// handling, as a single object so the cycle kernel makes no allocations.
///
/// [`Switch::transmit_cycle_with`] consults [`can_send`](CycleSink::can_send)
/// while examining a buffer's queues and hands each winning packet to
/// [`depart`](CycleSink::depart) the moment it is dequeued. One object
/// carries both halves because they typically share mutable state (the
/// network's per-output route scratch), which two separate closures could
/// not both borrow.
pub trait CycleSink {
    /// Flow control: may the head packet of `output`'s queue leave this
    /// cycle? Return `false` to block it (e.g. no space downstream).
    ///
    /// The probe sees [`FrontMeta`] — the head packet's destination and
    /// length, read from the packet where the buffer stores it — rather
    /// than the packet itself, which moves only if it wins (see
    /// [`SwitchBuffer::front_meta`]).
    fn can_send(&mut self, output: OutputPort, front: FrontMeta) -> bool;

    /// Accepts a departing packet (hop already recorded). Called at most
    /// once per output per cycle.
    fn depart(&mut self, input: InputPort, output: OutputPort, packet: Packet);

    /// Whether [`can_send`](CycleSink::can_send) would answer `true` to
    /// every question of the coming cycle, with no effect the caller
    /// relies on — a discarding network, or a stage that feeds
    /// always-ready terminals. The kernel reads this once per cycle and
    /// then neither asks such a sink nor builds the [`FrontMeta`] it would
    /// be asked with. The default, `false`, has every head asked about.
    fn never_refuses(&self) -> bool {
        false
    }
}

/// The switch tests' collecting adapter (`Vec` of departures, closure
/// flow control), shared with the integration tests.
#[cfg(test)]
#[path = "../tests/support/collect.rs"]
mod collect;

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
/// 1. [`Switch::transmit_cycle_with`] — the arbiter connects buffers to
///    output ports and dequeues at most one packet per output (and, except
///    for SAFC and DAFC, at most one per buffer). The caller's
///    [`CycleSink`] implements the flow-control discipline (always `true`
///    for discarding, downstream-space check for blocking) and takes the
///    departing packets.
/// 2. [`Switch::receive`] — arriving packets, already routed to an output
///    port, are stored; a full buffer rejects the packet and the caller
///    decides (per protocol) whether that is a discard or a stall.
///
/// # Examples
///
/// ```
/// use damq_core::{BufferKind, FrontMeta, InputPort, NodeId, OutputPort, Packet};
/// use damq_switch::{CycleSink, Switch, SwitchConfig};
///
/// /// A discarding network's side of a cycle: send everything, note
/// /// where each packet went.
/// struct Outputs(Vec<OutputPort>);
///
/// impl CycleSink for Outputs {
///     fn can_send(&mut self, _: OutputPort, _: FrontMeta) -> bool {
///         true
///     }
///     fn depart(&mut self, _: InputPort, output: OutputPort, _: Packet) {
///         self.0.push(output);
///     }
/// }
///
/// let mut sw = Switch::new(SwitchConfig::new(4).buffer_kind(BufferKind::Damq))?;
/// let p = Packet::builder(NodeId::new(0), NodeId::new(9)).build();
/// sw.receive(InputPort::new(1), OutputPort::new(3), p)?;
///
/// let mut sent = Outputs(Vec::new());
/// sw.transmit_cycle_with(&mut sent);
/// assert_eq!(sent.0, [OutputPort::new(3)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Switch<B: SwitchBuffer = AnyBuffer> {
    buffers: Vec<B>,
    arbiter: Arbiter,
    /// The crossbar: one bit per output, set when a buffer wins it this
    /// cycle and cleared when the cycle ends. Within a cycle each output
    /// carries at most one packet; an input may drive several outputs
    /// (the fully-connected designs), so no per-input state is needed.
    driven: BitWords,
    hol_blocked_last_cycle: u64,
    /// What the input buffers did, counted here for all of them: the
    /// buffers are registers and slot RAM and keep no counters.
    stats: BufferStats,
    /// Packets resident across all buffers, maintained incrementally on
    /// `receive`/dequeue so quiescence checks never touch the buffers.
    resident: usize,
    /// The queue lengths of the buffer under examination, read once per
    /// turn (`u16` suffices: `damq_core::BufferConfig::MAX_CAPACITY` bounds
    /// any queue). Held here, inline, so the cycle kernel makes no
    /// allocations.
    lens: InlineArray<u16, INLINE_PORTS>,
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
    /// configuration is invalid for the chosen design (zero dimensions, a
    /// capacity beyond the 16-bit registers, or one that does not divide
    /// among static partitions).
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
            buffers,
            arbiter: Arbiter::new(config.policy(), ports, ports),
            driven: BitWords::new(ports),
            hol_blocked_last_cycle: 0,
            stats: BufferStats::new(),
            resident: 0,
            lens: InlineArray::new(0, ports),
        })
    }
}

impl<B: SwitchBuffer> Switch<B> {
    /// Number of input (and output) ports.
    pub fn ports(&self) -> usize {
        self.buffers.len()
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

    /// Stores a packet arriving on `input`, already routed to `output`,
    /// and counts the outcome in [`aggregate_stats`](Switch::aggregate_stats):
    /// an accept with its slots and the receiving buffer's occupancy, or a
    /// reject. A packet routed to an output the switch does not have was
    /// never offered to a queue and is not counted.
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
        let buffer = &mut self.buffers[input.index()];
        let slots = packet.slots_needed();
        let stored = buffer.try_enqueue(output, packet);
        match &stored {
            Ok(()) => {
                self.resident += 1;
                self.stats.record_accepted(slots);
                self.stats.observe_used_slots(buffer.used_slots());
            }
            Err(rejected) if rejected.reason != RejectReason::NoSuchOutput => {
                self.stats.record_rejected();
            }
            Err(_) => {}
        }
        stored
    }

    /// Runs one arbitration/transmission cycle against a [`CycleSink`].
    ///
    /// Buffers are examined in the arbiter's rotating order. Each buffer
    /// offers its non-blocked queues (per [`CycleSink::can_send`]) as
    /// candidates, the arbiter picks one per read port, and the winning
    /// packets are dequeued, their hop count incremented, and handed to
    /// [`CycleSink::depart`]. Each output port carries at most one packet
    /// per cycle. `can_send` implements flow control: it returns `false`
    /// to block a head this cycle (e.g. no space downstream).
    ///
    /// # Determinism
    ///
    /// The cycle is a pure function of the switch's own state and the
    /// `can_send` answers: the examination order comes from the arbiter's
    /// priority pointer (stable for the whole cycle), candidates are
    /// walked in ascending output order, and no global or ambient state
    /// is consulted: each call observes only its own switch plus the
    /// caller's read-only downstream probes. Mutation of *shared* state
    /// (the downstream `receive`) is the caller's job, after
    /// arbitration.
    ///
    /// # Cost
    ///
    /// The cycle allocates nothing, and its cost follows occupancy rather
    /// than the switch's size:
    ///
    /// * a buffer with no resident packet is passed over without being
    ///   examined (its queues cannot compete, its stale counts are already
    ///   zero, it has no head-of-line blocking to record);
    /// * an occupied buffer has its queue lengths read once
    ///   ([`queue_lens_into`](SwitchBuffer::queue_lens_into)), and the
    ///   winner of each read port — highest [`rank`](Arbiter::rank), lowest
    ///   output on ties — is chosen inside the one walk over its queues;
    /// * a sink that [never refuses](CycleSink::never_refuses) is not asked
    ///   and no [`FrontMeta`] is read for it;
    /// * a dequeue leaves the other cached lengths of a per-output design
    ///   exact; only a FIFO re-reads its row, because the new head may be
    ///   bound for a different output and reshapes the whole row;
    /// * each buffer's stale counts and head-of-line blocking are settled
    ///   at the end of its own turn (nothing later in the cycle touches
    ///   it), so no end-of-cycle sweep over all `ports x ports` queues
    ///   remains.
    pub fn transmit_cycle_with<S: CycleSink>(&mut self, sink: &mut S) {
        let ports = self.ports();
        let asks = !sink.never_refuses();
        let lens: &mut [u16] = &mut self.lens;
        let mut hol_blocked = 0;

        // Rotating walk from the arbiter's priority pointer, which is
        // stable for the whole cycle. (Wrap by compare, not `%` — `ports`
        // is a runtime value, so the modulo is a hardware divide on the
        // hottest loop in the kernel.)
        let mut i = self.arbiter.priority_port().index();
        for _ in 0..ports {
            let input = InputPort::new(i);
            let buffer = &mut self.buffers[i];
            i += 1;
            if i == ports {
                i = 0;
            }
            if buffer.is_empty() {
                debug_assert!(
                    self.arbiter.row_is_fresh(input),
                    "empty buffer carried a nonzero stale count"
                );
                continue;
            }
            buffer.queue_lens_into(lens);
            for _ in 0..buffer.read_ports() {
                let mut best: Option<(Rank, OutputPort)> = None;
                for (o, &queue_len) in lens.iter().enumerate() {
                    let o = OutputPort::new(o);
                    if queue_len == 0 || self.driven.get(o.index()) {
                        continue;
                    }
                    if asks {
                        #[expect(clippy::expect_used, reason = "queue_len > 0 was checked above")]
                        let front = buffer.front_meta(o).expect("nonempty queue has a front");
                        if !sink.can_send(o, front) {
                            continue;
                        }
                    }
                    let rank = self.arbiter.rank(input, o, queue_len as usize);
                    if best.is_none_or(|(top, _)| rank > top) {
                        best = Some((rank, o));
                    }
                }
                let Some((_, output)) = best else {
                    break;
                };
                self.driven.set(output.index());
                #[expect(clippy::expect_used, reason = "the winner's queue is nonempty")]
                let mut packet = buffer.dequeue(output).expect("winning queue was nonempty");
                packet.record_hop();
                self.arbiter.grant(input);
                self.resident -= 1;
                self.stats.record_forwarded();
                if buffer.kind() == BufferKind::Fifo {
                    // The new head may be bound elsewhere: the whole row
                    // changes shape, not just this entry.
                    buffer.queue_lens_into(lens);
                }
                // A served queue is not left waiting, whatever it still
                // holds (and its output is taken, so the walk is done
                // with this entry).
                lens[output.index()] = 0;
                sink.depart(input, output, packet);
            }
            self.arbiter.settle_input(input, lens);
            // Head-of-line accounting: packets still resident that a
            // per-output design could have offered but this one could not.
            hol_blocked += buffer.note_hol_blocked();
        }

        self.arbiter.complete_cycle();
        self.driven.clear();
        self.hol_blocked_last_cycle = hol_blocked;
        self.stats.record_hol_blocked(hol_blocked);
    }

    /// Whether every input buffer is empty, in O(1) from the incrementally
    /// maintained resident count.
    pub fn is_quiescent(&self) -> bool {
        self.resident == 0
    }

    /// Advances a quiescent switch by one cycle without touching its
    /// buffers.
    ///
    /// Byte-identical to running
    /// [`transmit_cycle_with`](Switch::transmit_cycle_with) on an empty
    /// switch: no output is driven, so the crossbar bits stay clear; the
    /// arbiter takes its idle step (dumb rotates; smart holds priority, and
    /// its stale counts are provably already zero — the cycle that emptied
    /// the switch observed every queue unoccupied), HOL accounting reads
    /// zero, and no counter moves (an empty FIFO blocks nothing).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the switch [`is_quiescent`](Switch::is_quiescent).
    pub fn note_idle_cycle(&mut self) {
        debug_assert!(self.is_quiescent(), "idle-skip on a non-quiescent switch");
        self.arbiter.complete_idle_cycle();
        self.hol_blocked_last_cycle = 0;
    }

    /// Packets head-of-line blocked at the end of the most recent
    /// [`transmit_cycle_with`](Switch::transmit_cycle_with) (always 0 for
    /// per-output buffer designs).
    pub fn hol_blocked_last_cycle(&self) -> u64 {
        self.hol_blocked_last_cycle
    }

    /// Accumulated packet-cycles of head-of-line blocking since
    /// construction (the `hol_blocked` of
    /// [`aggregate_stats`](Switch::aggregate_stats)).
    pub fn hol_blocked_total(&self) -> u64 {
        self.stats.hol_blocked()
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

    /// Operation counters over all input buffers since construction:
    /// packets accepted (and their slots) and rejected by
    /// [`receive`](Switch::receive), forwarded by
    /// [`transmit_cycle_with`](Switch::transmit_cycle_with), the highest
    /// occupancy any one buffer reached, and head-of-line blocking.
    pub fn aggregate_stats(&self) -> BufferStats {
        self.stats.clone()
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
    use super::collect::transmit;
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

    /// Budget: 256 bytes, four cache lines, for everything of a switch
    /// that is not its buffers. Today 240: the arbiter with its inline
    /// 4x4 stale matrix and its served word (104), the crossbar's driven
    /// bits (24), the `Vec` of buffers (24), the one `BufferStats` that
    /// counts for all the inputs (48), the last cycle's HOL count and the
    /// resident count, and the one inline row of queue lengths. No
    /// configuration is kept: it is consumed at construction. With four
    /// 120-byte buffers and their 160-byte arenas a radix-4 DAMQ switch
    /// is 1 360 B in five heap blocks (pinned below); a field that grows
    /// this part by a sixth fails here first.
    #[test]
    fn layout_switch_fits_four_cache_lines() {
        assert!(
            std::mem::size_of::<Switch>() <= 256,
            "Switch<AnyBuffer> grew to {} bytes",
            std::mem::size_of::<Switch>()
        );
    }

    /// The whole per-switch count, exact: a radix-4 DAMQ switch with
    /// 4-slot buffers is the switch (240 B), and per input port its
    /// buffer (120 B: link-and-tag slot records, list records, the arena
    /// pointer) plus its arena of one `Option<Packet>` cell per slot
    /// (4 x 40 B) — 1 360 B. The packet header is in the arena cell, not
    /// in a register, so a byte added to either side moves this number.
    #[test]
    fn layout_radix4_damq_switch_is_1360_bytes() {
        use std::mem::size_of;
        let sw = switch(BufferKind::Damq);
        let slots = sw.buffer(InputPort::new(0)).capacity_slots();
        let bytes = size_of::<Switch>()
            + 4 * (size_of::<AnyBuffer>() + slots * size_of::<Option<Packet>>());
        assert_eq!((slots, bytes), (4, 1360), "a radix-4 DAMQ switch moved");
    }

    /// The bound itself: a radix-4 switch keeps its length row inline, a
    /// radix-8 switch spills it, and both still arbitrate.
    #[test]
    fn scratch_spills_only_past_radix_four() {
        for (ports, inline) in [(4, true), (8, false)] {
            let mut sw = Switch::new(SwitchConfig::new(ports).slots_per_buffer(4)).unwrap();
            assert_eq!(sw.lens.is_inline(), inline);
            for i in 0..ports {
                sw.receive(InputPort::new(i), OutputPort::new((i + 1) % ports), pkt(i))
                    .unwrap();
            }
            assert_eq!(transmit(&mut sw, |_, _| true).len(), ports);
        }
    }

    /// A sink that never refuses is never asked; one that may refuse is
    /// asked about every free, occupied head — and both send the same
    /// packets.
    #[test]
    fn never_refusing_sink_is_not_asked() {
        struct Sink {
            never_refuses: bool,
            asked: usize,
            sent: Vec<(usize, usize)>,
        }
        impl CycleSink for Sink {
            fn can_send(&mut self, _: OutputPort, _: FrontMeta) -> bool {
                self.asked += 1;
                true
            }
            fn depart(&mut self, input: InputPort, output: OutputPort, _: Packet) {
                self.sent.push((input.index(), output.index()));
            }
            fn never_refuses(&self) -> bool {
                self.never_refuses
            }
        }
        for kind in BufferKind::EXTENDED {
            let run = |never_refuses| {
                let mut sw = switch(kind);
                for (i, o) in [(0, 1), (0, 2), (2, 1), (3, 0)] {
                    sw.receive(InputPort::new(i), OutputPort::new(o), pkt(i))
                        .unwrap();
                }
                let mut sink = Sink {
                    never_refuses,
                    asked: 0,
                    sent: Vec::new(),
                };
                sw.transmit_cycle_with(&mut sink);
                (sink.asked, sink.sent, sw_state(&sw))
            };
            let (asked, sent, state) = run(false);
            let (unasked, unasked_sent, unasked_state) = run(true);
            assert!(
                asked >= sent.len(),
                "{kind}: every departure was asked about"
            );
            assert_eq!(unasked, 0, "{kind}");
            assert_eq!(sent, unasked_sent, "{kind}");
            assert!(state == unasked_state, "{kind}");
        }
    }

    #[test]
    fn oversized_buffers_are_a_config_error_not_a_panic() {
        for kind in BufferKind::EXTENDED {
            let config = SwitchConfig::new(4).buffer_kind(kind);
            assert!(
                matches!(
                    Switch::new(config.slots_per_buffer(70_000)),
                    Err(damq_core::ConfigError::CapacityTooLarge { .. })
                ),
                "{kind}"
            );
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
        let sent = transmit(&mut sw, |_, _| true);
        assert_eq!(sent.len(), 1);
        assert_eq!(sw.packets_resident(), 1);
        let sent = transmit(&mut sw, |_, _| true);
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
        let sent = transmit(&mut sw, |_, _| true);
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
        let sent = transmit(&mut sw, |_, _| true);
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
        let sent = transmit(&mut sw, |out, _| out.index() != 0);
        assert!(sent.is_empty());
        assert_eq!(sw.hol_blocked_last_cycle(), 1);
        // Unstall: the head departs, the out1 packet becomes the head and
        // is no longer blocked.
        let sent = transmit(&mut sw, |_, _| true);
        assert_eq!(sent.len(), 1);
        assert_eq!(sw.hol_blocked_last_cycle(), 0);
        assert_eq!(sw.hol_blocked_total(), 1);
        assert_eq!(sw.aggregate_stats().hol_blocked(), 1);

        let mut dsw = switch(BufferKind::Damq);
        dsw.receive(InputPort::new(0), OutputPort::new(0), pkt(0))
            .unwrap();
        dsw.receive(InputPort::new(0), OutputPort::new(1), pkt(1))
            .unwrap();
        let _ = transmit(&mut dsw, |out, _| out.index() != 0);
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
        let sent = transmit(&mut sw, |_, _| true);
        assert_eq!(sent.len(), 2, "multi-queue removes HOL blocking");
        let outputs: Vec<_> = sent.iter().map(|d| d.output.index()).collect();
        assert!(outputs.contains(&0) && outputs.contains(&1));
        // Everything drains within three cycles (one output-0 conflict).
        let sent2 = transmit(&mut sw, |_, _| true);
        let sent3 = transmit(&mut sw, |_, _| true);
        assert_eq!(sent.len() + sent2.len() + sent3.len(), 4);
    }

    #[test]
    fn safc_buffer_sends_to_multiple_outputs_at_once() {
        let mut sw = switch(BufferKind::Safc);
        sw.receive(InputPort::new(0), OutputPort::new(0), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(1))
            .unwrap();
        let sent = transmit(&mut sw, |_, _| true);
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
        let sent = transmit(&mut sw, |_, _| true);
        assert_eq!(sent.len(), 1, "single read port");
    }

    #[test]
    fn blocked_outputs_hold_packets() {
        let mut sw = switch(BufferKind::Damq);
        sw.receive(InputPort::new(0), OutputPort::new(3), pkt(0))
            .unwrap();
        let sent = transmit(&mut sw, |out, _| out.index() != 3);
        assert!(sent.is_empty());
        assert_eq!(sw.packets_resident(), 1);
    }

    #[test]
    fn departures_record_hops() {
        let mut sw = switch(BufferKind::Fifo);
        sw.receive(InputPort::new(2), OutputPort::new(1), pkt(0))
            .unwrap();
        let sent = transmit(&mut sw, |_, _| true);
        assert_eq!(sent[0].packet.hops(), 1);
    }

    #[test]
    fn aggregate_stats_cover_all_buffers() {
        let mut sw = switch(BufferKind::Damq);
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(0))
            .unwrap();
        sw.receive(InputPort::new(3), OutputPort::new(2), pkt(1))
            .unwrap();
        let _ = transmit(&mut sw, |_, _| true);
        let stats = sw.aggregate_stats();
        assert_eq!(stats.packets_accepted(), 2);
        assert_eq!(stats.packets_forwarded(), 2);
    }

    /// A packet for an output the switch does not have was never offered
    /// to a queue: it is refused, and no counter moves.
    #[test]
    fn a_receive_to_no_such_output_is_not_counted() {
        for kind in BufferKind::EXTENDED {
            let mut sw = switch(kind);
            let rejected = sw
                .receive(InputPort::new(0), OutputPort::new(4), pkt(0))
                .unwrap_err();
            assert_eq!(rejected.reason, damq_core::RejectReason::NoSuchOutput);
            assert_eq!(sw.aggregate_stats(), BufferStats::new(), "{kind}");
        }
    }

    /// Every other refusal counts once — too large, faulted, and the
    /// design's full verdict (the shared pool's `BufferFull`, a static
    /// partition's `QueueFull`) — on whichever input it happens.
    #[test]
    fn every_other_reject_is_counted() {
        use damq_core::RejectReason::{BufferFull, Faulted, PacketTooLarge, QueueFull};
        let sized = |slots: usize, src| {
            Packet::builder(NodeId::new(src), NodeId::new(0))
                .length_bytes(slots * damq_core::SLOT_BYTES)
                .build()
        };
        for kind in BufferKind::EXTENDED {
            let mut sw = switch(kind);
            // The slots one packet for output 0 may take on a healthy input.
            let room = if kind.is_statically_allocated() { 1 } else { 4 };
            let full = if kind.is_statically_allocated() {
                QueueFull
            } else {
                BufferFull
            };
            let refuse = |sw: &mut Switch, input, packet, reason| {
                let rejected = sw
                    .receive(InputPort::new(input), OutputPort::new(0), packet)
                    .unwrap_err();
                assert_eq!(rejected.reason, reason, "{kind}");
            };
            refuse(&mut sw, 0, sized(room + 1, 0), PacketTooLarge);
            assert!(sw.kill_buffer_slot(InputPort::new(1), OutputPort::new(0)));
            refuse(&mut sw, 1, sized(room, 1), Faulted);
            for i in 0..room {
                sw.receive(InputPort::new(2), OutputPort::new(0), pkt(i))
                    .unwrap();
            }
            refuse(&mut sw, 2, pkt(9), full);
            let stats = sw.aggregate_stats();
            assert_eq!(stats.packets_rejected(), 3, "{kind}");
            assert_eq!(stats.packets_accepted(), room as u64, "{kind}");
            assert_eq!(stats.offered(), room as u64 + 3, "{kind}");
            assert_eq!(stats.peak_used_slots(), room, "{kind}");
        }
    }

    /// The peak is the fullest any one buffer got, not a sum over the
    /// inputs and not the last reading.
    #[test]
    fn peak_is_the_maximum_over_inputs() {
        let mut sw = switch(BufferKind::Damq);
        for i in 0..3 {
            sw.receive(InputPort::new(0), OutputPort::new(i), pkt(i))
                .unwrap();
        }
        sw.receive(InputPort::new(1), OutputPort::new(3), pkt(3))
            .unwrap();
        assert_eq!(sw.aggregate_stats().peak_used_slots(), 3);
        while !sw.is_quiescent() {
            let _ = transmit(&mut sw, |_, _| true);
        }
        for i in 0..2 {
            sw.receive(InputPort::new(2), OutputPort::new(i), pkt(i))
                .unwrap();
        }
        let stats = sw.aggregate_stats();
        assert_eq!(stats.peak_used_slots(), 3);
        assert_eq!(stats.slots_accepted(), 6);
        assert_eq!(stats.packets_forwarded(), 4);
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
        let _ = transmit(&mut sw, |_, _| true);
        assert_eq!(sw.occupied_slots(), 0);
    }

    #[test]
    fn quiescence_tracks_residency() {
        let mut sw = switch(BufferKind::Damq);
        assert!(sw.is_quiescent());
        sw.receive(InputPort::new(0), OutputPort::new(2), pkt(0))
            .unwrap();
        assert!(!sw.is_quiescent());
        let _ = transmit(&mut sw, |_, _| true);
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
                // Shared non-trivial history so arbiter state is
                // mid-stream, then drain to quiescence.
                for sw in [&mut full, &mut fast] {
                    sw.receive(InputPort::new(0), OutputPort::new(1), pkt(0))
                        .unwrap();
                    sw.receive(InputPort::new(2), OutputPort::new(1), pkt(1))
                        .unwrap();
                    while !sw.is_quiescent() {
                        let _ = transmit(sw, |_, _| true);
                    }
                }
                for cycle in 0..5 {
                    assert!(sw_state(&full) == sw_state(&fast), "{kind}/{policy}");
                    let sent = transmit(&mut full, |_, _| true);
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
                    let sent = transmit(sw, |_, _| true);
                    assert_eq!(sent.len(), 1);
                }
                assert!(sw_state(&full) == sw_state(&fast), "{kind}/{policy}");
            }
        }
    }

    /// Every externally observable piece of switch state.
    fn sw_state(sw: &Switch) -> (InputPort, u64, u64, usize, String) {
        (
            sw.arbiter().priority_port(),
            sw.hol_blocked_last_cycle(),
            sw.hol_blocked_total(),
            sw.packets_resident(),
            format!("{:?}", sw.aggregate_stats()),
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
        let _ = transmit(&mut sw, |_, _| true);
        assert_eq!(sw.arbiter().priority_port(), InputPort::new(0));
        sw.receive(InputPort::new(0), OutputPort::new(1), pkt(0))
            .unwrap();
        let _ = transmit(&mut sw, |_, _| true);
        assert_eq!(sw.arbiter().priority_port(), InputPort::new(1));
    }
}
