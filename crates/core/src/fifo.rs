//! The FIFO buffer: the paper's baseline ("control") design.
//!
//! A single first-in first-out queue with one write port and one read port.
//! Simple to build and ideal for variable-length packets (storage is a ring
//! of slots), but it suffers **head-of-line blocking**: when the packet at
//! the head waits for a busy output, every packet behind it waits too, even
//! if their outputs are idle.
//!
//! # Storage layout
//!
//! The queue is structure-of-arrays like [`SoaSlots`](crate::SoaSlots): one
//! ring of `capacity` entry positions described by three parallel arrays —
//! `outs` (output-port index), `entry_slots` (slot count) and the
//! out-of-line payload `arena` — addressed by `head`/`len` ring registers.
//! A packet occupies at least one slot, so resident entries can never
//! exceed `capacity` and the ring cannot overflow. The pre-SoA `VecDeque`
//! implementation survives verbatim in `aos.rs` as the differential
//! reference.

use crate::audit::{audit_ensure, strict_audit, AuditError};
use crate::buffer::{ring_wrap, BufferConfig, BufferKind, SwitchBuffer};
use crate::error::{ConfigError, RejectReason, Rejected};
use crate::packet::Packet;
use crate::stats::BufferStats;
use crate::OutputPort;

/// Single-queue first-in first-out input buffer.
///
/// Only the head packet is ever transmittable; consequently
/// [`queue_len`](SwitchBuffer::queue_len) reports the entire queue length for
/// the head packet's output and `0` for every other output.
///
/// # Examples
///
/// ```
/// use damq_core::{BufferConfig, FifoBuffer, NodeId, OutputPort, Packet, SwitchBuffer};
///
/// let mut buf = FifoBuffer::new(BufferConfig::new(4, 4))?;
/// let a = Packet::builder(NodeId::new(0), NodeId::new(1)).build();
/// let b = Packet::builder(NodeId::new(0), NodeId::new(2)).build();
/// buf.try_enqueue(OutputPort::new(1), a)?;
/// buf.try_enqueue(OutputPort::new(2), b)?;
///
/// // b is routed to out2 and out2 is idle -- but b is stuck behind a.
/// assert_eq!(buf.queue_len(OutputPort::new(2)), 0);
/// assert_eq!(buf.queue_len(OutputPort::new(1)), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FifoBuffer {
    config: BufferConfig,
    /// Output-port index of the entry at each ring position (parallel to
    /// `arena`; stale outside the live window).
    outs: Vec<u16>,
    /// Slot count of the entry at each ring position.
    entry_slots: Vec<u16>,
    /// Out-of-line payloads; `Some` exactly inside the live window.
    arena: Vec<Option<Packet>>,
    /// Ring head offset.
    head: u16,
    /// Resident-entry count.
    len: u16,
    used_slots: usize,
    /// Ring slots permanently removed by fault injection.
    dead: usize,
    /// Kills issued while the ring was full; consumed by later dequeues.
    pending_kills: usize,
    stats: BufferStats,
}

impl FifoBuffer {
    /// Creates an empty FIFO buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration has a zero dimension.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        config.validate(BufferKind::Fifo)?;
        assert!(
            config.capacity() < u16::MAX as usize,
            "u16 ring registers cap the capacity"
        );
        Ok(FifoBuffer {
            config,
            outs: vec![0; config.capacity()],
            entry_slots: vec![0; config.capacity()],
            arena: (0..config.capacity()).map(|_| None).collect(),
            head: 0,
            len: 0,
            used_slots: 0,
            dead: 0,
            pending_kills: 0,
            stats: BufferStats::new(),
        })
    }

    /// Ring position of entry `i` (0 = head), for `i` up to the ring size.
    fn pos(&self, i: usize) -> usize {
        ring_wrap(self.head as usize + i, self.arena.len())
    }

    /// The output port of the head packet, if any.
    pub fn head_output(&self) -> Option<OutputPort> {
        if self.len == 0 {
            None
        } else {
            Some(OutputPort::new(self.outs[self.head as usize] as usize))
        }
    }

    fn head_matches(&self, output: OutputPort) -> bool {
        self.head_output() == Some(output)
    }
}

impl SwitchBuffer for FifoBuffer {
    fn kind(&self) -> BufferKind {
        BufferKind::Fifo
    }

    fn fanout(&self) -> usize {
        self.config.fanout_count()
    }

    fn capacity_slots(&self) -> usize {
        self.config.capacity()
    }

    fn used_slots(&self) -> usize {
        self.used_slots
    }

    fn slot_bytes(&self) -> usize {
        self.config.slot_size()
    }

    fn read_ports(&self) -> usize {
        1
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        output.index() < self.fanout()
            && self.used_slots + slots + self.dead_slots() <= self.capacity_slots()
    }

    fn accept_capacity(&self, output: OutputPort) -> usize {
        if output.index() < self.fanout() {
            self.capacity_slots()
                .saturating_sub(self.used_slots + self.dead_slots())
        } else {
            0
        }
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        let slots = packet.slots_needed(self.slot_bytes());
        if output.index() >= self.fanout() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::NoSuchOutput,
            });
        }
        if slots > self.capacity_slots() {
            self.stats.record_rejected();
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::PacketTooLarge,
            });
        }
        if slots + self.dead_slots() > self.capacity_slots() {
            // Fits a healthy ring but not what the faults have left of it.
            self.stats.record_rejected();
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::Faulted,
            });
        }
        if self.used_slots + slots + self.dead_slots() > self.capacity_slots() {
            self.stats.record_rejected();
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::BufferFull,
            });
        }
        self.used_slots += slots;
        self.stats.record_accepted(slots);
        self.stats.observe_used_slots(self.used_slots);
        let tail = self.pos(self.len as usize);
        self.outs[tail] = output.index() as u16;
        self.entry_slots[tail] = slots as u16;
        self.arena[tail] = Some(packet);
        self.len += 1;
        strict_audit!(self);
        Ok(())
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        if self.head_matches(output) {
            self.len as usize
        } else {
            0
        }
    }

    fn queue_lens_into(&self, lens: &mut [u16]) {
        lens.fill(0);
        if self.len > 0 {
            lens[self.outs[self.head as usize] as usize] = self.len;
        }
    }

    fn front(&self, output: OutputPort) -> Option<&Packet> {
        if !self.head_matches(output) {
            return None;
        }
        self.arena[self.head as usize].as_ref()
    }

    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        if !self.head_matches(output) {
            return None;
        }
        let head = self.head as usize;
        let slots = self.entry_slots[head] as usize;
        // lint: allow — head_matches() proved the head cell holds a payload.
        let packet = self.arena[head].take().expect("head checked above");
        self.head = self.pos(1) as u16;
        self.len -= 1;
        self.used_slots -= slots;
        // Freed slots feed deferred kills before returning to service.
        let consumed = self.pending_kills.min(slots);
        self.pending_kills -= consumed;
        self.dead += consumed;
        self.stats.record_forwarded();
        strict_audit!(self);
        Some(packet)
    }

    fn packet_count(&self) -> usize {
        self.len as usize
    }

    fn stats(&self) -> &BufferStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        // A FIFO ring has no per-output partitions; the hint is irrelevant.
        let _ = hint;
        if self.dead_slots() >= self.capacity_slots() {
            return false;
        }
        if self.used_slots + self.dead < self.capacity_slots() {
            self.dead += 1;
        } else {
            self.pending_kills += 1;
        }
        strict_audit!(self);
        true
    }

    fn dead_slots(&self) -> usize {
        self.dead + self.pending_kills
    }

    fn note_hol_blocked(&mut self) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let head_out = self.outs[self.head as usize];
        let mut blocked = 0u64;
        for i in 1..self.len as usize {
            if self.outs[self.pos(i)] != head_out {
                blocked += 1;
            }
        }
        self.stats.record_hol_blocked(blocked);
        blocked
    }

    fn audit(&self) -> Result<(), AuditError> {
        let cap = self.arena.len();
        audit_ensure!(
            (self.len as usize) <= cap,
            "register-sync",
            "FIFO length register {} exceeds the {cap}-entry ring",
            self.len
        );
        let mut sum = 0usize;
        for i in 0..self.len as usize {
            let p = self.pos(i);
            let Some(packet) = self.arena[p].as_ref() else {
                return Err(AuditError::new(
                    "queue-shape",
                    format!("live ring position {p} has no payload"),
                ));
            };
            audit_ensure!(
                (self.outs[p] as usize) < self.fanout(),
                "queue-shape",
                "entry routed to nonexistent output {}",
                self.outs[p]
            );
            audit_ensure!(
                self.entry_slots[p] as usize == packet.slots_needed(self.slot_bytes()),
                "queue-shape",
                "entry slot count {} disagrees with its packet length",
                self.entry_slots[p]
            );
            sum += self.entry_slots[p] as usize;
        }
        audit_ensure!(
            sum == self.used_slots,
            "register-sync",
            "FIFO used_slots register says {} but entries sum to {sum}",
            self.used_slots
        );
        for i in self.len as usize..cap {
            let p = self.pos(i);
            audit_ensure!(
                self.arena[p].is_none(),
                "list-partition",
                "ring position {p} outside the live window holds a payload"
            );
        }
        audit_ensure!(
            self.used_slots + self.dead <= self.capacity_slots(),
            "capacity-bound",
            "FIFO holds {} live + {} dead of {} slots",
            self.used_slots,
            self.dead,
            self.capacity_slots()
        );
        audit_ensure!(
            self.dead + self.pending_kills <= self.capacity_slots(),
            "fault-ledger",
            "FIFO records {} dead + {} pending kills over {} slots",
            self.dead,
            self.pending_kills,
            self.capacity_slots()
        );
        audit_ensure!(
            self.pending_kills == 0 || self.used_slots + self.dead == self.capacity_slots(),
            "fault-ledger",
            "FIFO defers {} kills while slots are free",
            self.pending_kills
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn pkt(len: usize) -> Packet {
        Packet::builder(NodeId::new(0), NodeId::new(1))
            .length_bytes(len)
            .build()
    }

    fn buf(slots: usize) -> FifoBuffer {
        FifoBuffer::new(BufferConfig::new(4, slots)).unwrap()
    }

    #[test]
    fn accepts_until_full_then_rejects() {
        let mut b = buf(2);
        b.try_enqueue(OutputPort::new(0), pkt(8)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(8)).unwrap();
        let err = b.try_enqueue(OutputPort::new(2), pkt(8)).unwrap_err();
        assert_eq!(err.reason, RejectReason::BufferFull);
        assert_eq!(b.stats().packets_rejected(), 1);
        assert_eq!(b.used_slots(), 2);
    }

    #[test]
    fn multi_slot_packet_consumes_multiple_slots() {
        let mut b = buf(4);
        b.try_enqueue(OutputPort::new(0), pkt(32)).unwrap(); // 4 slots
        assert_eq!(b.used_slots(), 4);
        assert!(!b.can_accept(OutputPort::new(0), 1));
        let p = b.dequeue(OutputPort::new(0)).unwrap();
        assert_eq!(p.length_bytes(), 32);
        assert_eq!(b.used_slots(), 0);
    }

    #[test]
    fn oversized_packet_rejected_as_too_large() {
        let mut b = buf(2);
        let err = b.try_enqueue(OutputPort::new(0), pkt(32)).unwrap_err();
        assert_eq!(err.reason, RejectReason::PacketTooLarge);
    }

    #[test]
    fn head_of_line_blocking_semantics() {
        let mut b = buf(4);
        b.try_enqueue(OutputPort::new(3), pkt(8)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(8)).unwrap();
        // Head is for out3; out1 sees nothing.
        assert_eq!(b.queue_len(OutputPort::new(1)), 0);
        assert!(b.front(OutputPort::new(1)).is_none());
        assert!(b.dequeue(OutputPort::new(1)).is_none());
        // Draining out3 unblocks out1.
        assert!(b.dequeue(OutputPort::new(3)).is_some());
        assert_eq!(b.queue_len(OutputPort::new(1)), 1);
        assert!(b.dequeue(OutputPort::new(1)).is_some());
        assert!(b.is_empty());
    }

    #[test]
    fn hol_blocking_counts_foreign_output_residents() {
        let mut b = buf(4);
        assert_eq!(b.note_hol_blocked(), 0); // empty buffer
        b.try_enqueue(OutputPort::new(3), pkt(8)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(8)).unwrap();
        b.try_enqueue(OutputPort::new(3), pkt(8)).unwrap();
        // Head is for out3; the out1 packet is blocked, the second out3
        // packet merely queues behind its own output.
        assert_eq!(b.note_hol_blocked(), 1);
        assert_eq!(b.stats().hol_blocked(), 1);
        b.dequeue(OutputPort::new(3)).unwrap();
        // New head is the out1 packet: the trailing out3 packet is blocked.
        assert_eq!(b.note_hol_blocked(), 1);
        assert_eq!(b.stats().hol_blocked(), 2);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut b = buf(4);
        for i in 0..4 {
            let p = Packet::builder(NodeId::new(i), NodeId::new(9)).build();
            b.try_enqueue(OutputPort::new(2), p).unwrap();
        }
        for i in 0..4 {
            let p = b.dequeue(OutputPort::new(2)).unwrap();
            assert_eq!(p.source(), NodeId::new(i));
        }
    }

    #[test]
    fn ring_wraps_through_many_cycles() {
        let mut b = buf(3);
        for i in 0..40 {
            let p = Packet::builder(NodeId::new(i), NodeId::new(9)).build();
            b.try_enqueue(OutputPort::new(i % 4), p).unwrap();
            if i % 2 == 1 {
                let out = b.head_output().unwrap();
                assert_eq!(b.dequeue(out).unwrap().source(), NodeId::new(i - 1));
                let out = b.head_output().unwrap();
                assert_eq!(b.dequeue(out).unwrap().source(), NodeId::new(i));
            }
            b.check_invariants();
        }
        assert!(b.is_empty());
    }

    #[test]
    fn bad_output_port_is_rejected_without_counting() {
        let mut b = buf(2);
        let err = b.try_enqueue(OutputPort::new(4), pkt(8)).unwrap_err();
        assert_eq!(err.reason, RejectReason::NoSuchOutput);
        assert_eq!(b.stats().offered(), 0);
    }

    #[test]
    fn eligible_outputs_reports_only_head() {
        let mut b = buf(4);
        b.try_enqueue(OutputPort::new(2), pkt(8)).unwrap();
        b.try_enqueue(OutputPort::new(0), pkt(8)).unwrap();
        assert_eq!(b.eligible_outputs(), vec![OutputPort::new(2)]);
    }

    #[test]
    fn queue_lens_into_reports_only_the_head_output() {
        let mut b = buf(4);
        let mut lens = [9u16; 4];
        b.queue_lens_into(&mut lens);
        assert_eq!(lens, [0; 4]);
        b.try_enqueue(OutputPort::new(2), pkt(8)).unwrap();
        b.try_enqueue(OutputPort::new(0), pkt(8)).unwrap();
        b.queue_lens_into(&mut lens);
        assert_eq!(lens, [0, 0, 2, 0]);
    }

    #[test]
    fn invariants_hold_through_random_ops() {
        let mut b = buf(6);
        for i in 0..50 {
            let out = OutputPort::new(i % 4);
            let _ = b.try_enqueue(out, pkt(1 + (i * 7) % 32));
            if i % 3 == 0 {
                if let Some(o) = b.head_output() {
                    b.dequeue(o);
                }
            }
            b.check_invariants();
        }
    }
}
