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
//! The storage is the ring store of the statically-allocated designs with
//! a single partition that owns every slot. What is FIFO's own is one
//! column parallel to the ring — the output-port index of each entry — and
//! what that column decides: only the head is transmittable, so
//! `queue_len` / `front` / `dequeue` answer for the head's output alone,
//! and the entries behind a head bound elsewhere are the head-of-line
//! blocked packets.

use crate::audit::{audit_ensure, strict_audit, AuditError};
use crate::buffer::{ring_wrap, BufferConfig, BufferKind, SwitchBuffer};
use crate::error::{ConfigError, RejectReason, Rejected};
use crate::packet::Packet;
use crate::ring::RingStore;
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
    /// The one-partition ring: the whole buffer is the single queue.
    ring: RingStore,
    /// Output-port index of the entry at each ring position (stale
    /// outside the live window).
    outs: Box<[u16]>,
}

impl FifoBuffer {
    /// Creates an empty FIFO buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration has a zero dimension.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        Ok(FifoBuffer {
            ring: RingStore::new(config, BufferKind::Fifo, 1)?,
            outs: vec![0; config.capacity()].into_boxed_slice(),
        })
    }

    /// The output port of the head packet, if any.
    pub fn head_output(&self) -> Option<OutputPort> {
        let (head, _) = self.ring.head(0)?;
        Some(OutputPort::new(usize::from(self.outs[head])))
    }

    /// The head's ring position and the queue length, if the head packet
    /// is bound for `output` — the only case anything is transmittable.
    fn head_for(&self, output: OutputPort) -> Option<(usize, usize)> {
        self.ring
            .head(0)
            .filter(|&(head, _)| usize::from(self.outs[head]) == output.index())
    }
}

impl SwitchBuffer for FifoBuffer {
    fn kind(&self) -> BufferKind {
        BufferKind::Fifo
    }

    fn fanout(&self) -> usize {
        self.ring.config().fanout_count()
    }

    fn capacity_slots(&self) -> usize {
        self.ring.config().capacity()
    }

    fn used_slots(&self) -> usize {
        self.ring.used_slots()
    }

    fn slot_bytes(&self) -> usize {
        self.ring.config().slot_size()
    }

    fn read_ports(&self) -> usize {
        1
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        output.index() < self.fanout() && self.ring.can_accept(0, slots)
    }

    fn accept_capacity(&self, output: OutputPort) -> usize {
        if output.index() < self.fanout() {
            self.ring.accept_capacity(0)
        } else {
            0
        }
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        let tail = self.ring.tail(0);
        let stored = self
            .ring
            .try_enqueue(0, output, packet, RejectReason::BufferFull);
        if stored.is_ok() {
            self.outs[tail] = output.index() as u16;
            strict_audit!(self);
        }
        stored
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        self.head_for(output).map_or(0, |(_, len)| len)
    }

    fn queue_lens_into(&self, lens: &mut [u16]) {
        lens.fill(0);
        if let Some((head, len)) = self.ring.head(0) {
            lens[usize::from(self.outs[head])] = len as u16;
        }
    }

    fn front(&self, output: OutputPort) -> Option<&Packet> {
        let (head, _) = self.head_for(output)?;
        self.ring.entry(head)
    }

    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        self.head_for(output)?;
        self.ring.dequeue(0)
    }

    fn packet_count(&self) -> usize {
        self.ring.len(0)
    }

    fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    fn stats(&self) -> &BufferStats {
        self.ring.stats()
    }

    fn reset_stats(&mut self) {
        self.ring.stats_mut().reset();
    }

    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        // A FIFO ring has no per-output partitions; the hint is irrelevant.
        let _ = hint;
        self.ring.kill_slot(0)
    }

    fn dead_slots(&self) -> usize {
        self.ring.dead_slots()
    }

    fn note_hol_blocked(&mut self) -> u64 {
        let Some((head, len)) = self.ring.head(0) else {
            return 0;
        };
        // The one partition's segment is the whole ring.
        let cap = self.ring.part_cap();
        let head_out = self.outs[head];
        let blocked = (1..len)
            .filter(|&i| self.outs[ring_wrap(head + i, cap)] != head_out)
            .count() as u64;
        self.ring.stats_mut().record_hol_blocked(blocked);
        blocked
    }

    fn audit(&self) -> Result<(), AuditError> {
        self.ring.audit()?;
        for i in 0..self.ring.len(0) {
            let out = self.outs[self.ring.pos(0, i)];
            audit_ensure!(
                usize::from(out) < self.fanout(),
                "queue-shape",
                "entry routed to nonexistent output {out}"
            );
        }
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
