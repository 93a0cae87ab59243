//! The dynamically-allocated designs: DAMQ (the paper's contribution) and
//! the DAFC ablation.
//!
//! A DAMQ buffer keeps a separate FIFO queue of packets per output port —
//! like SAMQ/SAFC it never suffers head-of-line blocking — but its storage is
//! **not** statically partitioned. All slots live in one pool threaded onto
//! a free list; a packet for any output may claim any free slot. The queues
//! are linked lists through per-slot pointer registers, stored here as
//! structure-of-arrays index registers (see [`SoaSlots`]) exactly as the
//! chip's hardwired controller would lay them out.
//!
//! The combination gives DAMQ both of the properties the paper identifies as
//! essential:
//!
//! 1. *non-FIFO packet handling* — an idle output is never starved by a
//!    blocked packet in front, and
//! 2. *efficient storage allocation* — free space "adapts" to whatever
//!    traffic actually arrives, so a DAMQ buffer with 3 slots discards no
//!    more than a FIFO with 6 (paper Table 2).
//!
//! DAFC ([`DafcBuffer`], not in the paper) is the same pool behind one read
//! port per output — the read fabric is the compile-time parameter of
//! [`DynamicBuffer`]. Comparing the two isolates what the extra read
//! bandwidth adds once storage is already shared; the paper argues (via
//! the SAMQ≈SAFC observation) that it is little, and the `ablation_dafc`
//! harness in `damq-bench` quantifies that claim.

use crate::audit::{audit_ensure, AuditError};
use crate::buffer::{BufferConfig, BufferKind, FrontMeta, SwitchBuffer};
use crate::error::{ConfigError, RejectReason, Rejected};
use crate::packet::Packet;
use crate::soa::SoaSlots;
use crate::stats::BufferStats;
use crate::OutputPort;

/// Dynamically-allocated multi-queue input buffer with one read port per
/// output when `FULLY_CONNECTED`, else one shared read port. Named through
/// its two instances, [`DamqBuffer`] and [`DafcBuffer`].
#[derive(Debug)]
pub struct DynamicBuffer<const FULLY_CONNECTED: bool> {
    config: BufferConfig,
    pool: SoaSlots,
    stats: BufferStats,
}

/// Dynamically-allocated multi-queue input buffer.
///
/// `DamqBuffer::new(config)` accepts any capacity (the paper's Table 5
/// uses 3-slot buffers); `pool()` and `queue_slots(output)` expose the
/// slot pool.
///
/// # Examples
///
/// The dynamic-allocation property — one queue may use the whole pool:
///
/// ```
/// use damq_core::{BufferConfig, DamqBuffer, NodeId, OutputPort, Packet, SwitchBuffer};
///
/// let mut buf = DamqBuffer::new(BufferConfig::new(4, 4))?;
/// let mk = || Packet::builder(NodeId::new(0), NodeId::new(1)).build();
/// for _ in 0..4 {
///     buf.try_enqueue(OutputPort::new(2), mk())?; // all 4 slots to out2
/// }
/// assert_eq!(buf.queue_len(OutputPort::new(2)), 4);
/// assert!(!buf.can_accept(OutputPort::new(0), 1)); // pool exhausted
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type DamqBuffer = DynamicBuffer<false>;

/// Dynamically-allocated fully-connected input buffer (DAMQ storage, one
/// read port per output).
///
/// # Examples
///
/// ```
/// use damq_core::{BufferConfig, DafcBuffer, NodeId, OutputPort, Packet, SwitchBuffer};
///
/// let mut buf = DafcBuffer::new(BufferConfig::new(4, 4))?;
/// assert_eq!(buf.read_ports(), 4);
/// // Dynamic allocation: one queue may take the whole pool.
/// for _ in 0..4 {
///     let p = Packet::builder(NodeId::new(0), NodeId::new(1)).build();
///     buf.try_enqueue(OutputPort::new(3), p)?;
/// }
/// assert_eq!(buf.queue_len(OutputPort::new(3)), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type DafcBuffer = DynamicBuffer<true>;

impl<const FULLY_CONNECTED: bool> DynamicBuffer<FULLY_CONNECTED> {
    const KIND: BufferKind = if FULLY_CONNECTED {
        BufferKind::Dafc
    } else {
        BufferKind::Damq
    };

    /// Creates an empty buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration has a zero dimension.
    /// Unlike the statically-allocated designs, any capacity is valid — the
    /// paper's Table 5 exploits this with 3-slot DAMQ buffers.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        config.validate(Self::KIND)?;
        Ok(DynamicBuffer {
            config,
            pool: SoaSlots::new(config.capacity(), config.fanout_count()),
            stats: BufferStats::new(),
        })
    }

    /// Direct read access to the underlying slot pool (for inspection and
    /// the micro-architecture model).
    pub fn pool(&self) -> &SoaSlots {
        &self.pool
    }

    /// Slots consumed by the queue for `output`.
    pub fn queue_slots(&self, output: OutputPort) -> usize {
        if output.index() < self.fanout() {
            self.pool.queue_slots(output.index())
        } else {
            0
        }
    }
}

impl<const FULLY_CONNECTED: bool> SwitchBuffer for DynamicBuffer<FULLY_CONNECTED> {
    fn kind(&self) -> BufferKind {
        Self::KIND
    }

    fn fanout(&self) -> usize {
        self.config.fanout_count()
    }

    fn capacity_slots(&self) -> usize {
        self.config.capacity()
    }

    fn used_slots(&self) -> usize {
        self.pool.used_count()
    }

    fn slot_bytes(&self) -> usize {
        self.config.slot_size()
    }

    fn read_ports(&self) -> usize {
        if FULLY_CONNECTED {
            self.fanout()
        } else {
            1
        }
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        output.index() < self.fanout() && slots <= self.pool.free_count()
    }

    fn accept_capacity(&self, output: OutputPort) -> usize {
        if output.index() < self.fanout() {
            self.pool.free_count()
        } else {
            0
        }
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        if output.index() >= self.fanout() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::NoSuchOutput,
            });
        }
        let slots = packet.slots_needed(self.slot_bytes());
        if slots > self.capacity_slots() {
            self.stats.record_rejected();
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::PacketTooLarge,
            });
        }
        if slots > self.pool.effective_capacity() {
            // Fits a healthy pool but not what the faults have left of it.
            self.stats.record_rejected();
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::Faulted,
            });
        }
        match self.pool.enqueue(output.index(), packet, slots) {
            Ok(()) => {
                self.stats.record_accepted(slots);
                self.stats.observe_used_slots(self.pool.used_count());
                Ok(())
            }
            Err(packet) => {
                self.stats.record_rejected();
                Err(Rejected {
                    packet,
                    output,
                    reason: RejectReason::BufferFull,
                })
            }
        }
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        if output.index() < self.fanout() {
            self.pool.queue_packets(output.index())
        } else {
            0
        }
    }

    fn queue_lens_into(&self, lens: &mut [u16]) {
        self.pool.queue_lens_into(lens);
    }

    fn front(&self, output: OutputPort) -> Option<&Packet> {
        if output.index() < self.fanout() {
            self.pool.front(output.index())
        } else {
            None
        }
    }

    fn front_meta(&self, output: OutputPort) -> Option<FrontMeta> {
        if output.index() < self.fanout() {
            self.pool.front_meta(output.index())
        } else {
            None
        }
    }

    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        if output.index() >= self.fanout() {
            return None;
        }
        let packet = self.pool.dequeue(output.index())?;
        self.stats.record_forwarded();
        Some(packet)
    }

    fn packet_count(&self) -> usize {
        (0..self.fanout()).map(|l| self.pool.queue_packets(l)).sum()
    }

    fn is_empty(&self) -> bool {
        // One register read, not a sum over the queues (the switch kernel
        // asks every buffer every cycle): a packet occupies at least one
        // slot.
        self.pool.used_count() == 0
    }

    fn stats(&self) -> &BufferStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        // The pool is shared: a dead slot hurts every queue equally, so the
        // hinted output carries no information here.
        let _ = hint;
        self.pool.kill_slot()
    }

    fn dead_slots(&self) -> usize {
        self.pool.dead_count()
    }

    fn audit(&self) -> Result<(), AuditError> {
        // The pool enforces strict-audit on its own enqueue/dequeue paths;
        // here we re-check it plus the buffer-level accounting on top.
        self.pool.audit()?;
        audit_ensure!(
            self.used_slots() <= self.capacity_slots(),
            "capacity-bound",
            "pool reports {} used of {} slots",
            self.used_slots(),
            self.capacity_slots()
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn pkt(len: usize, src: usize) -> Packet {
        Packet::builder(NodeId::new(src), NodeId::new(1))
            .length_bytes(len)
            .build()
    }

    fn buf(slots: usize) -> DamqBuffer {
        DamqBuffer::new(BufferConfig::new(4, slots)).unwrap()
    }

    #[test]
    fn any_capacity_is_valid() {
        // Odd capacities are fine (unlike SAMQ/SAFC): Table 5 uses 3 slots.
        assert!(DamqBuffer::new(BufferConfig::new(4, 3)).is_ok());
        assert!(DamqBuffer::new(BufferConfig::new(4, 5)).is_ok());
        assert!(DafcBuffer::new(BufferConfig::new(4, 3)).is_ok());
    }

    #[test]
    fn read_ports_and_kinds_follow_the_fabric() {
        let cfg = BufferConfig::new(4, 4);
        let dafc = DafcBuffer::new(cfg).unwrap();
        assert_eq!((buf(4).kind(), buf(4).read_ports()), (BufferKind::Damq, 1));
        assert_eq!((dafc.kind(), dafc.read_ports()), (BufferKind::Dafc, 4));
        assert_eq!(dafc.kind().name(), "DAFC");
    }

    #[test]
    fn dafc_combines_dynamic_storage_with_full_read_bandwidth() {
        let mut b = DafcBuffer::new(BufferConfig::new(4, 4)).unwrap();
        // Any mix of queues up to the shared capacity.
        for out in [0, 0, 0, 1] {
            b.try_enqueue(OutputPort::new(out), pkt(8, out)).unwrap();
        }
        assert!(!b.can_accept(OutputPort::new(2), 1));
        // Drains one packet per output per cycle.
        assert!(b.dequeue(OutputPort::new(0)).is_some());
        assert!(b.dequeue(OutputPort::new(1)).is_some());
        b.check_invariants();
    }

    #[test]
    fn no_head_of_line_blocking() {
        let mut b = buf(4);
        b.try_enqueue(OutputPort::new(3), pkt(8, 0)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(8, 1)).unwrap();
        // out1 is immediately servable even though out3's packet arrived first.
        assert_eq!(b.queue_len(OutputPort::new(1)), 1);
        assert_eq!(
            b.dequeue(OutputPort::new(1)).unwrap().source(),
            NodeId::new(1)
        );
    }

    #[test]
    fn storage_is_shared_not_partitioned() {
        let mut b = buf(4);
        for i in 0..4 {
            b.try_enqueue(OutputPort::new(0), pkt(8, i)).unwrap();
        }
        let err = b.try_enqueue(OutputPort::new(1), pkt(8, 9)).unwrap_err();
        assert_eq!(err.reason, RejectReason::BufferFull);
        // Freeing one slot makes it available to *any* queue.
        b.dequeue(OutputPort::new(0)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(8, 9)).unwrap();
        b.check_invariants();
    }

    #[test]
    fn variable_length_packets_span_slots() {
        let mut b = buf(6);
        b.try_enqueue(OutputPort::new(0), pkt(32, 0)).unwrap(); // 4 slots
        b.try_enqueue(OutputPort::new(1), pkt(12, 1)).unwrap(); // 2 slots
        assert_eq!(b.used_slots(), 6);
        assert_eq!(b.queue_slots(OutputPort::new(0)), 4);
        assert_eq!(b.queue_slots(OutputPort::new(1)), 2);
        assert!(!b.can_accept(OutputPort::new(2), 1));
        let p = b.dequeue(OutputPort::new(0)).unwrap();
        assert_eq!(p.length_bytes(), 32);
        assert_eq!(b.free_slots(), 4);
        b.check_invariants();
    }

    #[test]
    fn per_output_fifo_order() {
        let mut b = buf(8);
        for i in 0..3 {
            b.try_enqueue(OutputPort::new(2), pkt(8, i)).unwrap();
            b.try_enqueue(OutputPort::new(0), pkt(8, 10 + i)).unwrap();
        }
        for i in 0..3 {
            assert_eq!(
                b.dequeue(OutputPort::new(2)).unwrap().source(),
                NodeId::new(i)
            );
        }
        for i in 0..3 {
            assert_eq!(
                b.dequeue(OutputPort::new(0)).unwrap().source(),
                NodeId::new(10 + i)
            );
        }
    }

    #[test]
    fn stats_track_all_outcomes() {
        let mut b = buf(2);
        b.try_enqueue(OutputPort::new(0), pkt(8, 0)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(8, 1)).unwrap();
        let _ = b.try_enqueue(OutputPort::new(2), pkt(8, 2));
        b.dequeue(OutputPort::new(0)).unwrap();
        assert_eq!(b.stats().packets_accepted(), 2);
        assert_eq!(b.stats().packets_rejected(), 1);
        assert_eq!(b.stats().packets_forwarded(), 1);
        assert_eq!(b.stats().peak_used_slots(), 2);
    }

    #[test]
    fn eligible_outputs_lists_all_nonempty_queues() {
        let mut b = buf(4);
        b.try_enqueue(OutputPort::new(3), pkt(8, 0)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(8, 1)).unwrap();
        assert_eq!(
            b.eligible_outputs(),
            vec![OutputPort::new(1), OutputPort::new(3)]
        );
    }

    #[test]
    fn mixed_operations_keep_invariants() {
        let mut b = buf(12);
        for i in 0..200 {
            let out = OutputPort::new(i % 4);
            let _ = b.try_enqueue(out, pkt(1 + (i * 5) % 32, i));
            if i % 3 == 0 {
                b.dequeue(OutputPort::new((i / 3) % 4));
            }
            b.check_invariants();
        }
    }
}
