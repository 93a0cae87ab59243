//! The statically-allocated designs: SAMQ and SAFC.
//!
//! One FIFO queue per output port, each owning an equal, fixed share of
//! the buffer's slots (the ring store's partitions). Segregating packets by
//! output removes FIFO's head-of-line blocking, but a packet for output *o*
//! can be rejected while slots reserved for other outputs sit empty.
//!
//! The two designs store identically and differ only in the read fabric,
//! the compile-time parameter of [`StaticBuffer`]:
//!
//! * **SAMQ** ([`SamqBuffer`]) — a single read port into an ordinary
//!   crossbar: at most one packet leaves the buffer per cycle.
//! * **SAFC** ([`SafcBuffer`]) — each queue has its own path to its output
//!   (four 4×1 switches instead of one 4×4 crossbar in the paper's
//!   Figure 1b), so one buffer can feed several outputs in the same cycle.
//!   The paper's critique: the replicated connection hardware costs
//!   silicon, flow control needs per-queue state upstream, and the static
//!   partition still wastes storage; SAFC barely beats SAMQ.

use crate::audit::AuditError;
use crate::buffer::{BufferConfig, BufferKind, SwitchBuffer};
use crate::error::{ConfigError, RejectReason, Rejected};
use crate::packet::Packet;
use crate::ring::RingStore;
use crate::stats::BufferStats;
use crate::OutputPort;

/// Statically-allocated multi-queue input buffer with one read port per
/// output when `FULLY_CONNECTED`, else one shared read port. Named through
/// its two instances, [`SamqBuffer`] and [`SafcBuffer`].
#[derive(Debug)]
pub struct StaticBuffer<const FULLY_CONNECTED: bool> {
    ring: RingStore,
}

/// Statically-allocated multi-queue input buffer (single read port).
///
/// `SamqBuffer::new(config)` needs a capacity the fanout divides;
/// `per_queue_capacity()` is each queue's share.
///
/// # Examples
///
/// ```
/// use damq_core::{BufferConfig, SamqBuffer, NodeId, OutputPort, Packet, SwitchBuffer};
///
/// let mut buf = SamqBuffer::new(BufferConfig::new(2, 4))?; // 2 slots per queue
/// let mk = || Packet::builder(NodeId::new(0), NodeId::new(1)).build();
/// buf.try_enqueue(OutputPort::new(0), mk())?;
/// buf.try_enqueue(OutputPort::new(0), mk())?;
///
/// // Queue 0 is full even though queue 1's two slots are empty.
/// assert!(buf.try_enqueue(OutputPort::new(0), mk()).is_err());
/// assert!(buf.can_accept(OutputPort::new(1), 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type SamqBuffer = StaticBuffer<false>;

/// Statically-allocated fully-connected input buffer (one read port per
/// output).
///
/// # Examples
///
/// ```
/// use damq_core::{BufferConfig, SafcBuffer, NodeId, OutputPort, Packet, SwitchBuffer};
///
/// let mut buf = SafcBuffer::new(BufferConfig::new(4, 8))?;
/// assert_eq!(buf.read_ports(), 4); // can feed all four outputs at once
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type SafcBuffer = StaticBuffer<true>;

impl<const FULLY_CONNECTED: bool> StaticBuffer<FULLY_CONNECTED> {
    const KIND: BufferKind = if FULLY_CONNECTED {
        BufferKind::Safc
    } else {
        BufferKind::Samq
    };

    /// Creates an empty buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a dimension is zero or the capacity does
    /// not divide evenly among the output queues.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        Ok(StaticBuffer {
            ring: RingStore::new(config, Self::KIND, config.fanout_count())?,
        })
    }

    /// Slot budget statically reserved for each output's queue.
    pub fn per_queue_capacity(&self) -> usize {
        self.ring.part_cap()
    }
}

impl<const FULLY_CONNECTED: bool> SwitchBuffer for StaticBuffer<FULLY_CONNECTED> {
    fn kind(&self) -> BufferKind {
        Self::KIND
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
        if FULLY_CONNECTED {
            self.fanout()
        } else {
            1
        }
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        self.ring.can_accept(output.index(), slots)
    }

    fn accept_capacity(&self, output: OutputPort) -> usize {
        self.ring.accept_capacity(output.index())
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        self.ring
            .try_enqueue(output.index(), output, packet, RejectReason::QueueFull)
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        self.ring.len(output.index())
    }

    fn queue_lens_into(&self, lens: &mut [u16]) {
        self.ring.queue_lens_into(lens);
    }

    fn front(&self, output: OutputPort) -> Option<&Packet> {
        self.ring.front(output.index())
    }

    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        self.ring.dequeue(output.index())
    }

    fn packet_count(&self) -> usize {
        self.ring.packet_count()
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
        self.ring.kill_slot(hint.index())
    }

    fn dead_slots(&self) -> usize {
        self.ring.dead_slots()
    }

    fn audit(&self) -> Result<(), AuditError> {
        self.ring.audit()
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

    fn buf() -> SamqBuffer {
        // 4 outputs, 8 slots -> 2 slots per queue.
        SamqBuffer::new(BufferConfig::new(4, 8)).unwrap()
    }

    #[test]
    fn partitions_evenly() {
        assert_eq!(buf().per_queue_capacity(), 2);
    }

    #[test]
    fn rejects_uneven_capacity() {
        assert!(SamqBuffer::new(BufferConfig::new(4, 6)).is_err());
        assert!(SafcBuffer::new(BufferConfig::new(4, 7)).is_err());
    }

    #[test]
    fn queue_full_while_buffer_has_space() {
        let mut b = buf();
        b.try_enqueue(OutputPort::new(1), pkt(8)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(8)).unwrap();
        let err = b.try_enqueue(OutputPort::new(1), pkt(8)).unwrap_err();
        assert_eq!(err.reason, RejectReason::QueueFull);
        // Six slots remain free overall, but not for queue 1.
        assert_eq!(b.free_slots(), 6);
    }

    #[test]
    fn queues_are_independent_fifos() {
        let mut b = buf();
        let a = Packet::builder(NodeId::new(10), NodeId::new(0)).build();
        let c = Packet::builder(NodeId::new(11), NodeId::new(0)).build();
        b.try_enqueue(OutputPort::new(0), a).unwrap();
        b.try_enqueue(OutputPort::new(3), c).unwrap();
        // No head-of-line blocking: out3 is servable though out0 arrived first.
        assert_eq!(b.queue_len(OutputPort::new(3)), 1);
        assert_eq!(
            b.dequeue(OutputPort::new(3)).unwrap().source(),
            NodeId::new(11)
        );
        assert_eq!(
            b.dequeue(OutputPort::new(0)).unwrap().source(),
            NodeId::new(10)
        );
    }

    #[test]
    fn packet_larger_than_partition_is_too_large() {
        let mut b = buf();
        // 3 slots needed, partition holds 2 -- even an empty queue rejects it.
        let err = b.try_enqueue(OutputPort::new(0), pkt(24)).unwrap_err();
        assert_eq!(err.reason, RejectReason::PacketTooLarge);
    }

    #[test]
    fn read_ports_and_kinds_follow_the_fabric() {
        let cfg = BufferConfig::new(4, 8);
        let safc = SafcBuffer::new(cfg).unwrap();
        assert_eq!((buf().kind(), buf().read_ports()), (BufferKind::Samq, 1));
        assert_eq!((safc.kind(), safc.read_ports()), (BufferKind::Safc, 4));
    }

    #[test]
    fn safc_drains_one_packet_per_output_in_one_cycle() {
        let mut b = SafcBuffer::new(BufferConfig::new(4, 8)).unwrap();
        for o in 0..4 {
            b.try_enqueue(OutputPort::new(o), pkt(8)).unwrap();
        }
        let drained: Vec<_> = (0..4)
            .filter_map(|o| b.dequeue(OutputPort::new(o)))
            .collect();
        assert_eq!(drained.len(), 4);
        assert!(b.is_empty());
    }

    #[test]
    fn invariants_after_mixed_ops() {
        let mut samq = buf();
        let mut safc = SafcBuffer::new(BufferConfig::new(4, 8)).unwrap();
        for i in 0..40 {
            let out = OutputPort::new(i % 4);
            let _ = samq.try_enqueue(out, pkt(1 + (i % 16)));
            let _ = safc.try_enqueue(out, pkt(1 + (i % 16)));
            if i % 2 == 0 {
                samq.dequeue(out);
                safc.dequeue(out);
            }
            samq.check_invariants();
            safc.check_invariants();
        }
    }
}
