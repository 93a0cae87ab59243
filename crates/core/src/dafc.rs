//! The DAFC buffer: dynamically-allocated, fully-connected (an ablation,
//! not in the paper).
//!
//! The DAMQ design combines two mechanisms: *dynamic storage allocation*
//! (shared slot pool) and *multi-queue organisation* behind a single read
//! port. The SAFC design shows what *full connectivity* (one read port per
//! output) buys on top of static allocation. This buffer completes the
//! 2×2 design matrix:
//!
//! | | single read port | read port per output |
//! |---|---|---|
//! | static partition | SAMQ | SAFC |
//! | dynamic pool | **DAMQ** | **DAFC** (this) |
//!
//! Comparing DAMQ with DAFC isolates how much the extra read bandwidth
//! would add once storage is already shared — the paper argues (via the
//! SAMQ≈SAFC observation) that it is little, and the `ablation_dafc`
//! harness in `damq-bench` quantifies that claim.

use crate::audit::AuditError;
use crate::buffer::{BufferConfig, BufferKind, FrontMeta, SwitchBuffer};
use crate::damq::DamqBuffer;
use crate::error::{ConfigError, Rejected};
use crate::packet::Packet;
use crate::stats::BufferStats;
use crate::OutputPort;

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
#[derive(Debug)]
pub struct DafcBuffer {
    inner: DamqBuffer,
}

impl DafcBuffer {
    /// Creates an empty DAFC buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration has a zero dimension.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        Ok(DafcBuffer {
            inner: DamqBuffer::new(config)?,
        })
    }
}

impl SwitchBuffer for DafcBuffer {
    fn kind(&self) -> BufferKind {
        BufferKind::Dafc
    }

    fn fanout(&self) -> usize {
        self.inner.fanout()
    }

    fn capacity_slots(&self) -> usize {
        self.inner.capacity_slots()
    }

    fn used_slots(&self) -> usize {
        self.inner.used_slots()
    }

    fn slot_bytes(&self) -> usize {
        self.inner.slot_bytes()
    }

    fn read_ports(&self) -> usize {
        self.inner.fanout()
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        self.inner.can_accept(output, slots)
    }

    fn accept_capacity(&self, output: OutputPort) -> usize {
        self.inner.accept_capacity(output)
    }

    fn front_meta(&self, output: OutputPort) -> Option<FrontMeta> {
        self.inner.front_meta(output)
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        self.inner.try_enqueue(output, packet)
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        self.inner.queue_len(output)
    }

    fn queue_lens_into(&self, lens: &mut [u16]) {
        self.inner.queue_lens_into(lens)
    }

    fn front(&self, output: OutputPort) -> Option<&Packet> {
        self.inner.front(output)
    }

    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        self.inner.dequeue(output)
    }

    fn packet_count(&self) -> usize {
        self.inner.packet_count()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn stats(&self) -> &BufferStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        self.inner.kill_slot(hint)
    }

    fn dead_slots(&self) -> usize {
        self.inner.dead_slots()
    }

    fn audit(&self) -> Result<(), AuditError> {
        self.inner.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn pkt() -> Packet {
        Packet::builder(NodeId::new(0), NodeId::new(1)).build()
    }

    #[test]
    fn combines_dynamic_storage_with_full_read_bandwidth() {
        let mut b = DafcBuffer::new(BufferConfig::new(4, 4)).unwrap();
        assert_eq!(b.read_ports(), 4);
        // Any mix of queues up to the shared capacity.
        b.try_enqueue(OutputPort::new(0), pkt()).unwrap();
        b.try_enqueue(OutputPort::new(0), pkt()).unwrap();
        b.try_enqueue(OutputPort::new(0), pkt()).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt()).unwrap();
        assert!(!b.can_accept(OutputPort::new(2), 1));
        // Drains one packet per output per cycle.
        assert!(b.dequeue(OutputPort::new(0)).is_some());
        assert!(b.dequeue(OutputPort::new(1)).is_some());
        b.check_invariants();
    }

    #[test]
    fn odd_capacities_allowed_like_damq() {
        assert!(DafcBuffer::new(BufferConfig::new(4, 3)).is_ok());
    }

    #[test]
    fn reports_its_own_kind() {
        let b = DafcBuffer::new(BufferConfig::new(4, 4)).unwrap();
        assert_eq!(b.kind(), BufferKind::Dafc);
        assert_eq!(b.kind().name(), "DAFC");
    }
}
