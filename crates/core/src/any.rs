//! Kind-erased buffers without heap indirection: the [`AnyBuffer`] enum
//! and the [`BuildBuffer`] construction trait.
//!
//! The simulation data path used to hold every input buffer behind a
//! `Box<dyn SwitchBuffer>`: one heap allocation and one virtual call per
//! operation, opaque to the inliner. [`AnyBuffer`] replaces that with an
//! enum over the five concrete designs and static `match` dispatch — the
//! compiler sees concrete types on every arm, inlines the per-design
//! fast paths, and stores the buffer inline in the switch's `Vec`.
//!
//! [`BuildBuffer`] is the construction half: it lets a generic container
//! (`Switch<B>`, `NetworkSim<B, _>`) build its buffers from a
//! [`BufferConfig`] plus a [`BufferKind`] hint without knowing `B`
//! concretely. The hint is honoured by the kind-erased [`AnyBuffer`] and
//! ignored by the concrete designs, which *are* their kind.

use crate::audit::AuditError;
use crate::buffer::{BufferConfig, BufferKind, FrontMeta, SwitchBuffer};
use crate::damq::DynamicBuffer;
use crate::error::{ConfigError, Rejected};
use crate::packet::Packet;
use crate::samq::StaticBuffer;
use crate::stats::BufferStats;
use crate::{DafcBuffer, DamqBuffer, FifoBuffer, OutputPort, SafcBuffer, SamqBuffer};

/// Any of the five buffer designs, dispatched by `match` instead of
/// through a vtable.
///
/// This is the default buffer type of the simulation stack
/// (`Switch<AnyBuffer>`, `NetworkSim<AnyBuffer, _>`): it keeps the
/// run-time kind-selection API (`BufferKind` in a config) while letting
/// the compiler monomorphize the data path. Use a concrete design
/// (`Switch<DamqBuffer>`) when the kind is fixed at compile time.
///
/// # Examples
///
/// ```
/// use damq_core::{AnyBuffer, BufferConfig, BufferKind, SwitchBuffer};
///
/// let buf = BufferConfig::new(4, 4).build_any(BufferKind::Damq)?;
/// assert_eq!(buf.kind(), BufferKind::Damq);
/// assert!(matches!(buf, AnyBuffer::Damq(_)));
/// # Ok::<(), damq_core::ConfigError>(())
/// ```
#[derive(Debug)]
pub enum AnyBuffer {
    /// First-in first-out single queue.
    Fifo(FifoBuffer),
    /// Statically-allocated multi-queue.
    Samq(SamqBuffer),
    /// Statically-allocated fully-connected.
    Safc(SafcBuffer),
    /// Dynamically-allocated multi-queue.
    Damq(DamqBuffer),
    /// Dynamically-allocated fully-connected.
    Dafc(DafcBuffer),
}

/// Statically dispatches `$body` over every variant, binding the concrete
/// buffer as `$b`.
macro_rules! dispatch {
    ($self:expr, $b:ident => $body:expr) => {
        match $self {
            AnyBuffer::Fifo($b) => $body,
            AnyBuffer::Samq($b) => $body,
            AnyBuffer::Safc($b) => $body,
            AnyBuffer::Damq($b) => $body,
            AnyBuffer::Dafc($b) => $body,
        }
    };
}

impl SwitchBuffer for AnyBuffer {
    #[inline]
    fn kind(&self) -> BufferKind {
        dispatch!(self, b => b.kind())
    }

    #[inline]
    fn fanout(&self) -> usize {
        dispatch!(self, b => b.fanout())
    }

    #[inline]
    fn capacity_slots(&self) -> usize {
        dispatch!(self, b => b.capacity_slots())
    }

    #[inline]
    fn used_slots(&self) -> usize {
        dispatch!(self, b => b.used_slots())
    }

    #[inline]
    fn slot_bytes(&self) -> usize {
        dispatch!(self, b => b.slot_bytes())
    }

    #[inline]
    fn read_ports(&self) -> usize {
        dispatch!(self, b => b.read_ports())
    }

    #[inline]
    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        dispatch!(self, b => b.can_accept(output, slots))
    }

    #[inline]
    fn accept_capacity(&self, output: OutputPort) -> usize {
        dispatch!(self, b => b.accept_capacity(output))
    }

    #[inline]
    fn front_meta(&self, output: OutputPort) -> Option<FrontMeta> {
        dispatch!(self, b => b.front_meta(output))
    }

    #[inline]
    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        dispatch!(self, b => b.try_enqueue(output, packet))
    }

    #[inline]
    fn queue_len(&self, output: OutputPort) -> usize {
        dispatch!(self, b => b.queue_len(output))
    }

    #[inline]
    fn queue_lens_into(&self, lens: &mut [u16]) {
        dispatch!(self, b => b.queue_lens_into(lens))
    }

    #[inline]
    fn front(&self, output: OutputPort) -> Option<&Packet> {
        dispatch!(self, b => b.front(output))
    }

    #[inline]
    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        dispatch!(self, b => b.dequeue(output))
    }

    #[inline]
    fn packet_count(&self) -> usize {
        dispatch!(self, b => b.packet_count())
    }

    fn stats(&self) -> &BufferStats {
        dispatch!(self, b => b.stats())
    }

    fn reset_stats(&mut self) {
        dispatch!(self, b => b.reset_stats())
    }

    // The defaulted methods are forwarded too, so per-design overrides
    // (FIFO's head-of-line accounting) take effect through the enum and
    // the rest stay on the concrete types' inlined fast paths.

    #[inline]
    fn free_slots(&self) -> usize {
        dispatch!(self, b => b.free_slots())
    }

    #[inline]
    fn is_empty(&self) -> bool {
        dispatch!(self, b => b.is_empty())
    }

    fn eligible_outputs(&self) -> Vec<OutputPort> {
        dispatch!(self, b => b.eligible_outputs())
    }

    #[inline]
    fn note_hol_blocked(&mut self) -> u64 {
        dispatch!(self, b => b.note_hol_blocked())
    }

    #[inline]
    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        dispatch!(self, b => b.kill_slot(hint))
    }

    #[inline]
    fn dead_slots(&self) -> usize {
        dispatch!(self, b => b.dead_slots())
    }

    fn audit(&self) -> Result<(), AuditError> {
        dispatch!(self, b => b.audit())
    }

    fn check_invariants(&self) {
        dispatch!(self, b => b.check_invariants())
    }
}

/// Construction of a buffer type from its geometry plus a design hint —
/// the bridge that lets `Switch<B>` and `NetworkSim<B, _>` stay generic
/// while still being configured through [`BufferKind`].
///
/// The kind-erased [`AnyBuffer`] builds the design `kind` names.
/// Concrete designs ignore the hint: a
/// `Switch<DamqBuffer>` holds DAMQ buffers no matter what the config's
/// `buffer_kind` says (the config field exists for the kind-erased
/// default path).
pub trait BuildBuffer: SwitchBuffer + Sized {
    /// Builds an empty buffer for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid dimensions (zero sizes, or a
    /// capacity not divisible by the fanout for static designs).
    fn build_buffer(config: BufferConfig, kind: BufferKind) -> Result<Self, ConfigError>;
}

impl BuildBuffer for AnyBuffer {
    fn build_buffer(config: BufferConfig, kind: BufferKind) -> Result<Self, ConfigError> {
        config.build_any(kind)
    }
}

impl BuildBuffer for FifoBuffer {
    fn build_buffer(config: BufferConfig, _kind: BufferKind) -> Result<Self, ConfigError> {
        FifoBuffer::new(config)
    }
}

impl<const FULLY_CONNECTED: bool> BuildBuffer for StaticBuffer<FULLY_CONNECTED> {
    fn build_buffer(config: BufferConfig, _kind: BufferKind) -> Result<Self, ConfigError> {
        Self::new(config)
    }
}

impl<const FULLY_CONNECTED: bool> BuildBuffer for DynamicBuffer<FULLY_CONNECTED> {
    fn build_buffer(config: BufferConfig, _kind: BufferKind) -> Result<Self, ConfigError> {
        Self::new(config)
    }
}

#[cfg(test)]
mod tests {
    /// Budget: 272 bytes. The largest variant is the DAMQ buffer — its
    /// `SoaSlots` register file (176) plus `BufferConfig` (24) and
    /// `BufferStats` (48), 256 today with the enum tag: four cache lines.
    /// A switch holds one of these per port in one `Vec`, so this number
    /// times the radix is most of a switch's footprint; a field that
    /// pushes it past the budget should fail here, not in a benchmark.
    #[test]
    fn layout_any_buffer_fits_its_budget() {
        assert!(
            std::mem::size_of::<super::AnyBuffer>() <= 272,
            "AnyBuffer grew to {} bytes",
            std::mem::size_of::<super::AnyBuffer>()
        );
    }

    use super::*;
    use crate::NodeId;

    fn pkt(n: usize) -> Packet {
        Packet::builder(NodeId::new(n), NodeId::new(n)).build()
    }

    #[test]
    fn build_any_produces_every_kind() {
        let cfg = BufferConfig::new(4, 8);
        for kind in BufferKind::EXTENDED {
            let buf = cfg.build_any(kind).expect("valid config");
            assert_eq!(buf.kind(), kind);
            assert_eq!(buf.fanout(), 4);
            assert_eq!(buf.capacity_slots(), 8);
            assert_eq!(buf.slot_bytes(), cfg.slot_size());
            assert!(buf.is_empty());
            assert!(buf.audit().is_ok());
        }
    }

    #[test]
    fn build_any_propagates_config_errors() {
        assert_eq!(
            BufferConfig::new(4, 6).build_any(BufferKind::Samq).err(),
            Some(ConfigError::CapacityNotDivisible {
                capacity: 6,
                fanout: 4
            })
        );
    }

    #[test]
    fn enum_dispatch_matches_boxed_dispatch_per_operation() {
        let cfg = BufferConfig::new(4, 4);
        let boxed = |kind| -> Box<dyn SwitchBuffer> {
            match kind {
                BufferKind::Fifo => Box::new(FifoBuffer::new(cfg).unwrap()),
                BufferKind::Samq => Box::new(SamqBuffer::new(cfg).unwrap()),
                BufferKind::Safc => Box::new(SafcBuffer::new(cfg).unwrap()),
                BufferKind::Damq => Box::new(DamqBuffer::new(cfg).unwrap()),
                BufferKind::Dafc => Box::new(DafcBuffer::new(cfg).unwrap()),
            }
        };
        for kind in BufferKind::EXTENDED {
            let mut a = AnyBuffer::build_buffer(cfg, kind).unwrap();
            let mut b = boxed(kind);
            for (i, out) in [0usize, 1, 1, 3, 0].into_iter().enumerate() {
                let out = OutputPort::new(out);
                assert_eq!(a.can_accept(out, 1), b.can_accept(out, 1), "{kind}");
                let ra = a.try_enqueue(out, pkt(i));
                let rb = b.try_enqueue(out, pkt(i));
                assert_eq!(ra.is_ok(), rb.is_ok(), "{kind}");
            }
            for out in OutputPort::all(4) {
                assert_eq!(a.queue_len(out), b.queue_len(out), "{kind}");
                assert_eq!(a.front(out), b.front(out), "{kind}");
                assert_eq!(a.dequeue(out), b.dequeue(out), "{kind}");
            }
            assert_eq!(a.note_hol_blocked(), b.note_hol_blocked(), "{kind}");
            assert_eq!(a.stats(), b.stats(), "{kind}");
            assert_eq!(a.packet_count(), b.packet_count(), "{kind}");
            assert_eq!(a.used_slots(), b.used_slots(), "{kind}");
            assert_eq!(a.free_slots(), b.free_slots(), "{kind}");
            assert_eq!(a.eligible_outputs(), b.eligible_outputs(), "{kind}");
            assert_eq!(a.read_ports(), b.read_ports(), "{kind}");
            assert!(a.audit().is_ok() && b.audit().is_ok(), "{kind}");
            a.reset_stats();
            b.reset_stats();
            assert_eq!(a.stats(), b.stats(), "{kind}");
            a.check_invariants();
            b.check_invariants();
        }
    }

    #[test]
    fn fifo_hol_accounting_survives_enum_dispatch() {
        let mut buf = BufferConfig::new(4, 4).build_any(BufferKind::Fifo).unwrap();
        buf.try_enqueue(OutputPort::new(0), pkt(0)).unwrap();
        buf.try_enqueue(OutputPort::new(1), pkt(1)).unwrap();
        // The out1 packet sits behind the out0 head: one blocked packet.
        assert_eq!(buf.note_hol_blocked(), 1);
        assert_eq!(buf.stats().hol_blocked(), 1);
    }

    #[test]
    fn concrete_builders_ignore_the_kind_hint() {
        let cfg = BufferConfig::new(4, 4);
        let damq = DamqBuffer::build_buffer(cfg, BufferKind::Fifo).unwrap();
        assert_eq!(damq.kind(), BufferKind::Damq);
        let fifo = FifoBuffer::build_buffer(cfg, BufferKind::Damq).unwrap();
        assert_eq!(fifo.kind(), BufferKind::Fifo);
    }
}
