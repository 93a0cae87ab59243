//! Input-port buffer structures for small n×n VLSI communication switches.
//!
//! This crate implements the four buffer designs compared in
//! *Tamir & Frazier, "High-Performance Multi-Queue Buffers for VLSI
//! Communication Switches", ISCA 1988*:
//!
//! * [`FifoBuffer`] — the classic single first-in first-out queue,
//! * [`SamqBuffer`] — statically-allocated multi-queue,
//! * [`SafcBuffer`] — statically-allocated fully-connected,
//! * [`DamqBuffer`] — the paper's **dynamically-allocated multi-queue**
//!   buffer, built on linked lists of fixed-size slots ([`SlotPool`]).
//!
//! All four implement the [`SwitchBuffer`] trait so higher layers (the
//! switch model, the network simulator, the benchmark harness) can sweep
//! designs generically via [`BufferConfig::build`] and [`BufferKind`].
//!
//! # Quick start
//!
//! ```
//! use damq_core::{BufferConfig, BufferKind, NodeId, OutputPort, Packet, SwitchBuffer};
//!
//! // A DAMQ buffer for a 4x4 switch with four 8-byte slots.
//! let mut buf = BufferConfig::new(4, 4).build(BufferKind::Damq)?;
//!
//! // The router decided this packet leaves through output 2; store it.
//! let packet = Packet::builder(NodeId::new(5), NodeId::new(42)).build();
//! buf.try_enqueue(OutputPort::new(2), packet)?;
//!
//! // The arbiter granted output 2 to this buffer; transmit.
//! let sent = buf.dequeue(OutputPort::new(2)).expect("queued above");
//! assert_eq!(sent.dest(), NodeId::new(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Which design when?
//!
//! The paper's evaluation (reproduced in the `damq-bench` crate of this
//! workspace) shows DAMQ dominating under uniform traffic: with the same
//! storage it discards fewer packets than all alternatives, and a network of
//! 4×4 DAMQ switches saturates at ~40% higher throughput than FIFO. Under
//! hot-spot traffic all designs tree-saturate identically, which is an
//! argument about networks, not buffers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod any;
mod aos;
mod audit;
mod buffer;
mod dafc;
mod damq;
mod error;
mod faults;
mod fifo;
mod ids;
mod inline;
mod packet;
mod safc;
mod samq;
mod slots;
mod soa;
mod static_mq;
mod stats;

pub use any::{AnyBuffer, BuildBuffer};
pub use aos::{AosDafcBuffer, AosDamqBuffer, AosFifoBuffer, AosSafcBuffer, AosSamqBuffer};
pub use audit::AuditError;
pub use buffer::{BufferConfig, BufferKind, FrontMeta, SwitchBuffer};
pub use dafc::DafcBuffer;
pub use damq::DamqBuffer;
pub use error::{ConfigError, RejectReason, Rejected};
pub use faults::{FaultEvent, FaultLedger, FaultPlan, FaultSite, FaultSpec};
pub use fifo::FifoBuffer;
pub use ids::{InputPort, NodeId, OutputPort, PacketId};
pub use inline::InlineArray;
pub use packet::{Packet, PacketBuilder, PacketIdSource, DEFAULT_SLOT_BYTES, MAX_PACKET_BYTES};
pub use safc::SafcBuffer;
pub use samq::SamqBuffer;
pub use slots::{SlotId, SlotPool};
pub use soa::SoaSlots;
pub use stats::BufferStats;

#[cfg(test)]
mod trait_object_tests {
    use super::*;

    #[test]
    fn switch_buffer_is_object_safe_and_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn SwitchBuffer + Send>();
        let cfg = BufferConfig::new(2, 2);
        let buffers: Vec<Box<dyn SwitchBuffer>> = BufferKind::ALL
            .iter()
            .map(|&k| cfg.build(k).unwrap())
            .collect();
        assert_eq!(buffers.len(), 4);
    }

    #[test]
    fn all_kinds_agree_on_empty_behaviour() {
        let cfg = BufferConfig::new(4, 4);
        for kind in BufferKind::ALL {
            let mut b = cfg.build(kind).unwrap();
            assert!(b.is_empty(), "{kind}");
            assert_eq!(b.free_slots(), 4, "{kind}");
            assert_eq!(b.dequeue(OutputPort::new(0)), None, "{kind}");
            assert!(b.eligible_outputs().is_empty(), "{kind}");
            b.check_invariants();
        }
    }

    #[test]
    fn all_kinds_round_trip_one_packet() {
        let cfg = BufferConfig::new(4, 4);
        for kind in BufferKind::ALL {
            let mut b = cfg.build(kind).unwrap();
            let p = Packet::builder(NodeId::new(1), NodeId::new(2)).build();
            b.try_enqueue(OutputPort::new(1), p.clone()).unwrap();
            assert_eq!(b.packet_count(), 1, "{kind}");
            assert_eq!(b.front(OutputPort::new(1)), Some(&p), "{kind}");
            assert_eq!(b.dequeue(OutputPort::new(1)), Some(p), "{kind}");
            assert!(b.is_empty(), "{kind}");
            b.check_invariants();
        }
    }
}
