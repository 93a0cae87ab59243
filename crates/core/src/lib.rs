//! Input-port buffer structures for small n×n VLSI communication switches.
//!
//! This crate implements the buffer designs compared in *Tamir & Frazier,
//! "High-Performance Multi-Queue Buffers for VLSI Communication Switches",
//! ISCA 1988*, plus the one cell of their design matrix the paper leaves
//! empty.
//!
//! # The design matrix
//!
//! The paper's §2 defines a buffer by three properties: how many queues it
//! keeps, whether their storage is statically partitioned or dynamically
//! shared, and how many packets it can read out per cycle. This table is
//! the one place the matrix is described; each cell names its type and
//! the storage engine behind it.
//!
//! | design | queues | allocation | read ports | type | storage engine |
//! |---|---|---|---|---|---|
//! | FIFO | one | the whole buffer | 1 | [`FifoBuffer`] | ring store, one partition |
//! | SAMQ | one per output | static | 1 | [`SamqBuffer`] | ring store, a partition per output |
//! | SAFC | one per output | static | one per output | [`SafcBuffer`] | ring store, a partition per output |
//! | DAMQ | one per output | dynamic | 1 | [`DamqBuffer`] | [`SoaSlots`] linked lists |
//! | DAFC | one per output | dynamic | one per output | [`DafcBuffer`] | [`SoaSlots`] linked lists |
//!
//! DAFC is an ablation (not in the paper). There are two storage engines:
//! the ring store (FIFO rings over a statically split slot budget) and
//! [`SoaSlots`] (the paper's §3.1 slots, pointer registers and free list).
//! The read fabric is a compile-time parameter of each engine's buffer:
//! `SamqBuffer` / `SafcBuffer` are the two instances of one static type,
//! `DamqBuffer` / `DafcBuffer` of one dynamic type.
//!
//! All five implement the [`SwitchBuffer`] trait, and [`BufferKind`] names
//! them at run time, so higher layers (the switch model, the network
//! simulator, the benchmark harness) sweep designs through
//! [`BufferConfig::build_any`] and the [`AnyBuffer`] enum, or fix one at
//! compile time (`Switch<DamqBuffer>`).
//!
//! # Quick start
//!
//! ```
//! use damq_core::{BufferConfig, BufferKind, NodeId, OutputPort, Packet, SwitchBuffer};
//!
//! // A DAMQ buffer for a 4x4 switch with four 8-byte slots.
//! let mut buf = BufferConfig::new(4, 4).build_any(BufferKind::Damq)?;
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
mod audit;
mod buffer;
mod damq;
mod error;
mod faults;
mod fifo;
mod ids;
mod inline;
mod packet;
mod ring;
mod samq;
mod soa;
mod stats;

pub use any::{AnyBuffer, BuildBuffer};
pub use audit::AuditError;
pub use buffer::{BufferConfig, BufferKind, FrontMeta, SwitchBuffer};
pub use damq::{DafcBuffer, DamqBuffer};
pub use error::{ConfigError, RejectReason, Rejected};
pub use faults::{FaultEvent, FaultLedger, FaultPlan, FaultSite, FaultSpec};
pub use fifo::FifoBuffer;
pub use ids::{InputPort, NodeId, OutputPort, PacketId};
pub use inline::InlineArray;
pub use packet::{Packet, PacketBuilder, PacketIdSource, DEFAULT_SLOT_BYTES, MAX_PACKET_BYTES};
pub use samq::{SafcBuffer, SamqBuffer};
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
        let buffers: Vec<Box<dyn SwitchBuffer>> = BufferKind::EXTENDED
            .iter()
            .map(|&k| Box::new(cfg.build_any(k).unwrap()) as Box<dyn SwitchBuffer>)
            .collect();
        assert_eq!(buffers.len(), 5);
    }

    #[test]
    fn all_kinds_agree_on_empty_behaviour() {
        let cfg = BufferConfig::new(4, 4);
        for kind in BufferKind::EXTENDED {
            let mut b = cfg.build_any(kind).unwrap();
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
        for kind in BufferKind::EXTENDED {
            let mut b = cfg.build_any(kind).unwrap();
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
