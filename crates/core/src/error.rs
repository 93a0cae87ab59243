//! Error types for buffer construction and operation.

use std::error::Error;
use std::fmt;

use crate::packet::Packet;
use crate::OutputPort;

/// Error constructing a buffer from a [`BufferConfig`].
///
/// [`BufferConfig`]: crate::BufferConfig
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The buffer must contain at least one slot.
    ZeroCapacity,
    /// A switch buffer must feed at least one output port.
    ZeroFanout,
    /// Slots must hold at least one byte.
    ZeroSlotBytes,
    /// Statically-partitioned buffers (SAMQ, SAFC) require the slot count to
    /// divide evenly among the output queues.
    CapacityNotDivisible {
        /// Total slots requested.
        capacity: usize,
        /// Number of static partitions (the fanout).
        fanout: usize,
    },
    /// Slot indices, ring offsets and queue lengths are 16-bit registers
    /// (with one value reserved as the nil pointer), which caps the slot
    /// count of a single buffer.
    CapacityTooLarge {
        /// Total slots requested.
        capacity: usize,
        /// Largest capacity the registers can address.
        max: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCapacity => write!(f, "buffer capacity must be at least one slot"),
            ConfigError::ZeroFanout => write!(f, "buffer fanout must be at least one output"),
            ConfigError::ZeroSlotBytes => write!(f, "slot size must be at least one byte"),
            ConfigError::CapacityNotDivisible { capacity, fanout } => write!(
                f,
                "statically-allocated buffer needs capacity divisible by fanout ({capacity} slots over {fanout} queues)"
            ),
            ConfigError::CapacityTooLarge { capacity, max } => write!(
                f,
                "buffer capacity {capacity} exceeds the {max} slots its 16-bit registers address"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Why a packet could not be accepted by a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RejectReason {
    /// Not enough free slots in the pool shared by all queues.
    BufferFull,
    /// The statically-allocated queue for the packet's output is full, even
    /// though other queues may have space (the SAMQ/SAFC pathology).
    QueueFull,
    /// The packet needs more slots than the buffer has in total.
    PacketTooLarge,
    /// The requested output port does not exist on this buffer.
    NoSuchOutput,
    /// Injected faults have shrunk the buffer (or the packet's static
    /// partition) below the packet's size: it could never be accepted
    /// until the fault is repaired, even with every live slot free.
    Faulted,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::BufferFull => write!(f, "buffer has no free slots"),
            RejectReason::QueueFull => write!(f, "statically-allocated queue is full"),
            RejectReason::PacketTooLarge => {
                write!(f, "packet does not fit in the buffer even when empty")
            }
            RejectReason::NoSuchOutput => write!(f, "output port index out of range"),
            RejectReason::Faulted => {
                write!(f, "dead slots leave too little capacity for this packet")
            }
        }
    }
}

/// A packet bounced back by [`SwitchBuffer::try_enqueue`], together with the
/// reason it was rejected.
///
/// Ownership of the packet returns to the caller so a *blocking* switch can
/// retry later and a *discarding* switch can count the loss.
///
/// [`SwitchBuffer::try_enqueue`]: crate::SwitchBuffer::try_enqueue
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The packet that was not accepted.
    pub packet: Packet,
    /// The output-port queue it was headed for.
    pub output: OutputPort,
    /// Why it was rejected.
    pub reason: RejectReason,
}

impl Rejected {
    /// Recovers the packet, discarding the bookkeeping.
    pub fn into_packet(self) -> Packet {
        self.packet
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packet {} rejected from queue {}: {}",
            self.packet.id(),
            self.output,
            self.reason
        )
    }
}

impl Error for Rejected {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::NodeId;

    #[test]
    fn config_error_messages_are_lowercase_and_specific() {
        let e = ConfigError::CapacityNotDivisible {
            capacity: 5,
            fanout: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains('5') && msg.contains('4'));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn rejected_round_trips_packet() {
        let p = Packet::builder(NodeId::new(0), NodeId::new(1)).build();
        let r = Rejected {
            packet: p.clone(),
            output: OutputPort::new(1),
            reason: RejectReason::BufferFull,
        };
        assert_eq!(r.into_packet(), p);
    }

    #[test]
    fn reject_reason_display_distinct() {
        let all = [
            RejectReason::BufferFull,
            RejectReason::QueueFull,
            RejectReason::PacketTooLarge,
            RejectReason::NoSuchOutput,
            RejectReason::Faulted,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.to_string(), b.to_string());
            }
        }
    }
}
