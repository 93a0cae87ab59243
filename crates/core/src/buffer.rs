//! The [`SwitchBuffer`] abstraction shared by every buffer design, and the
//! [`BufferConfig`] / [`BufferKind`] pair that selects and sizes one.
//!
//! A switch buffer sits at one *input port* of an n×n switch and holds
//! packets that have already been routed (i.e. their output port is known)
//! until the crossbar can forward them. The designs differ in how they
//! organise this storage — the crate docs tabulate the design matrix.

use std::fmt;

use crate::audit::AuditError;
use crate::error::{ConfigError, Rejected};
use crate::ids::NodeId;
use crate::packet::{slots_for, Packet};
use crate::OutputPort;

/// Ring index `p` reduced into `0..cap`, for `p < 2 * cap` (one step or one
/// lap past the end). A compare instead of `%`: ring sizes are run-time
/// values, so the modulo is a hardware divide on every enqueue and
/// dequeue of the ring-backed designs.
pub(crate) fn ring_wrap(p: usize, cap: usize) -> usize {
    debug_assert!(p < 2 * cap, "ring index {p} more than one lap past {cap}");
    if p >= cap {
        p - cap
    } else {
        p
    }
}

/// Compact descriptor of the packet at the head of a queue: exactly the
/// two facts a flow-control probe needs — where the packet is going and
/// how much room it takes — without handing out the packet itself.
///
/// The cycle kernel examines up to `ports x fanout` queue heads per cycle
/// just to ask "may this head move?". `FrontMeta` (16 bytes, by value)
/// hands the flow-control sink the head packet's two header words, read
/// from the packet where it is stored; the [`Packet`] itself moves only
/// for the one winner per read port that actually dequeues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontMeta {
    /// Final destination of the head packet.
    pub dest: NodeId,
    /// Payload length of the head packet in bytes.
    pub length_bytes: u32,
}

impl FrontMeta {
    /// Slots the head packet occupies — the formula of
    /// [`Packet::slots_needed`].
    pub fn slots_needed(&self) -> usize {
        slots_for(self.length_bytes as usize)
    }
}

/// Which buffer design a buffer instance implements.
///
/// The first four are the designs compared in the paper;
/// [`BufferKind::Dafc`] is this crate's ablation completing the
/// (static/dynamic) × (single/fully-connected read) design matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BufferKind {
    /// First-in first-out single queue.
    Fifo,
    /// Statically-allocated multi-queue.
    Samq,
    /// Statically-allocated fully-connected.
    Safc,
    /// Dynamically-allocated multi-queue (the paper's contribution).
    Damq,
    /// Dynamically-allocated fully-connected (ablation; not in the paper).
    Dafc,
}

impl BufferKind {
    /// The paper's four designs, in the order its tables list them.
    pub const ALL: [BufferKind; 4] = [
        BufferKind::Fifo,
        BufferKind::Samq,
        BufferKind::Safc,
        BufferKind::Damq,
    ];

    /// The paper's four designs plus the DAFC ablation.
    pub const EXTENDED: [BufferKind; 5] = [
        BufferKind::Fifo,
        BufferKind::Samq,
        BufferKind::Safc,
        BufferKind::Damq,
        BufferKind::Dafc,
    ];

    /// Short upper-case name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BufferKind::Fifo => "FIFO",
            BufferKind::Samq => "SAMQ",
            BufferKind::Safc => "SAFC",
            BufferKind::Damq => "DAMQ",
            BufferKind::Dafc => "DAFC",
        }
    }

    /// Whether storage is statically partitioned among output queues.
    ///
    /// Static partitioning restricts valid capacities (must divide by the
    /// fanout) and is the root of the SAMQ/SAFC space-inefficiency the paper
    /// describes.
    pub fn is_statically_allocated(self) -> bool {
        matches!(self, BufferKind::Samq | BufferKind::Safc)
    }
}

impl fmt::Display for BufferKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Geometry of a switch buffer: fanout and slot count. Every slot holds
/// [`SLOT_BYTES`](crate::SLOT_BYTES) bytes.
///
/// # Examples
///
/// ```
/// use damq_core::{BufferConfig, BufferKind, SwitchBuffer};
///
/// // A 4-output buffer with four 8-byte slots, as in the paper's Omega runs.
/// let cfg = BufferConfig::new(4, 4);
/// let buf = cfg.build_any(BufferKind::Damq)?;
/// assert_eq!(buf.capacity_slots(), 4);
/// # Ok::<(), damq_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    fanout: usize,
    capacity_slots: usize,
}

impl BufferConfig {
    /// Largest valid [`capacity`](BufferConfig::capacity): every design
    /// addresses slots, ring positions and queue lengths through `u16`
    /// registers and reserves `u16::MAX` as the nil pointer (the switch
    /// kernel's `u16` length rows rely on the same bound), and the same
    /// bound caps the fanout, whose output indices are `u16` registers.
    pub const MAX_CAPACITY: usize = u16::MAX as usize - 1;

    /// Creates a configuration with `fanout` output queues and
    /// `capacity_slots` total slots.
    pub fn new(fanout: usize, capacity_slots: usize) -> Self {
        BufferConfig {
            fanout,
            capacity_slots,
        }
    }

    /// Number of output queues the buffer feeds.
    pub fn fanout_count(&self) -> usize {
        self.fanout
    }

    /// Total storage in slots.
    pub fn capacity(&self) -> usize {
        self.capacity_slots
    }

    /// Validates the configuration for the given buffer kind.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any dimension is zero, if `capacity` or
    /// `fanout` exceeds [`MAX_CAPACITY`](BufferConfig::MAX_CAPACITY), or if `kind`
    /// is statically allocated and `capacity` is not divisible by `fanout`.
    pub fn validate(&self, kind: BufferKind) -> Result<(), ConfigError> {
        if self.capacity_slots == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if self.capacity_slots > Self::MAX_CAPACITY {
            return Err(ConfigError::CapacityTooLarge {
                capacity: self.capacity_slots,
                max: Self::MAX_CAPACITY,
            });
        }
        if self.fanout == 0 {
            return Err(ConfigError::ZeroFanout);
        }
        if self.fanout > Self::MAX_CAPACITY {
            return Err(ConfigError::FanoutTooLarge {
                fanout: self.fanout,
                max: Self::MAX_CAPACITY,
            });
        }
        if kind.is_statically_allocated() && !self.capacity_slots.is_multiple_of(self.fanout) {
            return Err(ConfigError::CapacityNotDivisible {
                capacity: self.capacity_slots,
                fanout: self.fanout,
            });
        }
        Ok(())
    }

    /// Builds an [`AnyBuffer`](crate::AnyBuffer) of the requested kind: the
    /// one constructor that picks a design at run time. Use the concrete
    /// constructors ([`DamqBuffer`](crate::DamqBuffer)`::new` etc.)
    /// when the kind is fixed.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from [`BufferConfig::validate`].
    pub fn build_any(&self, kind: BufferKind) -> Result<crate::AnyBuffer, ConfigError> {
        use crate::AnyBuffer;
        Ok(match kind {
            BufferKind::Fifo => AnyBuffer::Fifo(crate::FifoBuffer::new(*self)?),
            BufferKind::Samq => AnyBuffer::Samq(crate::SamqBuffer::new(*self)?),
            BufferKind::Safc => AnyBuffer::Safc(crate::SafcBuffer::new(*self)?),
            BufferKind::Damq => AnyBuffer::Damq(crate::DamqBuffer::new(*self)?),
            BufferKind::Dafc => AnyBuffer::Dafc(crate::DafcBuffer::new(*self)?),
        })
    }
}

/// Common interface of the input-port buffer designs.
///
/// Packets are enqueued with the output port they were routed to and dequeued
/// per output port. The semantics of "what can be sent to output *o* right
/// now" differ per design and are captured by [`SwitchBuffer::queue_len`]:
///
/// * For multi-queue buffers it is the length of the per-output queue.
/// * For a FIFO it is nonzero **only** for the output of the head packet —
///   everything behind the head is blocked, which is exactly the
///   head-of-line effect the DAMQ design removes.
///
/// The trait is object-safe: the model checker (`damq-verify`) takes its
/// buffers as `Box<dyn SwitchBuffer>` so tests can substitute broken ones.
pub trait SwitchBuffer: fmt::Debug {
    /// Which design this is.
    fn kind(&self) -> BufferKind;

    /// Number of output queues (the switch fanout).
    fn fanout(&self) -> usize;

    /// Total storage in slots.
    fn capacity_slots(&self) -> usize;

    /// Slots currently holding packet data.
    fn used_slots(&self) -> usize;

    /// Number of packets that can leave through the crossbar in one cycle.
    ///
    /// 1 for FIFO, SAMQ and DAMQ (single read port); equals
    /// [`SwitchBuffer::fanout`] for SAFC and DAFC (fully connected).
    fn read_ports(&self) -> usize;

    /// Whether a packet needing `slots` slots, routed to `output`, would be
    /// accepted right now.
    fn can_accept(&self, output: OutputPort, slots: usize) -> bool;

    /// The largest `slots` for which [`can_accept`](SwitchBuffer::can_accept)
    /// of `output` answers `true` right now — the admission register
    /// behind the backpressure probe, as a number.
    ///
    /// Admission is room-based in every design, hence monotone in
    /// `slots`; the default derives the capacity from `can_accept`
    /// directly (and is therefore exact for any conforming design), the
    /// designs override it with their admission register.
    fn accept_capacity(&self, output: OutputPort) -> usize {
        let mut slots = 0;
        while self.can_accept(output, slots + 1) {
            slots += 1;
        }
        slots
    }

    /// Stores a packet routed to `output`.
    ///
    /// # Errors
    ///
    /// Returns the packet back inside [`Rejected`] if there is no space for
    /// it (the precise condition depends on the design — see
    /// [`RejectReason`](crate::RejectReason)).
    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected>;

    /// Number of packets transmittable to `output` *now* (see trait docs for
    /// the FIFO caveat).
    fn queue_len(&self, output: OutputPort) -> usize;

    /// Writes every per-output queue length into `lens` in one batched read.
    ///
    /// `lens.len()` must equal [`fanout`](SwitchBuffer::fanout); element `o`
    /// receives `queue_len(OutputPort::new(o))`. The default loops over
    /// `queue_len`; SoA-backed designs override it with a contiguous copy of
    /// their packet-count registers so the switch's cycle kernel reads one
    /// cache line per buffer instead of making `fanout` virtual calls.
    fn queue_lens_into(&self, lens: &mut [u16]) {
        debug_assert_eq!(lens.len(), self.fanout());
        for (o, len) in lens.iter_mut().enumerate() {
            *len = self.queue_len(OutputPort::new(o)) as u16;
        }
    }

    /// The packet that would be returned by `dequeue(output)`, if any.
    fn front(&self, output: OutputPort) -> Option<&Packet>;

    /// Routing metadata of the packet [`front`](SwitchBuffer::front) would
    /// return, if any: its header, read from the packet itself.
    ///
    /// Every design answers through this one definition. The header stays
    /// with the packet, as it sits in a packet's first slot of the
    /// paper's slot RAM, so no design keeps a copy of it in its registers
    /// that could drift; the head packet's storage is the cell a dequeue
    /// reads anyway (see `docs/PERFORMANCE.md` §4-§5).
    fn front_meta(&self, output: OutputPort) -> Option<FrontMeta> {
        self.front(output).map(|p| FrontMeta {
            dest: p.dest(),
            length_bytes: p.length_bytes() as u32,
        })
    }

    /// Removes and returns the next packet for `output`, freeing its slots.
    ///
    /// Returns `None` when `queue_len(output)` is zero.
    fn dequeue(&mut self, output: OutputPort) -> Option<Packet>;

    /// Total packets resident in the buffer.
    fn packet_count(&self) -> usize;

    /// Free slots available to *some* queue (not necessarily to every queue —
    /// static designs partition them). Dead slots are not free.
    fn free_slots(&self) -> usize {
        (self.capacity_slots() - self.used_slots()).saturating_sub(self.dead_slots())
    }

    /// Permanently removes one slot from service (fault injection).
    ///
    /// `hint` names the output partition the slot is carved from in
    /// statically-allocated designs (SAMQ/SAFC); designs with shared
    /// storage ignore it. A kill must degrade the buffer *gracefully*:
    /// capacity shrinks, resident packets drain intact, and no linked
    /// list is ever corrupted. Returns `false` when nothing further can
    /// be killed (every slot already dead or doomed).
    ///
    /// The default declines every kill, so designs without fault support
    /// simply never degrade.
    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        let _ = hint;
        false
    }

    /// Slots removed from service by [`SwitchBuffer::kill_slot`],
    /// including kills deferred until a busy slot drains.
    fn dead_slots(&self) -> usize {
        0
    }

    /// Whether no packets are resident.
    fn is_empty(&self) -> bool {
        self.packet_count() == 0
    }

    /// Output ports that have at least one transmittable packet.
    fn eligible_outputs(&self) -> Vec<OutputPort> {
        OutputPort::all(self.fanout())
            .filter(|&o| self.queue_len(o) > 0)
            .collect()
    }

    /// The number of head-of-line blocked packets right now: residents
    /// that cannot even be considered for transmission because a packet
    /// bound for a *different* output sits ahead of them.
    ///
    /// A buffer keeps no counters; the switch adds this to its own
    /// [`BufferStats`](crate::BufferStats) once per simulated cycle.
    /// Per-output designs (SAMQ, SAFC, DAMQ, DAFC) never structurally
    /// block and keep the default, zero; the FIFO baseline overrides it.
    fn note_hol_blocked(&self) -> u64 {
        0
    }

    /// Verifies the design's structural invariants (list partition,
    /// register/counter sync, queue shape — see [`AuditError`] and
    /// `docs/VERIFICATION.md`) without panicking.
    ///
    /// Heavy — walks the entire structure; meant for tests, the model
    /// checker and the `strict-audit` feature.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    fn audit(&self) -> Result<(), AuditError>;

    /// Assert-style wrapper over [`SwitchBuffer::audit`].
    ///
    /// # Panics
    ///
    /// Panics with the audit's description on violation.
    #[expect(clippy::panic, reason = "panicking is this method's contract")]
    fn check_invariants(&self) {
        if let Err(e) = self.audit() {
            panic!("{} buffer {e}", self.kind());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(BufferKind::Fifo.name(), "FIFO");
        assert_eq!(BufferKind::Samq.name(), "SAMQ");
        assert_eq!(BufferKind::Safc.name(), "SAFC");
        assert_eq!(BufferKind::Damq.name(), "DAMQ");
    }

    #[test]
    fn static_allocation_flags() {
        assert!(!BufferKind::Fifo.is_statically_allocated());
        assert!(BufferKind::Samq.is_statically_allocated());
        assert!(BufferKind::Safc.is_statically_allocated());
        assert!(!BufferKind::Damq.is_statically_allocated());
    }

    #[test]
    fn config_validation_rejects_zero_dimensions() {
        assert_eq!(
            BufferConfig::new(4, 0).validate(BufferKind::Fifo),
            Err(ConfigError::ZeroCapacity)
        );
        assert_eq!(
            BufferConfig::new(0, 4).validate(BufferKind::Fifo),
            Err(ConfigError::ZeroFanout)
        );
    }

    /// Output indices live in `u16` registers (FIFO's output column, the
    /// ring store's fanout), so a fanout past them is refused, not
    /// truncated.
    #[test]
    fn config_validation_rejects_a_fanout_past_the_registers() {
        let max = BufferConfig::MAX_CAPACITY;
        for kind in BufferKind::EXTENDED {
            assert!(BufferConfig::new(max, max).validate(kind).is_ok(), "{kind}");
            assert_eq!(
                BufferConfig::new(max + 1, 4).validate(kind),
                Err(ConfigError::FanoutTooLarge {
                    fanout: max + 1,
                    max
                }),
                "{kind}"
            );
        }
    }

    #[test]
    fn static_kinds_require_divisible_capacity() {
        let cfg = BufferConfig::new(4, 6);
        assert!(cfg.validate(BufferKind::Fifo).is_ok());
        assert!(cfg.validate(BufferKind::Damq).is_ok());
        assert_eq!(
            cfg.validate(BufferKind::Samq),
            Err(ConfigError::CapacityNotDivisible {
                capacity: 6,
                fanout: 4
            })
        );
        assert_eq!(
            cfg.validate(BufferKind::Safc),
            Err(ConfigError::CapacityNotDivisible {
                capacity: 6,
                fanout: 4
            })
        );
    }

    #[test]
    fn read_ports_distinguish_safc() {
        let cfg = BufferConfig::new(4, 8);
        let ports = |kind| cfg.build_any(kind).unwrap().read_ports();
        assert_eq!(ports(BufferKind::Fifo), 1);
        assert_eq!(ports(BufferKind::Samq), 1);
        assert_eq!(ports(BufferKind::Damq), 1);
        assert_eq!(ports(BufferKind::Safc), 4);
        assert_eq!(ports(BufferKind::Dafc), 4);
    }
}
