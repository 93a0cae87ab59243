//! Packets: the unit of data moved through switches.
//!
//! The ComCoBB system of the paper uses variable-length packets of 1–32 data
//! bytes; the network-level experiments use fixed-length packets. [`Packet`]
//! supports both: every packet has a byte length, and buffers convert length
//! to a slot count with [`Packet::slots_needed`].

use std::fmt;
use std::num::NonZeroU16;

use crate::ids::{NodeId, PacketId};

/// Largest data payload of a single ComCoBB packet, in bytes (paper §3).
pub const MAX_PACKET_BYTES: usize = 32;

/// Size of a ComCoBB buffer slot, in bytes (paper §3.1, Table 1): a
/// fixed piece of hardware, so one constant for every buffer, probe and
/// chip model in the workspace.
pub const SLOT_BYTES: usize = 8;

/// Slots a packet of `length_bytes` occupies: at least one, since even a
/// header-only packet takes a slot. The one formula behind
/// [`Packet::slots_needed`] and
/// [`FrontMeta::slots_needed`](crate::FrontMeta::slots_needed).
pub(crate) fn slots_for(length_bytes: usize) -> usize {
    length_bytes.div_ceil(SLOT_BYTES).max(1)
}

/// A packet travelling through the network.
///
/// Construct packets with [`Packet::builder`]. Identity ([`PacketId`]),
/// endpoints and length are immutable after construction; per-hop state
/// (hop count) is updated by the switches carrying the packet.
///
/// # Examples
///
/// ```
/// use damq_core::{NodeId, Packet};
///
/// let p = Packet::builder(NodeId::new(3), NodeId::new(57))
///     .length_bytes(20)
///     .birth_cycle(100)
///     .build();
/// assert_eq!(p.length_bytes(), 20);
/// assert_eq!(p.slots_needed(), 3); // 20 bytes -> 3 eight-byte slots
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Packet {
    // 40 bytes, and `Option<Packet>` the same (the length's niche): every
    // field at the width its values need, because one of these is moved
    // per hop and every buffer arena, ring and departure record holds
    // them by value.
    id: PacketId,
    birth_cycle: u64,
    /// Injection stamp; [`NOT_INJECTED`] until the packet leaves its
    /// source queue.
    injected_cycle: u64,
    source: u32,
    dest: u32,
    /// Header/payload checksum, computed over the immutable identity
    /// fields at build time. Fault injection flips it to model in-flight
    /// corruption; sinks call [`Packet::verify_checksum`] before
    /// accepting delivery.
    checksum: u32,
    length_bytes: NonZeroU16,
    /// Switches that have forwarded the packet (saturating).
    hops: u8,
    /// Times adaptive recovery has deflected the packet off its primary
    /// route (misroute-on-block). Per-hop state like `hops`: excluded
    /// from the identity checksum, bounded by the simulator's misroute
    /// budget so deflection cannot livelock a packet.
    deflections: u8,
}

/// The reserved `injected_cycle` value of a packet still at its source.
const NOT_INJECTED: u64 = u64::MAX;

/// What [`Packet::corrupt_payload`] flips in the stored checksum.
const CORRUPTION_MASK: u32 = 0xDEAD_BEEF;

/// Folds the 64-bit identity checksum to the 32 bits a packet carries.
fn fold(checksum: u64) -> u32 {
    (checksum ^ (checksum >> 32)) as u32
}

impl Packet {
    /// Largest payload a packet can carry, in bytes: its length travels
    /// in a 16-bit register.
    pub const MAX_LENGTH_BYTES: usize = u16::MAX as usize;

    /// Starts building a packet from `source` to `dest`.
    ///
    /// Defaults: id 0, length [`SLOT_BYTES`] (a single-slot packet),
    /// birth cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if either address is beyond `u32::MAX` — packets carry
    /// 32-bit node addresses, and this is the one place an address
    /// enters a packet.
    pub fn builder(source: NodeId, dest: NodeId) -> PacketBuilder {
        #[expect(clippy::expect_used, reason = "the constructor's documented contract")]
        let narrow =
            |node: NodeId| u32::try_from(node.index()).expect("node addresses fit 32 bits");
        PacketBuilder {
            id: PacketId::new(0),
            source: narrow(source),
            dest: narrow(dest),
            length_bytes: NonZeroU16::MIN,
            birth_cycle: 0,
        }
        .length_bytes(SLOT_BYTES)
    }

    /// The packet's unique serial number.
    pub fn id(&self) -> PacketId {
        self.id
    }

    /// The node that generated the packet.
    pub fn source(&self) -> NodeId {
        NodeId::new(self.source as usize)
    }

    /// The node the packet is addressed to.
    pub fn dest(&self) -> NodeId {
        NodeId::new(self.dest as usize)
    }

    /// Payload length in bytes.
    pub fn length_bytes(&self) -> usize {
        usize::from(self.length_bytes.get())
    }

    /// The destination address and payload length exactly as stored —
    /// what the buffers' `dest`/`length` registers mirror.
    pub(crate) fn header_words(&self) -> (u32, u16) {
        (self.dest, self.length_bytes.get())
    }

    /// The cycle at which the packet was generated by its source.
    pub fn birth_cycle(&self) -> u64 {
        self.birth_cycle
    }

    /// The cycle at which the packet entered the network (left its source
    /// queue), if it has.
    pub fn injected_cycle(&self) -> Option<u64> {
        (self.injected_cycle != NOT_INJECTED).then_some(self.injected_cycle)
    }

    /// Stamps the cycle at which the packet entered the network.
    ///
    /// Simulators call this once, when the packet moves from its source
    /// queue into a first-stage buffer; it separates source-queue wait from
    /// in-network latency. `u64::MAX` is reserved for "not injected".
    pub fn mark_injected(&mut self, cycle: u64) {
        debug_assert!(cycle != NOT_INJECTED, "cycle u64::MAX is reserved");
        self.injected_cycle = cycle;
    }

    /// How many switches have forwarded this packet so far.
    pub fn hops(&self) -> u32 {
        u32::from(self.hops)
    }

    /// Records one more hop. Called by a switch when forwarding. The
    /// counter saturates at 255 — dozens of times the depth of any
    /// network here, recirculation included.
    pub fn record_hop(&mut self) {
        self.hops = self.hops.saturating_add(1);
    }

    /// How many times adaptive recovery has deflected this packet off
    /// its primary route.
    pub fn deflections(&self) -> u8 {
        self.deflections
    }

    /// Records one deflection (saturating — the caller enforces the
    /// misroute budget before deflecting, so saturation is unreachable
    /// in a correctly-configured simulator).
    pub fn note_deflection(&mut self) {
        self.deflections = self.deflections.saturating_add(1);
    }

    /// Number of [`SLOT_BYTES`]-byte buffer slots this packet occupies.
    ///
    /// Always at least 1: even a header-only packet takes a slot.
    ///
    /// # Examples
    ///
    /// ```
    /// use damq_core::{NodeId, Packet};
    ///
    /// let p = Packet::builder(NodeId::new(0), NodeId::new(1))
    ///     .length_bytes(9)
    ///     .build();
    /// assert_eq!(p.slots_needed(), 2);
    /// ```
    pub fn slots_needed(&self) -> usize {
        slots_for(self.length_bytes())
    }

    /// Latency of the packet if delivered at `cycle`, in the same time unit
    /// as [`Packet::birth_cycle`].
    ///
    /// Returns `None` if `cycle` precedes the birth cycle.
    pub fn latency_at(&self, cycle: u64) -> Option<u64> {
        cycle.checked_sub(self.birth_cycle)
    }

    /// Whether the packet's checksum still matches its identity fields.
    ///
    /// `true` for every packet as built; `false` after
    /// [`Packet::corrupt_payload`] (fault injection) damaged it in flight.
    pub fn verify_checksum(&self) -> bool {
        self.checksum == fold(self.identity())
    }

    /// Checksum over the packet's immutable identity (id, endpoints,
    /// length), at full width.
    ///
    /// Per-hop mutable state (hop count, injection stamp) is deliberately
    /// excluded so forwarding never invalidates the checksum — only genuine
    /// corruption does.
    fn identity(&self) -> u64 {
        // One xor-multiply-shift avalanche round per identity word
        // (SplitMix64-style): deterministic, sensitive to any single-field
        // change, and a handful of instructions. Packets are checksummed on
        // every injection, so this sits on the simulator's per-cycle hot
        // path — a byte-serial hash here costs ~1us/cycle at saturation.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for word in [
            self.id.serial(),
            u64::from(self.source),
            u64::from(self.dest),
            u64::from(self.length_bytes.get()),
        ] {
            h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
        h
    }

    /// Deterministically damages the packet (fault injection): flips bits
    /// in the stored checksum so [`Packet::verify_checksum`] fails at the
    /// sink. Routing fields are untouched — a corrupted packet still
    /// traverses the network and is caught only on delivery, like a real
    /// payload error.
    pub fn corrupt_payload(&mut self) {
        self.checksum ^= CORRUPTION_MASK;
    }

    /// Restores the packet's checksum from its identity fields — the
    /// retransmission model's "resend a clean copy".
    ///
    /// Link-level retransmission keeps the original payload upstream of
    /// the damaged hop; when a sink NACKs a corrupted arrival, the
    /// retransmit buffer resends from that clean copy. The simulator
    /// moves one `Packet` value rather than duplicating payload bytes,
    /// so the resend is modelled by recomputing the identity checksum —
    /// honest, because the checksum *is* derived from immutable identity
    /// fields the corruption never touched.
    pub fn repair_payload(&mut self) {
        self.checksum = fold(self.identity());
    }
}

/// Same field names and value forms as the derived impl had when every
/// field was a machine word; `checksum` is shown at full width — the
/// identity checksum with the stored word's damage (if any) spread over
/// both halves — so a healthy or corrupted packet prints as it always did.
impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let identity = self.identity();
        let damage = u64::from(self.checksum ^ fold(identity));
        f.debug_struct("Packet")
            .field("id", &self.id)
            .field("source", &self.source())
            .field("dest", &self.dest())
            .field("length_bytes", &self.length_bytes())
            .field("birth_cycle", &self.birth_cycle)
            .field("injected_cycle", &self.injected_cycle())
            .field("hops", &self.hops)
            .field("deflections", &self.deflections)
            .field("checksum", &(identity ^ (damage << 32 | damage)))
            .finish()
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}->{} ({}B, born {})",
            self.id,
            self.source(),
            self.dest(),
            self.length_bytes,
            self.birth_cycle
        )
    }
}

/// Incremental builder for [`Packet`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#builders-enable-construction-of-complex-values-c-builder
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    id: PacketId,
    source: u32,
    dest: u32,
    length_bytes: NonZeroU16,
    birth_cycle: u64,
}

impl PacketBuilder {
    /// Sets the packet's serial number.
    #[must_use]
    pub fn id(mut self, id: PacketId) -> Self {
        self.id = id;
        self
    }

    /// Sets the payload length in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `length_bytes` is zero or exceeds
    /// [`Packet::MAX_LENGTH_BYTES`].
    #[must_use]
    #[expect(clippy::expect_used, reason = "the documented contract of this setter")]
    pub fn length_bytes(mut self, length_bytes: usize) -> Self {
        self.length_bytes = u16::try_from(length_bytes)
            .ok()
            .and_then(NonZeroU16::new)
            .expect("packets carry at least one byte and at most Packet::MAX_LENGTH_BYTES");
        self
    }

    /// Sets the cycle at which the source generated the packet.
    #[must_use]
    pub fn birth_cycle(mut self, cycle: u64) -> Self {
        self.birth_cycle = cycle;
        self
    }

    /// Finishes building the packet, stamping its identity checksum.
    pub fn build(self) -> Packet {
        let mut packet = Packet {
            id: self.id,
            birth_cycle: self.birth_cycle,
            injected_cycle: NOT_INJECTED,
            source: self.source,
            dest: self.dest,
            checksum: 0,
            length_bytes: self.length_bytes,
            hops: 0,
            deflections: 0,
        };
        packet.repair_payload();
        packet
    }
}

/// Monotonic generator of unique [`PacketId`]s.
///
/// # Examples
///
/// ```
/// use damq_core::PacketIdSource;
///
/// let mut ids = PacketIdSource::new();
/// let a = ids.next_id();
/// let b = ids.next_id();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketIdSource {
    next: u64,
}

impl PacketIdSource {
    /// Creates a generator starting at serial 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh, never-before-returned id.
    pub fn next_id(&mut self) -> PacketId {
        let id = PacketId::new(self.next);
        self.next += 1;
        id
    }

    /// Number of ids handed out so far.
    pub fn issued(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(len: usize) -> Packet {
        Packet::builder(NodeId::new(1), NodeId::new(2))
            .length_bytes(len)
            .build()
    }

    #[test]
    fn builder_sets_all_fields() {
        let p = Packet::builder(NodeId::new(5), NodeId::new(9))
            .id(PacketId::new(77))
            .length_bytes(17)
            .birth_cycle(123)
            .build();
        assert_eq!(p.id(), PacketId::new(77));
        assert_eq!(p.source(), NodeId::new(5));
        assert_eq!(p.dest(), NodeId::new(9));
        assert_eq!(p.length_bytes(), 17);
        assert_eq!(p.birth_cycle(), 123);
        assert_eq!(p.hops(), 0);
    }

    /// Paper §3.1: packets of 1..=32 bytes occupy 1..=4 eight-byte slots.
    /// A packet and the [`FrontMeta`](crate::FrontMeta) a buffer reports
    /// for it give the same count; only the head descriptor can say zero
    /// bytes, which still takes a slot.
    #[test]
    fn slot_counts_match_paper_examples() {
        let table = [
            (0, 1),
            (1, 1),
            (8, 1),
            (9, 2),
            (32, 4),
            (MAX_PACKET_BYTES, 4),
            (Packet::MAX_LENGTH_BYTES, 8192),
        ];
        for (length, slots) in table {
            let front = crate::FrontMeta {
                dest: NodeId::new(0),
                length_bytes: length as u32,
            };
            assert_eq!(front.slots_needed(), slots, "front of {length} B");
            if length > 0 {
                assert_eq!(packet(length).slots_needed(), slots, "{length} B");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_length_packets_rejected() {
        let _ = Packet::builder(NodeId::new(0), NodeId::new(0)).length_bytes(0);
    }

    #[test]
    fn injection_stamp_round_trips() {
        let mut p = packet(8);
        assert_eq!(p.injected_cycle(), None);
        p.mark_injected(42);
        assert_eq!(p.injected_cycle(), Some(42));
    }

    #[test]
    fn hops_accumulate() {
        let mut p = packet(8);
        p.record_hop();
        p.record_hop();
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn deflections_accumulate_without_touching_the_checksum() {
        let mut p = packet(8);
        assert_eq!(p.deflections(), 0);
        p.note_deflection();
        p.note_deflection();
        assert_eq!(p.deflections(), 2);
        assert!(p.verify_checksum(), "deflection is per-hop state");
    }

    #[test]
    fn latency_is_delivery_minus_birth() {
        let p = Packet::builder(NodeId::new(0), NodeId::new(1))
            .birth_cycle(10)
            .build();
        assert_eq!(p.latency_at(14), Some(4));
        assert_eq!(p.latency_at(9), None);
    }

    #[test]
    fn checksum_survives_forwarding_but_not_corruption() {
        let mut p = packet(17);
        assert!(p.verify_checksum());
        // Per-hop mutation must not invalidate the checksum.
        p.mark_injected(3);
        p.record_hop();
        p.record_hop();
        assert!(p.verify_checksum());
        p.corrupt_payload();
        assert!(!p.verify_checksum());
        // Corruption is an involution: a second flip restores the packet
        // (useful for testing, not a repair model).
        p.corrupt_payload();
        assert!(p.verify_checksum());
    }

    #[test]
    fn repair_restores_a_corrupted_checksum() {
        let mut p = packet(17);
        p.mark_injected(3);
        p.record_hop();
        p.corrupt_payload();
        assert!(!p.verify_checksum());
        p.repair_payload();
        assert!(p.verify_checksum());
        // Repairing a healthy packet is a no-op.
        p.repair_payload();
        assert!(p.verify_checksum());
        assert_eq!(p.hops(), 1, "per-hop state survives the resend");
    }

    #[test]
    fn checksum_distinguishes_identities() {
        let a = Packet::builder(NodeId::new(1), NodeId::new(2)).build();
        let b = Packet::builder(NodeId::new(1), NodeId::new(3)).build();
        assert_ne!(a.checksum, b.checksum);
    }

    #[test]
    fn id_source_is_monotonic_and_unique() {
        let mut src = PacketIdSource::new();
        let ids: Vec<_> = (0..100).map(|_| src.next_id()).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(src.issued(), 100);
    }
}
