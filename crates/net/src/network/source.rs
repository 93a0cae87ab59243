//! One source's queue of generated-but-not-yet-injected packets.
//!
//! Past saturation a blocking network's source queues grow without bound
//! — the regime the paper's hot-spot and saturation numbers are taken in
//! — so what a waiting packet costs is what a long run costs. The front
//! packet is kept decoded in the struct; each packet behind it is one
//! record of two or three LEB128 varints in a chunked byte stream:
//!
//! ```text
//! Δserial  ((Δbirth_cycle − 1) << dest_bits | dest) << 1 | explicit  [length_bytes << 1 | corrupt]
//! ```
//!
//! The deltas are wrapping `u64` differences from the packet queued just
//! before, so *any* sequence round-trips exactly — no field is narrowed
//! and there is no new limit — while the sequence a simulation produces
//! costs two to four bytes a packet instead of 32. `dest_bits` is the
//! width of the network's terminal addresses ([`dest_bits`]), and the
//! length field is written only when `explicit` says the pair differs
//! from the predecessor's. A header too wide for 63 bits (a birth gap
//! near 2⁶⁴) takes a cold `u128` path of up to fourteen bytes. Records
//! never straddle a chunk, chunks are never copied, and a chunk is freed
//! once the head has passed it. A source that holds at most one packet
//! (every discarding or unsaturated run) and a blocked source re-offering
//! its head never touch the stream. Layout, measured bytes per packet and
//! the budget tests: `docs/PERFORMANCE.md` §10.

use std::collections::VecDeque;

use damq_core::NodeId;

use super::PendingPacket;

/// Size of one stream chunk.
const CHUNK_BYTES: usize = 1024;

/// The longest record: a ten-byte `Δserial`, a fourteen-byte header (a
/// 64-bit birth gap over 32 destination bits and the flag) and a
/// three-byte 17-bit length.
const MAX_RECORD_BYTES: usize = 10 + 14 + 3;

/// Width of a terminal address in a network of `terminals` terminals:
/// every destination is below `2^dest_bits`.
pub(super) fn dest_bits(terminals: usize) -> u32 {
    usize::BITS - terminals.saturating_sub(1).leading_zeros()
}

/// A FIFO of [`PendingPacket`]s; see the module docs for the layout.
#[derive(Debug, Default)]
pub(super) struct SourceQueue {
    len: usize,
    /// The front packet, decoded (meaningful while `len > 0`).
    head: PendingPacket,
    /// Serial and birth cycle of the newest packet: what the next
    /// record's deltas are taken against.
    newest: (u64, u64),
    /// Records of the `len - 1` packets behind the head.
    stream: Option<Box<Stream>>,
}

/// Records back to back in fixed-size chunks. A chunk is closed — by the
/// writer and, reading the same offsets, by the reader — once it has no
/// room left for the longest record, so a record never straddles two.
#[derive(Debug, Default)]
struct Stream {
    /// Offset of the next unread record in the front chunk.
    read: usize,
    /// Offset just past the last record in the back chunk.
    write: usize,
    /// `length_bytes << 1 | corrupt` of the newest packet: what the next
    /// record's `explicit` bit is taken against. Set from the head when
    /// the first record behind it is pushed, as `newest` is tracked.
    newest_length: u32,
    chunks: VecDeque<Box<[u8; CHUNK_BYTES]>>,
}

/// `length_bytes << 1 | corrupt`, the length field of a record.
fn flagged_length(packet: &PendingPacket) -> u32 {
    u32::from(packet.length_bytes) << 1 | u32::from(packet.corrupt)
}

/// Writes `value` at `bytes[at..]` as an LEB128 varint (seven bits a
/// byte, low group first, high bit set on all but the last) and returns
/// the offset just past it.
///
/// One- and two-byte values — nearly every field a simulation writes —
/// take no branch on which they are: both bytes are stored and the offset
/// moves past the second only if it is part of the value. The spare
/// byte lies inside the record's reserved room (`MAX_RECORD_BYTES` counts
/// every field at its longest), so it never reaches past the chunk.
#[inline(always)]
fn put_varint(bytes: &mut [u8], at: usize, value: u64) -> usize {
    if value >= 1 << 14 {
        return put_long_varint(bytes, at, value.into());
    }
    let two = u8::from(value >= 0x80);
    bytes[at] = value as u8 & 0x7F | two << 7;
    bytes[at + 1] = (value >> 7) as u8;
    at + 1 + usize::from(two)
}

/// [`put_varint`] for values of three bytes and more, up to the fourteen
/// of a header too wide for 63 bits.
#[inline(never)]
fn put_long_varint(bytes: &mut [u8], mut at: usize, mut value: u128) -> usize {
    while value >= 0x80 {
        bytes[at] = value as u8 | 0x80;
        value >>= 7;
        at += 1;
    }
    bytes[at] = value as u8;
    at + 1
}

/// Reads the varint at `bytes[*at..]` and moves `at` past it; the
/// reading twin of [`put_varint`], branch-free on one and two bytes.
#[inline(always)]
fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (low, high) = (bytes[*at], bytes[*at + 1]);
    if (low & high) >= 0x80 {
        return get_long_varint(bytes, at);
    }
    let two = u64::from(low >> 7);
    *at += 1 + two as usize;
    u64::from(low & 0x7F) | u64::from(high) << 7 & two.wrapping_neg()
}

/// [`get_varint`] for varints of three bytes and more, read byte by
/// byte (inlined: out of line it measured slower end to end). A varint
/// longer than ten bytes (a wide header) is consumed whole but read as
/// garbage: the caller sees its length and re-reads it with
/// [`get_wide_varint`].
#[inline(always)]
fn get_long_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[*at];
        *at += 1;
        value |= u64::from(byte & 0x7F).wrapping_shl(shift);
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// Reads a header too wide for 63 bits (ten to fourteen bytes).
#[cold]
#[inline(never)]
fn get_wide_varint(bytes: &[u8], at: &mut usize) -> u128 {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[*at];
        *at += 1;
        value |= u128::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

impl Stream {
    /// Appends `packet`'s record, delta-coded against the packet queued
    /// just before it. Out of line, as [`pop_record`](Stream::pop_record)
    /// is, so that the cycle loop's common case — a queue of zero or one
    /// packets — stays a few stores.
    #[inline(never)]
    fn push_record(
        &mut self,
        packet: PendingPacket,
        (serial, birth_cycle): (u64, u64),
        dest_bits: u32,
    ) {
        if self.chunks.is_empty() || CHUNK_BYTES - self.write < MAX_RECORD_BYTES {
            // lint: allow — one chunk per few hundred queued packets; the
            // backlog is unbounded by design and this is its growth.
            self.chunks.push_back(Box::new([0; CHUNK_BYTES]));
            self.write = 0;
        }
        let last = self.chunks.len() - 1;
        let chunk = &mut self.chunks[last][..];
        let mut at = put_varint(chunk, self.write, packet.serial.wrapping_sub(serial));
        let gap = packet.birth_cycle.wrapping_sub(birth_cycle).wrapping_sub(1);
        let dest = packet.dest.index() as u64;
        debug_assert!(
            dest_bits <= 32 && dest >> dest_bits == 0,
            "dest {dest} in {dest_bits} bits"
        );
        let length = flagged_length(&packet);
        let explicit = length != self.newest_length;
        // Below 2⁶³ the header is a `u64` of at most nine bytes; only a
        // birth gap near 2⁶⁴ widens it.
        at = if gap >> (62 - dest_bits) == 0 {
            let header = (gap << dest_bits | dest) << 1;
            put_varint(chunk, at, header | u64::from(explicit))
        } else {
            let header = (u128::from(gap) << dest_bits | u128::from(dest)) << 1;
            put_long_varint(chunk, at, header | u128::from(explicit))
        };
        if explicit {
            at = put_varint(chunk, at, u64::from(length));
            self.newest_length = length;
        }
        self.write = at;
    }

    /// Decodes and consumes the record of the packet behind `previous`.
    #[inline(never)]
    fn pop_record(&mut self, previous: PendingPacket, dest_bits: u32) -> PendingPacket {
        let chunk = &self.chunks[0][..];
        let mut at = self.read;
        // Every field is read branch-free: the header is one byte or two
        // about evenly on a saturated source, so a loop over it would
        // mispredict on half the records.
        let serial = previous.serial.wrapping_add(get_varint(chunk, &mut at));
        let header_at = at;
        let header = get_varint(chunk, &mut at);
        // Nine bytes or fewer: a header `push_record` wrote as a `u64`.
        let (gap, dest, explicit) = if at - header_at < 10 {
            (header >> 1 >> dest_bits, header >> 1, header & 1 == 1)
        } else {
            at = header_at;
            let header = get_wide_varint(chunk, &mut at);
            (
                (header >> 1 >> dest_bits) as u64,
                (header >> 1) as u64,
                header & 1 == 1,
            )
        };
        let length = if explicit {
            get_varint(chunk, &mut at) as u32
        } else {
            flagged_length(&previous)
        };
        self.read = at;
        if self.chunks.len() == 1 {
            // The only chunk is kept and, once drained, rewound, so a
            // source hovering around one queued packet does not allocate
            // per packet.
            if at == self.write {
                (self.read, self.write) = (0, 0);
            }
        } else if CHUNK_BYTES - at < MAX_RECORD_BYTES {
            // The head has passed a closed chunk: give it back.
            self.chunks.pop_front();
            self.read = 0;
        }
        PendingPacket {
            serial,
            birth_cycle: previous.birth_cycle.wrapping_add(gap).wrapping_add(1),
            dest: NodeId::new((dest & !(u64::MAX << dest_bits)) as usize),
            length_bytes: (length >> 1) as u16,
            corrupt: length & 1 == 1,
        }
    }
}

impl SourceQueue {
    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn front(&self) -> Option<PendingPacket> {
        (self.len > 0).then_some(self.head)
    }

    /// Queues `packet`, whose destination must fit `dest_bits` bits.
    pub(super) fn push_back(&mut self, packet: PendingPacket, dest_bits: u32) {
        let previous = std::mem::replace(&mut self.newest, (packet.serial, packet.birth_cycle));
        self.len += 1;
        if self.len == 1 {
            self.head = packet;
        } else {
            let stream = self.stream.get_or_insert_with(Box::default);
            if self.len == 2 {
                // The first record behind this head: the head is its
                // predecessor, whatever the stream last held.
                stream.newest_length = flagged_length(&self.head);
            }
            stream.push_record(packet, previous, dest_bits);
        }
    }

    /// Dequeues the front packet; `dest_bits` as it was pushed with.
    pub(super) fn pop_front(&mut self, dest_bits: u32) -> Option<PendingPacket> {
        let popped = self.front()?;
        self.len -= 1;
        if self.len > 0 {
            // Every push behind a head wrote one record.
            #[expect(clippy::expect_used, reason = "a record per push behind the head")]
            let stream = self.stream.as_mut().expect("records behind the head");
            self.head = stream.pop_record(popped, dest_bits);
        }
        Some(popped)
    }

    /// Heap bytes behind this queue.
    pub(super) fn heap_bytes(&self) -> usize {
        self.stream.as_ref().map_or(0, |stream| {
            std::mem::size_of::<Stream>()
                + stream.chunks.capacity() * std::mem::size_of::<usize>()
                + stream.chunks.len() * CHUNK_BYTES
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Terminal counts whose address widths the differential runs at:
    /// the edges (one terminal, zero bits; 2³², the widest), powers of
    /// two, and the radix-3 sizes 27 and 81.
    const TERMINALS: [usize; 7] = [1, 2, 27, 64, 81, 1024, 1 << 32];

    /// Mistakes a delta-coded queue can make, planted in the reference to
    /// show the differential would catch the stream making them.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mutation {
        /// The corrupt flag is not stored.
        CorruptBitDropped,
        /// Deltas are taken against the newest packet *that went through
        /// the stream* — right until the queue empties and a new head
        /// arrives without passing through it.
        StalePredecessor,
        /// The same mistake for the length field: `explicit` is taken
        /// against the newest record's `(length, corrupt)`, not the
        /// head's, for the first record behind a refilled head.
        StaleLength,
    }

    /// `VecDeque<PendingPacket>`: the queue the stream replaced.
    #[derive(Default)]
    struct Model {
        queue: VecDeque<PendingPacket>,
        mutation: Option<Mutation>,
        /// `StalePredecessor`'s idea of the newest packet.
        newest: Option<(u64, u64)>,
        /// `StaleLength`'s idea of the newest `(length, corrupt)`.
        newest_length: Option<(u16, bool)>,
    }

    impl Model {
        fn push_back(&mut self, packet: PendingPacket) {
            let mut stored = packet;
            match (self.mutation, self.queue.back()) {
                (Some(Mutation::CorruptBitDropped), _) => stored.corrupt = false,
                (Some(Mutation::StalePredecessor), Some(before)) => {
                    // What decoding `packet - newest` against the true
                    // predecessor hands back.
                    let (serial, birth) =
                        self.newest.unwrap_or((before.serial, before.birth_cycle));
                    stored.serial = before
                        .serial
                        .wrapping_add(packet.serial.wrapping_sub(serial));
                    stored.birth_cycle = before
                        .birth_cycle
                        .wrapping_add(packet.birth_cycle.wrapping_sub(birth));
                    self.newest = Some((packet.serial, packet.birth_cycle));
                }
                (Some(Mutation::StaleLength), Some(before)) => {
                    // A pair equal to the stale one is left out, and the
                    // decoder takes the true predecessor's instead.
                    let pair = (packet.length_bytes, packet.corrupt);
                    if self
                        .newest_length
                        .unwrap_or((before.length_bytes, before.corrupt))
                        == pair
                    {
                        (stored.length_bytes, stored.corrupt) =
                            (before.length_bytes, before.corrupt);
                    }
                    self.newest_length = Some(pair);
                }
                _ => {}
            }
            self.queue.push_back(stored);
        }
    }

    /// The stream and the reference, driven in lockstep and compared
    /// after every operation.
    struct Pair {
        real: SourceQueue,
        model: Model,
        dest_bits: u32,
    }

    impl Pair {
        fn new(terminals: usize, mutation: Option<Mutation>) -> Self {
            Pair {
                real: SourceQueue::default(),
                model: Model {
                    mutation,
                    ..Model::default()
                },
                dest_bits: dest_bits(terminals),
            }
        }

        fn agree(&self, what: &str) -> Result<(), String> {
            let real = (self.real.len(), self.real.front());
            let model = (self.model.queue.len(), self.model.queue.front().copied());
            if real == model {
                Ok(())
            } else {
                Err(format!(
                    "after {what}: stream {real:?}, reference {model:?}"
                ))
            }
        }

        fn push(&mut self, packet: PendingPacket) -> Result<(), String> {
            self.real.push_back(packet, self.dest_bits);
            self.model.push_back(packet);
            self.agree("push")
        }

        fn pop(&mut self) -> Result<(), String> {
            let real = self.real.pop_front(self.dest_bits);
            let model = self.model.queue.pop_front();
            if real != model {
                return Err(format!("popped {real:?}, reference {model:?}"));
            }
            self.agree("pop")
        }

        fn drain(&mut self) -> Result<(), String> {
            while self.real.len() > 0 {
                self.pop()?;
            }
            self.pop() // both empty: `None` from each
        }

        fn stream(&self) -> &Stream {
            self.real.stream.as_ref().expect("a record was pushed")
        }
    }

    /// Packets whose deltas, destinations, lengths and flags are drawn
    /// from the extremes as often as from the ordinary.
    struct Packets {
        rng: StdRng,
        last: PendingPacket,
        /// Destinations at the edges of the address width.
        dests: [usize; 5],
        /// Birth gaps on either side of the header's wide path.
        wide_edges: [u64; 3],
    }

    impl Packets {
        fn seeded(seed: u64, terminals: usize) -> Self {
            let bits = dest_bits(terminals);
            let top = (1usize << bits) >> 1;
            let first_wide = 1u64 << (62 - bits);
            Packets {
                rng: StdRng::seed_from_u64(seed),
                last: PendingPacket::default(),
                dests: [0, terminals - 1, top, top.saturating_sub(1), terminals / 2],
                wide_edges: [first_wide - 1, first_wide, first_wide + 1],
            }
        }

        fn delta(&mut self) -> u64 {
            const EXTREMES: [u64; 7] = [0, 1, 127, 128, 1 << 32, u64::MAX, u64::MAX - 127];
            match self.rng.random_range(0..4usize) {
                0 => EXTREMES[self.rng.random_range(0..EXTREMES.len())],
                1 => self.wide_edges[self.rng.random_range(0..3usize)],
                2 => self.rng.random_range(0..300u64),
                _ => self.rng.next_u64() >> self.rng.random_range(0..64usize),
            }
        }

        fn next(&mut self) -> PendingPacket {
            const LENGTHS: [u16; 5] = [1, 8, 32, 64, u16::MAX];
            self.last = PendingPacket {
                serial: self.last.serial.wrapping_add(self.delta()),
                birth_cycle: self.last.birth_cycle.wrapping_add(self.delta()),
                dest: NodeId::new(self.dests[self.rng.random_range(0..self.dests.len())]),
                length_bytes: LENGTHS[self.rng.random_range(0..LENGTHS.len())],
                corrupt: self.rng.random_bool(0.125),
            };
            self.last
        }
    }

    /// Random push / pop interleavings whose bias flips between growing
    /// and draining, then a drain to empty and 64 rounds of refill and
    /// drain: each refill starts from a head whose predecessor is gone.
    fn differential(seed: u64, terminals: usize, mutation: Option<Mutation>) -> Result<(), String> {
        let mut packets = Packets::seeded(seed, terminals);
        let mut pair = Pair::new(terminals, mutation);
        for phase in 0..8 {
            let push_bias = if phase % 2 == 0 { 0.7 } else { 0.35 };
            for _ in 0..2_000 {
                if packets.rng.random_bool(push_bias) {
                    pair.push(packets.next())?;
                } else {
                    pair.pop()?;
                }
            }
        }
        pair.drain()?;
        for _ in 0..64 {
            for _ in 0..packets.rng.random_range(1..40usize) {
                pair.push(packets.next())?;
            }
            pair.drain()?;
        }
        Ok(())
    }

    #[test]
    fn stream_matches_a_vecdeque_on_random_interleavings() {
        for seed in 0..24 {
            for terminals in TERMINALS {
                differential(0x50_0BAC + seed, terminals, None)
                    .unwrap_or_else(|e| panic!("seed {seed}, {terminals} terminals: {e}"));
            }
        }
    }

    /// Each seeded mutation fails the differential on every seed, at a
    /// terminal count that cycles with the seed.
    fn assert_teeth(mutation: Mutation) {
        for seed in 0..24 {
            let terminals = TERMINALS[seed as usize % TERMINALS.len()];
            let verdict = differential(0x50_0BAC + seed, terminals, Some(mutation));
            assert!(verdict.is_err(), "seed {seed} missed {mutation:?}");
        }
    }

    #[test]
    fn mutation_dropped_corrupt_bit_has_teeth() {
        assert_teeth(Mutation::CorruptBitDropped);
    }

    #[test]
    fn mutation_stale_predecessor_has_teeth() {
        assert_teeth(Mutation::StalePredecessor);
        // And it is the refill that exposes it: a queue that never
        // empties decodes correctly even with the mistake planted.
        let mut packets = Packets::seeded(1, 64);
        let mut pair = Pair::new(64, Some(Mutation::StalePredecessor));
        for _ in 0..500 {
            pair.push(packets.next()).unwrap();
            pair.push(packets.next()).unwrap();
            pair.pop().unwrap();
        }
    }

    #[test]
    fn mutation_stale_length_has_teeth() {
        assert_teeth(Mutation::StaleLength);
        // As with the deltas, only a drain and refill exposes it.
        let mut packets = Packets::seeded(1, 64);
        let mut pair = Pair::new(64, Some(Mutation::StaleLength));
        for _ in 0..500 {
            pair.push(packets.next()).unwrap();
            pair.push(packets.next()).unwrap();
            pair.pop().unwrap();
        }
    }

    #[test]
    fn queue_refills_after_draining_at_every_small_depth() {
        let mut packets = Packets::seeded(2, 64);
        let mut pair = Pair::new(64, None);
        for round in 0..40 {
            for _ in 0..=round % 5 {
                pair.push(packets.next()).unwrap();
            }
            pair.drain().unwrap();
        }
    }

    #[test]
    fn a_million_packet_backlog_round_trips_and_is_given_back() {
        let mut packets = Packets::seeded(3, 1024);
        let mut pair = Pair::new(1024, None);
        for _ in 0..1_000_000 {
            let packet = packets.next();
            pair.real.push_back(packet, pair.dest_bits);
            pair.model.queue.push_back(packet);
        }
        let full = pair.real.heap_bytes();
        pair.drain().unwrap();
        // What stays is one rewound chunk and the chunk table.
        assert!(pair.real.heap_bytes() < full / 20, "{full} B before");
        assert_eq!(pair.stream().chunks.len(), 1);
    }

    /// Bytes of the one record `packet` makes behind `head`.
    fn record_bytes(terminals: usize, head: PendingPacket, packet: PendingPacket) -> usize {
        let mut pair = Pair::new(terminals, None);
        pair.push(head).unwrap();
        pair.push(packet).unwrap();
        let bytes = pair.stream().write;
        pair.drain().unwrap();
        bytes
    }

    #[test]
    fn the_header_widens_exactly_where_63_bits_run_out() {
        let head = PendingPacket {
            length_bytes: 8,
            ..PendingPacket::default()
        };
        for terminals in TERMINALS {
            let bits = dest_bits(terminals);
            let record = |gap: u64, dest: usize| {
                let packet = PendingPacket {
                    serial: 1,
                    birth_cycle: gap,
                    dest: NodeId::new(dest),
                    ..head
                };
                record_bytes(terminals, head, packet)
            };
            let top = terminals - 1;
            // Gap 1 and the lowest address: one byte of header.
            assert_eq!(record(1, 0), 2, "{terminals} terminals");
            // The last gap on the fast path: 63 bits, nine bytes.
            assert_eq!(
                record(1 << (62 - bits), top),
                1 + 9,
                "{terminals} terminals"
            );
            // One more, and the cold path: ten bytes and up.
            assert_eq!(
                record((1 << (62 - bits)) + 1, top),
                1 + 10,
                "{terminals} terminals"
            );
            // The widest gap there is (zero, less one): 64 + bits + 1 bits.
            let widest = (65 + bits as usize).div_ceil(7);
            assert_eq!(record(0, top), 1 + widest, "{terminals} terminals");
        }
    }

    /// An ordinary simulation packet: two one-byte varints behind a head
    /// of the same length and flag.
    fn short_record(serial: u64, birth_cycle: u64) -> PendingPacket {
        PendingPacket {
            serial,
            birth_cycle,
            dest: NodeId::new(5),
            length_bytes: 8,
            corrupt: false,
        }
    }

    #[test]
    fn a_chunk_closes_when_the_longest_record_no_longer_fits() {
        // Two-byte records, with `threes` three-byte ones (serial delta
        // 128) in front, up to two bytes short of the closing offset, one
        // byte short, and exactly on it; at 2³² terminals, where the
        // longest record is 27 bytes.
        const CLOSING: usize = CHUNK_BYTES - MAX_RECORD_BYTES + 1;
        for (threes, twos, write, chunks_after) in [
            (0, 498, CLOSING - 2, 1),
            (1, 497, CLOSING - 1, 1),
            (0, 499, CLOSING, 2),
        ] {
            let mut pair = Pair::new(1 << 32, None);
            let (mut serial, mut birth) = (0, 0);
            pair.push(short_record(serial, birth)).unwrap(); // the head
            for i in 0..threes + twos {
                serial += if i < threes { 128 } else { 1 };
                birth += 1;
                pair.push(short_record(serial, birth)).unwrap();
            }
            let stream = |pair: &Pair| (pair.stream().write, pair.stream().chunks.len());
            assert_eq!(stream(&pair), (write, 1));
            // The longest record there is — a ten-byte serial delta, a
            // birth gap of zero (2⁶⁴ − 1 once less one) over the widest
            // address, a 17-bit length — ends on the chunk's last byte
            // when it starts one short of the closing offset.
            pair.push(PendingPacket {
                serial: serial.wrapping_sub(1),
                birth_cycle: birth,
                dest: NodeId::new(u32::MAX as usize),
                length_bytes: u16::MAX,
                corrupt: true,
            })
            .unwrap();
            let end = if chunks_after == 1 { write } else { 0 } + MAX_RECORD_BYTES;
            assert_eq!(stream(&pair), (end, chunks_after));
            pair.push(short_record(7, birth + 1)).unwrap();
            pair.drain().unwrap();
        }
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        // Room for the widest varint and the spare byte a short one stores.
        let mut record = [0; 16];
        for bits in 0..=64 {
            for value in [(1u128 << bits) - 1, 1u128 << bits.min(63)] {
                let value = value as u64;
                let end = put_varint(&mut record, 0, value);
                assert_eq!(
                    end,
                    (64 - value.leading_zeros() as usize).div_ceil(7).max(1)
                );
                let mut at = 0;
                assert_eq!(get_varint(&record, &mut at), value);
                assert_eq!(at, end);
            }
        }
        // Headers: up to 64 + 32 + 1 bits, fourteen bytes.
        for bits in 0..=97 {
            for value in [(1u128 << bits) - 1, 1u128 << bits.min(96)] {
                let end = put_long_varint(&mut record, 0, value);
                assert_eq!(
                    end,
                    (128 - value.leading_zeros() as usize).div_ceil(7).max(1)
                );
                assert!(end <= 14);
                let mut at = 0;
                assert_eq!(get_wide_varint(&record, &mut at), value);
                assert_eq!(at, end);
                // The short reader consumes it whole without panicking.
                let mut at = 0;
                get_varint(&record, &mut at);
                assert_eq!(at, end);
            }
        }
    }

    #[test]
    fn dest_bits_is_the_address_width() {
        for (terminals, bits) in [
            (1, 0),
            (2, 1),
            (27, 5),
            (64, 6),
            (81, 7),
            (1024, 10),
            (1 << 32, 32),
        ] {
            assert_eq!(dest_bits(terminals), bits, "{terminals} terminals");
        }
    }

    #[test]
    fn layout_source_queue_is_one_cache_line() {
        assert!(std::mem::size_of::<SourceQueue>() <= 64);
    }
}
