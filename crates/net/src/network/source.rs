//! One source's queue of generated-but-not-yet-injected packets.
//!
//! Past saturation a blocking network's source queues grow without bound
//! — the regime the paper's hot-spot and saturation numbers are taken in
//! — so what a waiting packet costs is what a long run costs. The front
//! packet is kept decoded in the struct; each packet behind it is one
//! record of four LEB128 varints in a chunked byte stream:
//! `Δserial  Δbirth_cycle  dest  (length_bytes << 1 | corrupt)`.
//!
//! The deltas are wrapping `u64` differences from the packet queued just
//! before, so *any* sequence round-trips exactly — no field is narrowed
//! and there is no new limit — while the sequence a simulation produces
//! costs four to six bytes a packet instead of 32. Records never straddle
//! a chunk, chunks are never copied, and a chunk is freed once the head
//! has passed it. A source that holds at most one packet (every
//! discarding or unsaturated run) and a blocked source re-offering its
//! head never touch the stream. Layout, measured bytes per packet and
//! the budget tests: `docs/PERFORMANCE.md` §10.

use std::collections::VecDeque;

use damq_core::NodeId;

use super::PendingPacket;

/// Size of one stream chunk.
const CHUNK_BYTES: usize = 1024;

/// The longest record: three ten-byte `u64` varints and a 17-bit one.
const MAX_RECORD_BYTES: usize = 3 * 10 + 3;

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
    chunks: VecDeque<Box<[u8; CHUNK_BYTES]>>,
}

/// Writes `value` at `bytes[at..]` as an LEB128 varint (seven bits a
/// byte, low group first, high bit set on all but the last) and returns
/// the offset just past it.
fn put_varint(bytes: &mut [u8], mut at: usize, mut value: u64) -> usize {
    while value >= 0x80 {
        bytes[at] = value as u8 | 0x80;
        value >>= 7;
        at += 1;
    }
    bytes[at] = value as u8;
    at + 1
}

/// Reads the varint at `bytes[*at..]` and moves `at` past it.
fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[*at];
        *at += 1;
        value |= u64::from(byte & 0x7F) << shift;
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
    fn push_record(&mut self, packet: PendingPacket, (serial, birth_cycle): (u64, u64)) {
        if self.chunks.is_empty() || CHUNK_BYTES - self.write < MAX_RECORD_BYTES {
            // lint: allow — one chunk per couple of hundred queued
            // packets; the backlog is unbounded by design and this is
            // its growth.
            self.chunks.push_back(Box::new([0; CHUNK_BYTES]));
            self.write = 0;
        }
        let last = self.chunks.len() - 1;
        let chunk = &mut self.chunks[last][..];
        let mut at = put_varint(chunk, self.write, packet.serial.wrapping_sub(serial));
        at = put_varint(chunk, at, packet.birth_cycle.wrapping_sub(birth_cycle));
        at = put_varint(chunk, at, packet.dest.index() as u64);
        let length_and_flag = u64::from(packet.length_bytes) << 1 | u64::from(packet.corrupt);
        self.write = put_varint(chunk, at, length_and_flag);
    }

    /// Decodes and consumes the record of the packet behind `previous`.
    #[inline(never)]
    fn pop_record(&mut self, previous: PendingPacket) -> PendingPacket {
        let chunk = &self.chunks[0][..];
        let mut at = self.read;
        let serial = previous.serial.wrapping_add(get_varint(chunk, &mut at));
        let birth_cycle = previous
            .birth_cycle
            .wrapping_add(get_varint(chunk, &mut at));
        let dest = NodeId::new(get_varint(chunk, &mut at) as usize);
        let length_and_flag = get_varint(chunk, &mut at);
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
            birth_cycle,
            dest,
            length_bytes: (length_and_flag >> 1) as u16,
            corrupt: length_and_flag & 1 == 1,
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

    pub(super) fn push_back(&mut self, packet: PendingPacket) {
        let previous = std::mem::replace(&mut self.newest, (packet.serial, packet.birth_cycle));
        self.len += 1;
        if self.len == 1 {
            self.head = packet;
        } else {
            let stream = self.stream.get_or_insert_with(Box::default);
            stream.push_record(packet, previous);
        }
    }

    pub(super) fn pop_front(&mut self) -> Option<PendingPacket> {
        let popped = self.front()?;
        self.len -= 1;
        if self.len > 0 {
            // lint: allow — every push behind a head wrote one record.
            let stream = self.stream.as_mut().expect("records behind the head");
            self.head = stream.pop_record(popped);
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
    }

    /// `VecDeque<PendingPacket>`: the queue the stream replaced.
    #[derive(Default)]
    struct Model {
        queue: VecDeque<PendingPacket>,
        mutation: Option<Mutation>,
        /// `StalePredecessor`'s idea of the newest packet.
        newest: Option<(u64, u64)>,
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
                _ => {}
            }
            self.queue.push_back(stored);
        }
    }

    /// The stream and the reference, driven in lockstep and compared
    /// after every operation.
    #[derive(Default)]
    struct Pair {
        real: SourceQueue,
        model: Model,
    }

    impl Pair {
        fn mutated(mutation: Option<Mutation>) -> Self {
            let mut pair = Pair::default();
            pair.model.mutation = mutation;
            pair
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
            self.real.push_back(packet);
            self.model.push_back(packet);
            self.agree("push")
        }

        fn pop(&mut self) -> Result<(), String> {
            let (real, model) = (self.real.pop_front(), self.model.queue.pop_front());
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
    }

    /// Packets whose deltas, destinations, lengths and flags are drawn
    /// from the extremes as often as from the ordinary.
    struct Packets {
        rng: StdRng,
        last: PendingPacket,
    }

    impl Packets {
        fn seeded(seed: u64) -> Self {
            Packets {
                rng: StdRng::seed_from_u64(seed),
                last: PendingPacket::default(),
            }
        }

        fn delta(&mut self) -> u64 {
            const EXTREMES: [u64; 7] = [0, 1, 127, 128, 1 << 32, u64::MAX, u64::MAX - 127];
            match self.rng.random_range(0..3usize) {
                0 => EXTREMES[self.rng.random_range(0..EXTREMES.len())],
                1 => self.rng.random_range(0..300u64),
                _ => self.rng.next_u64() >> self.rng.random_range(0..64usize),
            }
        }

        fn next(&mut self) -> PendingPacket {
            const DESTS: [usize; 5] = [0, 63, 1023, u32::MAX as usize, usize::MAX];
            const LENGTHS: [u16; 5] = [1, 8, 32, 64, u16::MAX];
            self.last = PendingPacket {
                serial: self.last.serial.wrapping_add(self.delta()),
                birth_cycle: self.last.birth_cycle.wrapping_add(self.delta()),
                dest: NodeId::new(DESTS[self.rng.random_range(0..DESTS.len())]),
                length_bytes: LENGTHS[self.rng.random_range(0..LENGTHS.len())],
                corrupt: self.rng.random_bool(0.125),
            };
            self.last
        }
    }

    /// Random push / pop interleavings whose bias flips between growing
    /// and draining, then a drain to empty, a refill and a second drain.
    fn differential(seed: u64, mutation: Option<Mutation>) -> Result<(), String> {
        let mut packets = Packets::seeded(seed);
        let mut pair = Pair::mutated(mutation);
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
        for _ in 0..packets.rng.random_range(1..400usize) {
            pair.push(packets.next())?;
        }
        pair.drain()
    }

    #[test]
    fn stream_matches_a_vecdeque_on_random_interleavings() {
        for seed in 0..24 {
            differential(0x50_0BAC + seed, None).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn mutation_dropped_corrupt_bit_has_teeth() {
        for seed in 0..24 {
            let verdict = differential(0x50_0BAC + seed, Some(Mutation::CorruptBitDropped));
            assert!(verdict.is_err(), "seed {seed} missed the dropped flag");
        }
    }

    #[test]
    fn mutation_stale_predecessor_has_teeth() {
        for seed in 0..24 {
            let verdict = differential(0x50_0BAC + seed, Some(Mutation::StalePredecessor));
            assert!(verdict.is_err(), "seed {seed} missed the stale predecessor");
        }
        // And it is the refill that exposes it: a queue that never
        // empties decodes correctly even with the mistake planted.
        let mut packets = Packets::seeded(1);
        let mut pair = Pair::mutated(Some(Mutation::StalePredecessor));
        for _ in 0..500 {
            pair.push(packets.next()).unwrap();
            pair.push(packets.next()).unwrap();
            pair.pop().unwrap();
        }
    }

    #[test]
    fn queue_refills_after_draining_at_every_small_depth() {
        let mut packets = Packets::seeded(2);
        let mut pair = Pair::default();
        for round in 0..40 {
            for _ in 0..=round % 5 {
                pair.push(packets.next()).unwrap();
            }
            pair.drain().unwrap();
        }
    }

    #[test]
    fn a_million_packet_backlog_round_trips_and_is_given_back() {
        let mut packets = Packets::seeded(3);
        let mut pair = Pair::default();
        for _ in 0..1_000_000 {
            let packet = packets.next();
            pair.real.push_back(packet);
            pair.model.queue.push_back(packet);
        }
        let full = pair.real.heap_bytes();
        pair.drain().unwrap();
        // What stays is one rewound chunk and the chunk table.
        assert!(pair.real.heap_bytes() < full / 20, "{full} B before");
        assert_eq!(pair.real.stream.as_ref().unwrap().chunks.len(), 1);
    }

    /// An ordinary simulation packet: every field one varint byte.
    fn four_byte_record(serial: u64) -> PendingPacket {
        PendingPacket {
            serial,
            birth_cycle: 9,
            dest: NodeId::new(5),
            length_bytes: 8,
            corrupt: false,
        }
    }

    #[test]
    fn a_chunk_closes_when_the_longest_record_no_longer_fits() {
        // Four-byte records, with `fives` five-byte ones (serial delta
        // 128) in front, up to two bytes short of the closing offset, one
        // byte short, and exactly on it.
        const CLOSING: usize = CHUNK_BYTES - MAX_RECORD_BYTES + 1;
        for (fives, fours, write, chunks_after) in [
            (2, 245, CLOSING - 2, 1),
            (3, 244, CLOSING - 1, 1),
            (0, 248, CLOSING, 2),
        ] {
            let mut pair = Pair::default();
            let mut serial = 0;
            pair.push(four_byte_record(serial)).unwrap(); // the head
            for i in 0..fives + fours {
                serial += if i < fives { 128 } else { 1 };
                pair.push(four_byte_record(serial)).unwrap();
            }
            let stream = |pair: &Pair| {
                let stream = pair.real.stream.as_ref().unwrap();
                (stream.write, stream.chunks.len())
            };
            assert_eq!(stream(&pair), (write, 1));
            // The longest record there is: it ends on the chunk's last
            // byte when it starts one short of the closing offset.
            pair.push(PendingPacket {
                serial: serial.wrapping_sub(1),
                birth_cycle: 8,
                dest: NodeId::new(usize::MAX),
                length_bytes: u16::MAX,
                corrupt: true,
            })
            .unwrap();
            let end = if chunks_after == 1 { write } else { 0 } + MAX_RECORD_BYTES;
            assert_eq!(stream(&pair), (end, chunks_after));
            pair.push(four_byte_record(7)).unwrap();
            pair.drain().unwrap();
        }
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut record = [0; 10];
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
    }

    #[test]
    fn layout_source_queue_is_one_cache_line() {
        assert!(std::mem::size_of::<SourceQueue>() <= 64);
    }
}
