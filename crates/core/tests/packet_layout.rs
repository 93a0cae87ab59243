//! `Packet` is one cache line: the layout budget the arenas, rings and
//! departure records inherit, and proof that narrowing the fields changed
//! no value any accessor returns.
//!
//! 1. `size_of::<Packet>() <= 40` and `Option<Packet>` costs nothing more
//!    (the length's niche), so `Box<[Option<Packet>]>` is 40 B per slot.
//! 2. A seeded round trip of 10 000 packets, extremes included, through
//!    the builder and every accessor; each one's corruption is detected,
//!    repaired, and still an involution.
//! 3. `Debug` and `Display` equal literals recorded from the 72-byte
//!    `Packet` of the parent commit.

use std::mem::size_of;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use damq_core::{NodeId, Packet, PacketId};

#[test]
fn packet_fits_forty_bytes_and_option_is_free() {
    assert!(
        size_of::<Packet>() <= 40,
        "Packet grew to {}",
        size_of::<Packet>()
    );
    assert_eq!(size_of::<Option<Packet>>(), size_of::<Packet>());
}

/// The identity one packet is built from.
#[derive(Debug, Clone, Copy)]
struct Identity {
    serial: u64,
    source: usize,
    dest: usize,
    length: usize,
    birth: u64,
}

const EXTREMES: [Identity; 3] = [
    Identity {
        serial: u64::MAX,
        source: u32::MAX as usize,
        dest: u32::MAX as usize,
        length: 65_535,
        birth: u64::MAX - 1,
    },
    Identity {
        serial: 0,
        source: 0,
        dest: u32::MAX as usize,
        length: 1,
        birth: 0,
    },
    Identity {
        serial: 1 << 63,
        source: u32::MAX as usize,
        dest: 0,
        length: Packet::MAX_LENGTH_BYTES,
        birth: u64::MAX - 1,
    },
];

fn build(i: Identity) -> Packet {
    Packet::builder(NodeId::new(i.source), NodeId::new(i.dest))
        .id(PacketId::new(i.serial))
        .length_bytes(i.length)
        .birth_cycle(i.birth)
        .build()
}

#[test]
fn ten_thousand_packets_round_trip_through_every_accessor() {
    let mut rng = StdRng::seed_from_u64(0x40B);
    let drawn = (0..10_000).map(|_| Identity {
        serial: rng.next_u64(),
        source: rng.random_range(0..=u32::MAX as usize),
        dest: rng.random_range(0..=u32::MAX as usize),
        length: rng.random_range(1..=Packet::MAX_LENGTH_BYTES),
        birth: rng.random_range(0..u64::MAX),
    });
    for (n, i) in EXTREMES.into_iter().chain(drawn).enumerate() {
        let mut p = build(i);
        assert_eq!(p.id(), PacketId::new(i.serial), "{i:?}");
        assert_eq!(p.source(), NodeId::new(i.source), "{i:?}");
        assert_eq!(p.dest(), NodeId::new(i.dest), "{i:?}");
        assert_eq!(p.length_bytes(), i.length, "{i:?}");
        assert_eq!(p.slots_needed(), i.length.div_ceil(8), "{i:?}");
        assert_eq!(p.birth_cycle(), i.birth, "{i:?}");
        assert_eq!(p.latency_at(u64::MAX), Some(u64::MAX - i.birth), "{i:?}");
        assert_eq!(
            (p.injected_cycle(), p.hops(), p.deflections()),
            (None, 0, 0)
        );
        assert!(p.verify_checksum(), "{i:?}");

        // Per-hop state, at its extremes on the first few packets.
        let stamp = if n < EXTREMES.len() {
            u64::MAX - 1
        } else {
            i.birth
        };
        p.mark_injected(stamp);
        assert_eq!(p.injected_cycle(), Some(stamp), "{i:?}");
        let hops = if n < EXTREMES.len() { 300 } else { n % 7 };
        for _ in 0..hops {
            p.record_hop();
        }
        assert_eq!(p.hops(), hops.min(255) as u32, "hops saturate, never wrap");
        p.note_deflection();
        assert_eq!(p.deflections(), 1);
        assert!(p.verify_checksum(), "per-hop state is outside the checksum");

        // Corruption is detected, is an involution, and is repaired.
        let healthy = p.clone();
        p.corrupt_payload();
        assert!(!p.verify_checksum(), "{i:?}");
        assert_ne!(p, healthy);
        p.corrupt_payload();
        assert_eq!(p, healthy, "corruption is an involution");
        p.corrupt_payload();
        p.repair_payload();
        assert_eq!(p, healthy, "repair restores the clean copy");
    }
}

#[test]
#[should_panic(expected = "at most Packet::MAX_LENGTH_BYTES")]
fn a_length_beyond_the_register_is_rejected_at_the_builder() {
    let _ = Packet::builder(NodeId::new(0), NodeId::new(0)).length_bytes(65_536);
}

#[cfg(target_pointer_width = "64")]
#[test]
#[should_panic(expected = "node addresses fit 32 bits")]
fn a_node_beyond_32_bits_is_rejected_at_the_builder() {
    let _ = Packet::builder(NodeId::new(0), NodeId::new(u32::MAX as usize + 1));
}

/// Literals printed by the parent commit's derived `Debug` (every field a
/// machine word, the checksum 64 bits) and its `Display`.
#[test]
fn debug_and_display_are_what_they_were() {
    let mut p = build(Identity {
        serial: 77,
        source: 5,
        dest: 9,
        length: 17,
        birth: 123,
    });
    assert_eq!(
        format!("{p:?}"),
        "Packet { id: PacketId(77), source: NodeId(5), dest: NodeId(9), length_bytes: 17, \
         birth_cycle: 123, injected_cycle: None, hops: 0, deflections: 0, \
         checksum: 584734956219987954 }"
    );
    assert_eq!(format!("{p}"), "pkt#77 node5->node9 (17B, born 123)");
    p.mark_injected(130);
    p.record_hop();
    p.record_hop();
    p.note_deflection();
    p.corrupt_payload();
    assert_eq!(
        format!("{p:?}"),
        "Packet { id: PacketId(77), source: NodeId(5), dest: NodeId(9), length_bytes: 17, \
         birth_cycle: 123, injected_cycle: Some(130), hops: 2, deflections: 1, \
         checksum: 15470106302928341277 }"
    );
    assert_eq!(format!("{p}"), "pkt#77 node5->node9 (17B, born 123)");
    assert!(format!("{p:#?}").contains("    injected_cycle: Some(\n        130,\n    ),\n"));
    let q = build(Identity {
        serial: u64::MAX,
        source: u32::MAX as usize,
        dest: 0,
        length: 65_535,
        birth: u64::MAX - 1,
    });
    assert_eq!(
        format!("{q:?}"),
        "Packet { id: PacketId(18446744073709551615), source: NodeId(4294967295), \
         dest: NodeId(0), length_bytes: 65535, birth_cycle: 18446744073709551614, \
         injected_cycle: None, hops: 0, deflections: 0, checksum: 5109347331773253033 }"
    );
    assert_eq!(
        format!("{q}"),
        "pkt#18446744073709551615 node4294967295->node0 (65535B, born 18446744073709551614)"
    );
}
