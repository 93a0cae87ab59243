//! Pinned departure fingerprints: what a switch sends, cycle by cycle,
//! must not depend on where its scratch state is stored.
//!
//! A radix-4 switch keeps all of its per-cycle scratch (and its buffers'
//! register files) inline; a radix-8 switch spills the ports x ports
//! matrices, the per-port scratch and nothing else to the heap. Both run
//! the same seeded traffic here and must reproduce, departure for
//! departure, the fingerprints recorded from the all-`Vec` layout that
//! preceded the inline one. A mismatch means the storage change altered
//! arbitration, flow control or buffer order — never regenerate these
//! numbers to make a layout change pass.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use damq_core::{
    BufferKind, FrontMeta, InputPort, NodeId, OutputPort, Packet, PacketId, SwitchBuffer,
};
use damq_switch::{ArbiterPolicy, CycleSink, Switch, SwitchConfig};
use ArbiterPolicy::{Dumb, Smart};
use BufferKind::{Dafc, Damq, Fifo, Safc, Samq};

#[path = "support/collect.rs"]
mod collect;
use collect::transmit;

const CYCLES: u64 = 2_000;

/// FNV-1a over the words of one run.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Drives one switch with seeded arrivals (each input receives a packet
/// for a random output six cycles in ten) while a rotating output is
/// flow-control blocked, so blocked heads, stale counts and rejections
/// all occur; hashes every departure, every rejection and the final
/// state.
fn fingerprint(ports: usize, kind: BufferKind, policy: ArbiterPolicy) -> u64 {
    let config = SwitchConfig::new(ports)
        .buffer_kind(kind)
        .slots_per_buffer(ports)
        .arbiter_policy(policy);
    let mut sw = Switch::new(config).unwrap();
    let mut rng = StdRng::seed_from_u64(0xD3BA + ports as u64);
    let mut hash = Fnv::new();
    let mut serial = 0u64;
    for cycle in 0..CYCLES {
        for i in 0..ports {
            if rng.random_range(0..10usize) >= 6 {
                continue;
            }
            let o = rng.random_range(0..ports);
            let packet = Packet::builder(NodeId::new(i), NodeId::new(o))
                .id(PacketId::new(serial))
                .build();
            serial += 1;
            if sw
                .receive(InputPort::new(i), OutputPort::new(o), packet)
                .is_err()
            {
                hash.word(u64::MAX);
            }
        }
        let blocked = (cycle as usize) % ports;
        for d in transmit(&mut sw, |o, _| o.index() != blocked) {
            hash.word(cycle);
            hash.word(d.input.index() as u64);
            hash.word(d.output.index() as u64);
            hash.word(d.packet.id().serial());
        }
    }
    sw.check_invariants();
    hash.word(sw.packets_resident() as u64);
    hash.word(sw.arbiter().priority_port().index() as u64);
    hash.word(sw.hol_blocked_total());
    hash.0
}

/// Recorded at the parent of the inline-storage change (every register
/// column and scratch array a `Vec`), by running this file there.
const EXPECTED: [(usize, BufferKind, ArbiterPolicy, u64); 12] = [
    (4, Fifo, Smart, 0xc389_b0a6_89e0_bec5),
    (4, Samq, Smart, 0x03e5_49db_69f4_9567),
    (4, Safc, Smart, 0xf6b3_adb9_ac76_7581),
    (4, Damq, Smart, 0x0a97_633e_a55b_a2a5),
    (4, Dafc, Smart, 0xf59e_011b_a54f_084b),
    (4, Damq, Dumb, 0xc2bc_b07a_9498_3fe8),
    (8, Fifo, Smart, 0x0230_fecd_bb4f_6d18),
    (8, Samq, Smart, 0x43a2_4f92_47f8_3fe1),
    (8, Safc, Smart, 0xc3d9_85bf_d153_4077),
    (8, Damq, Smart, 0x8acc_47d2_774f_d4e3),
    (8, Dafc, Smart, 0xfe0a_fc99_6fad_694c),
    (8, Damq, Dumb, 0x63d1_823d_fe8f_f4a2),
];

#[test]
fn radix_4_and_radix_8_departures_match_the_committed_fingerprints() {
    for (ports, kind, policy, expected) in EXPECTED {
        let got = fingerprint(ports, kind, policy);
        assert_eq!(
            got, expected,
            "radix {ports} {kind}/{policy}: got {got:#018x}, committed {expected:#018x}"
        );
    }
}
