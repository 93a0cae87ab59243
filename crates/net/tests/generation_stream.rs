//! The traffic a run generates does not depend on the buffer design.
//!
//! `NetworkSim::generate` is the simulator's only consumer of its RNG:
//! each cycle it draws every source's arrival, then the new packet's
//! destination and length, from one stream seeded by the configuration,
//! and no buffer, arbiter or flow-control decision draws from it. So one
//! seed hands FIFO, SAMQ, SAFC, DAMQ and DAFC the same packets, however
//! differently their fabrics then treat them — the fact that lets a
//! design comparison be paired by seeding alone, and that the source
//! queues' encoding must not disturb. Each case runs all five designs at
//! one seed and compares a digest of `(cycle, serial, source, dest)` over
//! the `Generated` events.

use damq_core::BufferKind;
use damq_net::{NetworkConfig, NetworkSim, PacketLengths, TrafficPattern};
use damq_switch::FlowControl;
use damq_telemetry::{Event, EventKind, TelemetrySink};

/// FNV-1a over `(cycle, serial, source, dest)` of every `Generated`
/// event, in emission order; every other event is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Generated {
    packets: u64,
    fnv: u64,
}

impl TelemetrySink<Event> for Generated {
    fn record(&mut self, event: Event) {
        let EventKind::Generated {
            packet,
            source,
            dest,
        } = event.kind
        else {
            return;
        };
        self.packets += 1;
        for word in [event.cycle, packet, u64::from(source), u64::from(dest)] {
            for byte in word.to_le_bytes() {
                self.fnv = (self.fnv ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}

/// Runs `config` under every design and returns the one digest they
/// share, failing if any design generated differently.
fn shared_digest(config: NetworkConfig, cycles: u64) -> Generated {
    let mut digests = BufferKind::EXTENDED.map(|kind| {
        let mut sim = NetworkSim::with_sink(
            config.buffer_kind(kind),
            Generated {
                packets: 0,
                fnv: 0xCBF2_9CE4_8422_2325,
            },
        )
        .unwrap();
        sim.run(cycles);
        (kind, *sim.sink(), sim.metrics().delivered())
    });
    let (_, first, delivered) = digests[0];
    assert!(first.packets > 0, "nothing was generated");
    for (kind, digest, _) in &digests {
        assert_eq!(*digest, first, "{kind:?} generated differently from FIFO");
    }
    // The fabrics did diverge, so the agreement is not vacuous.
    digests.sort_by_key(|&(_, _, delivered)| delivered);
    assert_ne!(
        digests[0].2, digests[4].2,
        "all five designs delivered {delivered}"
    );
    first
}

fn omega64(flow: FlowControl, load: f64, seed: u64) -> NetworkConfig {
    NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(flow)
        .offered_load(load)
        .seed(seed)
}

#[test]
fn every_design_generates_the_same_packets_when_discarding() {
    shared_digest(omega64(FlowControl::Discarding, 0.9, 0x6E_0001), 2_000);
}

/// Past saturation the designs' source backlogs differ by thousands of
/// packets, and with them everything the source queues hold.
#[test]
fn every_design_generates_the_same_packets_when_blocking() {
    let config =
        omega64(FlowControl::Blocking, 0.5, 0x6E_0002).traffic(TrafficPattern::paper_hot_spot());
    shared_digest(config, 2_000);
}

/// Each packet's length is drawn between its destination and the next
/// packet's arrival, from the same stream: a length draw that diverged
/// would shift every later destination, so this digest checks the
/// lengths as well. 1–32-byte packets take up to four slots, so every
/// static partition (a quarter of the buffer) holds four.
#[test]
fn every_design_generates_the_same_variable_length_packets() {
    let lengths = PacketLengths::Uniform { min: 1, max: 32 };
    let discarding = omega64(FlowControl::Discarding, 0.8, 0x6E_0003)
        .slots_per_buffer(16)
        .packet_lengths(lengths);
    let blocking = discarding
        .flow_control(FlowControl::Blocking)
        .offered_load(1.0);
    let fixed = blocking.packet_lengths(PacketLengths::Fixed(8));
    assert_ne!(shared_digest(blocking, 1_500), shared_digest(fixed, 1_500));
    shared_digest(discarding, 1_500);
}
