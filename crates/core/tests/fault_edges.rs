//! Fault-injection edge cases across all five buffer designs: degenerate
//! configurations, fully-faulted buffers, and random kill/op interleavings.
//! The contract under test: every degraded state yields a **typed error or
//! a refusal**, never a panic, and the structural audits stay clean.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use damq_core::{
    BufferConfig, BufferKind, ConfigError, NodeId, OutputPort, Packet, PacketId, RejectReason,
    SwitchBuffer,
};

fn packet(serial: u64, length: usize) -> Packet {
    Packet::builder(NodeId::new(0), NodeId::new(1))
        .id(PacketId::new(serial))
        .length_bytes(length)
        .build()
}

#[test]
fn zero_capacity_is_a_typed_config_error_for_every_design() {
    for kind in BufferKind::EXTENDED {
        assert!(
            matches!(
                BufferConfig::new(4, 0).build_any(kind),
                Err(ConfigError::ZeroCapacity)
            ),
            "{kind}"
        );
        assert!(
            matches!(
                BufferConfig::new(0, 4).build_any(kind),
                Err(ConfigError::ZeroFanout)
            ),
            "{kind}"
        );
    }
}

#[test]
fn oversized_capacity_is_a_typed_config_error_for_every_design() {
    // The 16-bit slot, ring and length registers cap one buffer at
    // `MAX_CAPACITY` slots; past it every constructor used to panic.
    const MAX: usize = BufferConfig::MAX_CAPACITY;
    for kind in BufferKind::EXTENDED {
        for capacity in [MAX + 1, 70_000, usize::MAX] {
            let too_large = ConfigError::CapacityTooLarge { capacity, max: MAX };
            assert_eq!(
                BufferConfig::new(2, capacity).validate(kind),
                Err(too_large.clone()),
                "{kind} validate({capacity})"
            );
            assert_eq!(
                BufferConfig::new(2, capacity).build_any(kind).unwrap_err(),
                too_large,
                "{kind} build_any({capacity})"
            );
        }
        // The bound itself is a working buffer (even, so the static
        // designs can halve it).
        let mut buf = BufferConfig::new(2, MAX).build_any(kind).unwrap();
        assert_eq!(buf.capacity_slots(), MAX, "{kind}");
        buf.try_enqueue(OutputPort::new(1), packet(1, 4)).unwrap();
        assert_eq!(
            buf.dequeue(OutputPort::new(1)).unwrap().id(),
            PacketId::new(1)
        );
    }
}

#[test]
fn single_slot_buffers_round_trip_then_die_gracefully() {
    for kind in BufferKind::EXTENDED {
        // Fanout 1 keeps capacity 1 divisible for the static designs.
        let mut buf = BufferConfig::new(1, 1).build_any(kind).unwrap();
        let out = OutputPort::new(0);
        buf.try_enqueue(out, packet(1, 4)).unwrap();
        assert_eq!(buf.dequeue(out).unwrap().id(), PacketId::new(1));

        // Kill the only slot: the buffer is still alive, just useless.
        assert!(buf.kill_slot(out), "{kind}: free slot must be killable");
        assert_eq!(buf.dead_slots(), 1, "{kind}");
        assert_eq!(buf.free_slots(), 0, "{kind}");
        assert!(!buf.kill_slot(out), "{kind}: nothing left to kill");
        let err = buf.try_enqueue(out, packet(2, 4)).unwrap_err();
        assert_eq!(err.reason, RejectReason::Faulted, "{kind}");
        assert_eq!(buf.dequeue(out), None, "{kind}");
        buf.audit().unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn fully_faulted_buffers_reject_everything_with_faulted() {
    for kind in BufferKind::EXTENDED {
        let mut buf = BufferConfig::new(4, 8).build_any(kind).unwrap();
        for i in 0..8 {
            assert!(
                buf.kill_slot(OutputPort::new(i % 4)),
                "{kind}: kill {i} of 8"
            );
        }
        assert_eq!(buf.dead_slots(), 8, "{kind}");
        assert!(!buf.kill_slot(OutputPort::new(0)), "{kind}: all dead");
        for q in 0..4 {
            let out = OutputPort::new(q);
            assert!(!buf.can_accept(out, 1), "{kind} queue {q}");
            let err = buf.try_enqueue(out, packet(q as u64, 1)).unwrap_err();
            assert_eq!(err.reason, RejectReason::Faulted, "{kind} queue {q}");
            assert_eq!(buf.dequeue(out), None, "{kind} queue {q}");
        }
        assert!(buf.is_empty(), "{kind}");
        assert_eq!(buf.free_slots(), 0, "{kind}");
        buf.audit().unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn kills_on_occupied_buffers_defer_until_dequeue() {
    for kind in BufferKind::EXTENDED {
        let mut buf = BufferConfig::new(4, 4).build_any(kind).unwrap();
        // One packet per output fills every design to the brim (static
        // partitions hold one slot each; shared pools hold four).
        for i in 0..4u64 {
            buf.try_enqueue(OutputPort::new(i as usize), packet(i, 4))
                .unwrap();
        }
        assert_eq!(buf.free_slots(), 0, "{kind}");
        // All slots occupied: the kill must be accepted (deferred), not
        // refused — a fault does not wait for the buffer's convenience.
        assert!(buf.kill_slot(OutputPort::new(2)), "{kind}: deferred kill");
        assert_eq!(buf.dead_slots(), 1, "{kind}");
        // Draining converts the pending kill into a dead slot.
        for _ in 0..8 {
            for q in 0..4 {
                let _ = buf.dequeue(OutputPort::new(q));
            }
            if buf.is_empty() {
                break;
            }
        }
        assert!(buf.is_empty(), "{kind}");
        assert_eq!(buf.dead_slots(), 1, "{kind}");
        assert_eq!(buf.free_slots(), 3, "{kind}");
        buf.audit().unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

/// Random interleavings of enqueue/dequeue/kill across every design:
/// nothing panics, audits stay clean, and the fault ledger never exceeds
/// capacity. Each case reproduces from the printed seed.
#[test]
fn random_kill_sequences_never_panic_and_audit_clean() {
    const CASES: u64 = 48;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xFA17 ^ seed);
        let fanout = rng.random_range(1..=4usize);
        let capacity = rng.random_range(1..=12usize) * fanout;
        let ops = rng.random_range(20..160usize);
        for kind in BufferKind::EXTENDED {
            let mut buf = BufferConfig::new(fanout, capacity).build_any(kind).unwrap();
            let mut serial = 0u64;
            for _ in 0..ops {
                let output = OutputPort::new(rng.random_range(0..fanout));
                match rng.random_range(0..10usize) {
                    0..=4 => {
                        let length = rng.random_range(1..=24usize);
                        let _ = buf.try_enqueue(output, packet(serial, length));
                        serial += 1;
                    }
                    5..=7 => {
                        let _ = buf.dequeue(output);
                    }
                    _ => {
                        let _ = buf.kill_slot(output);
                    }
                }
                assert!(buf.dead_slots() <= capacity, "{kind} seed {seed}");
                buf.audit()
                    .unwrap_or_else(|e| panic!("{kind} seed {seed}: {e}"));
            }
        }
    }
}
