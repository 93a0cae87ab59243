//! Randomized property tests over arbitrary operation sequences on all
//! five buffer designs, with a full structural audit after every op.
//!
//! Formerly written against `proptest`; now driven by the workspace's own
//! deterministic generator (the registry is unreachable offline), which
//! keeps the same invariants under the same kind of random exploration —
//! every case is reproducible from the printed seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use damq_core::{
    BufferConfig, BufferKind, NodeId, OutputPort, Packet, PacketId, SwitchBuffer, SLOT_BYTES,
};

const CASES: u64 = 64;

#[derive(Debug, Clone)]
enum Op {
    Enqueue { output: usize, length: usize },
    Dequeue { output: usize },
}

/// Weighted op mix matching the old proptest strategy: 3 enqueues to 2
/// dequeues, payloads of 1–32 bytes.
fn random_ops(rng: &mut StdRng, fanout: usize, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| {
            if rng.random_range(0..5usize) < 3 {
                Op::Enqueue {
                    output: rng.random_range(0..fanout),
                    length: rng.random_range(1..=32usize),
                }
            } else {
                Op::Dequeue {
                    output: rng.random_range(0..fanout),
                }
            }
        })
        .collect()
}

fn packet(serial: u64, length: usize) -> Packet {
    Packet::builder(NodeId::new(0), NodeId::new(1))
        .id(PacketId::new(serial))
        .length_bytes(length)
        .build()
}

/// Invariants hold and bookkeeping balances under arbitrary op mixes, for
/// every design.
#[test]
fn random_ops_preserve_invariants() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.random_range(1..200usize);
        let ops = random_ops(&mut rng, 4, count);
        let capacity = rng.random_range(1..=16usize);
        for kind in BufferKind::EXTENDED {
            let capacity = if kind.is_statically_allocated() {
                capacity.div_ceil(4) * 4 // round up to divisible
            } else {
                capacity
            };
            let mut buf = BufferConfig::new(4, capacity).build_any(kind).unwrap();
            let mut serial = 0u64;
            let (mut accepted, mut forwarded) = (0usize, 0usize);
            for op in &ops {
                match *op {
                    Op::Enqueue { output, length } => {
                        let p = packet(serial, length);
                        serial += 1;
                        accepted +=
                            usize::from(buf.try_enqueue(OutputPort::new(output), p).is_ok());
                    }
                    Op::Dequeue { output } => {
                        forwarded += usize::from(buf.dequeue(OutputPort::new(output)).is_some());
                    }
                }
                // The full structural audit (not just the panic bridge), so
                // the violated invariant is named in the failure message.
                if let Err(e) = buf.audit() {
                    panic!("{kind} audit after op, seed {seed}: {e}");
                }
                assert!(
                    buf.used_slots() <= buf.capacity_slots(),
                    "{kind} seed {seed}"
                );
            }
            assert_eq!(
                accepted - forwarded,
                buf.packet_count(),
                "{kind} accounting, seed {seed}"
            );
        }
    }
}

/// `can_accept` tells the truth: enqueue succeeds iff it said yes.
#[test]
fn can_accept_is_accurate() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let count = rng.random_range(1..150usize);
        let ops = random_ops(&mut rng, 4, count);
        let capacity = rng.random_range(1..=12usize);
        for kind in BufferKind::EXTENDED {
            let capacity = if kind.is_statically_allocated() {
                capacity.div_ceil(4) * 4
            } else {
                capacity
            };
            let mut buf = BufferConfig::new(4, capacity).build_any(kind).unwrap();
            let mut serial = 0;
            for op in &ops {
                match *op {
                    Op::Enqueue { output, length } => {
                        let p = packet(serial, length);
                        serial += 1;
                        let slots = p.slots_needed();
                        let promised = buf.can_accept(OutputPort::new(output), slots);
                        let accepted = buf.try_enqueue(OutputPort::new(output), p).is_ok();
                        assert_eq!(promised, accepted, "{kind} lied, seed {seed}");
                    }
                    Op::Dequeue { output } => {
                        let _ = buf.dequeue(OutputPort::new(output));
                    }
                }
            }
        }
    }
}

/// Per-output dequeue order matches enqueue order (FIFO within queue) for
/// the multi-queue designs; global FIFO order for the FIFO design.
#[test]
fn fifo_order_per_queue() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let count = rng.random_range(1..150usize);
        let ops = random_ops(&mut rng, 3, count);
        for kind in BufferKind::EXTENDED {
            let mut buf = BufferConfig::new(3, 12).build_any(kind).unwrap();
            let mut serial = 0u64;
            let mut expected: Vec<std::collections::VecDeque<u64>> = vec![Default::default(); 3];
            let mut global: std::collections::VecDeque<(usize, u64)> = Default::default();
            for op in &ops {
                match *op {
                    Op::Enqueue { output, length } => {
                        let p = packet(serial, length);
                        if buf.try_enqueue(OutputPort::new(output), p).is_ok() {
                            expected[output].push_back(serial);
                            global.push_back((output, serial));
                        }
                        serial += 1;
                    }
                    Op::Dequeue { output } => {
                        if let Some(p) = buf.dequeue(OutputPort::new(output)) {
                            match kind {
                                BufferKind::Fifo => {
                                    let (o, s) = global.pop_front().unwrap();
                                    assert_eq!(o, output, "seed {seed}");
                                    assert_eq!(p.id().serial(), s, "seed {seed}");
                                }
                                _ => {
                                    let s = expected[output].pop_front().unwrap();
                                    assert_eq!(p.id().serial(), s, "{kind} seed {seed}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The DAMQ acceptance rule is exactly "enough free slots in the shared
/// pool", never per-queue.
#[test]
fn damq_shares_all_storage() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3_000 + seed);
        let fills: Vec<(usize, usize)> = (0..rng.random_range(1..40usize))
            .map(|_| (rng.random_range(0..4usize), rng.random_range(1..=32usize)))
            .collect();
        let mut buf = BufferConfig::new(4, 12)
            .build_any(BufferKind::Damq)
            .unwrap();
        for (serial, (output, length)) in fills.into_iter().enumerate() {
            let p = packet(serial as u64, length);
            let need = p.slots_needed();
            let fits = need <= buf.free_slots();
            let accepted = buf.try_enqueue(OutputPort::new(output), p).is_ok();
            assert_eq!(fits, accepted, "seed {seed}");
        }
    }
}

/// A multi-slot packet is stored once and leaves once, for every design:
/// each accept adds one resident packet and its slots, each dequeue
/// removes exactly one packet and exactly its slots.
#[test]
fn multislot_packets_leave_once() {
    for kind in BufferKind::EXTENDED {
        let mut buf = BufferConfig::new(4, 16).build_any(kind).unwrap();
        // Packets spanning 1, 2 and 3 slots, one per queue so the static
        // partitions (4 slots each) also fit, and so FIFO's global dequeue
        // order matches.
        let slot = SLOT_BYTES;
        let lengths = [1, slot + 1, 2 * slot + 1, 1];
        for (queue, &len) in lengths.iter().enumerate() {
            buf.try_enqueue(OutputPort::new(queue), packet(queue as u64, len))
                .unwrap_or_else(|_| panic!("{kind} must accept within capacity"));
        }
        assert_eq!(buf.packet_count(), lengths.len());
        assert_eq!(buf.used_slots(), 1 + 2 + 3 + 1, "{kind} slot accounting");
        for (queue, _) in lengths.iter().enumerate() {
            let (resident, used) = (buf.packet_count(), buf.used_slots());
            let p = buf
                .dequeue(OutputPort::new(queue))
                .unwrap_or_else(|| panic!("{kind} queue {queue} holds a packet"));
            assert_eq!(p.id().serial(), queue as u64, "{kind} dequeue order");
            assert_eq!(
                buf.packet_count(),
                resident - 1,
                "{kind} dequeued a multi-slot packet more or less than once"
            );
            assert_eq!(
                buf.used_slots(),
                used - p.slots_needed(),
                "{kind} freed other than the packet's slots"
            );
        }
        assert_eq!(buf.used_slots(), 0, "{kind} released all slots");
    }
}

/// SAMQ/SAFC never let one queue exceed its static partition.
#[test]
fn static_designs_respect_partitions() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4_000 + seed);
        let count = rng.random_range(1..150usize);
        let ops = random_ops(&mut rng, 4, count);
        for kind in [BufferKind::Samq, BufferKind::Safc] {
            let mut buf = BufferConfig::new(4, 8).build_any(kind).unwrap();
            let mut serial = 0;
            let mut per_queue_slots = [0usize; 4];
            for op in &ops {
                match *op {
                    Op::Enqueue { output, length } => {
                        let p = packet(serial, length);
                        serial += 1;
                        let need = p.slots_needed();
                        if buf.try_enqueue(OutputPort::new(output), p).is_ok() {
                            per_queue_slots[output] += need;
                        }
                    }
                    Op::Dequeue { output } => {
                        if let Some(p) = buf.dequeue(OutputPort::new(output)) {
                            per_queue_slots[output] -= p.slots_needed();
                        }
                    }
                }
                for (q, &used) in per_queue_slots.iter().enumerate() {
                    assert!(
                        used <= 2,
                        "{kind} queue {q} used {used} of 2 slots, seed {seed}"
                    );
                }
            }
        }
    }
}
