//! Differential tests pinning the SoA storage rewrite to the frozen AoS
//! reference implementations (test code only, in `tests/reference/`).
//!
//! Two layers of evidence:
//!
//! 1. a seeded 48-shape property sweep driving [`SoaSlots`] and the old
//!    linked-node [`SlotPool`] through identical fill/drain/`kill_slot`/
//!    wraparound op streams, comparing every observable after every op;
//! 2. the same idea one level up — each of the five live (SoA) designs
//!    against its frozen `Aos*` twin under identical op streams, including
//!    fault injection, comparing results, registers and statistics.
//!
//! The network-level counterpart (whole-simulation fingerprints) lives in
//! `crates/net/tests/dispatch_equivalence.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use damq_core::{
    BufferConfig, BufferKind, DafcBuffer, DamqBuffer, FifoBuffer, NodeId, OutputPort, Packet,
    PacketId, RejectReason, SafcBuffer, SamqBuffer, SoaSlots, SwitchBuffer,
};

mod reference;
use reference::{
    AosDafcBuffer, AosDamqBuffer, AosFifoBuffer, AosSafcBuffer, AosSamqBuffer, SlotPool,
};

/// The satellite-task contract: 48 seeded pool shapes.
const POOL_SHAPES: u64 = 48;

fn packet(serial: u64, length: usize) -> Packet {
    Packet::builder(NodeId::new(0), NodeId::new(1))
        .id(PacketId::new(serial))
        .length_bytes(length)
        .build()
}

/// One op against the raw slot-storage layer.
#[derive(Debug, Clone, Copy)]
enum PoolOp {
    Enqueue { list: usize, slots: usize },
    Dequeue { list: usize },
    Kill,
}

/// Compares every observable the two pools expose.
fn assert_pools_agree(soa: &SoaSlots, aos: &SlotPool, lists: usize, ctx: &str) {
    assert_eq!(soa.capacity(), aos.capacity(), "capacity {ctx}");
    assert_eq!(soa.free_count(), aos.free_count(), "free_count {ctx}");
    assert_eq!(soa.used_count(), aos.used_count(), "used_count {ctx}");
    assert_eq!(soa.dead_count(), aos.dead_count(), "dead_count {ctx}");
    assert_eq!(
        soa.effective_capacity(),
        aos.effective_capacity(),
        "effective_capacity {ctx}"
    );
    let mut lens = vec![0u16; lists];
    soa.queue_lens_into(&mut lens);
    for (l, &len) in lens.iter().enumerate() {
        assert_eq!(
            soa.queue_packets(l),
            aos.queue_packets(l),
            "queue_packets({l}) {ctx}"
        );
        assert_eq!(
            len as usize,
            aos.queue_packets(l),
            "queue_lens_into[{l}] {ctx}"
        );
        assert_eq!(
            soa.queue_slots(l),
            aos.queue_slots(l),
            "queue_slots({l}) {ctx}"
        );
        assert_eq!(soa.front(l), aos.front(l), "front({l}) {ctx}");
    }
    soa.check_invariants();
    aos.check_invariants();
}

/// The 48-shape sweep: every seed picks a pool shape (capacity, list count,
/// op mix) and drives both layouts through the same stream of enqueue,
/// dequeue and kill operations — enough enqueue/dequeue churn that the SoA
/// free list recycles indices (wraparound) many times per case. Capacities
/// up to 24 and up to 12 queues put shapes on both sides of the pool's
/// inline register bounds (8 slots, free list + 4 queues), so the spilled
/// register arrays see the same churn as the inline ones.
#[test]
fn soa_slots_match_linked_slot_pool_across_48_shapes() {
    for seed in 0..POOL_SHAPES {
        let mut rng = StdRng::seed_from_u64(0x50A0 + seed);
        let capacity = rng.random_range(1..=24usize);
        let lists = rng.random_range(1..=12usize);
        let ops = rng.random_range(50..400usize);
        let max_span = capacity.clamp(1, 4);

        let mut soa = SoaSlots::new(capacity, lists);
        let mut aos = SlotPool::new(capacity, lists);
        let mut serial = 0u64;

        for op_no in 0..ops {
            let op = match rng.random_range(0..10usize) {
                // Enqueue-heavy mix keeps the pools near full so both the
                // full-rejection path and deferred kills get exercised.
                0..=4 => PoolOp::Enqueue {
                    list: rng.random_range(0..lists),
                    slots: rng.random_range(1..=max_span),
                },
                5..=8 => PoolOp::Dequeue {
                    list: rng.random_range(0..lists),
                },
                _ => PoolOp::Kill,
            };
            let ctx = format!("seed {seed} op {op_no} {op:?}");
            match op {
                PoolOp::Enqueue { list, slots } => {
                    let p = packet(serial, 1);
                    serial += 1;
                    let a = soa.enqueue(list, p.clone(), slots);
                    let b = aos.enqueue(list, p, slots);
                    assert_eq!(a.is_ok(), b.is_ok(), "enqueue outcome {ctx}");
                    if let (Err(pa), Err(pb)) = (a, b) {
                        assert_eq!(pa, pb, "rejected packet {ctx}");
                    }
                }
                PoolOp::Dequeue { list } => {
                    assert_eq!(soa.dequeue(list), aos.dequeue(list), "dequeue {ctx}");
                }
                PoolOp::Kill => {
                    assert_eq!(soa.kill_slot(), aos.kill_slot(), "kill_slot {ctx}");
                }
            }
            assert_pools_agree(&soa, &aos, lists, &ctx);
        }
    }
}

/// Deterministic fill-to-capacity / drain-to-empty cycles: the strongest
/// wraparound stress, because every slot index is recycled every round and
/// the free lists of both layouts must stay in the same FIFO order. The
/// last four shapes sit one on each side of both inline register bounds:
/// (8, 4) is the largest all-inline pool, (9, 4) spills the slot
/// registers, (8, 5) the list registers, (9, 5) both.
#[test]
fn soa_slots_survive_full_fill_drain_wraparound() {
    let shapes = [
        (1usize, 1usize),
        (3, 2),
        (16, 3),
        (8, 8),
        (9, 9),
        (8, 4),
        (9, 4),
        (8, 5),
        (9, 5),
    ];
    for round_shape in shapes {
        let (capacity, lists) = round_shape;
        let mut soa = SoaSlots::new(capacity, lists);
        let mut aos = SlotPool::new(capacity, lists);
        let mut serial = 0u64;
        for round in 0..12 {
            // Fill completely with single-slot packets round-robined over
            // the lists, then drain completely.
            for i in 0..capacity {
                let p = packet(serial, 1);
                serial += 1;
                soa.enqueue(i % lists, p.clone(), 1).unwrap();
                aos.enqueue(i % lists, p, 1).unwrap();
            }
            let overflow = packet(serial, 1);
            serial += 1;
            assert!(soa.enqueue(0, overflow.clone(), 1).is_err());
            assert!(aos.enqueue(0, overflow, 1).is_err());
            for l in 0..lists {
                while let Some(p) = aos.dequeue(l) {
                    assert_eq!(soa.dequeue(l), Some(p), "round {round} list {l}");
                }
                assert_eq!(soa.dequeue(l), None);
            }
            assert_pools_agree(&soa, &aos, lists, &format!("round {round}"));
        }
    }
}

/// Kills eventually consume the whole pool in both layouts, through the
/// same sequence of immediate and dequeue-deferred deaths.
#[test]
fn soa_slots_kill_until_everything_is_dead() {
    let capacity = 6;
    let lists = 2;
    let mut soa = SoaSlots::new(capacity, lists);
    let mut aos = SlotPool::new(capacity, lists);
    // Occupy half the pool so half the kills defer.
    for s in 0..3u64 {
        let p = packet(s, 1);
        soa.enqueue((s % 2) as usize, p.clone(), 1).unwrap();
        aos.enqueue((s % 2) as usize, p, 1).unwrap();
    }
    for k in 0..capacity {
        assert_eq!(soa.kill_slot(), aos.kill_slot(), "kill {k}");
        assert_pools_agree(&soa, &aos, lists, &format!("kill {k}"));
    }
    // Every further kill is refused by both.
    assert!(!soa.kill_slot());
    assert!(!aos.kill_slot());
    // Draining converts the deferred kills identically.
    for l in 0..lists {
        while let Some(p) = aos.dequeue(l) {
            assert_eq!(soa.dequeue(l), Some(p));
        }
        assert_eq!(soa.dequeue(l), None);
    }
    assert_pools_agree(&soa, &aos, lists, "after drain");
    assert_eq!(soa.dead_count(), capacity);
    assert_eq!(soa.effective_capacity(), 0);
}

/// One op against a full buffer design.
#[derive(Debug, Clone, Copy)]
enum BufOp {
    Enqueue { output: usize, length: usize },
    Dequeue { output: usize },
    Kill { hint: usize },
    NoteHol,
}

/// Drives a live (SoA) design and its frozen AoS twin through the same op
/// stream and compares every observable after every op.
fn diff_designs<S: SwitchBuffer, A: SwitchBuffer>(mut soa: S, mut aos: A, seed: u64) {
    assert_eq!(soa.fanout(), aos.fanout());
    let fanout = soa.fanout();
    let mut rng = StdRng::seed_from_u64(seed);
    let ops = rng.random_range(100..300usize);
    let mut serial = 0u64;
    let mut lens = vec![0u16; fanout];
    for op_no in 0..ops {
        let op = match rng.random_range(0..12usize) {
            0..=5 => BufOp::Enqueue {
                output: rng.random_range(0..fanout + 1), // +1 hits NoSuchOutput
                length: rng.random_range(1..=32usize),
            },
            6..=9 => BufOp::Dequeue {
                output: rng.random_range(0..fanout),
            },
            10 => BufOp::Kill {
                hint: rng.random_range(0..fanout + 1),
            },
            _ => BufOp::NoteHol,
        };
        let kind = soa.kind();
        let ctx = format!("{kind} seed {seed} op {op_no} {op:?}");
        match op {
            BufOp::Enqueue { output, length } => {
                let p = packet(serial, length);
                serial += 1;
                let out = OutputPort::new(output);
                let slots = p.slots_needed(soa.slot_bytes());
                assert_eq!(
                    soa.can_accept(out, slots),
                    aos.can_accept(out, slots),
                    "can_accept {ctx}"
                );
                let a = soa.try_enqueue(out, p.clone());
                let b = aos.try_enqueue(out, p);
                match (a, b) {
                    (Ok(()), Ok(())) => {}
                    (Err(ra), Err(rb)) => {
                        assert_eq!(ra.reason, rb.reason, "reject reason {ctx}");
                        assert_eq!(ra.packet, rb.packet, "rejected packet {ctx}");
                    }
                    (a, b) => panic!("outcomes diverged ({a:?} vs {b:?}) {ctx}"),
                }
            }
            BufOp::Dequeue { output } => {
                let out = OutputPort::new(output);
                assert_eq!(soa.front(out), aos.front(out), "front {ctx}");
                assert_eq!(soa.dequeue(out), aos.dequeue(out), "dequeue {ctx}");
            }
            BufOp::Kill { hint } => {
                let h = OutputPort::new(hint);
                assert_eq!(soa.kill_slot(h), aos.kill_slot(h), "kill_slot {ctx}");
            }
            BufOp::NoteHol => {
                assert_eq!(
                    soa.note_hol_blocked(),
                    aos.note_hol_blocked(),
                    "note_hol_blocked {ctx}"
                );
            }
        }
        assert_eq!(soa.used_slots(), aos.used_slots(), "used_slots {ctx}");
        assert_eq!(soa.dead_slots(), aos.dead_slots(), "dead_slots {ctx}");
        assert_eq!(soa.free_slots(), aos.free_slots(), "free_slots {ctx}");
        assert_eq!(soa.packet_count(), aos.packet_count(), "packet_count {ctx}");
        assert_eq!(
            soa.eligible_outputs(),
            aos.eligible_outputs(),
            "eligible_outputs {ctx}"
        );
        soa.queue_lens_into(&mut lens);
        for (o, &len) in lens.iter().enumerate().take(fanout) {
            let out = OutputPort::new(o);
            assert_eq!(
                soa.queue_len(out),
                aos.queue_len(out),
                "queue_len({o}) {ctx}"
            );
            assert_eq!(
                len as usize,
                aos.queue_len(out),
                "queue_lens_into[{o}] {ctx}"
            );
        }
        assert_eq!(soa.stats(), aos.stats(), "stats {ctx}");
        if let Err(e) = soa.audit() {
            panic!("SoA audit failed: {e} {ctx}");
        }
        if let Err(e) = aos.audit() {
            panic!("AoS audit failed: {e} {ctx}");
        }
    }
}

/// All five designs match their frozen AoS references under randomized op
/// streams including fault injection, across many seeds and capacities.
#[test]
fn all_five_designs_match_their_aos_references() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xA05 + seed);
        let dynamic_capacity = rng.random_range(1..=16usize);
        let static_capacity = rng.random_range(1..=4usize) * 4;
        let dyn_cfg = BufferConfig::new(4, dynamic_capacity);
        let static_cfg = BufferConfig::new(4, static_capacity);
        diff_designs(
            FifoBuffer::new(dyn_cfg).unwrap(),
            AosFifoBuffer::new(dyn_cfg).unwrap(),
            seed,
        );
        diff_designs(
            SamqBuffer::new(static_cfg).unwrap(),
            AosSamqBuffer::new(static_cfg).unwrap(),
            seed,
        );
        diff_designs(
            SafcBuffer::new(static_cfg).unwrap(),
            AosSafcBuffer::new(static_cfg).unwrap(),
            seed,
        );
        diff_designs(
            DamqBuffer::new(dyn_cfg).unwrap(),
            AosDamqBuffer::new(dyn_cfg).unwrap(),
            seed,
        );
        diff_designs(
            DafcBuffer::new(dyn_cfg).unwrap(),
            AosDafcBuffer::new(dyn_cfg).unwrap(),
            seed,
        );
    }
}

/// The same differential at the fanouts around the ring store's inline
/// partition bound (four partitions): 4 keeps the partition registers
/// inside the store, 5 and 8 spill them to a heap block. FIFO's single
/// partition is inline at every fanout; the pool designs cross `SoaSlots`'
/// inline queue bound at the same fanouts.
#[test]
fn all_five_designs_match_their_aos_references_across_fanouts() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xFA4 + seed);
        for fanout in [4usize, 5, 8] {
            let dyn_cfg = BufferConfig::new(fanout, rng.random_range(1..=3 * fanout));
            let static_cfg = BufferConfig::new(fanout, rng.random_range(1..=3usize) * fanout);
            diff_designs(
                FifoBuffer::new(dyn_cfg).unwrap(),
                AosFifoBuffer::new(dyn_cfg).unwrap(),
                seed,
            );
            diff_designs(
                SamqBuffer::new(static_cfg).unwrap(),
                AosSamqBuffer::new(static_cfg).unwrap(),
                seed,
            );
            diff_designs(
                SafcBuffer::new(static_cfg).unwrap(),
                AosSafcBuffer::new(static_cfg).unwrap(),
                seed,
            );
            diff_designs(
                DamqBuffer::new(dyn_cfg).unwrap(),
                AosDamqBuffer::new(dyn_cfg).unwrap(),
                seed,
            );
            diff_designs(
                DafcBuffer::new(dyn_cfg).unwrap(),
                AosDafcBuffer::new(dyn_cfg).unwrap(),
                seed,
            );
        }
    }
}

/// At fanout 1 a static design's one partition is the whole buffer, the
/// same shape as FIFO's ring; the full-partition reason still follows the
/// design, as in the twins: `QueueFull` for SAMQ / SAFC, `BufferFull` for
/// FIFO.
#[test]
fn fanout_one_static_designs_report_queue_full_like_their_twins() {
    fn full_reason(mut b: impl SwitchBuffer) -> RejectReason {
        for serial in 0..2 {
            b.try_enqueue(OutputPort::new(0), packet(serial, 8))
                .unwrap();
        }
        b.try_enqueue(OutputPort::new(0), packet(2, 8))
            .unwrap_err()
            .reason
    }
    let cfg = BufferConfig::new(1, 2);
    let fifo = RejectReason::BufferFull;
    let queue = RejectReason::QueueFull;
    assert_eq!(full_reason(FifoBuffer::new(cfg).unwrap()), fifo);
    assert_eq!(full_reason(AosFifoBuffer::new(cfg).unwrap()), fifo);
    assert_eq!(full_reason(SamqBuffer::new(cfg).unwrap()), queue);
    assert_eq!(full_reason(AosSamqBuffer::new(cfg).unwrap()), queue);
    assert_eq!(full_reason(SafcBuffer::new(cfg).unwrap()), queue);
    assert_eq!(full_reason(AosSafcBuffer::new(cfg).unwrap()), queue);
    for seed in 0..8u64 {
        let cfg = BufferConfig::new(1, 1 + seed as usize % 4);
        diff_designs(
            FifoBuffer::new(cfg).unwrap(),
            AosFifoBuffer::new(cfg).unwrap(),
            seed,
        );
        diff_designs(
            SamqBuffer::new(cfg).unwrap(),
            AosSamqBuffer::new(cfg).unwrap(),
            seed,
        );
        diff_designs(
            SafcBuffer::new(cfg).unwrap(),
            AosSafcBuffer::new(cfg).unwrap(),
            seed,
        );
        diff_designs(
            DamqBuffer::new(cfg).unwrap(),
            AosDamqBuffer::new(cfg).unwrap(),
            seed,
        );
        diff_designs(
            DafcBuffer::new(cfg).unwrap(),
            AosDafcBuffer::new(cfg).unwrap(),
            seed,
        );
    }
}

/// The AoS twins advertise the same kinds and read-port fabric as the live
/// designs, so network-level fingerprint runs label themselves identically.
#[test]
fn aos_twins_mirror_design_metadata() {
    let dyn_cfg = BufferConfig::new(4, 8);
    let pairs: [(Box<dyn SwitchBuffer>, Box<dyn SwitchBuffer>); 5] = [
        (
            Box::new(FifoBuffer::new(dyn_cfg).unwrap()),
            Box::new(AosFifoBuffer::new(dyn_cfg).unwrap()),
        ),
        (
            Box::new(SamqBuffer::new(dyn_cfg).unwrap()),
            Box::new(AosSamqBuffer::new(dyn_cfg).unwrap()),
        ),
        (
            Box::new(SafcBuffer::new(dyn_cfg).unwrap()),
            Box::new(AosSafcBuffer::new(dyn_cfg).unwrap()),
        ),
        (
            Box::new(DamqBuffer::new(dyn_cfg).unwrap()),
            Box::new(AosDamqBuffer::new(dyn_cfg).unwrap()),
        ),
        (
            Box::new(DafcBuffer::new(dyn_cfg).unwrap()),
            Box::new(AosDafcBuffer::new(dyn_cfg).unwrap()),
        ),
    ];
    for (soa, aos) in &pairs {
        assert_eq!(soa.kind(), aos.kind());
        assert_eq!(soa.read_ports(), aos.read_ports());
        assert_eq!(soa.capacity_slots(), aos.capacity_slots());
        assert_eq!(soa.fanout(), aos.fanout());
    }
    assert_eq!(BufferKind::EXTENDED.len(), pairs.len());
}
