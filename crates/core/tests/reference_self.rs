//! Self-tests of the frozen reference implementations in `tests/reference/`
//! (the linked-node `SlotPool` and the five `Aos*` buffers), so that the
//! oracles `soa_equivalence` and `dispatch_equivalence` diff against are
//! themselves pinned. This is the one suite that runs them.

use damq_core::{BufferConfig, BufferKind, NodeId, OutputPort, Packet, SwitchBuffer};

mod reference;
use reference::{
    AosDafcBuffer, AosDamqBuffer, AosFifoBuffer, AosSafcBuffer, AosSamqBuffer, SlotPool,
};

mod slot_pool {
    use super::*;

    fn pkt(src: usize) -> Packet {
        Packet::builder(NodeId::new(src), NodeId::new(0)).build()
    }

    #[test]
    fn new_pool_is_all_free() {
        let pool = SlotPool::new(12, 5);
        assert_eq!(pool.capacity(), 12);
        assert_eq!(pool.free_count(), 12);
        assert_eq!(pool.used_count(), 0);
        assert_eq!(pool.list_count(), 5);
        pool.check_invariants();
    }

    #[test]
    fn enqueue_dequeue_single_slot_round_trip() {
        let mut pool = SlotPool::new(4, 2);
        pool.enqueue(0, pkt(7), 1).unwrap();
        assert_eq!(pool.free_count(), 3);
        assert_eq!(pool.queue_packets(0), 1);
        assert_eq!(pool.front(0).unwrap().source(), NodeId::new(7));
        let p = pool.dequeue(0).unwrap();
        assert_eq!(p.source(), NodeId::new(7));
        assert_eq!(pool.free_count(), 4);
        pool.check_invariants();
    }

    #[test]
    fn multi_slot_packets_link_and_free_correctly() {
        let mut pool = SlotPool::new(8, 2);
        pool.enqueue(0, pkt(1), 4).unwrap();
        pool.enqueue(1, pkt(2), 3).unwrap();
        assert_eq!(pool.free_count(), 1);
        assert_eq!(pool.queue_slots(0), 4);
        assert_eq!(pool.queue_slots(1), 3);
        pool.check_invariants();
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(1));
        assert_eq!(pool.free_count(), 5);
        pool.check_invariants();
        assert_eq!(pool.dequeue(1).unwrap().source(), NodeId::new(2));
        assert_eq!(pool.free_count(), 8);
        pool.check_invariants();
    }

    #[test]
    fn enqueue_fails_without_enough_free_slots_and_is_atomic() {
        let mut pool = SlotPool::new(4, 1);
        pool.enqueue(0, pkt(1), 3).unwrap();
        let p = pkt(2);
        let back = pool.enqueue(0, p.clone(), 2).unwrap_err();
        assert_eq!(back, p);
        assert_eq!(pool.free_count(), 1);
        pool.check_invariants();
    }

    #[test]
    fn queues_share_the_free_pool_dynamically() {
        // The defining DAMQ property: one queue may consume all slots.
        let mut pool = SlotPool::new(4, 4);
        for i in 0..4 {
            pool.enqueue(2, pkt(i), 1).unwrap();
        }
        assert_eq!(pool.queue_packets(2), 4);
        assert_eq!(pool.free_count(), 0);
        assert!(pool.enqueue(0, pkt(9), 1).is_err());
        pool.check_invariants();
    }

    #[test]
    fn freed_slots_are_reused_in_fifo_order() {
        let mut pool = SlotPool::new(2, 1);
        pool.enqueue(0, pkt(0), 1).unwrap();
        pool.enqueue(0, pkt(1), 1).unwrap();
        pool.dequeue(0).unwrap();
        pool.enqueue(0, pkt(2), 1).unwrap();
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(1));
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(2));
        pool.check_invariants();
    }

    #[test]
    fn per_queue_fifo_order_with_interleaving() {
        let mut pool = SlotPool::new(6, 2);
        pool.enqueue(0, pkt(0), 1).unwrap();
        pool.enqueue(1, pkt(1), 2).unwrap();
        pool.enqueue(0, pkt(2), 1).unwrap();
        pool.enqueue(1, pkt(3), 1).unwrap();
        assert_eq!(pool.dequeue(1).unwrap().source(), NodeId::new(1));
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(0));
        assert_eq!(pool.dequeue(1).unwrap().source(), NodeId::new(3));
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(2));
        assert_eq!(pool.dequeue(0), None);
        pool.check_invariants();
    }

    #[test]
    fn dequeue_empty_queue_is_none() {
        let mut pool = SlotPool::new(2, 2);
        assert_eq!(pool.dequeue(0), None);
        assert_eq!(pool.dequeue(1), None);
    }

    #[test]
    #[should_panic(expected = "queue index out of range")]
    fn enqueue_bad_list_panics() {
        let mut pool = SlotPool::new(2, 1);
        let _ = pool.enqueue(1, pkt(0), 1);
    }

    #[test]
    fn killing_a_free_slot_shrinks_capacity_immediately() {
        let mut pool = SlotPool::new(4, 2);
        assert!(pool.kill_slot());
        assert_eq!(pool.free_count(), 3);
        assert_eq!(pool.dead_count(), 1);
        assert_eq!(pool.effective_capacity(), 3);
        assert_eq!(pool.used_count(), 0);
        pool.check_invariants();
        // The remaining slots still work.
        for i in 0..3 {
            pool.enqueue(0, pkt(i), 1).unwrap();
        }
        assert!(pool.enqueue(0, pkt(9), 1).is_err());
        pool.check_invariants();
    }

    #[test]
    fn kill_on_a_full_pool_defers_until_a_dequeue() {
        let mut pool = SlotPool::new(2, 1);
        pool.enqueue(0, pkt(0), 1).unwrap();
        pool.enqueue(0, pkt(1), 1).unwrap();
        assert!(pool.kill_slot());
        // The resident packets are untouched; capacity already reports
        // the doomed slot.
        assert_eq!(pool.queue_packets(0), 2);
        assert_eq!(pool.dead_count(), 1);
        assert_eq!(pool.effective_capacity(), 1);
        pool.check_invariants();
        // The freed slot dies instead of rejoining the free list.
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(0));
        assert_eq!(pool.free_count(), 0);
        pool.check_invariants();
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(1));
        assert_eq!(pool.free_count(), 1);
        pool.check_invariants();
    }

    #[test]
    fn kills_beyond_capacity_are_refused_without_panicking() {
        let mut pool = SlotPool::new(3, 1);
        assert!(pool.kill_slot());
        assert!(pool.kill_slot());
        assert!(pool.kill_slot());
        assert!(!pool.kill_slot(), "no fourth slot to kill");
        assert_eq!(pool.dead_count(), 3);
        assert_eq!(pool.effective_capacity(), 0);
        // A fully-faulted pool rejects every enqueue but stays sound.
        assert!(pool.enqueue(0, pkt(0), 1).is_err());
        assert_eq!(pool.dequeue(0), None);
        pool.check_invariants();
    }

    #[test]
    fn multi_slot_dequeue_feeds_deferred_kills() {
        let mut pool = SlotPool::new(3, 1);
        pool.enqueue(0, pkt(0), 3).unwrap();
        assert!(pool.kill_slot());
        assert!(pool.kill_slot());
        assert_eq!(pool.dead_count(), 2);
        pool.check_invariants();
        assert!(pool.dequeue(0).is_some());
        // Two of the three freed slots died; one survived.
        assert_eq!(pool.free_count(), 1);
        assert_eq!(pool.dead_count(), 2);
        assert_eq!(pool.effective_capacity(), 1);
        pool.check_invariants();
    }
}

mod aos {
    use super::*;

    fn pkt(src: usize) -> Packet {
        Packet::builder(NodeId::new(src), NodeId::new(1)).build()
    }

    #[test]
    fn aos_designs_report_the_canonical_kinds() {
        let cfg = BufferConfig::new(4, 8);
        assert_eq!(AosFifoBuffer::new(cfg).unwrap().kind(), BufferKind::Fifo);
        assert_eq!(AosSamqBuffer::new(cfg).unwrap().kind(), BufferKind::Samq);
        assert_eq!(AosSafcBuffer::new(cfg).unwrap().kind(), BufferKind::Safc);
        assert_eq!(AosDamqBuffer::new(cfg).unwrap().kind(), BufferKind::Damq);
        assert_eq!(AosDafcBuffer::new(cfg).unwrap().kind(), BufferKind::Dafc);
    }

    #[test]
    fn aos_damq_round_trip_and_audit() {
        let mut b = AosDamqBuffer::new(BufferConfig::new(4, 4)).unwrap();
        b.try_enqueue(OutputPort::new(2), pkt(0)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(1)).unwrap();
        assert_eq!(b.packet_count(), 2);
        assert_eq!(
            b.dequeue(OutputPort::new(1)).unwrap().source(),
            NodeId::new(1)
        );
        b.check_invariants();
    }

    #[test]
    fn aos_fifo_head_of_line_semantics_survive() {
        let mut b = AosFifoBuffer::new(BufferConfig::new(4, 4)).unwrap();
        b.try_enqueue(OutputPort::new(3), pkt(0)).unwrap();
        b.try_enqueue(OutputPort::new(1), pkt(1)).unwrap();
        assert_eq!(b.queue_len(OutputPort::new(1)), 0);
        assert_eq!(b.note_hol_blocked(), 1);
    }
}
