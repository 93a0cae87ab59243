//! Structure-of-arrays slot storage — the §3.1 register file laid out
//! for the simulator's hot path, and the storage engine of the
//! dynamically-allocated designs.
//!
//! A direct model of the paper's linked-slot buffer keeps per-slot `enum`
//! content: the packet payload lives *inside* the slot it heads, so
//! walking a list drags every payload through the cache and each pointer
//! step is an `Option` branch. [`SoaSlots`] keeps the identical register
//! semantics but splits the state the way the hardware does — a small
//! register file held *inside* the pool, and the payload RAM beside it:
//!
//! ```text
//!  slot      0     1     2     3     4     5          (u16 indices)
//!  next   [  1 ][ NIL ][  4 ][ NIL ][ NIL ][  3 ]     pointer registers  ┐ one 4-byte
//!  state  [ FREE][ HEAD][CONT][CONT ][HEAD ][HEAD]    tag bytes          ┘ record per slot
//!  arena  [  -  ][ pkt ][  - ][  -  ][ pkt ][ pkt]    out-of-line packets (one heap block)
//!
//!  list registers (list 0 = free list, list 1+q = queue q), one 8-byte
//!  record per list, inline:
//!  head  [ 0 ][ 5 ][ 4 ]   tail [ 0 ][ 2 ][ 4 ]
//!  slots [ 1 ][ 4 ][ 1 ]   pkts [ 0 ][ 2 ][ 1 ]
//! ```
//!
//! A slot record is its link and its tag and nothing else. The header —
//! destination, length and so the slot count — stays with the packet in
//! the arena cell of its first slot, as the paper's header sits in the
//! first slot of slot RAM: a dequeue reads that cell anyway and learns
//! from it how many slots to free.
//!
//! `NIL` (`u16::MAX`) plays the role of the null pointer register, so
//! every free-list operation is index arithmetic on `u16` words with a
//! single predictable branch (list empty / not empty). The registers are
//! two [`InlineArray`]s — per-slot records and per-list records — so for
//! every shape the paper uses (up to 8 slots, 4 queues) the whole control
//! state of a buffer is part of the `SoaSlots` value itself: no pointer
//! hop, no allocator chunk per column. Larger pools spill each register
//! array to one heap block and behave identically. Packets sit in the
//! `arena` — `Option<Packet>` by value, populated only at packet-head
//! slots, one exact-size heap block read at the queue heads — so the
//! link-walking loops never touch packet bytes. [`SoaSlots::audit`]
//! checks the named §3.1 invariants (`list-partition`, `register-sync`,
//! `queue-shape`, `fault-ledger`) over this layout. The direct linked-node
//! model survives as test code in `tests/reference/`, and the seeded
//! differential sweep in `tests/soa_equivalence.rs` pins the two against
//! each other across fills, drains, kills and free-list wraparound, on
//! both sides of the inline bounds.

use crate::audit::{audit_ensure, strict_audit, AuditError};
use crate::inline::InlineArray;
use crate::packet::Packet;

/// The null pointer register: no successor / empty list.
const NIL: u16 = u16::MAX;

/// Slot tag values (one byte per slot, kept for audit and debugging).
const FREE: u8 = 0;
/// First slot of a packet; its arena cell holds the packet, whose length
/// says how many slots the packet spans.
const HEAD: u8 = 1;
/// Continuation slot of a multi-slot packet.
const CONT: u8 = 2;
/// Permanently out of service (fault injection): on no list.
const DEAD: u8 = 3;

/// Structure-of-arrays slot pool: the storage engine of
/// [`DamqBuffer`](crate::DamqBuffer) and [`DafcBuffer`](crate::DafcBuffer).
///
/// A free list plus one linked queue per output, threaded through per-slot
/// pointer registers: slots are taken from the front of the free list and
/// returned to its back (FIFO reuse), and a slot killed while busy dies
/// when its packet drains. The registers are contiguous `u16` index arrays
/// with payloads out-of-line.
///
/// # Examples
///
/// ```
/// use damq_core::{NodeId, Packet, SoaSlots};
///
/// let mut pool = SoaSlots::new(4, 2); // 4 slots, 2 queues
/// let p = Packet::builder(NodeId::new(0), NodeId::new(1)).build();
/// pool.enqueue(1, p.clone()).unwrap();
/// assert_eq!(pool.queue_packets(1), 1);
/// assert_eq!(pool.dequeue(1), Some(p));
/// assert_eq!(pool.free_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SoaSlots {
    /// Per-slot registers, indexed by slot number.
    slots: InlineArray<SlotRegs, INLINE_SLOTS>,
    /// Per-list registers; index 0 is the free list, `1 + q` is queue `q`.
    lists: InlineArray<ListRegs, INLINE_LISTS>,
    /// Out-of-line payload arena, populated exactly at `HEAD` slots.
    arena: Box<[Option<Packet>]>,
    /// Slots marked `DEAD` (fault injection).
    dead: u16,
    /// Kills registered while no slot was free; the next slots returned
    /// to the free list die instead of rejoining it.
    pending_kills: u16,
}

/// Slot registers held inline: every buffer size the paper evaluates
/// (Tables 2–6 use 2 to 8 slots per buffer).
const INLINE_SLOTS: usize = 8;
/// List registers held inline: the free list plus the queues of a radix-4
/// switch — the paper's radix and every committed experiment's, and the
/// same bound `damq-switch` uses for its per-port scratch (`INLINE_PORTS`).
const INLINE_LISTS: usize = 4 + 1;

/// The registers of one slot.
#[derive(Debug, Clone, Copy)]
struct SlotRegs {
    /// Pointer register: the slot's successor on its list.
    next: u16,
    /// Tag byte (`FREE`/`HEAD`/`CONT`/`DEAD`).
    state: u8,
}

impl SlotRegs {
    /// A slot that is on no list.
    const EMPTY: SlotRegs = SlotRegs {
        next: NIL,
        state: FREE,
    };
}

/// The registers of one list.
#[derive(Debug, Clone, Copy)]
struct ListRegs {
    /// First slot on the list, or `NIL`.
    head: u16,
    /// Last slot on the list, or `NIL`.
    tail: u16,
    /// Slots linked on the list.
    slot_count: u16,
    /// Packets queued on the list (always 0 for the free list).
    packet_count: u16,
}

/// Both register arrays borrowed as plain slices. The list primitives run
/// on this view so that one pool operation resolves each array's
/// inline/heap arm once, not at every register access.
struct RegFile<'a> {
    slots: &'a mut [SlotRegs],
    lists: &'a mut [ListRegs],
}

impl<'a> RegFile<'a> {
    fn of(slots: &'a mut [SlotRegs], lists: &'a mut [ListRegs]) -> Self {
        RegFile { slots, lists }
    }

    /// Appends slot `s` to the tail of list `l` (pointer-register update
    /// of §3.2.1).
    fn append(&mut self, l: usize, s: u16) {
        self.slots[s as usize].next = NIL;
        let list = &mut self.lists[l];
        if list.tail == NIL {
            list.head = s;
        } else {
            self.slots[list.tail as usize].next = s;
        }
        list.tail = s;
        list.slot_count += 1;
    }

    /// Unlinks and returns the first slot of list `l`. Callers check the
    /// list is non-empty first.
    fn unlink_head(&mut self, l: usize) -> u16 {
        let list = &mut self.lists[l];
        let h = list.head;
        debug_assert!(h != NIL, "unlink from empty list");
        let n = std::mem::replace(&mut self.slots[h as usize].next, NIL);
        list.head = n;
        if n == NIL {
            list.tail = NIL;
        }
        list.slot_count -= 1;
        h
    }
}

impl SoaSlots {
    /// Creates a pool of `capacity` slots and `lists` empty packet
    /// queues; every slot starts on the free list, threaded in address
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or does not fit the `u16` index space
    /// (`NIL` is reserved).
    pub fn new(capacity: usize, lists: usize) -> Self {
        assert!(capacity > 0, "slot pool needs at least one slot");
        assert!(capacity < NIL as usize, "slot pool too large");
        let empty_list = ListRegs {
            head: NIL,
            tail: NIL,
            slot_count: 0,
            packet_count: 0,
        };
        let mut pool = SoaSlots {
            slots: InlineArray::new(SlotRegs::EMPTY, capacity),
            lists: InlineArray::new(empty_list, lists + 1),
            arena: (0..capacity).map(|_| None).collect(),
            dead: 0,
            pending_kills: 0,
        };
        let mut regs = RegFile::of(&mut pool.slots, &mut pool.lists);
        for s in 0..capacity as u16 {
            regs.append(0, s);
        }
        pool
    }

    /// Total slots in the pool.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of packet queues.
    pub fn list_count(&self) -> usize {
        self.lists.len() - 1
    }

    /// Slots currently on the free list.
    pub fn free_count(&self) -> usize {
        self.lists[0].slot_count as usize
    }

    /// Slots currently holding packet data.
    pub fn used_count(&self) -> usize {
        self.capacity() - self.free_count() - self.dead as usize
    }

    /// Slots removed from service by [`SoaSlots::kill_slot`], including
    /// kills still deferred until a busy slot drains.
    pub fn dead_count(&self) -> usize {
        (self.dead + self.pending_kills) as usize
    }

    /// Slots the pool can still ever hold: capacity minus registered
    /// kills.
    pub fn effective_capacity(&self) -> usize {
        self.capacity() - self.dead_count()
    }

    /// Permanently removes one slot from service (fault injection).
    ///
    /// A free slot dies immediately: it is unlinked from the free list and
    /// never allocated again. If every slot is busy the kill is deferred —
    /// the next slot a dequeue frees dies instead of rejoining the free
    /// list, so resident packets always drain intact. `false` means every
    /// slot is already dead or doomed; killing never panics.
    pub fn kill_slot(&mut self) -> bool {
        if self.dead_count() >= self.capacity() {
            return false;
        }
        let mut regs = RegFile::of(&mut self.slots, &mut self.lists);
        if regs.lists[0].slot_count > 0 {
            let s = regs.unlink_head(0);
            regs.slots[s as usize].state = DEAD;
            self.dead += 1;
        } else {
            self.pending_kills += 1;
        }
        strict_audit!(self);
        true
    }

    /// Packets waiting on queue `list`.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn queue_packets(&self, list: usize) -> usize {
        self.lists[1 + list].packet_count as usize
    }

    /// Slots consumed by queue `list`.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn queue_slots(&self, list: usize) -> usize {
        self.lists[1 + list].slot_count as usize
    }

    /// Copies the packet-count register of every queue into `lens`
    /// (`lens.len() == list_count()`), one contiguous register read —
    /// the batched form the switch kernel prefetches each cycle.
    pub fn queue_lens_into(&self, lens: &mut [u16]) {
        assert_eq!(lens.len(), self.list_count(), "one length per queue");
        for (len, regs) in lens.iter_mut().zip(&self.lists[1..]) {
            *len = regs.packet_count;
        }
    }

    /// The packet at the front of queue `list`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn front(&self, list: usize) -> Option<&Packet> {
        let h = self.lists[1 + list].head;
        if h == NIL {
            return None;
        }
        // A queue head register always names a HEAD slot whose arena
        // cell is populated (audited invariant "queue-shape").
        self.arena[h as usize].as_ref()
    }

    /// Appends `packet` to queue `list`, in the
    /// [`slots_needed`](Packet::slots_needed) slots its length asks for.
    ///
    /// Slots are taken from the *front* of the free list and linked to
    /// the queue's tail — the paper's §3.2.1 reception sequence, now one
    /// index-register update per slot.
    ///
    /// # Errors
    ///
    /// Returns the packet back if fewer slots are free than it needs.
    /// The pool is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn enqueue(&mut self, list: usize, packet: Packet) -> Result<(), Packet> {
        assert!(list < self.list_count(), "queue index out of range");
        let mut regs = RegFile::of(&mut self.slots, &mut self.lists);
        let span = match u16::try_from(packet.slots_needed()) {
            Ok(span) if span <= regs.lists[0].slot_count => span,
            _ => return Err(packet),
        };
        let q = 1 + list;
        let first = regs.unlink_head(0);
        regs.slots[first as usize].state = HEAD;
        regs.append(q, first);
        for _ in 1..span {
            let s = regs.unlink_head(0);
            regs.slots[s as usize].state = CONT;
            regs.append(q, s);
        }
        regs.lists[q].packet_count += 1;
        self.arena[first as usize] = Some(packet);
        strict_audit!(self);
        Ok(())
    }

    /// Removes and returns the packet at the front of queue `list`,
    /// returning its slots to the free list (head first, continuations
    /// in link order, as the hardware drains them) — unless a deferred
    /// kill claims a freed slot, in which case it dies instead.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn dequeue(&mut self, list: usize) -> Option<Packet> {
        let q = 1 + list;
        let mut regs = RegFile::of(&mut self.slots, &mut self.lists);
        let first = regs.lists[q].head;
        if first == NIL {
            return None;
        }
        // A queue head register always names a HEAD slot with a populated
        // arena cell (audited "queue-shape").
        #[expect(clippy::expect_used, reason = "a head register names a packet")]
        let packet = self.arena[first as usize]
            .take()
            .expect("queue head register must point at a packet head slot");
        for i in 0..packet.slots_needed() {
            let s = regs.unlink_head(q);
            debug_assert!(i == 0 || regs.slots[s as usize].state == CONT);
            regs.slots[s as usize] = SlotRegs::EMPTY;
            if self.pending_kills > 0 {
                self.pending_kills -= 1;
                self.dead += 1;
                regs.slots[s as usize].state = DEAD;
            } else {
                regs.append(0, s);
            }
        }
        regs.lists[q].packet_count -= 1;
        strict_audit!(self);
        Some(packet)
    }

    /// Walks one list, marking visited slots in `seen`, and verifies the
    /// list's registers against its links.
    fn audit_list(&self, l: usize, seen: &mut [bool], label: &str) -> Result<Vec<u16>, AuditError> {
        let mut out = Vec::new();
        let mut cur = self.lists[l].head;
        while cur != NIL {
            audit_ensure!(
                !seen[cur as usize],
                "list-partition",
                "{label}: slot slot{cur} appears on two lists or in a cycle"
            );
            seen[cur as usize] = true;
            out.push(cur);
            cur = self.slots[cur as usize].next;
        }
        audit_ensure!(
            out.len() == self.lists[l].slot_count as usize,
            "register-sync",
            "{label}: slot_count register says {} but the links hold {} slots",
            self.lists[l].slot_count,
            out.len()
        );
        let tail = if out.is_empty() {
            NIL
        } else {
            out[out.len() - 1]
        };
        audit_ensure!(
            tail == self.lists[l].tail,
            "register-sync",
            "{label}: tail register disagrees with the last linked slot"
        );
        Ok(out)
    }

    /// Verifies every structural invariant of the pool — the audited form
    /// of the paper's §3.1 register contract:
    ///
    /// * the lists exactly partition the storage and contain no cycle
    ///   (`list-partition`),
    /// * head/tail/`slot_count`/`packet_count` registers agree with the
    ///   links they summarise (`register-sync`),
    /// * queue contents are contiguous head+continuation runs, each as
    ///   long as its head's packet needs, with arena packets exactly at
    ///   head slots (`queue-shape`),
    /// * dead slots are off-list and counted by the fault registers
    ///   (`fault-ledger`).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`AuditError`].
    pub fn audit(&self) -> Result<(), AuditError> {
        let mut seen = vec![false; self.capacity()];
        let free = self.audit_list(0, &mut seen, "free list")?;
        audit_ensure!(
            self.lists[0].packet_count == 0,
            "register-sync",
            "free list carries a nonzero packet_count register"
        );
        for s in free {
            audit_ensure!(
                self.slots[s as usize].state == FREE && self.arena[s as usize].is_none(),
                "queue-shape",
                "free list holds non-free slot slot{s}"
            );
        }
        for qi in 0..self.list_count() {
            let slots = self.audit_list(1 + qi, &mut seen, &format!("queue {qi}"))?;
            let mut packets = 0;
            let mut i = 0;
            while i < slots.len() {
                let s = slots[i] as usize;
                let head = self.arena[s]
                    .as_ref()
                    .filter(|_| self.slots[s].state == HEAD);
                audit_ensure!(
                    head.is_some(),
                    "queue-shape",
                    "queue {qi}: expected packet head at slot{}, found tag {}",
                    slots[i],
                    self.slots[s].state
                );
                let k = head.map_or(0, Packet::slots_needed);
                audit_ensure!(
                    i + k <= slots.len(),
                    "queue-shape",
                    "queue {qi}: packet at slot{} needs {k} slots but the list ends",
                    slots[i]
                );
                for j in 1..k {
                    let c = slots[i + j] as usize;
                    audit_ensure!(
                        self.slots[c].state == CONT && self.arena[c].is_none(),
                        "queue-shape",
                        "queue {qi}: packet at slot{} missing continuation slot",
                        slots[i]
                    );
                }
                packets += 1;
                i += k;
            }
            audit_ensure!(
                packets == self.lists[1 + qi].packet_count,
                "register-sync",
                "queue {qi}: packet_count register says {} but the list holds {packets}",
                self.lists[1 + qi].packet_count
            );
        }
        // Fault-aware partition: the lists plus the declared dead slots
        // must exactly cover the storage.
        let mut dead_found: u16 = 0;
        for (i, &s) in seen.iter().enumerate() {
            let is_dead = self.slots[i].state == DEAD;
            if !s {
                audit_ensure!(
                    is_dead,
                    "list-partition",
                    "slot slot{i} is on no list (leaked slot)"
                );
                audit_ensure!(
                    self.arena[i].is_none(),
                    "fault-ledger",
                    "dead slot slot{i} still holds a packet"
                );
                dead_found += 1;
            } else {
                audit_ensure!(
                    !is_dead,
                    "fault-ledger",
                    "dead slot slot{i} is still linked on a list"
                );
            }
        }
        audit_ensure!(
            dead_found == self.dead,
            "fault-ledger",
            "dead register says {} but {dead_found} slots are marked dead",
            self.dead
        );
        audit_ensure!(
            self.dead_count() <= self.capacity(),
            "fault-ledger",
            "{} kills registered against {} slots",
            self.dead_count(),
            self.capacity()
        );
        Ok(())
    }

    /// Assert-style wrapper over [`SoaSlots::audit`] for tests and debug
    /// checks.
    ///
    /// # Panics
    ///
    /// Panics with the audit's description on violation.
    #[expect(clippy::panic, reason = "panicking is this method's contract")]
    pub fn check_invariants(&self) {
        if let Err(e) = self.audit() {
            panic!("soa slot pool {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn pkt(src: usize) -> Packet {
        pkt_spanning(src, 1)
    }

    /// A packet from `src` whose length fills exactly `slots` slots.
    fn pkt_spanning(src: usize, slots: usize) -> Packet {
        Packet::builder(NodeId::new(src), NodeId::new(0))
            .length_bytes(slots * crate::SLOT_BYTES)
            .build()
    }

    #[test]
    fn new_pool_is_all_free() {
        let pool = SoaSlots::new(12, 5);
        assert_eq!(pool.capacity(), 12);
        assert_eq!(pool.free_count(), 12);
        assert_eq!(pool.used_count(), 0);
        assert_eq!(pool.list_count(), 5);
        pool.check_invariants();
    }

    /// The four shapes around the inline bounds — 8 slots, and the free
    /// list plus the 4 queues of a radix-4 switch — keep their registers
    /// where the bounds say and work identically on either side.
    #[test]
    fn registers_spill_only_past_the_inline_bounds() {
        assert_eq!((INLINE_SLOTS, INLINE_LISTS), (8, 5));
        for (capacity, lists) in [(8, 4), (9, 4), (8, 5), (9, 5)] {
            let mut pool = SoaSlots::new(capacity, lists);
            assert_eq!(pool.slots.is_inline(), capacity == 8);
            assert_eq!(pool.lists.is_inline(), lists == 4);
            for i in 0..capacity {
                pool.enqueue(i % lists, pkt(i)).unwrap();
            }
            assert!(pool.enqueue(0, pkt(99)).is_err());
            pool.check_invariants();
            for i in 0..capacity {
                assert_eq!(pool.dequeue(i % lists).unwrap().source(), NodeId::new(i));
            }
            assert_eq!(pool.free_count(), capacity);
            pool.check_invariants();
        }
    }

    /// Budget: 112 bytes, inside two cache lines, and exactly what the
    /// registers take: 8 slot records x 4 B (a link and a tag) and 5 list
    /// records x 8 B, each array behind a 4-byte tag + length header and
    /// rounded to the heap arm's pointer alignment (40 + 48), the arena's
    /// fat pointer (16) and the two fault registers (4, padded). The
    /// header of a packet is read from the packet in the arena, never
    /// copied into a slot record. A register that does not fit this
    /// budget belongs in the records or behind the arena, not beside
    /// them: 1280 of these per 1024-terminal network are walked every
    /// cycle.
    #[test]
    fn layout_soa_slots_fits_two_cache_lines() {
        assert!(
            std::mem::size_of::<SoaSlots>() <= 112,
            "SoaSlots grew to {} bytes",
            std::mem::size_of::<SoaSlots>()
        );
    }

    #[test]
    fn enqueue_dequeue_round_trip() {
        let mut pool = SoaSlots::new(4, 2);
        pool.enqueue(0, pkt(7)).unwrap();
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
        let mut pool = SoaSlots::new(8, 2);
        pool.enqueue(0, pkt_spanning(1, 4)).unwrap();
        pool.enqueue(1, pkt_spanning(2, 3)).unwrap();
        assert_eq!(pool.free_count(), 1);
        assert_eq!(pool.queue_slots(0), 4);
        assert_eq!(pool.queue_slots(1), 3);
        pool.check_invariants();
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(1));
        assert_eq!(pool.free_count(), 5);
        assert_eq!(pool.dequeue(1).unwrap().source(), NodeId::new(2));
        assert_eq!(pool.free_count(), 8);
        pool.check_invariants();
    }

    #[test]
    fn enqueue_fails_without_enough_free_slots_and_is_atomic() {
        let mut pool = SoaSlots::new(4, 1);
        pool.enqueue(0, pkt_spanning(1, 3)).unwrap();
        let p = pkt_spanning(2, 2);
        let back = pool.enqueue(0, p.clone()).unwrap_err();
        assert_eq!(back, p);
        assert_eq!(pool.free_count(), 1);
        pool.check_invariants();
    }

    #[test]
    fn freed_slots_are_reused_in_fifo_order() {
        let mut pool = SoaSlots::new(2, 1);
        pool.enqueue(0, pkt(0)).unwrap();
        pool.enqueue(0, pkt(1)).unwrap();
        pool.dequeue(0).unwrap();
        pool.enqueue(0, pkt(2)).unwrap();
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(1));
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(2));
        pool.check_invariants();
    }

    #[test]
    fn queue_lens_into_mirrors_packet_counts() {
        let mut pool = SoaSlots::new(8, 4);
        pool.enqueue(2, pkt(0)).unwrap();
        pool.enqueue(2, pkt_spanning(1, 2)).unwrap();
        pool.enqueue(0, pkt(2)).unwrap();
        let mut lens = [9u16; 4];
        pool.queue_lens_into(&mut lens);
        assert_eq!(lens, [1, 0, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "queue index out of range")]
    fn enqueue_bad_list_panics() {
        let mut pool = SoaSlots::new(2, 1);
        let _ = pool.enqueue(1, pkt(0));
    }

    #[test]
    fn kill_semantics_match_the_linked_pool_contract() {
        // Free slot dies immediately.
        let mut pool = SoaSlots::new(4, 2);
        assert!(pool.kill_slot());
        assert_eq!(pool.free_count(), 3);
        assert_eq!(pool.effective_capacity(), 3);
        pool.check_invariants();
        // Full pool defers; the freed slot dies instead of rejoining.
        let mut pool = SoaSlots::new(2, 1);
        pool.enqueue(0, pkt(0)).unwrap();
        pool.enqueue(0, pkt(1)).unwrap();
        assert!(pool.kill_slot());
        assert_eq!(pool.effective_capacity(), 1);
        pool.check_invariants();
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(0));
        assert_eq!(pool.free_count(), 0);
        pool.check_invariants();
        // Kills beyond capacity are refused without panicking.
        let mut pool = SoaSlots::new(2, 1);
        assert!(pool.kill_slot() && pool.kill_slot());
        assert!(!pool.kill_slot());
        assert_eq!(pool.effective_capacity(), 0);
        assert!(pool.enqueue(0, pkt(0)).is_err());
        pool.check_invariants();
    }

    #[test]
    fn multi_slot_dequeue_feeds_deferred_kills() {
        let mut pool = SoaSlots::new(3, 1);
        pool.enqueue(0, pkt_spanning(0, 3)).unwrap();
        assert!(pool.kill_slot());
        assert!(pool.kill_slot());
        pool.check_invariants();
        assert!(pool.dequeue(0).is_some());
        assert_eq!(pool.free_count(), 1);
        assert_eq!(pool.dead_count(), 2);
        pool.check_invariants();
    }

    /// A deferred kill claims the first slot a draining packet frees —
    /// its head — and the packet's other slots rejoin the free list in
    /// their link order, which a recycled free list makes differ from
    /// address order.
    #[test]
    fn deferred_kill_claims_the_head_of_a_draining_packet() {
        let mut pool = SoaSlots::new(4, 1);
        pool.enqueue(0, pkt_spanning(0, 3)).unwrap();
        pool.dequeue(0).unwrap();
        // Free list now 3 -> 0 -> 1 -> 2: the packet below links 3, 0, 1.
        pool.enqueue(0, pkt_spanning(1, 3)).unwrap();
        pool.enqueue(0, pkt(2)).unwrap();
        assert_eq!(pool.free_count(), 0);
        assert!(pool.kill_slot(), "deferred: every slot is busy");
        assert_eq!(pool.dequeue(0).unwrap().source(), NodeId::new(1));
        assert_eq!(pool.slots[3].state, DEAD, "the head slot died");
        let free = &pool.lists[0];
        assert_eq!((free.head, free.tail, free.slot_count), (0, 1, 2));
        assert_eq!(pool.slots[0].next, 1, "0 then 1, the packet's link order");
        assert_eq!((pool.dead_count(), pool.free_count()), (1, 2));
        pool.check_invariants();
    }

    #[test]
    fn audit_reports_corruption_by_invariant_name() {
        let mut pool = SoaSlots::new(4, 1);
        pool.enqueue(0, pkt(0)).unwrap();
        // Desynchronise a register: the slot-count says one thing, the
        // links another.
        pool.lists[1].slot_count = 3;
        let err = pool.audit().unwrap_err();
        assert_eq!(err.invariant(), "register-sync");
        // A leaked slot (off every list, not dead) is a partition error.
        let mut pool = SoaSlots::new(4, 1);
        pool.enqueue(0, pkt(0)).unwrap();
        pool.lists[1].head = NIL;
        pool.lists[1].tail = NIL;
        pool.lists[1].slot_count = 0;
        pool.lists[1].packet_count = 0;
        let err = pool.audit().unwrap_err();
        assert_eq!(err.invariant(), "list-partition");
        // A queue head without its arena payload breaks queue-shape.
        let mut pool = SoaSlots::new(4, 1);
        pool.enqueue(0, pkt(0)).unwrap();
        let h = pool.lists[1].head as usize;
        pool.arena[h] = None;
        let err = pool.audit().unwrap_err();
        assert_eq!(err.invariant(), "queue-shape");
        // A dead register that disagrees with the tags is a fault-ledger
        // error.
        let mut pool = SoaSlots::new(4, 1);
        assert!(pool.kill_slot());
        pool.dead = 0;
        pool.pending_kills = 1; // keep dead_count stable for the count check
        let err = pool.audit().unwrap_err();
        assert_eq!(err.invariant(), "fault-ledger");
    }
}
