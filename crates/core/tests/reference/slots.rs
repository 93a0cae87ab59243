//! Slotted storage managed as linked lists — the DAMQ mechanism.
//!
//! The paper's buffer (§3.1) is an array of fixed-size *slots*, each with an
//! associated **pointer register** naming the next slot of its list. The
//! pointer registers live in a separate array so they can be accessed in
//! parallel with the data. Lists are delimited by **head and tail
//! registers**; one list holds the free slots and one list exists per
//! destination queue. A packet spans one or more slots (its first slot also
//! carries length and new-header registers).
//!
//! [`SlotPool`] models exactly this: a `next` array (the pointer registers),
//! per-list head/tail registers, and per-slot content with the payload
//! inside the slot it heads. It was the storage engine of `DamqBuffer`
//! before `damq_core::SoaSlots` split the registers from the payloads; it
//! is kept, unchanged in behaviour, as the executable specification
//! `SoaSlots` is diffed against.

use std::fmt;

use damq_core::{AuditError, Packet};

/// Index of a slot within a [`SlotPool`] (the value a pointer register
/// holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(u32);

impl SlotId {
    /// Creates a slot id from a raw index.
    pub const fn new(index: u32) -> Self {
        SlotId(index)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// What a slot currently holds.
#[derive(Debug, Clone)]
enum SlotContent {
    /// On the free list.
    Free,
    /// First slot of a packet; carries the packet and its total slot count
    /// (the "length register" of the paper).
    Head { packet: Packet, slots: usize },
    /// A continuation slot of a multi-slot packet.
    Continuation,
    /// Permanently out of service (fault injection): on no list, never
    /// allocated again.
    Dead,
}

/// Head/tail registers and counters for one linked list.
#[derive(Debug, Clone, Copy, Default)]
struct ListRegs {
    head: Option<SlotId>,
    tail: Option<SlotId>,
    slot_count: usize,
    packet_count: usize,
}

/// A pool of fixed-size slots organised into a free list plus `lists`
/// packet queues, all threaded through per-slot pointer registers.
///
#[derive(Debug, Clone)]
pub struct SlotPool {
    next: Vec<Option<SlotId>>,
    content: Vec<SlotContent>,
    free: ListRegs,
    queues: Vec<ListRegs>,
    /// Slots marked [`SlotContent::Dead`] (fault injection).
    dead: usize,
    /// Kills registered while no slot was free; the next slots returned to
    /// the free list die instead of rejoining it.
    pending_kills: usize,
}

impl SlotPool {
    /// Creates a pool of `capacity` slots and `lists` empty packet queues;
    /// every slot starts on the free list.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `u32::MAX` slots.
    pub fn new(capacity: usize, lists: usize) -> Self {
        assert!(capacity > 0, "slot pool needs at least one slot");
        assert!(u32::try_from(capacity).is_ok(), "slot pool too large");
        let mut pool = SlotPool {
            next: vec![None; capacity],
            content: vec![SlotContent::Free; capacity],
            free: ListRegs::default(),
            queues: vec![ListRegs::default(); lists],
            dead: 0,
            pending_kills: 0,
        };
        // Thread all slots onto the free list in address order.
        for i in 0..capacity {
            pool.push_free(SlotId::new(i as u32));
        }
        pool
    }

    /// Total slots in the pool.
    pub fn capacity(&self) -> usize {
        self.next.len()
    }

    /// Number of packet queues.
    pub fn list_count(&self) -> usize {
        self.queues.len()
    }

    /// Slots currently on the free list.
    pub fn free_count(&self) -> usize {
        self.free.slot_count
    }

    /// Slots currently holding packet data.
    pub fn used_count(&self) -> usize {
        self.capacity() - self.free_count() - self.dead
    }

    /// Slots removed from service by [`SlotPool::kill_slot`], including
    /// kills still deferred until a busy slot drains.
    pub fn dead_count(&self) -> usize {
        self.dead + self.pending_kills
    }

    /// Slots the pool can still ever hold: capacity minus registered
    /// kills.
    pub fn effective_capacity(&self) -> usize {
        self.capacity() - self.dead_count()
    }

    /// Permanently removes one slot from service (fault injection).
    ///
    /// A free slot dies immediately: it is popped off the free list and
    /// marked dead, never to be allocated again. If every
    /// slot is busy holding packet data, the kill is *deferred*: the next
    /// slot returned by a dequeue dies instead of rejoining the free list,
    /// so resident packets always drain intact. Returns `false` (and
    /// registers nothing) once every slot is already dead or doomed —
    /// killing never panics and never touches the linked lists of live
    /// queues.
    pub fn kill_slot(&mut self) -> bool {
        if self.dead_count() >= self.capacity() {
            return false;
        }
        match self.pop_free() {
            Some(id) => {
                self.content[id.index()] = SlotContent::Dead;
                self.dead += 1;
            }
            None => self.pending_kills += 1,
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
        self.queues[list].packet_count
    }

    /// Slots consumed by queue `list`.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn queue_slots(&self, list: usize) -> usize {
        self.queues[list].slot_count
    }

    /// The packet at the front of queue `list`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn front(&self, list: usize) -> Option<&Packet> {
        let head = self.queues[list].head?;
        match &self.content[head.index()] {
            SlotContent::Head { packet, .. } => Some(packet),
            // lint: allow — enqueue always links a Head slot first, and
            // dequeue unlinks whole packets; a non-Head queue head is a
            // structural corruption that audit() reports precisely.
            _ => unreachable!("queue head register must point at a packet head slot"),
        }
    }

    /// Appends `packet`, which occupies `slots` slots, to queue `list`.
    ///
    /// Slots are taken from the *front* of the free list, one per stored
    /// 8-byte chunk, and linked to the queue's tail — mirroring the paper's
    /// reception sequence.
    ///
    /// # Errors
    ///
    /// Returns the packet back if fewer than `slots` slots are free. The
    /// pool is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range or `slots` is zero.
    pub fn enqueue(&mut self, list: usize, packet: Packet, slots: usize) -> Result<(), Packet> {
        assert!(slots > 0, "a packet occupies at least one slot");
        assert!(list < self.queues.len(), "queue index out of range");
        if self.free.slot_count < slots {
            return Err(packet);
        }
        // lint: allow — free.slot_count >= slots was checked just above, so
        // the free list is provably non-empty for each of the `slots` pops.
        let first = self.pop_free().expect("free count checked");
        self.content[first.index()] = SlotContent::Head { packet, slots };
        self.append_to_queue(list, first);
        for _ in 1..slots {
            // lint: allow — covered by the same free-count check.
            let s = self.pop_free().expect("free count checked");
            self.content[s.index()] = SlotContent::Continuation;
            self.append_to_queue(list, s);
        }
        self.queues[list].packet_count += 1;
        strict_audit!(self);
        Ok(())
    }

    /// Removes and returns the packet at the front of queue `list`, returning
    /// its slots to the free list.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn dequeue(&mut self, list: usize) -> Option<Packet> {
        let first = self.queues[list].head?;
        let (packet, slots) =
            match std::mem::replace(&mut self.content[first.index()], SlotContent::Free) {
                SlotContent::Head { packet, slots } => (packet, slots),
                // lint: allow — a queue head register always names a Head
                // slot (audited invariant "queue-shape").
                other => unreachable!("queue head was {other:?}, not a packet head"),
            };
        self.unlink_queue_head(list);
        self.push_free(first);
        for _ in 1..slots {
            let s = self.queues[list]
                .head
                // lint: allow — enqueue links all `slots` slots of a packet
                // atomically, so the continuations are provably present.
                .expect("multi-slot packet must have continuation slots queued");
            debug_assert!(matches!(self.content[s.index()], SlotContent::Continuation));
            self.content[s.index()] = SlotContent::Free;
            self.unlink_queue_head(list);
            self.push_free(s);
        }
        self.queues[list].packet_count -= 1;
        strict_audit!(self);
        Some(packet)
    }

    /// Appends slot `id` to the tail of queue `list` (pointer-register
    /// update of §3.2.1).
    fn append_to_queue(&mut self, list: usize, id: SlotId) {
        let regs = &mut self.queues[list];
        self.next[id.index()] = None;
        match regs.tail {
            Some(tail) => self.next[tail.index()] = Some(id),
            None => regs.head = Some(id),
        }
        regs.tail = Some(id);
        regs.slot_count += 1;
    }

    /// Advances a queue's head register past its first slot.
    fn unlink_queue_head(&mut self, list: usize) {
        let regs = &mut self.queues[list];
        // lint: allow — both callers check the head register first.
        let head = regs.head.expect("unlink from empty queue");
        regs.head = self.next[head.index()];
        if regs.head.is_none() {
            regs.tail = None;
        }
        self.next[head.index()] = None;
        regs.slot_count -= 1;
    }

    fn push_free(&mut self, id: SlotId) {
        if self.pending_kills > 0 {
            // A deferred kill claims this slot: it dies instead of
            // rejoining the free list.
            self.pending_kills -= 1;
            self.dead += 1;
            self.next[id.index()] = None;
            self.content[id.index()] = SlotContent::Dead;
            return;
        }
        self.next[id.index()] = None;
        match self.free.tail {
            Some(tail) => self.next[tail.index()] = Some(id),
            None => self.free.head = Some(id),
        }
        self.free.tail = Some(id);
        self.free.slot_count += 1;
    }

    fn pop_free(&mut self) -> Option<SlotId> {
        let head = self.free.head?;
        self.free.head = self.next[head.index()];
        if self.free.head.is_none() {
            self.free.tail = None;
        }
        self.next[head.index()] = None;
        self.free.slot_count -= 1;
        Some(head)
    }

    /// Walks one list, marking visited slots in `seen`, and verifies the
    /// list's registers against its links.
    fn audit_list(&self, regs: &ListRegs, seen: &mut [bool], label: &str) -> AuditResult {
        let mut out = Vec::new();
        let mut cur = regs.head;
        while let Some(id) = cur {
            audit_ensure!(
                !seen[id.index()],
                "list-partition",
                "{label}: slot {id} appears on two lists or in a cycle"
            );
            seen[id.index()] = true;
            out.push(id);
            cur = self.next[id.index()];
        }
        audit_ensure!(
            out.len() == regs.slot_count,
            "register-sync",
            "{label}: slot_count register says {} but the links hold {} slots",
            regs.slot_count,
            out.len()
        );
        audit_ensure!(
            out.last().copied() == regs.tail,
            "register-sync",
            "{label}: tail register disagrees with the last linked slot"
        );
        Ok(out)
    }

    /// Verifies every structural invariant of the pool — the audited form of
    /// the paper's §3.1 register contract:
    ///
    /// * every slot is on exactly one list (free or some queue), i.e. the
    ///   lists exactly partition the storage (`list-partition`),
    /// * no list contains a cycle (`list-partition`; a cycle revisits a
    ///   marked slot),
    /// * head/tail/`slot_count`/`packet_count` registers agree with the
    ///   links they summarise (`register-sync`),
    /// * queue contents are contiguous head+continuation runs consistent
    ///   with the stored packet lengths (`queue-shape`).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`AuditError`].
    pub fn audit(&self) -> Result<(), AuditError> {
        let mut seen = vec![false; self.capacity()];
        let free = self.audit_list(&self.free, &mut seen, "free list")?;
        audit_ensure!(
            self.free.packet_count == 0,
            "register-sync",
            "free list carries a nonzero packet_count register"
        );
        for id in free {
            audit_ensure!(
                matches!(self.content[id.index()], SlotContent::Free),
                "queue-shape",
                "free list holds non-free slot {id}"
            );
        }
        for (qi, regs) in self.queues.iter().enumerate() {
            let slots = self.audit_list(regs, &mut seen, &format!("queue {qi}"))?;
            let mut packets = 0;
            let mut i = 0;
            while i < slots.len() {
                match &self.content[slots[i].index()] {
                    SlotContent::Head { slots: k, .. } => {
                        audit_ensure!(
                            i + k <= slots.len(),
                            "queue-shape",
                            "queue {qi}: packet at {} claims {k} slots but the list ends",
                            slots[i]
                        );
                        for j in 1..*k {
                            audit_ensure!(
                                matches!(
                                    self.content[slots[i + j].index()],
                                    SlotContent::Continuation
                                ),
                                "queue-shape",
                                "queue {qi}: packet at {} missing continuation slot",
                                slots[i]
                            );
                        }
                        packets += 1;
                        i += k;
                    }
                    other => {
                        return Err(AuditError::new(
                            "queue-shape",
                            format!(
                                "queue {qi}: expected packet head at {}, found {other:?}",
                                slots[i]
                            ),
                        ));
                    }
                }
            }
            audit_ensure!(
                packets == regs.packet_count,
                "register-sync",
                "queue {qi}: packet_count register says {} but the list holds {packets}",
                regs.packet_count
            );
        }
        // Fault-aware partition: the lists plus the declared dead slots
        // must exactly cover the storage. A slot off every list is legal
        // only if it is marked Dead, and every Dead slot is off-list.
        let mut dead_found = 0;
        for (i, &s) in seen.iter().enumerate() {
            let is_dead = matches!(self.content[i], SlotContent::Dead);
            if !s {
                audit_ensure!(
                    is_dead,
                    "list-partition",
                    "slot slot{i} is on no list (leaked slot)"
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
            self.dead + self.pending_kills <= self.capacity(),
            "fault-ledger",
            "{} kills registered against {} slots",
            self.dead + self.pending_kills,
            self.capacity()
        );
        Ok(())
    }

    /// Assert-style wrapper over [`SlotPool::audit`] for tests and debug
    /// checks.
    ///
    /// # Panics
    ///
    /// Panics with the audit's description on violation.
    pub fn check_invariants(&self) {
        if let Err(e) = self.audit() {
            // lint: allow — the panicking bridge is this method's contract.
            panic!("slot pool {e}");
        }
    }
}

/// Shorthand for the list-walk helper's return type.
type AuditResult = Result<Vec<SlotId>, AuditError>;
