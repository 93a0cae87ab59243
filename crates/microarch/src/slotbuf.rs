//! The byte-level DAMQ buffer of the ComCoBB chip (paper §3.1, §3.2.3).
//!
//! Storage is an array of 8-byte slots (dual-ported static cells addressed
//! by shift registers in the real chip). Each slot has three associated
//! registers:
//!
//! * a **pointer register** — the number of the next slot in its linked
//!   list,
//! * a **length register** — valid in a packet's first slot,
//! * a **new-header register** — valid in a packet's first slot.
//!
//! Lists are delimited by head/tail registers: one *free list* plus one
//! list per output port. Reception writes one byte per cycle through a
//! write cursor; transmission reads one byte per cycle through a read
//! cursor, and the two may chase each other through the same packet
//! (virtual cut-through). A validity counter per slot asserts the
//! hardware's guarantee that a read never overtakes the write.

use std::fmt;

use damq_core::AuditError;
/// Bytes per slot: the chip's choice (see the slot-size trade-off
/// discussion in §3.2.3), owned by `damq-core` and shared with every
/// simulated buffer.
pub use damq_core::SLOT_BYTES;

use crate::error::MicroarchError;

/// Slot count of the ComCoBB buffer ("we currently can support 96 static
/// cells on a single bus line (12 slots)").
pub const DEFAULT_SLOTS: usize = 12;

type SlotIdx = u8;

#[derive(Debug, Clone, Copy, Default)]
struct ListRegs {
    head: Option<SlotIdx>,
    tail: Option<SlotIdx>,
    slots: usize,
    packets: usize,
}

/// Progress of the single in-flight reception.
#[derive(Debug, Clone, Copy)]
struct WriteCursor {
    queue: usize,
    first_slot: SlotIdx,
    slot: SlotIdx,
    offset: usize,
    remaining: Option<usize>,
}

/// Progress of one output's in-flight transmission.
#[derive(Debug, Clone, Copy)]
struct ReadCursor {
    slot: SlotIdx,
    offset: usize,
    remaining: Option<usize>,
}

/// Outcome of writing one received byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Slot the byte landed in.
    pub slot: u8,
    /// Byte offset within the slot.
    pub offset: u8,
    /// A fresh slot was taken from the free list for this byte.
    pub allocated_slot: bool,
    /// This byte completed the packet (the write counter reached zero).
    pub end_of_packet: bool,
}

/// Outcome of reading one byte for transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The byte read.
    pub byte: u8,
    /// A slot was drained and returned to the free list.
    pub freed_slot: Option<u8>,
    /// This byte completed the packet (the read counter reached zero).
    pub end_of_packet: bool,
}

/// The linked-list slot buffer attached to one input port.
#[derive(Debug)]
pub struct LinkedSlotBuffer {
    data: Vec<[u8; SLOT_BYTES]>,
    /// Pointer registers.
    next: Vec<Option<SlotIdx>>,
    /// New-header registers (valid in first slots).
    header_reg: Vec<u8>,
    /// Length registers (valid in first slots).
    length_reg: Vec<u8>,
    /// Bytes written so far into each slot — models the guarantee that the
    /// transmitter never reads a cell before the receiver wrote it.
    bytes_valid: Vec<usize>,
    /// Marks first slots of packets.
    is_head: Vec<bool>,
    free: ListRegs,
    queues: Vec<ListRegs>,
    write: Option<WriteCursor>,
    reads: Vec<Option<ReadCursor>>,
    /// Slots fenced off by fault injection: on no list, never reallocated.
    dead: Vec<bool>,
    dead_count: usize,
}

impl LinkedSlotBuffer {
    /// Creates a buffer of `slots` slots with `outputs` destination queues.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is 0 or above 255, or `outputs` is 0.
    pub fn new(slots: usize, outputs: usize) -> Self {
        assert!(slots > 0 && slots <= 255, "slot count out of range");
        assert!(outputs > 0, "need at least one output queue");
        let mut buf = LinkedSlotBuffer {
            data: vec![[0; SLOT_BYTES]; slots],
            next: vec![None; slots],
            header_reg: vec![0; slots],
            length_reg: vec![0; slots],
            bytes_valid: vec![0; slots],
            is_head: vec![false; slots],
            free: ListRegs::default(),
            queues: vec![ListRegs::default(); outputs],
            write: None,
            reads: vec![None; outputs],
            dead: vec![false; slots],
            dead_count: 0,
        };
        for s in 0..slots {
            buf.push_free(s as SlotIdx);
        }
        buf
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Slots currently on the free list.
    pub fn free_slots(&self) -> usize {
        self.free.slots
    }

    /// Slots fenced off by [`LinkedSlotBuffer::kill_slot`].
    pub fn dead_slots(&self) -> usize {
        self.dead_count
    }

    /// Models a manufacturing or wear-out fault in one static cell: takes a
    /// slot off the free list and fences it so it is never reallocated. The
    /// buffer keeps operating with one slot less.
    ///
    /// Returns `false` (refusing the kill) when the free list is empty — at
    /// byte level an occupied cell cannot be retired without corrupting an
    /// in-flight packet, so the fault is dropped rather than deferred.
    pub fn kill_slot(&mut self) -> bool {
        let Some(slot) = self.pop_free() else {
            return false;
        };
        self.dead[slot as usize] = true;
        self.dead_count += 1;
        true
    }

    /// Packets queued (complete or arriving) for `output`.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range.
    pub fn queue_packets(&self, output: usize) -> usize {
        self.queues[output].packets
    }

    /// Whether a transmission is in progress for `output`.
    pub fn transmitting(&self, output: usize) -> bool {
        self.reads[output].is_some()
    }

    /// Whether a reception is in progress.
    pub fn receiving(&self) -> bool {
        self.write.is_some()
    }

    // -------------------------------------------------------------- write

    /// Starts receiving a packet routed to `output`, claiming the first
    /// slot from the free list and storing the router's `new_header` in the
    /// slot's header register (paper cycle 2 phase 1).
    ///
    /// # Errors
    ///
    /// [`MicroarchError::BufferFull`] if the free list is empty, or
    /// [`MicroarchError::ReceiverBusy`] if a reception is already under
    /// way.
    pub fn begin_packet(&mut self, output: usize, new_header: u8) -> Result<u8, MicroarchError> {
        assert!(output < self.queues.len(), "output queue out of range");
        if self.write.is_some() {
            return Err(MicroarchError::ReceiverBusy);
        }
        let Some(slot) = self.pop_free() else {
            return Err(MicroarchError::BufferFull);
        };
        self.header_reg[slot as usize] = new_header;
        self.is_head[slot as usize] = true;
        self.bytes_valid[slot as usize] = 0;
        self.append_to_queue(output, slot);
        self.queues[output].packets += 1;
        self.write = Some(WriteCursor {
            queue: output,
            first_slot: slot,
            slot,
            offset: 0,
            remaining: None,
        });
        Ok(slot)
    }

    /// Latches the packet's length (in data bytes) into the first slot's
    /// length register and the write counter (paper cycle 3 phase 1).
    ///
    /// # Panics
    ///
    /// Panics if no reception is in progress, the length was already set,
    /// or `length` is zero.
    pub fn set_length(&mut self, length: u8) {
        let cursor = self.write.as_mut().expect("no reception in progress");
        assert!(cursor.remaining.is_none(), "length already latched");
        assert!(length > 0, "packets carry at least one data byte");
        self.length_reg[cursor.first_slot as usize] = length;
        cursor.remaining = Some(usize::from(length));
    }

    /// Stores one received data byte (paper cycle ≥ 4 phase 0), allocating
    /// the next slot from the free list when the current one fills.
    ///
    /// # Errors
    ///
    /// [`MicroarchError::BufferFull`] if a new slot is needed and the free
    /// list is empty. The packet is then truncated; callers drop the rest.
    ///
    /// # Panics
    ///
    /// Panics if no reception is in progress or the length was not latched.
    pub fn write_data_byte(&mut self, byte: u8) -> Result<WriteOutcome, MicroarchError> {
        let mut cursor = self.write.expect("no reception in progress");
        let remaining = cursor
            .remaining
            .expect("length must be latched before data");
        debug_assert!(remaining > 0, "write past end of packet");
        let mut allocated = false;
        if cursor.offset == SLOT_BYTES {
            let Some(slot) = self.pop_free() else {
                self.abort_reception();
                return Err(MicroarchError::BufferFull);
            };
            self.is_head[slot as usize] = false;
            self.bytes_valid[slot as usize] = 0;
            self.append_to_queue(cursor.queue, slot);
            cursor.slot = slot;
            cursor.offset = 0;
            allocated = true;
        }
        self.data[cursor.slot as usize][cursor.offset] = byte;
        self.bytes_valid[cursor.slot as usize] = cursor.offset + 1;
        let outcome = WriteOutcome {
            slot: cursor.slot,
            offset: cursor.offset as u8,
            allocated_slot: allocated,
            end_of_packet: remaining == 1,
        };
        cursor.offset += 1;
        cursor.remaining = Some(remaining - 1);
        if remaining == 1 {
            self.write = None; // EOP: reception complete
        } else {
            self.write = Some(cursor);
        }
        Ok(outcome)
    }

    /// Abandons an in-progress reception, unlinking its slots from the
    /// queue and returning them to the free list (used when the buffer
    /// overflows mid-packet, which conservative flow control prevents).
    fn abort_reception(&mut self) {
        let cursor = self.write.take().expect("no reception to abort");
        // The packet's slots are the tail of its queue, starting at
        // first_slot. Walk from the queue head to find the predecessor.
        let regs = &mut self.queues[cursor.queue];
        regs.packets -= 1;
        let mut removed = Vec::new();
        let mut s = Some(cursor.first_slot);
        while let Some(slot) = s {
            removed.push(slot);
            s = self.next[slot as usize];
        }
        if regs.head == Some(cursor.first_slot) {
            regs.head = None;
            regs.tail = None;
        } else {
            let mut prev = regs.head.expect("queue holding the packet is nonempty");
            while self.next[prev as usize] != Some(cursor.first_slot) {
                prev = self.next[prev as usize].expect("first_slot must be linked");
            }
            self.next[prev as usize] = None;
            regs.tail = Some(prev);
        }
        regs.slots -= removed.len();
        for slot in removed {
            self.is_head[slot as usize] = false;
            self.push_free(slot);
        }
    }

    // --------------------------------------------------------------- read

    /// Connects a transmitter to `output`'s queue, returning the new header
    /// byte from the first slot's header register (paper: the head register
    /// already points at the right slot, enabling 4-cycle cut-through).
    ///
    /// Returns `None` if the queue is empty or already being transmitted.
    pub fn begin_transmit(&mut self, output: usize) -> Option<u8> {
        assert!(output < self.queues.len(), "output queue out of range");
        if self.reads[output].is_some() || self.queues[output].packets == 0 {
            return None;
        }
        let slot = self.queues[output].head.expect("packets imply a head slot");
        debug_assert!(
            self.is_head[slot as usize],
            "queue head must start a packet"
        );
        self.reads[output] = Some(ReadCursor {
            slot,
            offset: 0,
            remaining: None,
        });
        Some(self.header_reg[slot as usize])
    }

    /// Reads the packet's length register into the read counter (paper
    /// cycle 5 phase 0).
    ///
    /// # Panics
    ///
    /// Panics if no transmission is in progress on `output`, the length was
    /// already read, or the receiver has not latched the length yet (the
    /// cut-through schedule guarantees it has).
    pub fn read_length(&mut self, output: usize) -> u8 {
        let cursor = self.reads[output].as_mut().expect("no transmission");
        assert!(cursor.remaining.is_none(), "length already read");
        if let Some(w) = &self.write {
            assert!(
                w.first_slot != cursor.slot || w.remaining.is_some(),
                "read counter loaded before the length register was written"
            );
        }
        let length = self.length_reg[cursor.slot as usize];
        cursor.remaining = Some(usize::from(length));
        length
    }

    /// Reads one byte for transmission (paper: one byte per cycle across
    /// the crossbar), returning drained slots to the free list and
    /// advancing the queue's head register.
    ///
    /// # Panics
    ///
    /// Panics if no transmission is in progress, the length was not read,
    /// or the read would overtake the receiver (a cut-through schedule
    /// violation).
    pub fn read_data_byte(&mut self, output: usize) -> ReadOutcome {
        let mut cursor = self.reads[output].expect("no transmission in progress");
        let remaining = cursor.remaining.expect("read counter not loaded");
        debug_assert!(remaining > 0, "read past end of packet");
        if cursor.offset == SLOT_BYTES {
            // Current slot exhausted: follow the pointer register. The
            // drained slot was already freed when its last byte was read.
            cursor.slot = self.queues_head_after(output, cursor.slot);
            cursor.offset = 0;
        }
        assert!(
            cursor.offset < self.bytes_valid[cursor.slot as usize],
            "transmitter overtook receiver in slot {} (offset {})",
            cursor.slot,
            cursor.offset
        );
        let byte = self.data[cursor.slot as usize][cursor.offset];
        cursor.offset += 1;
        cursor.remaining = Some(remaining - 1);
        let slot_done = cursor.offset == SLOT_BYTES || remaining == 1;
        let mut freed = None;
        if slot_done {
            // Return the drained slot to the free list and advance the
            // queue head past it.
            let slot = cursor.slot;
            debug_assert_eq!(self.queues[output].head, Some(slot));
            self.unlink_queue_head(output);
            self.is_head[slot as usize] = false;
            self.bytes_valid[slot as usize] = 0;
            self.push_free(slot);
            freed = Some(slot);
            if remaining > 1 {
                cursor.slot = self.queues[output]
                    .head
                    .expect("packet continues into a further slot");
                cursor.offset = 0;
            }
        }
        let end = remaining == 1;
        if end {
            self.queues[output].packets -= 1;
            self.reads[output] = None;
        } else {
            self.reads[output] = Some(cursor);
        }
        ReadOutcome {
            byte,
            freed_slot: freed,
            end_of_packet: end,
        }
    }

    fn queues_head_after(&self, output: usize, _slot: SlotIdx) -> SlotIdx {
        self.queues[output]
            .head
            .expect("packet continues into a further slot")
    }

    // ------------------------------------------------------ list plumbing

    fn append_to_queue(&mut self, queue: usize, slot: SlotIdx) {
        self.next[slot as usize] = None;
        let regs = &mut self.queues[queue];
        match regs.tail {
            Some(tail) => self.next[tail as usize] = Some(slot),
            None => regs.head = Some(slot),
        }
        regs.tail = Some(slot);
        regs.slots += 1;
    }

    fn unlink_queue_head(&mut self, queue: usize) {
        let regs = &mut self.queues[queue];
        let head = regs.head.expect("unlink from empty queue");
        regs.head = self.next[head as usize];
        if regs.head.is_none() {
            regs.tail = None;
        }
        self.next[head as usize] = None;
        regs.slots -= 1;
    }

    fn push_free(&mut self, slot: SlotIdx) {
        self.next[slot as usize] = None;
        match self.free.tail {
            Some(tail) => self.next[tail as usize] = Some(slot),
            None => self.free.head = Some(slot),
        }
        self.free.tail = Some(slot);
        self.free.slots += 1;
    }

    fn pop_free(&mut self) -> Option<SlotIdx> {
        let head = self.free.head?;
        self.free.head = self.next[head as usize];
        if self.free.head.is_none() {
            self.free.tail = None;
        }
        self.next[head as usize] = None;
        self.free.slots -= 1;
        Some(head)
    }

    /// Verifies the linked-list invariants without panicking: every slot on
    /// exactly one list, no cycles, counters consistent with the links.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`AuditError`].
    pub fn audit(&self) -> Result<(), AuditError> {
        let mut seen = vec![false; self.capacity()];
        let mut walk = |regs: &ListRegs, label: &str| -> Result<(), AuditError> {
            let mut count = 0;
            let mut cur = regs.head;
            let mut last = None;
            while let Some(s) = cur {
                if seen[s as usize] {
                    return Err(AuditError::new(
                        "list-partition",
                        format!("{label}: slot {s} on two lists or in a cycle"),
                    ));
                }
                seen[s as usize] = true;
                count += 1;
                last = Some(s);
                cur = self.next[s as usize];
            }
            if count != regs.slots {
                return Err(AuditError::new(
                    "register-sync",
                    format!(
                        "{label}: slot counter says {} but the links hold {count}",
                        regs.slots
                    ),
                ));
            }
            if last != regs.tail {
                return Err(AuditError::new(
                    "register-sync",
                    format!("{label}: tail register disagrees with the last linked slot"),
                ));
            }
            Ok(())
        };
        walk(&self.free, "free list")?;
        for (q, regs) in self.queues.iter().enumerate() {
            walk(regs, &format!("queue {q}"))?;
        }
        for (slot, &on_list) in seen.iter().enumerate() {
            if on_list && self.dead[slot] {
                return Err(AuditError::new(
                    "fault-ledger",
                    format!("dead slot {slot} is still linked on a list"),
                ));
            }
            if !on_list && !self.dead[slot] {
                return Err(AuditError::new(
                    "list-partition",
                    format!("slot {slot} is on no list (leaked slot)"),
                ));
            }
        }
        let marked = self.dead.iter().filter(|&&d| d).count();
        if marked != self.dead_count {
            return Err(AuditError::new(
                "fault-ledger",
                format!(
                    "dead counter says {} but {marked} slots are marked dead",
                    self.dead_count
                ),
            ));
        }
        Ok(())
    }

    /// Assert-style wrapper over [`LinkedSlotBuffer::audit`].
    ///
    /// # Panics
    ///
    /// Panics with a description on violation.
    pub fn check_invariants(&self) {
        if let Err(e) = self.audit() {
            panic!("slot buffer {e}");
        }
    }
}

impl fmt::Display for LinkedSlotBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} slots ({} free), queues: {:?}",
            self.capacity(),
            self.free_slots(),
            self.queues.iter().map(|q| q.packets).collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_reception(buf: &mut LinkedSlotBuffer, output: usize, header: u8, data: &[u8]) {
        buf.begin_packet(output, header).unwrap();
        buf.set_length(data.len() as u8);
        for (i, &b) in data.iter().enumerate() {
            let out = buf.write_data_byte(b).unwrap();
            assert_eq!(out.end_of_packet, i == data.len() - 1);
        }
    }

    fn full_transmission(buf: &mut LinkedSlotBuffer, output: usize) -> (u8, u8, Vec<u8>) {
        let header = buf.begin_transmit(output).expect("queue nonempty");
        let length = buf.read_length(output);
        let mut data = Vec::new();
        loop {
            let out = buf.read_data_byte(output);
            data.push(out.byte);
            if out.end_of_packet {
                break;
            }
        }
        (header, length, data)
    }

    #[test]
    fn byte_level_round_trip_single_slot() {
        let mut buf = LinkedSlotBuffer::new(4, 5);
        full_reception(&mut buf, 2, 0xAB, &[1, 2, 3]);
        assert_eq!(buf.queue_packets(2), 1);
        assert_eq!(buf.free_slots(), 3);
        let (h, l, d) = full_transmission(&mut buf, 2);
        assert_eq!(h, 0xAB);
        assert_eq!(l, 3);
        assert_eq!(d, vec![1, 2, 3]);
        assert_eq!(buf.free_slots(), 4);
        buf.check_invariants();
    }

    #[test]
    fn multi_slot_packet_spans_linked_slots() {
        let mut buf = LinkedSlotBuffer::new(6, 5);
        let data: Vec<u8> = (0..20).collect(); // 3 slots
        full_reception(&mut buf, 1, 0x11, &data);
        assert_eq!(buf.free_slots(), 3);
        let (_, l, d) = full_transmission(&mut buf, 1);
        assert_eq!(l, 20);
        assert_eq!(d, data);
        assert_eq!(buf.free_slots(), 6);
        buf.check_invariants();
    }

    #[test]
    fn max_packet_uses_four_slots() {
        let mut buf = LinkedSlotBuffer::new(DEFAULT_SLOTS, 5);
        let data: Vec<u8> = (0..32).collect();
        full_reception(&mut buf, 0, 0x01, &data);
        assert_eq!(buf.free_slots(), DEFAULT_SLOTS - 4);
        let (_, _, d) = full_transmission(&mut buf, 0);
        assert_eq!(d, data);
    }

    #[test]
    fn cut_through_read_chases_write() {
        // Interleave: write a byte, then (2 bytes behind) read one.
        let mut buf = LinkedSlotBuffer::new(6, 5);
        let data: Vec<u8> = (100..120).collect();
        buf.begin_packet(3, 0x77).unwrap();
        let header = buf.begin_transmit(3).expect("cut-through connect");
        assert_eq!(header, 0x77);
        buf.set_length(data.len() as u8);
        let length = buf.read_length(3);
        assert_eq!(length, 20);
        let mut received = Vec::new();
        let mut written = 0;
        for cycle in 0.. {
            if written < data.len() {
                buf.write_data_byte(data[written]).unwrap();
                written += 1;
            }
            if cycle >= 2 {
                let out = buf.read_data_byte(3);
                received.push(out.byte);
                if out.end_of_packet {
                    break;
                }
            }
            buf.check_invariants();
        }
        assert_eq!(received, data);
        assert_eq!(buf.free_slots(), 6);
    }

    #[test]
    #[should_panic(expected = "overtook")]
    fn read_overtaking_write_is_caught() {
        let mut buf = LinkedSlotBuffer::new(4, 5);
        buf.begin_packet(0, 0x01).unwrap();
        buf.set_length(4);
        buf.write_data_byte(9).unwrap();
        buf.begin_transmit(0).unwrap();
        buf.read_length(0);
        buf.read_data_byte(0); // ok: byte 0 was written
        buf.read_data_byte(0); // panic: byte 1 not yet written
    }

    #[test]
    fn begin_packet_fails_when_free_list_empty() {
        let mut buf = LinkedSlotBuffer::new(1, 2);
        full_reception(&mut buf, 0, 1, &[5]);
        assert_eq!(
            buf.begin_packet(1, 2).unwrap_err(),
            MicroarchError::BufferFull
        );
    }

    #[test]
    fn mid_packet_overflow_aborts_and_reclaims() {
        let mut buf = LinkedSlotBuffer::new(2, 2);
        // First packet takes one slot.
        full_reception(&mut buf, 0, 1, &[1]);
        // Second packet needs 2 slots but only 1 is free.
        buf.begin_packet(1, 2).unwrap();
        buf.set_length(12);
        for i in 0..8 {
            buf.write_data_byte(i).unwrap();
        }
        let err = buf.write_data_byte(8).unwrap_err();
        assert_eq!(err, MicroarchError::BufferFull);
        // The aborted packet's slot returns to the free list; the earlier
        // packet is intact.
        assert_eq!(buf.free_slots(), 1);
        assert_eq!(buf.queue_packets(1), 0);
        assert_eq!(buf.queue_packets(0), 1);
        buf.check_invariants();
        let (_, _, d) = full_transmission(&mut buf, 0);
        assert_eq!(d, vec![1]);
    }

    #[test]
    fn queues_are_independent_and_fifo() {
        let mut buf = LinkedSlotBuffer::new(8, 5);
        full_reception(&mut buf, 1, 0xA0, &[1]);
        full_reception(&mut buf, 2, 0xB0, &[2]);
        full_reception(&mut buf, 1, 0xA1, &[3]);
        assert_eq!(buf.queue_packets(1), 2);
        assert_eq!(buf.queue_packets(2), 1);
        let (h, _, d) = full_transmission(&mut buf, 1);
        assert_eq!((h, d), (0xA0, vec![1]));
        let (h, _, d) = full_transmission(&mut buf, 2);
        assert_eq!((h, d), (0xB0, vec![2]));
        let (h, _, d) = full_transmission(&mut buf, 1);
        assert_eq!((h, d), (0xA1, vec![3]));
        buf.check_invariants();
    }

    #[test]
    fn receiver_busy_while_packet_in_flight() {
        let mut buf = LinkedSlotBuffer::new(4, 2);
        buf.begin_packet(0, 1).unwrap();
        assert_eq!(
            buf.begin_packet(1, 2).unwrap_err(),
            MicroarchError::ReceiverBusy
        );
    }

    #[test]
    fn transmit_from_empty_queue_is_none() {
        let mut buf = LinkedSlotBuffer::new(4, 2);
        assert_eq!(buf.begin_transmit(0), None);
    }

    #[test]
    fn killed_slots_shrink_the_free_list_but_the_buffer_keeps_working() {
        let mut buf = LinkedSlotBuffer::new(4, 2);
        assert!(buf.kill_slot());
        assert!(buf.kill_slot());
        assert_eq!(buf.dead_slots(), 2);
        assert_eq!(buf.free_slots(), 2);
        buf.check_invariants();
        // Two live slots still carry a 2-slot packet end to end.
        let data: Vec<u8> = (0..12).collect();
        full_reception(&mut buf, 0, 0x31, &data);
        assert_eq!(buf.free_slots(), 0);
        let (_, _, d) = full_transmission(&mut buf, 0);
        assert_eq!(d, data);
        assert_eq!(buf.free_slots(), 2);
        buf.check_invariants();
    }

    #[test]
    fn kill_is_refused_when_no_slot_is_free() {
        let mut buf = LinkedSlotBuffer::new(1, 1);
        full_reception(&mut buf, 0, 1, &[9]);
        assert!(!buf.kill_slot(), "occupied cells cannot be retired");
        assert_eq!(buf.dead_slots(), 0);
        buf.check_invariants();
    }

    #[test]
    fn fully_killed_buffer_rejects_receptions_without_panicking() {
        let mut buf = LinkedSlotBuffer::new(2, 2);
        assert!(buf.kill_slot());
        assert!(buf.kill_slot());
        assert!(!buf.kill_slot(), "nothing left to kill");
        assert_eq!(
            buf.begin_packet(0, 1).unwrap_err(),
            MicroarchError::BufferFull
        );
        buf.check_invariants();
    }
}
