//! The ring store: FIFO rings over a statically split slot budget — the
//! storage engine of the statically-allocated designs (SAMQ and SAFC, one
//! partition per output) and of the FIFO baseline (one partition that is
//! the whole buffer).
//!
//! # Storage layout
//!
//! Like [`SoaSlots`](crate::SoaSlots), the storage is structure-of-arrays:
//! partition `q` owns the contiguous ring segment
//! `[q * part_cap, (q + 1) * part_cap)` of two parallel arrays —
//! `entry_slots` (slot count per resident packet) and the out-of-line
//! payload `arena` — addressed by the partition's `head`/`len` ring
//! registers. The registers of one partition are one 10-byte record, and
//! the records sit in an [`InlineArray`] the way `SoaSlots` holds its list
//! registers: up to four partitions (a radix-4 switch, or FIFO's single
//! ring) live inside the store, larger fanouts spill to one heap block. A
//! packet always occupies at least one slot, so a partition can never hold
//! more entries than its slot budget and the ring cannot overflow.

use crate::audit::{audit_ensure, strict_audit, AuditError};
use crate::buffer::{ring_wrap, BufferConfig, BufferKind};
use crate::error::{ConfigError, RejectReason, Rejected};
use crate::inline::InlineArray;
use crate::packet::Packet;
use crate::stats::BufferStats;
use crate::OutputPort;

/// Partition registers held inline: the queues of a radix-4 switch (the
/// paper's radix and `SoaSlots`' inline queue bound), and FIFO's one ring.
const INLINE_PARTITIONS: usize = 4;

/// The registers of one partition.
#[derive(Debug, Clone, Copy)]
struct PartRegs {
    /// Ring head offset within the partition's segment.
    head: u16,
    /// Resident entries.
    len: u16,
    /// Slots consumed by resident packets.
    used: u16,
    /// Slots permanently removed by fault injection.
    dead: u16,
    /// Kills issued while the partition was full; converted to `dead`
    /// slots as dequeues free storage.
    pending_kills: u16,
}

impl PartRegs {
    const EMPTY: PartRegs = PartRegs {
        head: 0,
        len: 0,
        used: 0,
        dead: 0,
        pending_kills: 0,
    };

    /// Slots unavailable to packets: killed plus kill-pending.
    fn faulted(&self) -> usize {
        usize::from(self.dead + self.pending_kills)
    }

    /// Offset in a `cap`-entry segment the next entry takes.
    fn tail(&self, cap: usize) -> usize {
        ring_wrap(usize::from(self.head) + usize::from(self.len), cap)
    }
}

/// Per-partition FIFO rings with statically partitioned slot budgets.
#[derive(Debug)]
pub(crate) struct RingStore {
    config: BufferConfig,
    /// Slot budget of each partition.
    part_cap: usize,
    /// Slot count of the resident packet at each ring position (parallel
    /// to `arena`; stale outside each partition's live window).
    entry_slots: Box<[u16]>,
    /// Out-of-line payloads; `Some` exactly inside each live window.
    arena: Box<[Option<Packet>]>,
    /// Registers of each partition.
    parts: InlineArray<PartRegs, INLINE_PARTITIONS>,
    stats: BufferStats,
}

impl RingStore {
    /// An empty store of `partitions` equal rings over `config`'s slots,
    /// validated as a `kind` buffer (so a static kind's capacity divides
    /// by its partition count).
    pub(crate) fn new(
        config: BufferConfig,
        kind: BufferKind,
        partitions: usize,
    ) -> Result<Self, ConfigError> {
        config.validate(kind)?;
        let part_cap = config.capacity() / partitions;
        let ring = part_cap * partitions;
        Ok(RingStore {
            config,
            part_cap,
            entry_slots: vec![0; ring].into_boxed_slice(),
            arena: (0..ring).map(|_| None).collect(),
            parts: InlineArray::new(PartRegs::EMPTY, partitions),
            stats: BufferStats::new(),
        })
    }

    pub(crate) fn config(&self) -> &BufferConfig {
        &self.config
    }

    /// Slot budget of each partition.
    pub(crate) fn part_cap(&self) -> usize {
        self.part_cap
    }

    /// Ring position of entry `i` (0 = head) in partition `q`'s segment,
    /// for `i` up to the segment size.
    pub(crate) fn pos(&self, q: usize, i: usize) -> usize {
        q * self.part_cap + ring_wrap(usize::from(self.parts[q].head) + i, self.part_cap)
    }

    /// Partition `q`'s head entry — its ring position — and the
    /// partition's entry count, if it holds any (one register read).
    pub(crate) fn head(&self, q: usize) -> Option<(usize, usize)> {
        let part = self.parts.get(q)?;
        let head = q * self.part_cap + usize::from(part.head);
        (part.len > 0).then_some((head, usize::from(part.len)))
    }

    /// The payload at ring position `pos`.
    pub(crate) fn entry(&self, pos: usize) -> Option<&Packet> {
        self.arena[pos].as_ref()
    }

    /// Resident entries of partition `q`; 0 past the last partition.
    pub(crate) fn len(&self, q: usize) -> usize {
        self.parts.get(q).map_or(0, |p| usize::from(p.len))
    }

    pub(crate) fn used_slots(&self) -> usize {
        self.parts.iter().map(|p| usize::from(p.used)).sum()
    }

    /// Slots removed by fault injection, including kills still pending on
    /// full partitions.
    pub(crate) fn dead_slots(&self) -> usize {
        self.parts.iter().map(PartRegs::faulted).sum()
    }

    pub(crate) fn packet_count(&self) -> usize {
        self.parts.iter().map(|p| usize::from(p.len)).sum()
    }

    /// Whether no partition holds an entry — a check, not a sum (the
    /// switch kernel asks every buffer every cycle).
    pub(crate) fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.len == 0)
    }

    /// Batched copy of every partition's entry count.
    pub(crate) fn queue_lens_into(&self, lens: &mut [u16]) {
        for (len, part) in lens.iter_mut().zip(self.parts.iter()) {
            *len = part.len;
        }
    }

    /// Permanently disables one slot, preferring partition `hint`.
    ///
    /// If the hinted partition is already fully dead the kill falls over
    /// to the first partition with a live slot left; `false` means every
    /// slot in the store is already dead. A kill on a full partition is
    /// deferred: the next dequeue donates a freed slot instead of
    /// returning it to service.
    pub(crate) fn kill_slot(&mut self, hint: usize) -> bool {
        let n = self.parts.len();
        let start = if hint < n { hint } else { 0 };
        let cap = self.part_cap;
        let target = (0..n)
            .map(|off| (start + off) % n)
            .find(|&q| self.parts[q].faulted() < cap);
        let Some(q) = target else {
            return false;
        };
        let part = &mut self.parts[q];
        if usize::from(part.used + part.dead) < cap {
            part.dead += 1;
        } else {
            part.pending_kills += 1;
        }
        strict_audit!(self);
        true
    }

    pub(crate) fn can_accept(&self, q: usize, slots: usize) -> bool {
        self.parts
            .get(q)
            .is_some_and(|p| usize::from(p.used) + slots + p.faulted() <= self.part_cap)
    }

    pub(crate) fn accept_capacity(&self, q: usize) -> usize {
        self.parts.get(q).map_or(0, |p| {
            self.part_cap
                .saturating_sub(usize::from(p.used) + p.faulted())
        })
    }

    /// Ring position the next entry of partition `q` takes.
    pub(crate) fn tail(&self, q: usize) -> usize {
        q * self.part_cap + self.parts[q].tail(self.part_cap)
    }

    /// Stores `packet`, routed to `output`, at [`tail`](Self::tail) of
    /// partition `q`. A full partition is refused with `full`: FIFO's one
    /// ring is the whole buffer (`BufferFull`), a static design's partition
    /// is one output's queue (`QueueFull`, at every fanout).
    pub(crate) fn try_enqueue(
        &mut self,
        q: usize,
        output: OutputPort,
        packet: Packet,
        full: RejectReason,
    ) -> Result<(), Rejected> {
        if output.index() >= self.config.fanout_count() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::NoSuchOutput,
            });
        }
        let slots = packet.slots_needed(self.config.slot_size());
        let cap = self.part_cap;
        // One resolution of the register array per operation (it may be
        // inline or spilled), as `SoaSlots` does with its register file.
        let parts = &mut *self.parts;
        let part = &mut parts[q];
        let refused = if slots > cap {
            Some(RejectReason::PacketTooLarge)
        } else if slots + part.faulted() > cap {
            // The packet fits a healthy partition but dead slots have
            // shrunk this one below its size: it can never be accepted.
            Some(RejectReason::Faulted)
        } else if usize::from(part.used) + slots + part.faulted() > cap {
            Some(full)
        } else {
            None
        };
        if let Some(reason) = refused {
            self.stats.record_rejected();
            return Err(Rejected {
                packet,
                output,
                reason,
            });
        }
        let tail = q * cap + part.tail(cap);
        part.used += slots as u16;
        part.len += 1;
        let used = parts.iter().map(|p| usize::from(p.used)).sum();
        self.stats.record_accepted(slots);
        self.stats.observe_used_slots(used);
        self.entry_slots[tail] = slots as u16;
        self.arena[tail] = Some(packet);
        strict_audit!(self);
        Ok(())
    }

    pub(crate) fn front(&self, q: usize) -> Option<&Packet> {
        self.entry(self.head(q)?.0)
    }

    pub(crate) fn dequeue(&mut self, q: usize) -> Option<Packet> {
        let cap = self.part_cap;
        let part = self.parts.get_mut(q).filter(|p| p.len > 0)?;
        let head = q * cap + usize::from(part.head);
        let slots = self.entry_slots[head];
        part.head = ring_wrap(usize::from(part.head) + 1, cap) as u16;
        part.len -= 1;
        part.used -= slots;
        // Freed slots feed deferred kills before returning to service.
        let consumed = part.pending_kills.min(slots);
        part.pending_kills -= consumed;
        part.dead += consumed;
        self.stats.record_forwarded();
        // lint: allow — the arena cell inside the live window is always Some.
        let packet = self.arena[head].take().expect("live ring entry");
        strict_audit!(self);
        Some(packet)
    }

    pub(crate) fn stats(&self) -> &BufferStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut BufferStats {
        &mut self.stats
    }

    pub(crate) fn audit(&self) -> Result<(), AuditError> {
        let cap = self.part_cap;
        for (q, part) in self.parts.iter().enumerate() {
            let len = usize::from(part.len);
            let (used, dead) = (usize::from(part.used), usize::from(part.dead));
            audit_ensure!(
                len <= cap,
                "register-sync",
                "queue {q}: length register {len} exceeds the {cap}-entry ring"
            );
            let mut sum = 0usize;
            for i in 0..len {
                let p = self.pos(q, i);
                let Some(packet) = self.arena[p].as_ref() else {
                    return Err(AuditError::new(
                        "queue-shape",
                        format!("queue {q}: live ring position {p} has no payload"),
                    ));
                };
                audit_ensure!(
                    usize::from(self.entry_slots[p])
                        == packet.slots_needed(self.config.slot_size()),
                    "queue-shape",
                    "queue {q}: entry slot count {} disagrees with its packet length",
                    self.entry_slots[p]
                );
                sum += usize::from(self.entry_slots[p]);
            }
            audit_ensure!(
                sum == used,
                "register-sync",
                "queue {q}: used-slot register says {used} but entries sum to {sum}"
            );
            for i in len..cap {
                let p = self.pos(q, i);
                audit_ensure!(
                    self.arena[p].is_none(),
                    "list-partition",
                    "queue {q}: ring position {p} outside the live window holds a payload"
                );
            }
            audit_ensure!(
                used + dead <= cap,
                "capacity-bound",
                "queue {q} holds {used} live + {dead} dead of its {cap} statically-partitioned slots"
            );
            audit_ensure!(
                part.faulted() <= cap,
                "fault-ledger",
                "queue {q} records {dead} dead + {} pending kills over {cap} slots",
                part.pending_kills
            );
            audit_ensure!(
                part.pending_kills == 0 || used + dead == cap,
                "fault-ledger",
                "queue {q} defers {} kills while {} of {cap} slots are free",
                part.pending_kills,
                cap - (used + dead)
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIFO's one ring and the queues of a radix-4 switch keep their
    /// partition registers inside the store; a fifth partition spills them
    /// to one heap block. On both arms the store behaves the same (the
    /// differential sweep in `tests/soa_equivalence.rs` covers fanouts on
    /// both sides of the bound).
    #[test]
    fn partition_registers_spill_only_past_the_inline_bound() {
        assert_eq!(INLINE_PARTITIONS, 4);
        assert_eq!(std::mem::size_of::<PartRegs>(), 10);
        let shapes = [
            (BufferKind::Fifo, 8, 1),
            (BufferKind::Samq, 4, 4),
            (BufferKind::Samq, 5, 5),
            (BufferKind::Safc, 8, 8),
        ];
        for (kind, fanout, partitions) in shapes {
            let config = BufferConfig::new(fanout, 2 * fanout);
            let store = RingStore::new(config, kind, partitions).unwrap();
            assert_eq!(store.parts.is_inline(), partitions <= 4, "{kind} x{fanout}");
            assert_eq!(
                store.part_cap(),
                2 * fanout / partitions,
                "{kind} x{fanout}"
            );
        }
    }

    /// Budget: 160 bytes. `BufferConfig` (24), the partition capacity (8),
    /// the two ring columns' fat pointers (2 x 16), four inline 10-byte
    /// partition records behind a 4-byte header, rounded to 8 (48), and
    /// `BufferStats` (48). FIFO adds its output column (16) on top; both
    /// stay below the DAMQ buffer, which sets `AnyBuffer`'s size.
    #[test]
    fn layout_ring_store_fits_its_budget() {
        assert!(
            std::mem::size_of::<RingStore>() <= 160,
            "RingStore grew to {} bytes",
            std::mem::size_of::<RingStore>()
        );
    }
}
