//! Shared implementation of the statically-allocated multi-queue designs.
//!
//! SAMQ and SAFC organise storage identically — the input buffer is split
//! into `fanout` equal partitions, one FIFO queue per output port — and
//! differ only in the read fabric (single read port vs. one per output),
//! which is a property of the *switch* side. The common storage lives here.
//!
//! # Storage layout
//!
//! Like [`SoaSlots`](crate::SoaSlots), the storage is structure-of-arrays:
//! queue `q` owns the contiguous ring segment
//! `[q * per_queue_capacity, (q + 1) * per_queue_capacity)` of two parallel
//! arrays — `entry_slots` (slot count per resident packet) and the
//! out-of-line payload `arena` — addressed by per-queue `head`/`len` ring
//! registers. A packet always occupies at least one slot, so a partition can
//! never hold more entries than its slot budget and the ring cannot
//! overflow. The pre-SoA `VecDeque` implementation survives verbatim in
//! `aos.rs` as the differential reference.

use crate::audit::{audit_ensure, strict_audit, AuditError};
use crate::buffer::{ring_wrap, BufferConfig, BufferKind};
use crate::error::{ConfigError, RejectReason, Rejected};
use crate::packet::Packet;
use crate::stats::BufferStats;
use crate::OutputPort;

/// Storage common to [`SamqBuffer`](crate::SamqBuffer) and
/// [`SafcBuffer`](crate::SafcBuffer): per-output ring queues with
/// statically partitioned slot budgets.
#[derive(Debug)]
pub(crate) struct StaticMultiQueue {
    config: BufferConfig,
    per_queue_capacity: usize,
    /// Slot count of the resident packet at each ring position (parallel to
    /// `arena`; stale outside each queue's live window).
    entry_slots: Vec<u16>,
    /// Out-of-line payloads; `Some` exactly inside each queue's live window.
    arena: Vec<Option<Packet>>,
    /// Per-queue ring head offset within the queue's segment.
    head: Vec<u16>,
    /// Per-queue resident-entry count.
    len: Vec<u16>,
    /// Per-queue slots consumed by resident packets.
    queue_used: Vec<u16>,
    /// Per-queue slots permanently removed by fault injection.
    dead: Vec<u16>,
    /// Per-queue kills issued while the partition was full; converted to
    /// `dead` slots as dequeues free storage.
    pending_kills: Vec<u16>,
    stats: BufferStats,
}

impl StaticMultiQueue {
    pub(crate) fn new(config: BufferConfig, kind: BufferKind) -> Result<Self, ConfigError> {
        debug_assert!(kind.is_statically_allocated());
        config.validate(kind)?;
        let fanout = config.fanout_count();
        let per_queue_capacity = config.capacity() / fanout;
        assert!(
            config.capacity() < u16::MAX as usize,
            "u16 ring registers cap the capacity"
        );
        Ok(StaticMultiQueue {
            config,
            per_queue_capacity,
            entry_slots: vec![0; per_queue_capacity * fanout],
            arena: (0..per_queue_capacity * fanout).map(|_| None).collect(),
            head: vec![0; fanout],
            len: vec![0; fanout],
            queue_used: vec![0; fanout],
            dead: vec![0; fanout],
            pending_kills: vec![0; fanout],
            stats: BufferStats::new(),
        })
    }

    /// Slot budget of each per-output partition.
    pub(crate) fn per_queue_capacity(&self) -> usize {
        self.per_queue_capacity
    }

    pub(crate) fn config(&self) -> &BufferConfig {
        &self.config
    }

    fn fanout(&self) -> usize {
        self.head.len()
    }

    /// Ring position of entry `i` (0 = head) in queue `q`'s segment, for
    /// `i` up to the segment size.
    fn pos(&self, q: usize, i: usize) -> usize {
        let cap = self.per_queue_capacity;
        q * cap + ring_wrap(self.head[q] as usize + i, cap)
    }

    pub(crate) fn used_slots(&self) -> usize {
        self.queue_used.iter().map(|&u| u as usize).sum()
    }

    /// Slots removed by fault injection, including kills still pending on
    /// full partitions.
    pub(crate) fn dead_slots(&self) -> usize {
        self.dead.iter().map(|&d| d as usize).sum::<usize>()
            + self
                .pending_kills
                .iter()
                .map(|&p| p as usize)
                .sum::<usize>()
    }

    /// Permanently disables one slot, preferring the partition for `hint`.
    ///
    /// If the hinted partition is already fully dead the kill falls over to
    /// the first partition with a live slot left; `false` means every slot
    /// in the buffer is already dead. A kill on a full partition is
    /// deferred: the next dequeue donates a freed slot instead of returning
    /// it to service.
    pub(crate) fn kill_slot(&mut self, hint: OutputPort) -> bool {
        let fanout = self.fanout();
        let start = if hint.index() < fanout {
            hint.index()
        } else {
            0
        };
        let cap = self.per_queue_capacity as u16;
        let target = (0..fanout)
            .map(|off| (start + off) % fanout)
            .find(|&q| self.dead[q] + self.pending_kills[q] < cap);
        let Some(q) = target else {
            return false;
        };
        if self.queue_used[q] + self.dead[q] < cap {
            self.dead[q] += 1;
        } else {
            self.pending_kills[q] += 1;
        }
        strict_audit!(self);
        true
    }

    /// Slots of `output`'s partition unavailable to packets: killed plus
    /// kill-pending.
    fn faulted_slots(&self, q: usize) -> usize {
        (self.dead[q] + self.pending_kills[q]) as usize
    }

    pub(crate) fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        output.index() < self.fanout()
            && self.queue_used[output.index()] as usize + slots + self.faulted_slots(output.index())
                <= self.per_queue_capacity
    }

    pub(crate) fn accept_capacity(&self, output: OutputPort) -> usize {
        let q = output.index();
        if q < self.fanout() {
            self.per_queue_capacity
                .saturating_sub(self.queue_used[q] as usize + self.faulted_slots(q))
        } else {
            0
        }
    }

    pub(crate) fn try_enqueue(
        &mut self,
        output: OutputPort,
        packet: Packet,
    ) -> Result<(), Rejected> {
        let q = output.index();
        if q >= self.fanout() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::NoSuchOutput,
            });
        }
        let slots = packet.slots_needed(self.config.slot_size());
        if slots > self.per_queue_capacity {
            self.stats.record_rejected();
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::PacketTooLarge,
            });
        }
        if slots + self.faulted_slots(q) > self.per_queue_capacity {
            // The packet fits a healthy partition but dead slots have shrunk
            // this one below its size: it can never be accepted here.
            self.stats.record_rejected();
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::Faulted,
            });
        }
        if self.queue_used[q] as usize + slots + self.faulted_slots(q) > self.per_queue_capacity {
            self.stats.record_rejected();
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::QueueFull,
            });
        }
        self.queue_used[q] += slots as u16;
        self.stats.record_accepted(slots);
        let used = self.used_slots();
        self.stats.observe_used_slots(used);
        let tail = self.pos(q, self.len[q] as usize);
        self.entry_slots[tail] = slots as u16;
        self.arena[tail] = Some(packet);
        self.len[q] += 1;
        strict_audit!(self);
        Ok(())
    }

    pub(crate) fn queue_len(&self, output: OutputPort) -> usize {
        self.len.get(output.index()).map_or(0, |&l| l as usize)
    }

    /// Batched copy of every per-queue packet count (see
    /// [`SwitchBuffer::queue_lens_into`](crate::SwitchBuffer::queue_lens_into)).
    pub(crate) fn queue_lens_into(&self, lens: &mut [u16]) {
        lens.copy_from_slice(&self.len);
    }

    pub(crate) fn front(&self, output: OutputPort) -> Option<&Packet> {
        let q = output.index();
        if q >= self.fanout() || self.len[q] == 0 {
            return None;
        }
        self.arena[self.pos(q, 0)].as_ref()
    }

    pub(crate) fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        let q = output.index();
        if q >= self.fanout() || self.len[q] == 0 {
            return None;
        }
        let head = self.pos(q, 0);
        let slots = self.entry_slots[head];
        // lint: allow — the arena cell inside the live window is always Some.
        let packet = self.arena[head].take().expect("live ring entry");
        self.head[q] = ring_wrap(self.head[q] as usize + 1, self.per_queue_capacity) as u16;
        self.len[q] -= 1;
        self.queue_used[q] -= slots;
        // Freed slots feed deferred kills before returning to service.
        let consumed = self.pending_kills[q].min(slots);
        self.pending_kills[q] -= consumed;
        self.dead[q] += consumed;
        self.stats.record_forwarded();
        strict_audit!(self);
        Some(packet)
    }

    pub(crate) fn packet_count(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }

    pub(crate) fn stats(&self) -> &BufferStats {
        &self.stats
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats.reset();
    }

    pub(crate) fn audit(&self) -> Result<(), AuditError> {
        let cap = self.per_queue_capacity;
        for q in 0..self.fanout() {
            audit_ensure!(
                (self.len[q] as usize) <= cap,
                "register-sync",
                "queue {q}: length register {} exceeds the {cap}-entry ring",
                self.len[q]
            );
            let mut sum = 0usize;
            for i in 0..self.len[q] as usize {
                let p = self.pos(q, i);
                let Some(packet) = self.arena[p].as_ref() else {
                    return Err(AuditError::new(
                        "queue-shape",
                        format!("queue {q}: live ring position {p} has no payload"),
                    ));
                };
                audit_ensure!(
                    self.entry_slots[p] as usize == packet.slots_needed(self.config.slot_size()),
                    "queue-shape",
                    "queue {q}: entry slot count {} disagrees with its packet length",
                    self.entry_slots[p]
                );
                sum += self.entry_slots[p] as usize;
            }
            audit_ensure!(
                sum == self.queue_used[q] as usize,
                "register-sync",
                "queue {q}: used-slot register says {} but entries sum to {sum}",
                self.queue_used[q]
            );
            for i in self.len[q] as usize..cap {
                let p = self.pos(q, i);
                audit_ensure!(
                    self.arena[p].is_none(),
                    "list-partition",
                    "queue {q}: ring position {p} outside the live window holds a payload"
                );
            }
            audit_ensure!(
                (self.queue_used[q] + self.dead[q]) as usize <= cap,
                "capacity-bound",
                "queue {q} holds {} live + {} dead of its {cap} statically-partitioned slots",
                self.queue_used[q],
                self.dead[q]
            );
            audit_ensure!(
                (self.dead[q] + self.pending_kills[q]) as usize <= cap,
                "fault-ledger",
                "queue {q} records {} dead + {} pending kills over {cap} slots",
                self.dead[q],
                self.pending_kills[q]
            );
            audit_ensure!(
                self.pending_kills[q] == 0 || (self.queue_used[q] + self.dead[q]) as usize == cap,
                "fault-ledger",
                "queue {q} defers {} kills while {} of {cap} slots are free",
                self.pending_kills[q],
                cap - (self.queue_used[q] + self.dead[q]) as usize
            );
        }
        Ok(())
    }
}

/// Implements `SwitchBuffer` for a newtype wrapping `StaticMultiQueue`.
macro_rules! impl_static_switch_buffer {
    ($ty:ty, $kind:expr, $read_ports:expr) => {
        impl SwitchBuffer for $ty {
            fn kind(&self) -> BufferKind {
                $kind
            }

            fn fanout(&self) -> usize {
                self.inner.config().fanout_count()
            }

            fn capacity_slots(&self) -> usize {
                self.inner.config().capacity()
            }

            fn used_slots(&self) -> usize {
                self.inner.used_slots()
            }

            fn slot_bytes(&self) -> usize {
                self.inner.config().slot_size()
            }

            fn read_ports(&self) -> usize {
                let f: fn(&$ty) -> usize = $read_ports;
                f(self)
            }

            fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
                self.inner.can_accept(output, slots)
            }

            fn accept_capacity(&self, output: OutputPort) -> usize {
                self.inner.accept_capacity(output)
            }

            fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
                self.inner.try_enqueue(output, packet)
            }

            fn queue_len(&self, output: OutputPort) -> usize {
                self.inner.queue_len(output)
            }

            fn queue_lens_into(&self, lens: &mut [u16]) {
                self.inner.queue_lens_into(lens)
            }

            fn front(&self, output: OutputPort) -> Option<&Packet> {
                self.inner.front(output)
            }

            fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
                self.inner.dequeue(output)
            }

            fn packet_count(&self) -> usize {
                self.inner.packet_count()
            }

            fn stats(&self) -> &crate::stats::BufferStats {
                self.inner.stats()
            }

            fn reset_stats(&mut self) {
                self.inner.reset_stats()
            }

            fn kill_slot(&mut self, hint: OutputPort) -> bool {
                self.inner.kill_slot(hint)
            }

            fn dead_slots(&self) -> usize {
                self.inner.dead_slots()
            }

            fn audit(&self) -> Result<(), crate::audit::AuditError> {
                self.inner.audit()
            }
        }
    };
}

pub(crate) use impl_static_switch_buffer;
