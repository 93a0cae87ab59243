//! The frozen array-of-structs reference designs: the five buffer types
//! as they were before their state became structure-of-arrays index
//! registers — per-packet `Entry` structs in `VecDeque`s, one type per
//! design, and the linked [`SlotPool`] — written against the public
//! `SwitchBuffer` / `BuildBuffer` traits so they plug into the same
//! switches and networks as the shipped designs.

use std::collections::VecDeque;

use damq_core::{
    AuditError, BufferConfig, BufferKind, BuildBuffer, ConfigError, OutputPort, Packet,
    RejectReason, Rejected, SwitchBuffer,
};

use super::slots::SlotPool;

#[derive(Debug, Clone)]
struct FifoEntry {
    output: OutputPort,
    slots: usize,
    packet: Packet,
}

/// The pre-SoA [`FifoBuffer`]: a `VecDeque` of
/// per-packet entries.
#[derive(Debug)]
pub struct AosFifoBuffer {
    config: BufferConfig,
    queue: VecDeque<FifoEntry>,
    used_slots: usize,
    dead: usize,
    pending_kills: usize,
}

impl AosFifoBuffer {
    /// Creates an empty AoS FIFO buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration has a zero dimension.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        config.validate(BufferKind::Fifo)?;
        Ok(AosFifoBuffer {
            config,
            queue: VecDeque::new(),
            used_slots: 0,
            dead: 0,
            pending_kills: 0,
        })
    }

    fn head_matches(&self, output: OutputPort) -> bool {
        self.queue.front().map(|e| e.output) == Some(output)
    }
}

impl SwitchBuffer for AosFifoBuffer {
    fn kind(&self) -> BufferKind {
        BufferKind::Fifo
    }

    fn fanout(&self) -> usize {
        self.config.fanout_count()
    }

    fn capacity_slots(&self) -> usize {
        self.config.capacity()
    }

    fn used_slots(&self) -> usize {
        self.used_slots
    }

    fn read_ports(&self) -> usize {
        1
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        output.index() < self.fanout()
            && self.used_slots + slots + self.dead_slots() <= self.capacity_slots()
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        let slots = packet.slots_needed();
        if output.index() >= self.fanout() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::NoSuchOutput,
            });
        }
        if slots > self.capacity_slots() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::PacketTooLarge,
            });
        }
        if slots + self.dead_slots() > self.capacity_slots() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::Faulted,
            });
        }
        if self.used_slots + slots + self.dead_slots() > self.capacity_slots() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::BufferFull,
            });
        }
        self.used_slots += slots;
        self.queue.push_back(FifoEntry {
            output,
            slots,
            packet,
        });
        strict_audit!(self);
        Ok(())
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        if self.head_matches(output) {
            self.queue.len()
        } else {
            0
        }
    }

    fn front(&self, output: OutputPort) -> Option<&Packet> {
        self.queue
            .front()
            .filter(|e| e.output == output)
            .map(|e| &e.packet)
    }

    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        if !self.head_matches(output) {
            return None;
        }
        // head_matches() proved the queue is non-empty.
        let entry = self.queue.pop_front().expect("head checked above");
        self.used_slots -= entry.slots;
        let consumed = self.pending_kills.min(entry.slots);
        self.pending_kills -= consumed;
        self.dead += consumed;
        strict_audit!(self);
        Some(entry.packet)
    }

    fn packet_count(&self) -> usize {
        self.queue.len()
    }

    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        let _ = hint;
        if self.dead_slots() >= self.capacity_slots() {
            return false;
        }
        if self.used_slots + self.dead < self.capacity_slots() {
            self.dead += 1;
        } else {
            self.pending_kills += 1;
        }
        strict_audit!(self);
        true
    }

    fn dead_slots(&self) -> usize {
        self.dead + self.pending_kills
    }

    fn note_hol_blocked(&self) -> u64 {
        let Some(head) = self.queue.front().map(|e| e.output) else {
            return 0;
        };
        self.queue
            .iter()
            .skip(1)
            .filter(|e| e.output != head)
            .count() as u64
    }

    fn audit(&self) -> Result<(), AuditError> {
        let sum: usize = self.queue.iter().map(|e| e.slots).sum();
        audit_ensure!(
            sum == self.used_slots,
            "register-sync",
            "FIFO used_slots register says {} but entries sum to {sum}",
            self.used_slots
        );
        audit_ensure!(
            self.used_slots + self.dead <= self.capacity_slots(),
            "capacity-bound",
            "FIFO holds {} live + {} dead of {} slots",
            self.used_slots,
            self.dead,
            self.capacity_slots()
        );
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct MqEntry {
    slots: usize,
    packet: Packet,
}

/// The pre-SoA static multi-queue storage shared by [`AosSamqBuffer`]
/// and [`AosSafcBuffer`]: per-output `VecDeque`s over statically
/// partitioned slot budgets.
#[derive(Debug)]
struct AosStaticMultiQueue {
    config: BufferConfig,
    per_queue_capacity: usize,
    queues: Vec<VecDeque<MqEntry>>,
    queue_used: Vec<usize>,
    dead: Vec<usize>,
    pending_kills: Vec<usize>,
}

impl AosStaticMultiQueue {
    fn new(config: BufferConfig, kind: BufferKind) -> Result<Self, ConfigError> {
        debug_assert!(kind.is_statically_allocated());
        config.validate(kind)?;
        let fanout = config.fanout_count();
        Ok(AosStaticMultiQueue {
            config,
            per_queue_capacity: config.capacity() / fanout,
            queues: (0..fanout).map(|_| VecDeque::new()).collect(),
            queue_used: vec![0; fanout],
            dead: vec![0; fanout],
            pending_kills: vec![0; fanout],
        })
    }

    fn used_slots(&self) -> usize {
        self.queue_used.iter().sum()
    }

    fn dead_slots(&self) -> usize {
        self.dead.iter().sum::<usize>() + self.pending_kills.iter().sum::<usize>()
    }

    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        let fanout = self.queues.len();
        let start = if hint.index() < fanout {
            hint.index()
        } else {
            0
        };
        let target = (0..fanout)
            .map(|off| (start + off) % fanout)
            .find(|&q| self.dead[q] + self.pending_kills[q] < self.per_queue_capacity);
        let Some(q) = target else {
            return false;
        };
        if self.queue_used[q] + self.dead[q] < self.per_queue_capacity {
            self.dead[q] += 1;
        } else {
            self.pending_kills[q] += 1;
        }
        strict_audit!(self);
        true
    }

    fn faulted_slots(&self, q: usize) -> usize {
        self.dead[q] + self.pending_kills[q]
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        output.index() < self.queues.len()
            && self.queue_used[output.index()] + slots + self.faulted_slots(output.index())
                <= self.per_queue_capacity
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        if output.index() >= self.queues.len() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::NoSuchOutput,
            });
        }
        let slots = packet.slots_needed();
        if slots > self.per_queue_capacity {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::PacketTooLarge,
            });
        }
        if slots + self.faulted_slots(output.index()) > self.per_queue_capacity {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::Faulted,
            });
        }
        if self.queue_used[output.index()] + slots + self.faulted_slots(output.index())
            > self.per_queue_capacity
        {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::QueueFull,
            });
        }
        self.queue_used[output.index()] += slots;
        self.queues[output.index()].push_back(MqEntry { slots, packet });
        strict_audit!(self);
        Ok(())
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        self.queues.get(output.index()).map_or(0, VecDeque::len)
    }

    fn front(&self, output: OutputPort) -> Option<&Packet> {
        self.queues.get(output.index())?.front().map(|e| &e.packet)
    }

    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        let entry = self.queues.get_mut(output.index())?.pop_front()?;
        let q = output.index();
        self.queue_used[q] -= entry.slots;
        let consumed = self.pending_kills[q].min(entry.slots);
        self.pending_kills[q] -= consumed;
        self.dead[q] += consumed;
        strict_audit!(self);
        Some(entry.packet)
    }

    fn packet_count(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn audit(&self) -> Result<(), AuditError> {
        for (i, q) in self.queues.iter().enumerate() {
            let sum: usize = q.iter().map(|e| e.slots).sum();
            audit_ensure!(
                sum == self.queue_used[i],
                "register-sync",
                "queue {i}: used-slot register says {} but entries sum to {sum}",
                self.queue_used[i]
            );
            audit_ensure!(
                self.queue_used[i] + self.dead[i] <= self.per_queue_capacity,
                "capacity-bound",
                "queue {i} holds {} live + {} dead of its {} statically-partitioned slots",
                self.queue_used[i],
                self.dead[i],
                self.per_queue_capacity
            );
        }
        Ok(())
    }
}

/// Implements `SwitchBuffer` for an AoS newtype over
/// [`AosStaticMultiQueue`].
macro_rules! impl_aos_static_buffer {
    ($ty:ty, $kind:expr, $read_ports:expr) => {
        impl SwitchBuffer for $ty {
            fn kind(&self) -> BufferKind {
                $kind
            }

            fn fanout(&self) -> usize {
                self.inner.config.fanout_count()
            }

            fn capacity_slots(&self) -> usize {
                self.inner.config.capacity()
            }

            fn used_slots(&self) -> usize {
                self.inner.used_slots()
            }

            fn read_ports(&self) -> usize {
                let f: fn(&$ty) -> usize = $read_ports;
                f(self)
            }

            fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
                self.inner.can_accept(output, slots)
            }

            fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
                self.inner.try_enqueue(output, packet)
            }

            fn queue_len(&self, output: OutputPort) -> usize {
                self.inner.queue_len(output)
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

            fn kill_slot(&mut self, hint: OutputPort) -> bool {
                self.inner.kill_slot(hint)
            }

            fn dead_slots(&self) -> usize {
                self.inner.dead_slots()
            }

            fn audit(&self) -> Result<(), AuditError> {
                self.inner.audit()
            }
        }
    };
}

/// The pre-SoA [`SamqBuffer`].
#[derive(Debug)]
pub struct AosSamqBuffer {
    inner: AosStaticMultiQueue,
}

impl AosSamqBuffer {
    /// Creates an empty AoS SAMQ buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a dimension is zero or the capacity
    /// does not divide evenly among the output queues.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        Ok(AosSamqBuffer {
            inner: AosStaticMultiQueue::new(config, BufferKind::Samq)?,
        })
    }
}

impl_aos_static_buffer!(AosSamqBuffer, BufferKind::Samq, |_b| 1);

/// The pre-SoA [`SafcBuffer`].
#[derive(Debug)]
pub struct AosSafcBuffer {
    inner: AosStaticMultiQueue,
}

impl AosSafcBuffer {
    /// Creates an empty AoS SAFC buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a dimension is zero or the capacity
    /// does not divide evenly among the output queues.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        Ok(AosSafcBuffer {
            inner: AosStaticMultiQueue::new(config, BufferKind::Safc)?,
        })
    }
}

impl_aos_static_buffer!(AosSafcBuffer, BufferKind::Safc, |b: &AosSafcBuffer| b
    .inner
    .config
    .fanout_count());

/// The pre-SoA [`DamqBuffer`]: linked lists through
/// the per-slot pointer registers of [`SlotPool`].
#[derive(Debug)]
pub struct AosDamqBuffer {
    config: BufferConfig,
    pool: SlotPool,
}

impl AosDamqBuffer {
    /// Creates an empty AoS DAMQ buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration has a zero dimension.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        config.validate(BufferKind::Damq)?;
        Ok(AosDamqBuffer {
            config,
            pool: SlotPool::new(config.capacity(), config.fanout_count()),
        })
    }

    /// Direct read access to the underlying linked slot pool.
    pub fn pool(&self) -> &SlotPool {
        &self.pool
    }
}

impl SwitchBuffer for AosDamqBuffer {
    fn kind(&self) -> BufferKind {
        BufferKind::Damq
    }

    fn fanout(&self) -> usize {
        self.config.fanout_count()
    }

    fn capacity_slots(&self) -> usize {
        self.config.capacity()
    }

    fn used_slots(&self) -> usize {
        self.pool.used_count()
    }

    fn read_ports(&self) -> usize {
        1
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        output.index() < self.fanout() && slots <= self.pool.free_count()
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        if output.index() >= self.fanout() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::NoSuchOutput,
            });
        }
        let slots = packet.slots_needed();
        if slots > self.capacity_slots() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::PacketTooLarge,
            });
        }
        if slots > self.pool.effective_capacity() {
            return Err(Rejected {
                packet,
                output,
                reason: RejectReason::Faulted,
            });
        }
        self.pool
            .enqueue(output.index(), packet, slots)
            .map_err(|packet| Rejected {
                packet,
                output,
                reason: RejectReason::BufferFull,
            })
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        if output.index() < self.fanout() {
            self.pool.queue_packets(output.index())
        } else {
            0
        }
    }

    fn front(&self, output: OutputPort) -> Option<&Packet> {
        if output.index() < self.fanout() {
            self.pool.front(output.index())
        } else {
            None
        }
    }

    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        if output.index() >= self.fanout() {
            return None;
        }
        self.pool.dequeue(output.index())
    }

    fn packet_count(&self) -> usize {
        (0..self.fanout()).map(|l| self.pool.queue_packets(l)).sum()
    }

    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        let _ = hint;
        self.pool.kill_slot()
    }

    fn dead_slots(&self) -> usize {
        self.pool.dead_count()
    }

    fn audit(&self) -> Result<(), AuditError> {
        self.pool.audit()?;
        audit_ensure!(
            self.used_slots() <= self.capacity_slots(),
            "capacity-bound",
            "pool reports {} used of {} slots",
            self.used_slots(),
            self.capacity_slots()
        );
        Ok(())
    }
}

/// The pre-SoA [`DafcBuffer`]: [`AosDamqBuffer`]
/// storage behind one read port per output.
#[derive(Debug)]
pub struct AosDafcBuffer {
    inner: AosDamqBuffer,
}

impl AosDafcBuffer {
    /// Creates an empty AoS DAFC buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration has a zero dimension.
    pub fn new(config: BufferConfig) -> Result<Self, ConfigError> {
        Ok(AosDafcBuffer {
            inner: AosDamqBuffer::new(config)?,
        })
    }
}

impl SwitchBuffer for AosDafcBuffer {
    fn kind(&self) -> BufferKind {
        BufferKind::Dafc
    }

    fn fanout(&self) -> usize {
        self.inner.fanout()
    }

    fn capacity_slots(&self) -> usize {
        self.inner.capacity_slots()
    }

    fn used_slots(&self) -> usize {
        self.inner.used_slots()
    }

    fn read_ports(&self) -> usize {
        self.inner.fanout()
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        self.inner.can_accept(output, slots)
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        self.inner.try_enqueue(output, packet)
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        self.inner.queue_len(output)
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

    fn kill_slot(&mut self, hint: OutputPort) -> bool {
        self.inner.kill_slot(hint)
    }

    fn dead_slots(&self) -> usize {
        self.inner.dead_slots()
    }

    fn audit(&self) -> Result<(), AuditError> {
        self.inner.audit()
    }
}

impl BuildBuffer for AosFifoBuffer {
    fn build_buffer(config: BufferConfig, _kind: BufferKind) -> Result<Self, ConfigError> {
        AosFifoBuffer::new(config)
    }
}

impl BuildBuffer for AosSamqBuffer {
    fn build_buffer(config: BufferConfig, _kind: BufferKind) -> Result<Self, ConfigError> {
        AosSamqBuffer::new(config)
    }
}

impl BuildBuffer for AosSafcBuffer {
    fn build_buffer(config: BufferConfig, _kind: BufferKind) -> Result<Self, ConfigError> {
        AosSafcBuffer::new(config)
    }
}

impl BuildBuffer for AosDamqBuffer {
    fn build_buffer(config: BufferConfig, _kind: BufferKind) -> Result<Self, ConfigError> {
        AosDamqBuffer::new(config)
    }
}

impl BuildBuffer for AosDafcBuffer {
    fn build_buffer(config: BufferConfig, _kind: BufferKind) -> Result<Self, ConfigError> {
        AosDafcBuffer::new(config)
    }
}
