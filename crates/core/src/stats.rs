//! Buffer operation counters, kept per switch.

use std::fmt;

/// Operation counters over the input buffers of one switch.
///
/// A buffer is its slot RAM and the registers beside it, as on the chip;
/// it keeps no counters. The switch that owns the buffers counts their
/// operations instead — every accept and every reject it sees through
/// `receive`, every packet its crossbar forwards, and each cycle's
/// head-of-line blocking — in one `BufferStats` for all its inputs.
/// Counters are cumulative since construction; [`merge`](Self::merge)
/// folds several switches into a network total, from which simulators
/// compute discard rates and utilisation.
///
/// # Examples
///
/// ```
/// use damq_core::BufferStats;
///
/// let mut s = BufferStats::new();
/// s.record_accepted(2);
/// s.record_rejected();
/// assert_eq!(s.offered(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferStats {
    packets_accepted: u64,
    packets_rejected: u64,
    packets_forwarded: u64,
    slots_accepted: u64,
    peak_used_slots: usize,
    hol_blocked: u64,
}

impl BufferStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records acceptance of a packet occupying `slots` slots.
    pub fn record_accepted(&mut self, slots: usize) {
        self.packets_accepted += 1;
        self.slots_accepted += slots as u64;
    }

    /// Records a packet bounced for lack of space.
    pub fn record_rejected(&mut self) {
        self.packets_rejected += 1;
    }

    /// Records a packet leaving through the crossbar.
    pub fn record_forwarded(&mut self) {
        self.packets_forwarded += 1;
    }

    /// Records `n` packet-cycles of head-of-line blocking: resident
    /// packets that could not even be considered for transmission this
    /// cycle because a packet bound for a *different* output sat ahead of
    /// them. Only FIFO buffers exhibit this; per-output designs always
    /// record zero.
    pub fn record_hol_blocked(&mut self, n: u64) {
        self.hol_blocked += n;
    }

    /// Tracks the high-water mark of slot occupancy.
    pub fn observe_used_slots(&mut self, used: usize) {
        if used > self.peak_used_slots {
            self.peak_used_slots = used;
        }
    }

    /// Packets stored successfully.
    pub fn packets_accepted(&self) -> u64 {
        self.packets_accepted
    }

    /// Packets that could not be stored.
    pub fn packets_rejected(&self) -> u64 {
        self.packets_rejected
    }

    /// Packets dequeued for transmission.
    pub fn packets_forwarded(&self) -> u64 {
        self.packets_forwarded
    }

    /// Total slots consumed by accepted packets.
    pub fn slots_accepted(&self) -> u64 {
        self.slots_accepted
    }

    /// Highest simultaneous slot occupancy seen.
    pub fn peak_used_slots(&self) -> usize {
        self.peak_used_slots
    }

    /// Accumulated packet-cycles of head-of-line blocking.
    pub fn hol_blocked(&self) -> u64 {
        self.hol_blocked
    }

    /// Packets that arrived at this buffer (accepted + rejected).
    pub fn offered(&self) -> u64 {
        self.packets_accepted + self.packets_rejected
    }

    /// Adds another set of counters into this one (for aggregating a whole
    /// switch or network).
    pub fn merge(&mut self, other: &BufferStats) {
        self.packets_accepted += other.packets_accepted;
        self.packets_rejected += other.packets_rejected;
        self.packets_forwarded += other.packets_forwarded;
        self.slots_accepted += other.slots_accepted;
        self.peak_used_slots = self.peak_used_slots.max(other.peak_used_slots);
        self.hol_blocked += other.hol_blocked;
    }
}

impl fmt::Display for BufferStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accepted {} / rejected {} / forwarded {} (peak {} slots, hol {})",
            self.packets_accepted,
            self.packets_rejected,
            self.packets_forwarded,
            self.peak_used_slots,
            self.hol_blocked
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = BufferStats::new();
        s.record_accepted(3);
        s.record_accepted(1);
        s.record_rejected();
        s.record_forwarded();
        assert_eq!(s.packets_accepted(), 2);
        assert_eq!(s.slots_accepted(), 4);
        assert_eq!(s.packets_rejected(), 1);
        assert_eq!(s.packets_forwarded(), 1);
        assert_eq!(s.offered(), 3);
    }

    #[test]
    fn peak_tracks_maximum_only() {
        let mut s = BufferStats::new();
        s.observe_used_slots(3);
        s.observe_used_slots(1);
        assert_eq!(s.peak_used_slots(), 3);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = BufferStats::new();
        a.record_accepted(2);
        a.observe_used_slots(2);
        a.record_hol_blocked(3);
        let mut b = BufferStats::new();
        b.record_rejected();
        b.observe_used_slots(5);
        b.record_hol_blocked(1);
        a.merge(&b);
        assert_eq!(a.offered(), 2);
        assert_eq!(a.peak_used_slots(), 5);
        assert_eq!(a.hol_blocked(), 4);
    }

    #[test]
    fn hol_blocking_accumulates() {
        let mut s = BufferStats::new();
        s.record_hol_blocked(2);
        s.record_hol_blocked(0);
        s.record_hol_blocked(1);
        assert_eq!(s.hol_blocked(), 3);
    }
}
