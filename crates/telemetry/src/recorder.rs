//! Flight recorder: a bounded ring of the most recent telemetry events.
//!
//! An invariant violation found at the end of a long run is a poor
//! post-mortem on its own: it says *that* the run went wrong, not what
//! the fabric did just before. [`FlightRecorder`] keeps the last
//! `capacity` events of a run in O(capacity) memory. The simulation owns
//! it as its sink; the caller takes it back with the simulation
//! (`NetworkSim::into_sink`) and, when the run violated an invariant,
//! writes the ring's tail into a JSONL dump next to the reproducer.
//!
//! Recording is ordinary sink traffic (the recorder implements
//! [`TelemetrySink`]), so the ring's contents are exactly the tail of
//! the deterministic event stream: same bytes a full trace would have
//! ended with.

use std::collections::VecDeque;

use crate::sink::{JsonlRecord, TelemetrySink};

/// A fixed-capacity ring of the most recent events.
///
/// ```
/// use damq_telemetry::{Event, EventKind, FlightRecorder, TelemetrySink};
///
/// let mut rec = FlightRecorder::new(2);
/// for cycle in 1..=5 {
///     rec.record(Event::new(cycle, EventKind::Injected { packet: cycle, source: 0 }));
/// }
/// assert_eq!(rec.len(), 2);
/// assert_eq!(rec.seen(), 5);
/// let cycles: Vec<u64> = rec.events().map(|e| e.cycle).collect();
/// assert_eq!(cycles, vec![4, 5]); // oldest evicted first
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder<E> {
    capacity: usize,
    events: VecDeque<E>,
    seen: u64,
}

impl<E> FlightRecorder<E> {
    /// Creates a recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity),
            seen: 0,
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded, evicted ones included.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &E> {
        self.events.iter()
    }

    /// Discards all retained events (the `seen` total is kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl<E: JsonlRecord> FlightRecorder<E> {
    /// Renders the retained events as JSONL, oldest first, one line per
    /// event with trailing newlines — the violation dump's event tail.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        out
    }
}

impl<E> TelemetrySink<E> for FlightRecorder<E> {
    /// Pushes one event, evicting the oldest when full.
    fn record(&mut self, event: E) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.seen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, EventKind};

    fn sample(cycle: u64) -> Event {
        Event::new(
            cycle,
            EventKind::Injected {
                packet: cycle,
                source: 0,
            },
        )
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut rec = FlightRecorder::new(3);
        for c in 1..=7 {
            rec.record(sample(c));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.seen(), 7);
        let cycles: Vec<u64> = rec.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![5, 6, 7]);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.seen(), 7, "seen survives clear");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut rec = FlightRecorder::new(0);
        rec.record(sample(1));
        rec.record(sample(2));
        assert_eq!(rec.capacity(), 1);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.events().next().unwrap().cycle, 2);
    }

    #[test]
    fn dump_is_parseable_jsonl_tail() {
        let mut rec = FlightRecorder::new(2);
        for c in 1..=4 {
            rec.record(sample(c));
        }
        let dump = rec.dump_jsonl();
        let parsed = Event::parse_trace(&dump).expect("dump parses");
        assert_eq!(parsed, vec![sample(3), sample(4)]);
    }
}
