//! Crash flight recorder: a bounded ring of the most recent telemetry
//! events, shareable across a panic boundary.
//!
//! Long sweeps isolate failing cells (`sweep::run_isolated`), but a
//! "panicked" verdict alone is a poor post-mortem: the trace that led up
//! to the crash is gone with the unwound stack. [`FlightRecorder`] keeps
//! the last `capacity` events of a run in O(capacity) memory, and
//! [`SharedRecorder`] wraps it in an `Arc<Mutex<…>>` so the sweep
//! harness can hold a handle *outside* the `catch_unwind` boundary while
//! the simulation records through its own clone inside. When a cell
//! panics or trips its watchdog, the harness drains the surviving ring
//! into a JSONL sidecar — the crash dump.
//!
//! Recording is ordinary sink traffic (the recorder implements
//! [`TelemetrySink`]), so the ring's contents are exactly the tail of
//! the deterministic event stream: same bytes a full trace would have
//! ended with.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

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

    /// Pushes one event, evicting the oldest when full.
    fn push(&mut self, event: E) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.seen += 1;
    }

    /// Discards all retained events (the `seen` total is kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl<E: JsonlRecord> FlightRecorder<E> {
    /// Renders the retained events as JSONL, oldest first, one line per
    /// event with trailing newlines — the crash-dump payload.
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
    fn record(&mut self, event: E) {
        self.push(event);
    }
}

/// A clonable, panic-safe handle to a [`FlightRecorder`].
///
/// One clone is attached to the simulation as its sink; the sweep
/// harness keeps another outside the `catch_unwind` boundary. If the
/// cell panics, the harness's handle still reads the ring — a panic
/// while the interior mutex was held cannot occur mid-`record` in a
/// way that loses the ring (lock poisoning is ignored by design: a
/// poisoned ring still holds every completed `push`).
#[derive(Debug)]
pub struct SharedRecorder<E> {
    inner: Arc<Mutex<FlightRecorder<E>>>,
}

impl<E> Clone for SharedRecorder<E> {
    fn clone(&self) -> Self {
        SharedRecorder {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<E> SharedRecorder<E> {
    /// Creates a shared recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        SharedRecorder {
            inner: Arc::new(Mutex::new(FlightRecorder::new(capacity))),
        }
    }

    /// Runs `f` over the locked recorder, poisoned or not.
    fn with<R>(&self, f: impl FnOnce(&mut FlightRecorder<E>) -> R) -> R {
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.with(|r| r.len())
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.with(|r| r.is_empty())
    }

    /// Total events ever recorded.
    pub fn seen(&self) -> u64 {
        self.with(|r| r.seen())
    }

    /// Discards all retained events.
    pub fn clear(&self) {
        self.with(FlightRecorder::clear);
    }
}

impl<E: JsonlRecord> SharedRecorder<E> {
    /// Renders the retained events as JSONL, oldest first.
    pub fn dump_jsonl(&self) -> String {
        self.with(|r| r.dump_jsonl())
    }
}

impl<E> TelemetrySink<E> for SharedRecorder<E> {
    fn record(&mut self, event: E) {
        self.with(|r| r.push(event));
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

    #[test]
    fn shared_clone_survives_a_panicking_holder() {
        let outside: SharedRecorder<Event> = SharedRecorder::new(8);
        let inside = outside.clone();
        let result = std::panic::catch_unwind(move || {
            let mut sink = inside;
            sink.record(sample(1));
            sink.record(sample(2));
            panic!("cell crashed");
        });
        assert!(result.is_err());
        assert_eq!(outside.len(), 2);
        assert_eq!(outside.seen(), 2);
        let parsed = Event::parse_trace(&outside.dump_jsonl()).expect("dump parses");
        assert_eq!(parsed.len(), 2);
        outside.clear();
        assert!(outside.is_empty());
    }
}
