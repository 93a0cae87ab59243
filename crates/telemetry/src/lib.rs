//! Unified telemetry layer for the DAMQ reproduction.
//!
//! The simulators in this workspace historically reported *end-of-run
//! scalars* — counters in [`BufferStats`](../damq_core/struct.BufferStats.html),
//! one latency accumulator per run. The paper's central claims, however,
//! are **dynamic**: DAMQ beats the statically-partitioned designs because
//! queue occupancy shifts across outputs *over time*, and hot-spot traffic
//! saturates trees of switches stage by stage. This crate provides the
//! instrumentation to observe those dynamics:
//!
//! * [`TelemetrySink`] — a generic, zero-overhead-when-disabled event sink.
//!   Simulators are generic over the sink type; with the default
//!   [`NullSink`] every `record` call is a no-op the optimiser removes, so
//!   uninstrumented runs pay nothing.
//! * [`Event`] — a cycle-stamped packet-lifecycle event model
//!   (generate → inject → forward-per-stage → deliver, plus discards and
//!   head-of-line blocking) with a deterministic JSONL encoding and a
//!   matching parser, so one trace file yields per-hop latency breakdowns.
//! * [`Downsampler`] / [`Histogram`] — bounded-memory collectors. A
//!   million-cycle run folds into a fixed number of time bins by
//!   repeatedly halving resolution; a distribution with a known range
//!   (latency in cycles, occupied slots) is counted exactly, one bucket
//!   per value up to a cap.
//! * [`TraceSummary`] — replays a trace into lifecycles, occupancy series,
//!   HOL-blocking and discard timelines; the `trace_report` harness renders
//!   these as a text dashboard.
//! * [`MetricsRegistry`] / [`LogHistogram`] — named cycle-domain counters
//!   and bounded log-scale histograms with p50/p99/p999 readout and a
//!   byte-deterministic JSON snapshot; free when disabled.
//! * [`FlightRecorder`] — a bounded ring of recent events, whose tail the
//!   chaos soak writes next to the reproducer of an invariant violation.
//! * [`json`] — the workspace's one JSON codec: the harness reports, the
//!   registry snapshot, the event parser and violation-dump reproducers all
//!   go through its [`Json`](json::Json) value.
//!
//! See `docs/OBSERVABILITY.md` for the event model, the JSONL schema and
//! worked examples.
//!
//! # Examples
//!
//! Record a tiny lifecycle into a memory sink and summarise it:
//!
//! ```
//! use damq_telemetry::{Event, EventKind, MemorySink, TelemetrySink, TraceSummary};
//!
//! let mut sink = MemorySink::new();
//! sink.record(Event::new(1, EventKind::Generated { packet: 0, source: 2, dest: 1 }));
//! sink.record(Event::new(1, EventKind::Injected { packet: 0, source: 2 }));
//! sink.record(Event::new(2, EventKind::Forwarded { packet: 0, stage: 0, switch: 1, output: 0 }));
//! sink.record(Event::new(2, EventKind::Delivered { packet: 0, sink: 1 }));
//!
//! let summary = TraceSummary::from_events(sink.events());
//! let life = &summary.lifecycles[&0];
//! assert_eq!(life.network_latency(), Some(1));
//! assert_eq!(life.hop_waits(), Some(vec![1]));
//! ```

#![deny(missing_docs)]

mod collect;
mod event;
pub mod json;
mod recorder;
mod registry;
mod series;
mod sink;

pub use collect::{Hop, Lifecycle, TraceSummary};
pub use event::{Event, EventKind, ParseError};
pub use recorder::FlightRecorder;
pub use registry::{HistogramId, LogHistogram, MetricsRegistry};
pub use series::{sparkline, Bin, Downsampler, Histogram};
pub use sink::{CountingSink, JsonlRecord, JsonlSink, MemorySink, NullSink, TelemetrySink};
