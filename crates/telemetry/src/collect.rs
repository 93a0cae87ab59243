//! Replaying a trace into per-packet lifecycles and per-cycle series.
//!
//! [`TraceSummary`] is the analysis half of the telemetry layer: feed it
//! the events of one run (incrementally via [`feed`](TraceSummary::feed)
//! or at once via [`from_events`](TraceSummary::from_events)) and it
//! reconstructs packet lifecycle spans, bounded-memory occupancy series,
//! HOL-blocking and discard timelines — everything `trace_report` renders.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::series::{Downsampler, Histogram};

/// One crossbar traversal in a packet's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Cycle the packet crossed the crossbar.
    pub cycle: u64,
    /// Stage of the forwarding switch.
    pub stage: u32,
    /// Switch index within its stage.
    pub switch: u32,
    /// Output port taken.
    pub output: u32,
}

/// The reconstructed life of one packet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lifecycle {
    /// Packet serial number.
    pub packet: u64,
    /// Cycle the source created the packet.
    pub generated: Option<u64>,
    /// Cycle the packet entered a first-stage buffer.
    pub injected: Option<u64>,
    /// Crossbar traversals, in trace order.
    pub hops: Vec<Hop>,
    /// Delivery cycle and sink terminal, once delivered.
    pub delivered: Option<(u64, u32)>,
    /// Cycle the packet was discarded (at entry or in the network).
    pub discarded: Option<u64>,
}

impl Lifecycle {
    /// Cycles spent waiting before each hop.
    ///
    /// The wait at stage `s` is `hops[s].cycle − arrival(s)`, where the
    /// packet arrives at stage 0 when injected and at stage `s > 0` on
    /// the cycle it was forwarded out of stage `s − 1`. `None` until the
    /// packet has been injected.
    pub fn hop_waits(&self) -> Option<Vec<u64>> {
        let injected = self.injected?;
        let mut arrival = injected;
        let mut waits = Vec::with_capacity(self.hops.len());
        for hop in &self.hops {
            waits.push(hop.cycle.saturating_sub(arrival));
            arrival = hop.cycle;
        }
        Some(waits)
    }

    /// Cycles from injection to delivery. `None` until delivered.
    pub fn network_latency(&self) -> Option<u64> {
        let (delivered, _) = self.delivered?;
        Some(delivered - self.injected?)
    }

    /// Cycles from generation to delivery (includes source-queue wait).
    pub fn total_latency(&self) -> Option<u64> {
        let (delivered, _) = self.delivered?;
        Some(delivered - self.generated?)
    }

    /// Cycles spent in the source queue before injection.
    pub fn source_wait(&self) -> Option<u64> {
        Some(self.injected? - self.generated?)
    }

    fn entry(&mut self, packet: u64) -> &mut Self {
        self.packet = packet;
        self
    }
}

/// Default bin budget for the summary's per-cycle series.
const SUMMARY_BINS: usize = 64;

/// Occupied slots per buffer the summary resolves exactly; a fuller
/// buffer counts in the histogram's overflow bucket.
const OCCUPANCY_CAP: u64 = 255;

/// Everything a trace says about one run, in bounded memory except for
/// the per-packet lifecycle map (which is proportional to packets, not
/// cycles).
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Per-packet lifecycle spans, keyed by packet serial.
    pub lifecycles: BTreeMap<u64, Lifecycle>,
    /// The run's `RunMeta`, if the trace contained one.
    pub meta: Option<RunMeta>,
    /// Per-stage occupied-slot time series (index = stage).
    pub stage_occupancy: Vec<Downsampler>,
    /// Per-stage forwarded-packets (link utilisation) time series.
    pub stage_forwarded: Vec<Downsampler>,
    /// Network-wide HOL-blocked packet count per cycle.
    pub hol_series: Downsampler,
    /// Discards (entry + network) per cycle.
    pub discard_series: Downsampler,
    /// Source-queue backlog per cycle.
    pub backlog_series: Downsampler,
    /// How often buffers sat at each occupancy level, across the run.
    pub buffer_occupancy: Histogram,
    /// Total packets generated.
    pub generated: u64,
    /// Total packets injected.
    pub injected: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Packets dropped at network entry.
    pub entry_discards: u64,
    /// Packets dropped between stages.
    pub network_discards: u64,
    /// Sum over cycles of HOL-blocked packet counts.
    pub hol_blocked_cycles: u64,
    /// Buffer slots disabled by fault injection.
    pub slot_kills: u64,
    /// Link-outage windows opened by fault injection.
    pub link_downs: u64,
    /// Packets dropped at a sink with a failed checksum.
    pub corrupt_drops: u64,
    /// Packets dropped after arriving at the wrong sink.
    pub misroutes: u64,
    /// Link-level resend attempts by the recovery layer.
    pub retransmits: u64,
    /// Parked packets dropped after exhausting their retries.
    pub gave_ups: u64,
    /// Departures deflected to an alternate output by adaptive routing.
    pub reroutes: u64,
    /// Deflected packets fed back into a source queue at the wrong sink.
    pub recirculations: u64,
    /// Last cycle stamp seen.
    pub last_cycle: u64,
    /// Per-cycle discard counter, flushed into `discard_series` when the
    /// cycle stamp advances.
    pending_discards: u64,
    pending_cycle: Option<u64>,
}

/// Copy of the run-identification fields from [`EventKind::RunMeta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Buffer design under test.
    pub design: String,
    /// Number of terminals.
    pub terminals: u32,
    /// Switch radix.
    pub radix: u32,
    /// Number of stages.
    pub stages: u32,
    /// Slots per input buffer.
    pub slots: u32,
    /// Free-form run description.
    pub note: String,
}

impl Default for TraceSummary {
    fn default() -> Self {
        TraceSummary::new()
    }
}

impl TraceSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        TraceSummary {
            lifecycles: BTreeMap::new(),
            meta: None,
            stage_occupancy: Vec::new(),
            stage_forwarded: Vec::new(),
            hol_series: Downsampler::new(SUMMARY_BINS),
            discard_series: Downsampler::new(SUMMARY_BINS),
            backlog_series: Downsampler::new(SUMMARY_BINS),
            buffer_occupancy: Histogram::new(OCCUPANCY_CAP),
            generated: 0,
            injected: 0,
            delivered: 0,
            entry_discards: 0,
            network_discards: 0,
            hol_blocked_cycles: 0,
            slot_kills: 0,
            link_downs: 0,
            corrupt_drops: 0,
            misroutes: 0,
            retransmits: 0,
            gave_ups: 0,
            reroutes: 0,
            recirculations: 0,
            last_cycle: 0,
            pending_discards: 0,
            pending_cycle: None,
        }
    }

    /// Builds a summary from a complete event slice.
    pub fn from_events(events: &[Event]) -> Self {
        let mut summary = TraceSummary::new();
        for event in events {
            summary.feed(event);
        }
        summary.finish();
        summary
    }

    fn lifecycle(&mut self, packet: u64) -> &mut Lifecycle {
        self.lifecycles.entry(packet).or_default().entry(packet)
    }

    /// Per-cycle counters (currently discards) are accumulated until the
    /// cycle stamp advances, then flushed as one sample.
    fn roll_cycle(&mut self, cycle: u64) {
        match self.pending_cycle {
            Some(current) if current == cycle => {}
            Some(_) => {
                self.discard_series.record(self.pending_discards as f64);
                self.pending_discards = 0;
                self.pending_cycle = Some(cycle);
            }
            None => self.pending_cycle = Some(cycle),
        }
    }

    /// Incorporates one event.
    pub fn feed(&mut self, event: &Event) {
        self.last_cycle = self.last_cycle.max(event.cycle);
        self.roll_cycle(event.cycle);
        match &event.kind {
            EventKind::RunMeta {
                design,
                terminals,
                radix,
                stages,
                slots,
                note,
            } => {
                self.meta = Some(RunMeta {
                    design: design.clone(),
                    terminals: *terminals,
                    radix: *radix,
                    stages: *stages,
                    slots: *slots,
                    note: note.clone(),
                });
            }
            EventKind::Generated { packet, .. } => {
                self.generated += 1;
                self.lifecycle(*packet).generated = Some(event.cycle);
            }
            EventKind::Injected { packet, .. } => {
                self.injected += 1;
                self.lifecycle(*packet).injected = Some(event.cycle);
            }
            EventKind::EntryDiscarded { packet, .. } => {
                self.entry_discards += 1;
                self.pending_discards += 1;
                self.lifecycle(*packet).discarded = Some(event.cycle);
            }
            EventKind::Forwarded {
                packet,
                stage,
                switch,
                output,
            } => {
                let cycle = event.cycle;
                self.lifecycle(*packet).hops.push(Hop {
                    cycle,
                    stage: *stage,
                    switch: *switch,
                    output: *output,
                });
            }
            EventKind::NetworkDiscarded { packet, .. } => {
                self.network_discards += 1;
                self.pending_discards += 1;
                self.lifecycle(*packet).discarded = Some(event.cycle);
            }
            EventKind::Delivered { packet, sink } => {
                self.delivered += 1;
                self.lifecycle(*packet).delivered = Some((event.cycle, *sink));
            }
            EventKind::HolBlocked { blocked, .. } => {
                self.hol_blocked_cycles += u64::from(*blocked);
            }
            EventKind::SlotKilled { .. } => {
                self.slot_kills += 1;
            }
            EventKind::LinkDown { .. } => {
                self.link_downs += 1;
            }
            EventKind::CorruptDropped { packet, .. } => {
                self.corrupt_drops += 1;
                self.pending_discards += 1;
                self.lifecycle(*packet).discarded = Some(event.cycle);
            }
            EventKind::Misrouted { packet, .. } => {
                self.misroutes += 1;
                self.pending_discards += 1;
                self.lifecycle(*packet).discarded = Some(event.cycle);
            }
            EventKind::Retransmit { .. } => {
                self.retransmits += 1;
            }
            EventKind::GaveUp { packet, .. } => {
                self.gave_ups += 1;
                self.pending_discards += 1;
                self.lifecycle(*packet).discarded = Some(event.cycle);
            }
            EventKind::Rerouted { .. } => {
                self.reroutes += 1;
            }
            // A recirculated packet is back in a source queue, still
            // live: it neither discards nor closes the lifecycle.
            EventKind::Recirculated { .. } => {
                self.recirculations += 1;
            }
            EventKind::CycleSample {
                occupied,
                forwarded,
                buffer_occupancy,
                backlog,
                hol_blocked,
            } => {
                while self.stage_occupancy.len() < occupied.len() {
                    self.stage_occupancy.push(Downsampler::new(SUMMARY_BINS));
                }
                for (stage, &v) in occupied.iter().enumerate() {
                    self.stage_occupancy[stage].record(f64::from(v));
                }
                while self.stage_forwarded.len() < forwarded.len() {
                    self.stage_forwarded.push(Downsampler::new(SUMMARY_BINS));
                }
                for (stage, &v) in forwarded.iter().enumerate() {
                    self.stage_forwarded[stage].record(f64::from(v));
                }
                for (level, &n) in buffer_occupancy.iter().enumerate() {
                    self.buffer_occupancy
                        .record_many(level as u64, u64::from(n));
                }
                self.backlog_series.record(f64::from(*backlog));
                self.hol_series.record(f64::from(*hol_blocked));
            }
        }
    }

    /// Flushes trailing per-cycle counters. Called by
    /// [`from_events`](TraceSummary::from_events); call it yourself after
    /// the last [`feed`](TraceSummary::feed).
    pub fn finish(&mut self) {
        if self.pending_cycle.take().is_some() {
            self.discard_series.record(self.pending_discards as f64);
            self.pending_discards = 0;
        }
    }

    /// Mean network latency (inject → deliver) over delivered packets.
    pub fn mean_network_latency(&self) -> Option<f64> {
        let latencies: Vec<u64> = self
            .lifecycles
            .values()
            .filter_map(Lifecycle::network_latency)
            .collect();
        if latencies.is_empty() {
            return None;
        }
        Some(latencies.iter().sum::<u64>() as f64 / latencies.len() as f64)
    }

    /// Mean wait per stage over delivered packets: element `s` is the
    /// average number of cycles delivered packets spent waiting in stage
    /// `s`. These per-hop means sum to
    /// [`mean_network_latency`](TraceSummary::mean_network_latency).
    pub fn mean_hop_waits(&self) -> Vec<f64> {
        let mut sums: Vec<u64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for life in self.lifecycles.values() {
            if life.delivered.is_none() {
                continue;
            }
            let Some(waits) = life.hop_waits() else {
                continue;
            };
            if waits.len() > sums.len() {
                sums.resize(waits.len(), 0);
                counts.resize(waits.len(), 0);
            }
            for (s, w) in waits.iter().enumerate() {
                sums[s] += w;
                counts[s] += 1;
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s as f64 / c as f64 })
            .collect()
    }

    /// Checks the span-nesting invariants every well-formed trace obeys,
    /// returning the first violation as text.
    ///
    /// For every packet: delivery implies injection; cycle stamps are
    /// monotone (generated ≤ injected < hop₀ < hop₁ < …); the delivery
    /// stamp equals the last forward stamp; a packet is not both
    /// delivered and discarded.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_well_nested(&self) -> Result<(), String> {
        for (id, life) in &self.lifecycles {
            if let (Some(g), Some(i)) = (life.generated, life.injected) {
                if g > i {
                    return Err(format!("packet {id}: generated@{g} after injected@{i}"));
                }
            }
            if let Some(injected) = life.injected {
                let mut prev = injected;
                for hop in &life.hops {
                    if hop.cycle <= prev {
                        return Err(format!(
                            "packet {id}: hop at cycle {} not after {}",
                            hop.cycle, prev
                        ));
                    }
                    prev = hop.cycle;
                }
            }
            if let Some((delivered, _)) = life.delivered {
                if life.injected.is_none() {
                    return Err(format!("packet {id}: delivered without inject"));
                }
                if life.discarded.is_some() {
                    return Err(format!("packet {id}: both delivered and discarded"));
                }
                match life.hops.last() {
                    Some(last) if last.cycle == delivered => {}
                    Some(last) => {
                        return Err(format!(
                            "packet {id}: delivered@{delivered} but last hop@{}",
                            last.cycle
                        ));
                    }
                    None => {
                        return Err(format!("packet {id}: delivered with no hops"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<Event> {
        vec![
            Event::new(
                0,
                EventKind::RunMeta {
                    design: "FIFO".into(),
                    terminals: 2,
                    radix: 2,
                    stages: 1,
                    slots: 4,
                    note: "test".into(),
                },
            ),
            Event::new(
                1,
                EventKind::Generated {
                    packet: 0,
                    source: 0,
                    dest: 1,
                },
            ),
            Event::new(
                1,
                EventKind::Injected {
                    packet: 0,
                    source: 0,
                },
            ),
            Event::new(
                1,
                EventKind::CycleSample {
                    occupied: vec![1],
                    forwarded: vec![0],
                    buffer_occupancy: vec![1, 1],
                    backlog: 0,
                    hol_blocked: 0,
                },
            ),
            Event::new(
                3,
                EventKind::Forwarded {
                    packet: 0,
                    stage: 0,
                    switch: 0,
                    output: 1,
                },
            ),
            Event::new(3, EventKind::Delivered { packet: 0, sink: 1 }),
            Event::new(
                4,
                EventKind::Generated {
                    packet: 1,
                    source: 1,
                    dest: 0,
                },
            ),
            Event::new(
                4,
                EventKind::EntryDiscarded {
                    packet: 1,
                    source: 1,
                },
            ),
        ]
    }

    #[test]
    fn summary_reconstructs_lifecycles() {
        let summary = TraceSummary::from_events(&trace());
        assert_eq!(summary.generated, 2);
        assert_eq!(summary.injected, 1);
        assert_eq!(summary.delivered, 1);
        assert_eq!(summary.entry_discards, 1);
        assert_eq!(summary.meta.as_ref().unwrap().design, "FIFO");

        let life = &summary.lifecycles[&0];
        assert_eq!(life.network_latency(), Some(2));
        assert_eq!(life.total_latency(), Some(2));
        assert_eq!(life.source_wait(), Some(0));
        assert_eq!(life.hop_waits(), Some(vec![2]));

        let dropped = &summary.lifecycles[&1];
        assert_eq!(dropped.discarded, Some(4));
        assert_eq!(dropped.network_latency(), None);

        assert_eq!(summary.stage_occupancy.len(), 1);
        assert_eq!(summary.buffer_occupancy.count(), 2);
        summary.check_well_nested().unwrap();
    }

    #[test]
    fn mean_hop_waits_sum_to_network_latency() {
        let summary = TraceSummary::from_events(&trace());
        let hops: f64 = summary.mean_hop_waits().iter().sum();
        assert!((hops - summary.mean_network_latency().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn nesting_violations_are_caught() {
        let events = vec![Event::new(5, EventKind::Delivered { packet: 7, sink: 0 })];
        let summary = TraceSummary::from_events(&events);
        assert!(summary.check_well_nested().is_err());

        let events = vec![
            Event::new(
                2,
                EventKind::Injected {
                    packet: 0,
                    source: 0,
                },
            ),
            Event::new(
                2,
                EventKind::Forwarded {
                    packet: 0,
                    stage: 0,
                    switch: 0,
                    output: 0,
                },
            ),
        ];
        let summary = TraceSummary::from_events(&events);
        assert!(
            summary.check_well_nested().is_err(),
            "hop must follow inject"
        );
    }

    #[test]
    fn discard_series_flushes_per_cycle() {
        let events = vec![
            Event::new(
                1,
                EventKind::EntryDiscarded {
                    packet: 0,
                    source: 0,
                },
            ),
            Event::new(
                1,
                EventKind::EntryDiscarded {
                    packet: 1,
                    source: 1,
                },
            ),
            Event::new(
                2,
                EventKind::EntryDiscarded {
                    packet: 2,
                    source: 0,
                },
            ),
        ];
        let summary = TraceSummary::from_events(&events);
        let bins = summary.discard_series.bins_with_pending();
        let total: f64 = bins.iter().map(|b| b.sum).sum();
        assert_eq!(total, 3.0);
        assert_eq!(summary.discard_series.samples(), 2);
    }
}
