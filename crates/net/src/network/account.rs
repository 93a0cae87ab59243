//! The packet-fate owner: every counter bump and lifecycle event, once.
//!
//! A packet's fate — generated, injected, forwarded, delivered, dropped
//! for a cause — is one bump in the current window's
//! [`Counters`](crate::metrics::Counters) inside [`NetMetrics`], plus a
//! line in whichever independent observer watches that fate: the
//! lifetime [`ConservationLedger`] (the audit's own tally), the
//! [`FaultLedger`] (drops with a fault for a cause) and the telemetry
//! sink. [`Account`] holds them and exposes one method per fate, so the
//! cycle steps (generate, the stage merges, inject, recovery) say *what
//! happened* and the stores cannot drift apart. The named-metric
//! registry is not a store on this path: its sixteen counters are
//! derived, once per cycle, from the lifetime view of the window
//! counters and from the fault ledger ([`Account::publish_counters`]);
//! only its three histograms are fed sample by sample.

use damq_core::{FaultLedger, FaultSite, NodeId, Packet};
use damq_telemetry::{Event, EventKind, HistogramId, MetricsRegistry, TelemetrySink};

use crate::metrics::{Counters, NetMetrics};

/// Lifetime packet ledger for the conservation audit.
///
/// [`NetMetrics`] counters are zeroed by
/// [`NetworkSim::warm_up`](super::NetworkSim::warm_up), so they
/// cannot back a whole-run balance check. This ledger counts from
/// construction and is never reset: at the end of every cycle,
///
/// ```text
/// generated = delivered + discarded + source backlog + in flight
/// ```
///
/// must hold exactly — the network-level analogue of the slot-partition
/// invariant (a packet is always in exactly one place).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct ConservationLedger {
    pub(super) generated: u64,
    pub(super) delivered: u64,
    pub(super) discarded: u64,
}

/// Registry ids of the three histograms — the metrics fed sample by
/// sample — resolved once at construction so the hot path never does a
/// name lookup.
///
/// Every name registered here or listed in [`counter_rows`] must appear
/// in the metrics reference table of `docs/OBSERVABILITY.md` (workspace
/// lint 10).
#[derive(Debug)]
struct MetricIds {
    /// Source-to-sink latency per delivered packet.
    latency: HistogramId,
    /// Injection-to-sink latency per delivered packet.
    network_latency: HistogramId,
    /// Per-buffer occupied slots, sampled every cycle.
    occupancy: HistogramId,
}

impl MetricIds {
    fn register(reg: &mut MetricsRegistry) -> Self {
        for (name, _) in counter_rows(&Counters::default(), &FaultLedger::default()) {
            reg.counter(name);
        }
        MetricIds {
            latency: reg.histogram("net.latency_cycles"),
            network_latency: reg.histogram("net.network_latency_cycles"),
            occupancy: reg.histogram("net.occupancy_slots"),
        }
    }
}

/// The registry's sixteen counters, in registration (= snapshot) order,
/// each with the one place its value is kept: a lifetime counter or a
/// fault-ledger line.
fn counter_rows(life: &Counters, faults: &FaultLedger) -> [(&'static str, u64); 16] {
    [
        ("net.cycles", life.cycles),
        ("net.generated", life.generated),
        ("net.injected", life.injected),
        ("net.delivered", life.delivered),
        ("net.discarded_entry", life.discarded_entry),
        ("net.discarded_network", life.discarded_network),
        ("net.idle_skipped", life.idle_skipped),
        ("net.retransmits", life.retransmits),
        ("net.retry_exhausted", life.retry_exhausted),
        ("net.rerouted", life.rerouted),
        ("net.recirculated", life.recirculated),
        ("net.fault.slots_killed", faults.slots_killed),
        ("net.fault.link_dropped", faults.link_dropped),
        ("net.fault.corrupt_dropped", faults.corrupt_dropped),
        ("net.fault.misrouted", faults.misrouted),
        ("net.fault.probe_invalidated", faults.probe_invalidated),
    ]
}

/// One line of the [`FaultLedger`].
#[derive(Debug, Clone, Copy)]
pub(super) enum FaultTally {
    SlotKilled,
    LinkDropped,
    CorruptDropped,
    Misrouted,
    ProbeInvalidated,
}

/// Why (and where) a packet left the network undelivered — one variant
/// per drop site, each mapping to one telemetry event, one discard
/// bucket and at most one fault-ledger line.
#[derive(Debug, Clone, Copy)]
pub(super) enum DropCause {
    /// Lost at the network's edge on its way in from `source`: the entry
    /// buffer was full (`fault` is `None`) or the entry wire was down.
    Entry {
        source: usize,
        fault: Option<FaultTally>,
    },
    /// Lost between stages after leaving (`stage`, `switch`); `fault`
    /// is `None` for a plain discarding-protocol bounce.
    Hop {
        stage: usize,
        switch: usize,
        fault: Option<FaultTally>,
    },
    /// Arrived at the wrong terminal `sink` after a misroute.
    WrongSink { sink: usize },
    /// Refused at `sink` with a failed checksum.
    Corrupt { sink: usize },
    /// Retransmission exhausted its `attempts`; the copy was parked by
    /// (`stage`, `switch`), on an entry wire when `at_entry`.
    GaveUp {
        stage: u32,
        switch: u32,
        attempts: u32,
        at_entry: bool,
    },
}

/// The stores a packet's fate is written to. See the module docs.
#[derive(Debug)]
pub(super) struct Account<S> {
    pub(super) metrics: NetMetrics,
    /// Named-metric registry (disabled by default; see
    /// [`NetworkSim::with_metrics`](super::NetworkSim::with_metrics)).
    pub(super) registry: MetricsRegistry,
    /// Static registry ids, resolved once at construction.
    ids: MetricIds,
    pub(super) ledger: ConservationLedger,
    pub(super) fault_ledger: FaultLedger,
    pub(super) sink: S,
    /// Departures per stage this cycle, for the cycle sample (counted
    /// only while the sink is enabled).
    forwarded: Vec<u32>,
}

impl<S: TelemetrySink<Event>> Account<S> {
    pub(super) fn new(terminals: usize, stages: usize, sink: S) -> Self {
        let mut registry = MetricsRegistry::disabled();
        let ids = MetricIds::register(&mut registry);
        Account {
            metrics: NetMetrics::new(terminals),
            registry,
            ids,
            ledger: ConservationLedger::default(),
            fault_ledger: FaultLedger::default(),
            sink,
            forwarded: vec![0; stages],
        }
    }

    #[inline]
    pub(super) fn emit(&mut self, cycle: u64, kind: EventKind) {
        if self.sink.enabled() {
            self.sink.record(Event::new(cycle, kind));
        }
    }

    pub(super) fn cycle_started(&mut self) {
        self.metrics.window.cycles += 1;
    }

    /// Derives the registry's counters from their owners. Called once
    /// per cycle, and only while the registry is enabled.
    pub(super) fn publish_counters(&mut self) {
        let rows = counter_rows(&self.metrics.lifetime(), &self.fault_ledger);
        self.registry.publish(&rows);
    }

    pub(super) fn generated(&mut self, cycle: u64, packet: u64, source: usize, dest: NodeId) {
        let (source, dest) = (source as u32, dest.index() as u32);
        self.emit(
            cycle,
            EventKind::Generated {
                packet,
                source,
                dest,
            },
        );
        self.metrics.window.generated += 1;
        self.ledger.generated += 1;
    }

    pub(super) fn injected(&mut self, cycle: u64, packet: u64, source: usize) {
        let source = source as u32;
        self.emit(cycle, EventKind::Injected { packet, source });
        self.metrics.window.injected += 1;
    }

    /// A departure left (`stage`, `switch`) through `output` (telemetry
    /// only — a forward settles no fate).
    pub(super) fn forwarded(
        &mut self,
        cycle: u64,
        packet: u64,
        stage: usize,
        switch: usize,
        output: usize,
    ) {
        if self.sink.enabled() {
            self.forwarded[stage] += 1;
        }
        self.emit(
            cycle,
            EventKind::Forwarded {
                packet,
                stage: stage as u32,
                switch: switch as u32,
                output: output as u32,
            },
        );
    }

    /// `packet` reached its destination terminal at `cycle`.
    pub(super) fn delivered(&mut self, cycle: u64, packet: &Packet) {
        let sink = packet.dest().index();
        let total = cycle.saturating_sub(packet.birth_cycle());
        let injected = packet.injected_cycle().unwrap_or(packet.birth_cycle());
        let network = cycle.saturating_sub(injected);
        self.emit(
            cycle,
            EventKind::Delivered {
                packet: packet.id().serial(),
                sink: sink as u32,
            },
        );
        self.metrics
            .record_delivery_from(packet.source().index(), sink, total, network);
        self.registry.observe(self.ids.latency, total);
        self.registry.observe(self.ids.network_latency, network);
        self.ledger.delivered += 1;
    }

    /// `packet` (a serial) left the network undelivered.
    pub(super) fn dropped(&mut self, cycle: u64, packet: u64, cause: DropCause) {
        let (kind, at_entry, fault) = match cause {
            DropCause::Entry { source, fault } => {
                let source = source as u32;
                (EventKind::EntryDiscarded { packet, source }, true, fault)
            }
            DropCause::Hop {
                stage,
                switch,
                fault,
            } => {
                let (stage, switch) = (stage as u32, switch as u32);
                let kind = EventKind::NetworkDiscarded {
                    packet,
                    stage,
                    switch,
                };
                (kind, false, fault)
            }
            DropCause::WrongSink { sink } => {
                let sink = sink as u32;
                let kind = EventKind::Misrouted { packet, sink };
                (kind, false, Some(FaultTally::Misrouted))
            }
            DropCause::Corrupt { sink } => {
                let sink = sink as u32;
                let kind = EventKind::CorruptDropped { packet, sink };
                (kind, false, Some(FaultTally::CorruptDropped))
            }
            DropCause::GaveUp {
                stage,
                switch,
                attempts,
                at_entry,
            } => {
                self.metrics.window.retry_exhausted += 1;
                let kind = EventKind::GaveUp {
                    packet,
                    stage,
                    switch,
                    attempts,
                };
                (kind, at_entry, None)
            }
        };
        self.emit(cycle, kind);
        self.ledger.discarded += 1;
        if at_entry {
            self.metrics.window.discarded_entry += 1;
        } else {
            self.metrics.window.discarded_network += 1;
        }
        if let Some(fault) = fault {
            self.tally(fault);
        }
    }

    /// Adds one to a fault-ledger line.
    fn tally(&mut self, fault: FaultTally) {
        let ledger = &mut self.fault_ledger;
        let line = match fault {
            FaultTally::SlotKilled => &mut ledger.slots_killed,
            FaultTally::LinkDropped => &mut ledger.link_dropped,
            FaultTally::CorruptDropped => &mut ledger.corrupt_dropped,
            FaultTally::Misrouted => &mut ledger.misrouted,
            FaultTally::ProbeInvalidated => &mut ledger.probe_invalidated,
        };
        *line += 1;
    }

    /// A fault plan permanently removed one buffer slot at `site`.
    pub(super) fn slot_killed(&mut self, cycle: u64, site: FaultSite) {
        self.tally(FaultTally::SlotKilled);
        self.emit(
            cycle,
            EventKind::SlotKilled {
                stage: site.stage as u32,
                switch: site.switch as u32,
                input: site.input as u32,
            },
        );
    }

    /// A fault plan took the wire into `site` out of service until
    /// cycle `until`.
    pub(super) fn link_down(&mut self, cycle: u64, site: FaultSite, until: u64) {
        self.emit(
            cycle,
            EventKind::LinkDown {
                stage: site.stage as u32,
                switch: site.switch as u32,
                input: site.input as u32,
                until,
            },
        );
    }

    /// Resend attempt number `attempt` of the copy parked (with per-hop
    /// sequence number `seq`) by (`stage`, `switch`).
    pub(super) fn retransmit(
        &mut self,
        cycle: u64,
        packet: u64,
        (stage, switch): (u32, u32),
        attempt: u32,
        seq: u64,
    ) {
        self.metrics.window.retransmits += 1;
        self.emit(
            cycle,
            EventKind::Retransmit {
                packet,
                stage,
                switch,
                attempt,
                seq,
            },
        );
    }

    /// Adaptive rerouting deflected a departure from (`stage`, `switch`)
    /// through the alternate `output`.
    pub(super) fn rerouted(
        &mut self,
        cycle: u64,
        packet: u64,
        stage: usize,
        switch: usize,
        output: usize,
    ) {
        self.metrics.window.rerouted += 1;
        self.emit(
            cycle,
            EventKind::Rerouted {
                packet,
                stage: stage as u32,
                switch: switch as u32,
                output: output as u32,
            },
        );
    }

    /// A wrong-sink arrival recirculates end-to-end instead of dropping.
    pub(super) fn recirculated(&mut self, cycle: u64, packet: u64, sink: usize) {
        let sink = sink as u32;
        self.metrics.window.recirculated += 1;
        self.emit(cycle, EventKind::Recirculated { packet, sink });
    }

    pub(super) fn idle_skipped(&mut self, switches: u64) {
        self.metrics.window.idle_skipped += switches;
    }

    pub(super) fn occupancy_observed(&mut self, used_slots: usize) {
        self.registry.observe(self.ids.occupancy, used_slots as u64);
    }

    /// The per-stage departure counts accumulated since the last call
    /// (zeroing them for the next cycle).
    pub(super) fn take_forwarded(&mut self) -> Vec<u32> {
        // Tracing only: the cycle sample event owns its vector.
        let forwarded = self.forwarded.clone();
        self.forwarded.fill(0);
        forwarded
    }
}
