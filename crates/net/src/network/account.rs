//! The packet-fate owner: every counter bump and lifecycle event, once.
//!
//! A packet's fate — generated, injected, forwarded, delivered, dropped
//! for a cause — is recorded in up to five stores: the windowed
//! [`NetMetrics`], the named-metric registry, the lifetime
//! [`ConservationLedger`], the [`FaultLedger`] and the telemetry sink.
//! [`Account`] holds all five and exposes one method per fate, so the
//! cycle steps (generate, the stage merges, inject, recovery) say *what
//! happened* and the stores cannot drift apart. Fault-ledger lines are
//! mirrored into the `net.fault.*` registry counters at the event
//! itself.

use damq_core::{FaultLedger, FaultSite, NodeId, Packet};
use damq_telemetry::{CounterId, Event, EventKind, HistogramId, MetricsRegistry, TelemetrySink};

use crate::metrics::NetMetrics;

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

/// Registry ids for the simulator's built-in metrics, resolved once at
/// construction so the hot path never does a name lookup.
///
/// Every name registered here must be listed in the metrics reference
/// table of `docs/OBSERVABILITY.md` (workspace lint 10).
#[derive(Debug)]
struct MetricIds {
    /// Network cycles stepped.
    cycles: CounterId,
    /// Packets generated at the sources.
    generated: CounterId,
    /// Packets injected into stage 0.
    injected: CounterId,
    /// Packets delivered to their destination terminal.
    delivered: CounterId,
    /// Packets discarded at the network entry.
    discarded_entry: CounterId,
    /// Packets discarded inside the network.
    discarded_network: CounterId,
    /// Source-to-sink latency per delivered packet.
    latency: HistogramId,
    /// Injection-to-sink latency per delivered packet.
    network_latency: HistogramId,
    /// Per-buffer occupied slots, sampled every cycle.
    occupancy: HistogramId,
    /// Switch-cycles advanced by the quiescent fast path.
    idle_skipped: CounterId,
    /// Resend attempts made by link-level retransmission.
    retransmits: CounterId,
    /// Parked packets given up after exhausting their retries.
    retry_exhausted: CounterId,
    /// Packets deflected through an alternate output (adaptive
    /// rerouting).
    rerouted: CounterId,
    /// Wrong-sink arrivals recirculated end-to-end instead of dropped.
    recirculated: CounterId,
    /// Fault-ledger mirror: buffer slots killed.
    fault_slots_killed: CounterId,
    /// Fault-ledger mirror: packets lost to link outages.
    fault_link_dropped: CounterId,
    /// Fault-ledger mirror: corrupted packets refused at sinks.
    fault_corrupt_dropped: CounterId,
    /// Fault-ledger mirror: transiently misrouted packets dropped.
    fault_misrouted: CounterId,
    /// Fault-ledger mirror: blocking probes invalidated by a misroute.
    fault_probe_invalidated: CounterId,
}

impl MetricIds {
    fn register(reg: &mut MetricsRegistry) -> Self {
        MetricIds {
            cycles: reg.counter("net.cycles"),
            generated: reg.counter("net.generated"),
            injected: reg.counter("net.injected"),
            delivered: reg.counter("net.delivered"),
            discarded_entry: reg.counter("net.discarded_entry"),
            discarded_network: reg.counter("net.discarded_network"),
            latency: reg.histogram("net.latency_cycles"),
            network_latency: reg.histogram("net.network_latency_cycles"),
            occupancy: reg.histogram("net.occupancy_slots"),
            idle_skipped: reg.counter("net.idle_skipped"),
            retransmits: reg.counter("net.retransmits"),
            retry_exhausted: reg.counter("net.retry_exhausted"),
            rerouted: reg.counter("net.rerouted"),
            recirculated: reg.counter("net.recirculated"),
            fault_slots_killed: reg.counter("net.fault.slots_killed"),
            fault_link_dropped: reg.counter("net.fault.link_dropped"),
            fault_corrupt_dropped: reg.counter("net.fault.corrupt_dropped"),
            fault_misrouted: reg.counter("net.fault.misrouted"),
            fault_probe_invalidated: reg.counter("net.fault.probe_invalidated"),
        }
    }
}

/// One line of the [`FaultLedger`] (and its `net.fault.*` mirror).
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

/// The five stores a packet's fate is written to. See the module docs.
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
        self.metrics.record_cycle();
        self.registry.add(self.ids.cycles, 1);
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
        self.metrics.record_generated();
        self.registry.add(self.ids.generated, 1);
        self.ledger.generated += 1;
    }

    pub(super) fn injected(&mut self, cycle: u64, packet: u64, source: usize) {
        let source = source as u32;
        self.emit(cycle, EventKind::Injected { packet, source });
        self.metrics.record_injected();
        self.registry.add(self.ids.injected, 1);
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
        self.registry.add(self.ids.delivered, 1);
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
                self.registry.add(self.ids.retry_exhausted, 1);
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
            self.metrics.record_entry_discard();
            self.registry.add(self.ids.discarded_entry, 1);
        } else {
            self.metrics.record_network_discard();
            self.registry.add(self.ids.discarded_network, 1);
        }
        if let Some(fault) = fault {
            self.tally(fault);
        }
    }

    /// Adds one to a fault-ledger line and its registry mirror.
    fn tally(&mut self, fault: FaultTally) {
        let (ledger, ids) = (&mut self.fault_ledger, &self.ids);
        let (line, mirror) = match fault {
            FaultTally::SlotKilled => (&mut ledger.slots_killed, ids.fault_slots_killed),
            FaultTally::LinkDropped => (&mut ledger.link_dropped, ids.fault_link_dropped),
            FaultTally::CorruptDropped => (&mut ledger.corrupt_dropped, ids.fault_corrupt_dropped),
            FaultTally::Misrouted => (&mut ledger.misrouted, ids.fault_misrouted),
            FaultTally::ProbeInvalidated => {
                (&mut ledger.probe_invalidated, ids.fault_probe_invalidated)
            }
        };
        *line += 1;
        self.registry.add(mirror, 1);
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
        self.registry.add(self.ids.retransmits, 1);
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
        self.registry.add(self.ids.rerouted, 1);
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
        self.registry.add(self.ids.recirculated, 1);
        self.emit(cycle, EventKind::Recirculated { packet, sink });
    }

    pub(super) fn idle_skipped(&mut self, switches: u64) {
        self.registry.add(self.ids.idle_skipped, switches);
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
