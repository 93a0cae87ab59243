//! The synchronous Omega-network simulator.
//!
//! The simulator follows the paper's assumptions (§4.2, after Pfister &
//! Norton): message transmissions are synchronised, so packets move between
//! stages "instantaneously once every twelve clock cycles". One call to
//! [`NetworkSim::step`] is one such network cycle:
//!
//! 1. every source generates a packet with probability equal to the offered
//!    load, appending it to its (unbounded) source queue;
//! 2. stages transmit, **last stage first**, so that space freed downstream
//!    in this cycle is visible upstream — a packet advances at most one
//!    stage per cycle;
//! 3. sources inject their head packet into the first stage if the protocol
//!    allows.
//!
//! Under the *blocking* protocol a switch only transmits a packet if the
//! downstream buffer can accept it (for the statically-allocated designs
//! this checks the specific queue the packet will join — the pre-routing
//! flow-control cost the paper describes). Under the *discarding* protocol
//! packets always fly and are dropped at full buffers.
//!
//! This module holds [`NetworkSim`], its builders and the cycle loop;
//! each decision the loop makes has one owner in a submodule:
//!
//! * `config` — the experiment description ([`NetworkConfig`]);
//! * `account` — what happened to a packet: one bump in the window
//!   counters, a line in the audit's ledgers, an event for the sink (the
//!   registry's counters are derived from those once per cycle);
//! * `stage` — the switch grid, the hop primitive every packet movement
//!   goes through, and the arbitrate/merge passes of stage advance;
//! * `profile` — where a cycle's wall-clock goes ([`PhaseProfile`]);
//! * `faults` — the installed fault plan and the link-outage table;
//! * `recovery` — retransmission and adaptive rerouting, a layer that is
//!   absent (`None`) unless [`RecoveryConfig`] turns it on;
//! * `source` — one source's queue of waiting packets, a decoded head and
//!   a delta-coded byte stream behind it;
//! * `audit` — the end-of-cycle invariant checks.

mod account;
mod audit;
mod config;
mod faults;
mod profile;
mod recovery;
mod source;
mod stage;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use damq_core::{
    AnyBuffer, BuildBuffer, FaultLedger, FaultPlan, InputPort, NodeId, Packet, PacketId,
    PacketIdSource, SwitchBuffer, DEFAULT_SLOT_BYTES,
};
use damq_switch::{Switch, SwitchConfig};
use damq_telemetry::{Event, EventKind, MetricsRegistry, NullSink, TelemetrySink};

pub use config::{ArrivalProcess, NetworkConfig, NetworkError, PacketLengths, RecoveryConfig};
pub use profile::PhaseProfile;

use crate::metrics::NetMetrics;
use crate::topology::{HopRoute, RoutePlan, Topology};
use account::{Account, DropCause, FaultTally};
use faults::{FaultState, Wiring};
use recovery::{HopKind, RecoveryState};
use source::SourceQueue;
use stage::{Fabric, StageScratch};

/// A generated packet waiting at its source, in compact form.
///
/// Holds exactly the identity a [`Packet`] is built from — serial,
/// destination, length, birth cycle — plus the corruption flag a fault
/// plan may have stamped at generation time. `materialize` rebuilds the
/// identical `Packet` (the source is the queue index) and stamps its
/// injection cycle, so deferring construction to injection time is
/// unobservable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PendingPacket {
    serial: u64,
    birth_cycle: u64,
    dest: NodeId,
    length_bytes: u16,
    corrupt: bool,
}

impl PendingPacket {
    fn materialize(self, source: usize, injected_at: u64) -> Packet {
        let mut packet = Packet::builder(NodeId::new(source), self.dest)
            .id(PacketId::new(self.serial))
            .length_bytes(usize::from(self.length_bytes))
            .birth_cycle(self.birth_cycle)
            .build();
        if self.corrupt {
            packet.corrupt_payload();
        }
        packet.mark_injected(injected_at);
        packet
    }
}

/// The simulator: a grid of switches, source queues and sinks.
///
/// `NetworkSim` is generic over two axes:
///
/// * the **buffer type** `B` of every switch. The default, [`AnyBuffer`],
///   selects the design at run time from the configuration's
///   [`BufferKind`](damq_core::BufferKind) through enum dispatch;
///   instantiate with a concrete design
///   (`NetworkSim::<DamqBuffer>::typed(..)`) to monomorphize the
///   whole data path for that design.
/// * the [`TelemetrySink`] `S`. The default [`NullSink`] compiles every
///   instrumentation point away, so [`NetworkSim::new`] behaves exactly
///   as before telemetry existed. Pass a real sink to
///   [`NetworkSim::with_sink`] to stream cycle-stamped lifecycle events
///   (see `docs/OBSERVABILITY.md`).
///
/// Routing is resolved through a [`RoutePlan`] precomputed at
/// construction: the per-packet path performs indexed loads instead of
/// shuffle/digit arithmetic, and each departure is routed exactly once.
#[derive(Debug)]
pub struct NetworkSim<B: SwitchBuffer = AnyBuffer, S: TelemetrySink<Event> = NullSink> {
    config: NetworkConfig,
    topology: Topology,
    plan: RoutePlan,
    /// The switch grid, its wires and the quiescence map.
    fabric: Fabric<B>,
    /// Generated-but-not-yet-injected packets, one queue per source. The
    /// full [`Packet`] (including its identity checksum) is materialized
    /// at injection time, so the packets the window never injects are
    /// never built at all; past saturation these queues grow without
    /// bound, and a waiting packet costs about five bytes.
    source_queues: Vec<SourceQueue>,
    /// Occupancy set over `source_queues`, 64 sources a word: bit `src`
    /// ⇔ queue `src` is non-empty (audited as `source-occupancy`), so
    /// injection visits only the sources that hold a packet.
    source_occupied: Vec<u64>,
    /// On/off state per source (always `true` under Bernoulli arrivals).
    source_on: Vec<bool>,
    /// The arbitrating stage's parked probe routes and departure
    /// records, between its two passes.
    scratch: StageScratch,
    ids: PacketIdSource,
    rng: StdRng,
    cycle: u64,
    /// Every counter store and the telemetry sink.
    acct: Account<S>,
    /// Whether the wall-clock phase profiler is on (see
    /// [`NetworkSim::with_phase_timing`]).
    phase_timing: bool,
    /// Nanoseconds per step of the cycle, accumulated only while
    /// `phase_timing` is on.
    profile: PhaseProfile,
    /// Whether arbitration advances quiescent switches with
    /// [`Switch::note_idle_cycle`] instead of a full arbitration sweep
    /// (on by default; see [`NetworkSim::with_idle_skip`]).
    idle_skip: bool,
    /// Recovery machinery, present only while the configuration's
    /// [`RecoveryConfig`] is active.
    recovery: Option<RecoveryState>,
}

impl NetworkSim {
    /// Builds the network without telemetry, with run-time buffer-design
    /// selection (the [`AnyBuffer`] default).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the topology dimensions are invalid,
    /// the buffer configuration is rejected (e.g. SAMQ slots not divisible
    /// by the radix) or the packet-length distribution is degenerate
    /// ([`NetworkError::PacketLengths`]).
    pub fn new(config: NetworkConfig) -> Result<Self, NetworkError> {
        Self::with_sink(config, NullSink)
    }

    /// Builds the network with a fault plan installed (see
    /// [`NetworkSim::install_fault_plan`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] as [`NetworkSim::new`] does.
    pub fn with_faults(config: NetworkConfig, plan: FaultPlan) -> Result<Self, NetworkError> {
        let mut sim = Self::new(config)?;
        sim.install_fault_plan(plan);
        Ok(sim)
    }
}

impl<S: TelemetrySink<Event>> NetworkSim<AnyBuffer, S> {
    /// Builds the network with a telemetry sink attached.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the topology dimensions are invalid or
    /// the buffer configuration is rejected (e.g. SAMQ slots not divisible
    /// by the radix).
    pub fn with_sink(config: NetworkConfig, sink: S) -> Result<Self, NetworkError> {
        Self::typed_with_sink(config, sink)
    }
}

impl<B: BuildBuffer> NetworkSim<B> {
    /// Builds the network without telemetry, with the buffer type fixed
    /// by the caller (`NetworkSim::<DamqBuffer>::typed(..)`). Concrete
    /// designs ignore the configuration's `buffer_kind`; the kind-erased
    /// [`AnyBuffer`] honours it.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] as [`NetworkSim::new`] does.
    pub fn typed(config: NetworkConfig) -> Result<Self, NetworkError> {
        Self::typed_with_sink(config, NullSink)
    }
}

impl<B: BuildBuffer, S: TelemetrySink<Event>> NetworkSim<B, S> {
    /// Builds the network with both the buffer type and the telemetry
    /// sink chosen by the caller.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] as [`NetworkSim::new`] does.
    pub fn typed_with_sink(config: NetworkConfig, sink: S) -> Result<Self, NetworkError> {
        if !config.packet_lengths.drawable(config.slots_per_buffer) {
            return Err(NetworkError::PacketLengths(config.packet_lengths));
        }
        let topology = Topology::build(config.topology_kind, config.size, config.radix)?;
        let plan = RoutePlan::new(&topology);
        let switch_config = SwitchConfig::new(config.radix)
            .buffer_kind(config.buffer_kind)
            .slots_per_buffer(config.slots_per_buffer)
            .arbiter_policy(config.arbiter_policy)
            .flow_control(config.flow_control);
        let per_stage = topology.switches_per_stage();
        let stages = topology.stages();
        let mut switches = Vec::with_capacity(stages);
        for _stage in 0..stages {
            let mut row = Vec::with_capacity(per_stage);
            for _ in 0..per_stage {
                row.push(Switch::typed(switch_config)?);
            }
            switches.push(row);
        }
        let wiring = Wiring {
            per_stage,
            radix: config.radix,
        };
        Ok(NetworkSim {
            config,
            topology,
            plan,
            fabric: Fabric::new(switches, wiring),
            source_queues: (0..config.size).map(|_| SourceQueue::default()).collect(),
            source_occupied: vec![0; config.size.div_ceil(64)],
            source_on: vec![true; config.size],
            scratch: StageScratch::new(config.radix),
            ids: PacketIdSource::new(),
            rng: StdRng::seed_from_u64(config.seed),
            cycle: 0,
            acct: Account::new(config.size, stages, sink),
            phase_timing: false,
            profile: PhaseProfile::default(),
            idle_skip: true,
            recovery: config
                .recovery
                .active()
                .then(|| RecoveryState::new(config.recovery, stages, wiring, config.size)),
        })
    }
}

impl<B: SwitchBuffer, S: TelemetrySink<Event>> NetworkSim<B, S> {
    /// Read access to the telemetry sink.
    pub fn sink(&self) -> &S {
        &self.acct.sink
    }

    /// Mutable access to the telemetry sink (e.g. to pause a
    /// [`MemorySink`](damq_telemetry::MemorySink) during warm-up).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.acct.sink
    }

    /// Consumes the simulator, flushing and returning the sink.
    pub fn into_sink(mut self) -> S {
        self.acct.sink.flush();
        self.acct.sink
    }

    /// Emits a [`RunMeta`](EventKind::RunMeta) event describing this run.
    ///
    /// Call once before stepping so trace consumers can tell runs apart;
    /// `note` is free-form (traffic pattern, load, seed).
    pub fn emit_run_meta(&mut self, note: &str) {
        if !self.acct.sink.enabled() {
            return;
        }
        self.acct.emit(
            self.cycle,
            EventKind::RunMeta {
                design: self.config.buffer_kind.name().to_string(),
                terminals: self.config.size as u32,
                radix: self.config.radix as u32,
                stages: self.topology.stages() as u32,
                slots: self.config.slots_per_buffer as u32,
                note: note.to_string(),
            },
        );
    }

    /// The experiment configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The wiring.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The precomputed routing tables (and their query counter).
    pub fn route_plan(&self) -> &RoutePlan {
        &self.plan
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Measurement counters for the current window.
    pub fn metrics(&self) -> &NetMetrics {
        &self.acct.metrics
    }

    /// Packets waiting in source queues.
    pub fn source_backlog(&self) -> usize {
        self.source_queues.iter().map(SourceQueue::len).sum()
    }

    /// Heap bytes the source side holds: the queue table, its occupancy
    /// set and every queue's stream.
    pub fn source_backlog_bytes(&self) -> usize {
        let streams: usize = self.source_queues.iter().map(SourceQueue::heap_bytes).sum();
        std::mem::size_of_val(&*self.source_queues)
            + std::mem::size_of_val(&*self.source_occupied)
            + streams
    }

    /// Installs a fault plan, replacing any previous one.
    ///
    /// Events already due are applied at the start of the next
    /// [`step`](NetworkSim::step); sites that fall outside this topology
    /// are skipped (plans are topology-agnostic index schedules). The
    /// same configuration and plan always replay the identical faulted
    /// run.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fabric.faults = Some(FaultState::new(
            plan,
            self.topology.stages(),
            self.fabric.wiring,
            self.config.size,
        ));
    }

    /// Tally of every fault actually applied so far.
    pub fn fault_ledger(&self) -> FaultLedger {
        self.acct.fault_ledger
    }

    /// Buffer slots lost to fault injection across the whole network.
    pub fn dead_slots(&self) -> usize {
        self.switches().map(|sw| sw.dead_slots()).sum()
    }

    /// Packets currently parked in recovery's retransmit buffers
    /// (accounted by the conservation audit).
    pub fn recovery_held(&self) -> usize {
        self.recovery.as_ref().map_or(0, RecoveryState::parked)
    }

    /// Every switch of the grid, stage by stage.
    fn switches(&self) -> impl Iterator<Item = &Switch<B>> {
        self.fabric.switches.iter().flatten()
    }

    /// Aggregated buffer operation counters over every switch in the
    /// network (used by the dispatch-equivalence tests to compare
    /// simulation paths operation-for-operation).
    pub fn aggregate_buffer_stats(&self) -> damq_core::BufferStats {
        let mut total = damq_core::BufferStats::new();
        for sw in self.switches() {
            total.merge(&sw.aggregate_stats());
        }
        total
    }

    /// Packets resident in switch buffers.
    pub fn packets_in_flight(&self) -> usize {
        self.switches().map(|sw| sw.packets_resident()).sum()
    }

    /// Buffer-occupancy fraction of each switch in `stage` (a snapshot;
    /// used to visualise tree saturation spreading stage by stage).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage_occupancy(&self, stage: usize) -> Vec<f64> {
        self.fabric.switches[stage]
            .iter()
            .map(|sw| sw.occupancy_fraction())
            .collect()
    }

    /// Mean buffer-occupancy fraction per stage, input side first.
    pub fn occupancy_by_stage(&self) -> Vec<f64> {
        self.fabric
            .switches
            .iter()
            .map(|row| row.iter().map(|sw| sw.occupancy_fraction()).sum::<f64>() / row.len() as f64)
            .collect()
    }

    // Pinned by `benchmark/src/probes.rs` (frozen). The cycle has one
    // lane; `_threads` is ignored.
    #[doc(hidden)]
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Enables the named-metric registry: cycle-domain counters and
    /// log-scale latency/occupancy histograms, readable as a
    /// deterministic JSON snapshot via
    /// [`metrics_snapshot`](NetworkSim::metrics_snapshot).
    ///
    /// Off by default; while off, the three histogram updates are a
    /// single branch on a cold flag each and the end-of-cycle publish is
    /// skipped (pinned by the `no_op_registry_overhead` bench). The
    /// counters are published from the lifetime view of
    /// [`metrics`](NetworkSim::metrics) and from the
    /// [`fault_ledger`](NetworkSim::fault_ledger) at the end of every
    /// cycle stepped while on, so they count from construction —
    /// [`warm_up`](NetworkSim::warm_up) does not reset them.
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.acct.registry.set_enabled(true);
        self
    }

    /// Turns the quiescent-switch fast path on or off (on by default).
    ///
    /// With it on, arbitration advances a switch whose quiescence bit is
    /// set with [`Switch::note_idle_cycle`] — one counter tick instead of
    /// an arbitration sweep over its buffers. The fast path is
    /// byte-identical to arbitrating an empty switch (pinned per switch by
    /// `idle_cycle_is_byte_identical_to_empty_transmit_cycle` and
    /// end-to-end by `idle_skip_correctness`), so the toggle exists only
    /// to measure the speedup and to cross-check equivalence.
    #[must_use]
    pub fn with_idle_skip(mut self, enabled: bool) -> Self {
        self.idle_skip = enabled;
        self
    }

    /// Lifetime count of switch-cycles advanced by the quiescent fast
    /// path (also exported as the `net.idle_skipped` registry counter).
    pub fn idle_skipped_total(&self) -> u64 {
        self.acct.metrics.lifetime().idle_skipped
    }

    /// The named-metric registry (disabled unless
    /// [`with_metrics`](NetworkSim::with_metrics) was called).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.acct.registry
    }

    /// The registry snapshot as deterministic JSON — counters and
    /// histogram percentiles in registration order, integers only.
    pub fn metrics_snapshot(&self) -> String {
        self.acct.registry.snapshot_json().render()
    }

    /// Enables the wall-clock phase profiler: time in each step of the
    /// cycle (faults, recovery, generate, arbitrate, merge, inject,
    /// observe), drained via [`phase_profile`](NetworkSim::phase_profile).
    ///
    /// Profiling measures *harness* wall-clock only — it never touches
    /// simulation state, so enabling it cannot change any result.
    #[must_use]
    pub fn with_phase_timing(mut self) -> Self {
        self.phase_timing = true;
        self
    }

    /// Drains the accumulated phase profile (zeroing the counters).
    /// Empty unless [`with_phase_timing`](NetworkSim::with_phase_timing)
    /// was called.
    pub fn phase_profile(&mut self) -> PhaseProfile {
        std::mem::take(&mut self.profile)
    }

    /// Simulates one network cycle (12 clock cycles).
    ///
    /// With the `strict-audit` feature on, every cycle ends with a full
    /// audit: buffer structure in every switch plus the packet-conservation
    /// balance.
    ///
    /// # Determinism
    ///
    /// One cycle is: due faults, recovery service, generate, advance
    /// stages last-to-first (arbitrate then merge, per stage), inject,
    /// observe. The same configuration and seed replay the identical
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics under `strict-audit` if the audit fails.
    pub fn step(&mut self) {
        self.cycle += 1;
        self.acct.cycle_started();
        if self.fabric.faults.is_some() {
            self.timed(|p| &mut p.faults_ns, Self::apply_due_faults);
        }
        if self.recovery.is_some() {
            self.timed(|p| &mut p.recovery_ns, Self::service_recovery);
        }
        self.timed(|p| &mut p.generate_ns, Self::generate);
        self.advance_stages();
        self.timed(|p| &mut p.inject_ns, Self::inject);
        if self.acct.registry.enabled() {
            self.timed(|p| &mut p.observe_ns, Self::observe_registry);
        }
        if self.acct.sink.enabled() {
            self.timed(|p| &mut p.observe_ns, Self::emit_cycle_sample);
        }
        #[cfg(feature = "strict-audit")]
        if let Err(e) = self.audit() {
            // lint: allow — strict-audit must stop at the offending cycle.
            panic!("strict-audit at cycle {}: {e}", self.cycle);
        }
    }

    /// Simulates `cycles` network cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs `cycles` cycles and then starts a new measurement window:
    /// the standard warm-up. [`metrics`](NetworkSim::metrics) reads zero
    /// afterwards; what the warm-up counted is carried in
    /// [`NetMetrics::lifetime`].
    pub fn warm_up(&mut self, cycles: u64) {
        self.run(cycles);
        self.acct.metrics.reset();
    }

    /// Applies the installed fault plan's events that are due this cycle.
    fn apply_due_faults(&mut self) {
        if let Some(faults) = self.fabric.faults.as_mut() {
            let switches = &mut self.fabric.switches;
            faults.apply_due(self.cycle, switches, self.recovery.as_mut(), &mut self.acct);
        }
    }

    /// Recovery's start-of-cycle service: beliefs age, due retransmits
    /// resend.
    fn service_recovery(&mut self) {
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.service(self.cycle, &mut self.fabric, &mut self.acct);
        }
    }

    fn generate(&mut self) {
        let size = self.config.size;
        for src in 0..size {
            let generate_probability = match self.config.arrivals {
                ArrivalProcess::Bernoulli => self.config.offered_load,
                ArrivalProcess::OnOff { duty, .. } if duty >= 1.0 => {
                    // Always-on degenerates to Bernoulli.
                    self.config.offered_load
                }
                ArrivalProcess::OnOff { mean_burst, duty } => {
                    // Two-state modulation: leave ON w.p. 1/mean_burst,
                    // enter ON at the rate that makes the stationary ON
                    // fraction equal the duty cycle.
                    let exit_on = 1.0 / mean_burst;
                    let enter_on = (duty * exit_on / (1.0 - duty)).min(1.0);
                    let flip = if self.source_on[src] {
                        exit_on
                    } else {
                        enter_on
                    };
                    if self.rng.random_bool(flip) {
                        self.source_on[src] = !self.source_on[src];
                    }
                    if self.source_on[src] {
                        (self.config.offered_load / duty).min(1.0)
                    } else {
                        0.0
                    }
                }
            };
            if generate_probability <= 0.0 || !self.rng.random_bool(generate_probability) {
                continue;
            }
            let source = NodeId::new(src);
            let dest = self.config.pattern.sample(&mut self.rng, source, size);
            let length = self.config.packet_lengths.sample(&mut self.rng);
            let pending = PendingPacket {
                serial: self.ids.next_id().serial(),
                birth_cycle: self.cycle,
                dest,
                // lint: allow — construction rejected any distribution
                // that can draw a length outside `1..=MAX_LENGTH_BYTES`.
                length_bytes: u16::try_from(length).expect("validated packet length"),
                corrupt: self
                    .fabric
                    .faults
                    .as_mut()
                    .is_some_and(|faults| faults.take_corruption(src)),
            };
            self.acct
                .generated(self.cycle, pending.serial, src, pending.dest);
            self.source_queues[src].push_back(pending);
            self.source_occupied[src / 64] |= 1 << (src % 64);
        }
    }

    /// The first source at or after `from` whose queue holds a packet.
    fn next_occupied_source(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.source_occupied.get(word)? & (!0 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.source_occupied.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Step 3 of the cycle: every source that holds a packet offers its
    /// head to its entry switch.
    fn inject(&mut self) {
        let blocking = self.config.flow_control.requires_backpressure();
        let cycle = self.cycle;
        // Ascending source order, as a walk over every queue would be.
        // The body clears `src`'s own bit (and no other) when it drains
        // the queue, so the successor read before it stays valid.
        let mut next = self.next_occupied_source(0);
        while let Some(src) = next {
            next = self.next_occupied_source(src + 1);
            let Some(front) = self.source_queues[src].front() else {
                continue;
            };
            let (sw, port) = self.plan.entry(NodeId::new(src));
            let out = self.plan.route_output(0, front.dest);
            let wire_down = self.fabric.wire_down(cycle, 0, sw, port.index());
            let slots = usize::from(front.length_bytes)
                .div_ceil(DEFAULT_SLOT_BYTES)
                .max(1);
            if blocking && (wire_down || !self.fabric.switches[0][sw].can_accept(port, out, slots))
            {
                // Hold the packet at the source until the link recovers
                // and the entry buffer has room; try again next cycle.
                continue;
            }
            self.source_queues[src].pop_front();
            if self.source_queues[src].len() == 0 {
                self.source_occupied[src / 64] &= !(1 << (src % 64));
            }
            let route = HopRoute {
                next_switch: sw,
                next_port: port,
                next_output: out,
            };
            if wire_down {
                // Discarding protocol: the packet is launched into the
                // outage. With retransmission on, the edge hop buffers
                // the launch instead of losing it: park at the entry
                // link's slot and resend once the link is believed
                // healthy again. Otherwise it is lost at the network's
                // edge (never built — only its serial reaches the
                // telemetry).
                let lost = match self.recovery.as_mut() {
                    Some(recv) => {
                        let kind = HopKind::Wire { stage: 0, route };
                        let packet = front.materialize(src, cycle);
                        recv.try_park(cycle, true, (0, sw), kind, packet).is_some()
                    }
                    None => true,
                };
                if lost {
                    let fault = Some(FaultTally::LinkDropped);
                    let cause = DropCause::Entry { source: src, fault };
                    self.acct.dropped(cycle, front.serial, cause);
                }
                continue;
            }
            let packet = front.materialize(src, cycle);
            match self.fabric.hop(cycle, 0, route, packet) {
                Ok(()) => self.acct.injected(cycle, front.serial, src),
                Err(_) => {
                    debug_assert!(!blocking, "blocking inject was pre-checked");
                    let cause = DropCause::Entry {
                        source: src,
                        fault: None,
                    };
                    self.acct.dropped(cycle, front.serial, cause);
                }
            }
        }
    }

    /// The registry's end-of-cycle pass: samples every input buffer's
    /// occupied slots into the `net.occupancy_slots` histogram (one scan,
    /// after injection) and publishes the counters from their owners.
    /// Only called while the registry is enabled.
    fn observe_registry(&mut self) {
        for switch in self.fabric.switches.iter().flatten() {
            for port in 0..switch.ports() {
                let used = switch.buffer(InputPort::new(port)).used_slots();
                self.acct.occupancy_observed(used);
            }
        }
        self.acct.publish_counters();
    }

    /// Emits end-of-cycle aggregate events: one
    /// [`HolBlocked`](EventKind::HolBlocked) per switch that blocked this
    /// cycle, then one [`CycleSample`](EventKind::CycleSample). Only
    /// called while the sink is enabled.
    fn emit_cycle_sample(&mut self) {
        let stages = self.topology.stages();
        let mut occupied = vec![0u32; stages];
        let mut buffer_occupancy = vec![0u32; self.config.slots_per_buffer + 1];
        let mut hol_total = 0u32;
        for (stage, row) in self.fabric.switches.iter().enumerate() {
            for (sw, switch) in row.iter().enumerate() {
                occupied[stage] += switch.occupied_slots() as u32;
                for port in 0..switch.ports() {
                    let used = switch.buffer(InputPort::new(port)).used_slots();
                    buffer_occupancy[used.min(self.config.slots_per_buffer)] += 1;
                }
                let blocked = switch.hol_blocked_last_cycle() as u32;
                if blocked > 0 {
                    hol_total += blocked;
                    self.acct.emit(
                        self.cycle,
                        EventKind::HolBlocked {
                            stage: stage as u32,
                            switch: sw as u32,
                            blocked,
                        },
                    );
                }
            }
        }
        let sample = EventKind::CycleSample {
            occupied,
            forwarded: self.acct.take_forwarded(),
            buffer_occupancy,
            backlog: self.source_backlog() as u32,
            hol_blocked: hol_total,
        };
        self.acct.emit(self.cycle, sample);
    }
}

// The test modules below predate the split of this file and reach
// these names through `use super::*`.
#[cfg(test)]
use {crate::traffic::TrafficPattern, damq_core::BufferKind, damq_switch::FlowControl};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CLOCKS_PER_CYCLE;

    fn small(kind: BufferKind) -> NetworkConfig {
        NetworkConfig::new(16, 4)
            .buffer_kind(kind)
            .offered_load(0.3)
            .seed(11)
    }

    #[test]
    fn registry_disabled_by_default_and_mirrors_metrics_when_enabled() {
        let mut plain = NetworkSim::new(small(BufferKind::Damq)).unwrap();
        plain.run(100);
        assert!(!plain.metrics_registry().enabled());
        assert_eq!(
            plain.metrics_registry().counter_value("net.cycles"),
            Some(0)
        );

        let mut sim = NetworkSim::new(small(BufferKind::Damq))
            .unwrap()
            .with_metrics();
        sim.run(100);
        let reg = sim.metrics_registry();
        assert_eq!(reg.counter_value("net.cycles"), Some(100));
        assert_eq!(
            reg.counter_value("net.delivered"),
            Some(sim.metrics().delivered())
        );
        assert_eq!(
            reg.counter_value("net.generated"),
            Some(sim.metrics().generated())
        );
        let latency = reg.histogram_named("net.latency_cycles").unwrap();
        assert_eq!(latency.count(), sim.metrics().delivered());
        assert!(latency.p50() <= latency.p99());
        assert!(latency.p99() <= latency.p999());
        // Occupancy was sampled once per buffer per cycle.
        let occupancy = reg.histogram_named("net.occupancy_slots").unwrap();
        let buffers: u64 = 16 / 4 * 2 * 4; // per-stage switches × stages × ports
        assert_eq!(occupancy.count(), 100 * buffers);
        // The snapshot is non-trivial JSON.
        let snap = sim.metrics_snapshot();
        assert!(snap.starts_with("{\"counters\":{\"net.cycles\":100,"));
    }

    #[test]
    fn phase_profile_is_empty_until_enabled() {
        let mut sim = NetworkSim::new(small(BufferKind::Damq))
            .unwrap()
            .with_metrics();
        sim.run(20);
        assert_eq!(sim.phase_profile(), PhaseProfile::default());
        assert_eq!(sim.phase_profile().merge_share(), 0.0);
    }

    #[test]
    fn phase_profile_splits_the_serial_cycle_on_one_lane() {
        let site = damq_core::FaultSite {
            stage: 1,
            switch: 0,
            input: 0,
        };
        let plan = FaultPlan::new().with_link_down(10, site, 20);
        let build = |recovery| {
            let config = small(BufferKind::Damq).offered_load(0.8).recovery(recovery);
            NetworkSim::with_faults(config, plan.clone())
                .unwrap()
                .with_metrics()
                .with_phase_timing()
        };
        let mut sim = build(RecoveryConfig::enabled());
        sim.run(50);
        let profile = sim.phase_profile();
        assert_eq!(profile.phases, 100); // 2 stages × 50 cycles
        let buckets = [
            ("faults", profile.faults_ns),
            ("recovery", profile.recovery_ns),
            ("generate", profile.generate_ns),
            ("arbitrate", profile.arbitrate_ns),
            ("merge", profile.merge_ns),
            ("inject", profile.inject_ns),
            ("observe", profile.observe_ns),
        ];
        for (step, ns) in buckets {
            assert!(ns > 0, "{step} was not timed");
        }
        let sum: u64 = buckets.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(profile.total_ns(), sum);
        assert!((0.0..1.0).contains(&profile.merge_share()));
        // Drained on read.
        assert_eq!(sim.phase_profile(), PhaseProfile::default());

        // A step that does not run leaves its bucket at zero.
        let mut sim = build(RecoveryConfig::disabled());
        sim.run(50);
        let profile = sim.phase_profile();
        assert_eq!(profile.recovery_ns, 0);
        assert!(profile.faults_ns > 0 && profile.observe_ns > 0);
    }

    #[test]
    fn audit_catches_a_stale_source_occupancy_bit() {
        let mut sim = NetworkSim::new(small(BufferKind::Damq).offered_load(0.9)).unwrap();
        sim.run(50);
        sim.audit().expect("the set tracks the queues");
        for src in [0, 15] {
            sim.source_occupied[0] ^= 1 << src;
            let err = sim.audit().expect_err("flipped bit");
            assert!(err.to_string().contains("source-occupancy"), "{err}");
            sim.source_occupied[0] ^= 1 << src;
        }
    }

    #[test]
    fn audit_catches_a_window_reset_that_skips_the_fold() {
        let mut sim = NetworkSim::new(small(BufferKind::Damq)).unwrap();
        sim.warm_up(50);
        sim.run(50);
        sim.audit().expect("carried + window matches the ledger");
        // The seeded mutation: a reset that zeroes the window without
        // folding it into the carried totals.
        sim.acct.metrics.window = crate::metrics::Counters::default();
        let err = sim.audit().expect_err("the window's counts are lost");
        assert!(err.to_string().contains("lifetime-counters"), "{err}");
    }

    #[test]
    fn packets_flow_and_arrive_at_their_destinations() {
        let mut sim = NetworkSim::new(small(BufferKind::Damq)).unwrap();
        sim.run(200);
        assert!(sim.metrics().delivered() > 500);
        // debug_assert in advance_stages checks per-packet destinations.
        sim.check_invariants();
    }

    #[test]
    fn conservation_generated_equals_everything_else() {
        for kind in BufferKind::ALL {
            for flow in FlowControl::ALL {
                let mut sim =
                    NetworkSim::new(small(kind).flow_control(flow).offered_load(0.8)).unwrap();
                sim.run(300);
                let m = sim.metrics();
                let accounted = m.delivered()
                    + m.discarded()
                    + sim.source_backlog() as u64
                    + sim.packets_in_flight() as u64;
                assert_eq!(m.generated(), accounted, "{kind}/{flow}");
            }
        }
    }

    #[test]
    fn blocking_protocol_never_discards() {
        let mut sim = NetworkSim::new(
            small(BufferKind::Fifo)
                .flow_control(FlowControl::Blocking)
                .offered_load(0.95),
        )
        .unwrap();
        sim.run(300);
        assert_eq!(sim.metrics().discarded(), 0);
    }

    #[test]
    fn discarding_protocol_drops_under_overload() {
        let mut sim = NetworkSim::new(
            small(BufferKind::Fifo)
                .flow_control(FlowControl::Discarding)
                .offered_load(0.95),
        )
        .unwrap();
        sim.run(300);
        assert!(sim.metrics().discarded() > 0);
    }

    #[test]
    fn minimum_latency_is_one_cycle_per_stage() {
        // A single packet in an otherwise idle 2-stage network takes
        // exactly `stages` cycles from injection to delivery.
        let mut sim =
            NetworkSim::new(NetworkConfig::new(16, 4).offered_load(0.01).seed(3)).unwrap();
        sim.run(500);
        let m = sim.metrics();
        assert!(m.delivered() > 0);
        let floor = sim.topology().stages() as f64 * CLOCKS_PER_CYCLE as f64;
        assert!(m.mean_network_latency_clocks() >= floor - 1e-9);
        // At 1% load there is essentially no queueing.
        assert!(m.mean_network_latency_clocks() < floor * 1.2);
    }

    #[test]
    fn same_seed_same_results() {
        let run = || {
            let mut sim = NetworkSim::new(small(BufferKind::Damq).seed(99)).unwrap();
            sim.run(150);
            (
                sim.metrics().generated(),
                sim.metrics().delivered(),
                sim.metrics().mean_latency_clocks(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut sim = NetworkSim::new(small(BufferKind::Damq).seed(seed)).unwrap();
            sim.run(150);
            sim.metrics().generated()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn warm_up_resets_the_window() {
        let mut sim = NetworkSim::new(small(BufferKind::Damq)).unwrap();
        sim.warm_up(50);
        assert_eq!(sim.metrics().cycles(), 0);
        assert_eq!(sim.metrics().generated(), 0);
        assert!(sim.cycle() == 50);
    }

    #[test]
    fn samq_slots_must_divide_radix() {
        let err = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .buffer_kind(BufferKind::Samq)
                .slots_per_buffer(3),
        )
        .unwrap_err();
        assert!(matches!(err, NetworkError::Buffer(_)));
    }

    #[test]
    fn oversized_buffers_are_a_typed_error_not_a_panic() {
        for kind in BufferKind::EXTENDED {
            let config = NetworkConfig::new(16, 4).buffer_kind(kind);
            let err = NetworkSim::new(config.slots_per_buffer(70_000)).unwrap_err();
            let too_large = damq_core::ConfigError::CapacityTooLarge {
                capacity: 70_000,
                max: damq_core::BufferConfig::MAX_CAPACITY,
            };
            assert_eq!(err, NetworkError::Buffer(too_large), "{kind}");
        }
    }

    #[test]
    fn shifted_traffic_with_zero_offset_is_conflict_free() {
        // dest = source: in an Omega network the identity permutation is
        // routable without conflicts, so blocking FIFO at full load still
        // delivers one packet per sink per cycle.
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .buffer_kind(BufferKind::Fifo)
                .traffic(TrafficPattern::Shifted { offset: 0 })
                .offered_load(1.0)
                .seed(5),
        )
        .unwrap();
        sim.warm_up(50);
        sim.run(100);
        let m = sim.metrics();
        assert!(
            m.delivered_throughput() > 0.999,
            "throughput {}",
            m.delivered_throughput()
        );
    }

    #[test]
    fn variable_length_packets_flow_too() {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .packet_lengths(PacketLengths::Uniform { min: 1, max: 32 })
                .slots_per_buffer(8)
                .offered_load(0.2)
                .seed(21),
        )
        .unwrap();
        sim.run(300);
        assert!(sim.metrics().delivered() > 0);
        sim.check_invariants();
    }

    /// Counts `Forwarded` events emitted by non-final stages — exactly
    /// the departures that need a route to the next stage.
    fn non_final_forwards(
        sim: &NetworkSim<damq_core::AnyBuffer, damq_telemetry::MemorySink<Event>>,
    ) -> u64 {
        let last = (sim.topology().stages() - 1) as u32;
        sim.sink()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Forwarded { stage, .. } if stage < last))
            .count() as u64
    }

    #[test]
    fn discarding_routes_each_departure_exactly_once() {
        // Without backpressure the probe closure never routes, so the
        // departure loop must account for every query: one per forwarded
        // packet leaving a non-final stage.
        let mut sim = NetworkSim::with_sink(
            small(BufferKind::Damq)
                .flow_control(FlowControl::Discarding)
                .offered_load(0.6),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.run(300);
        let forwards = non_final_forwards(&sim);
        assert!(forwards > 0);
        assert_eq!(sim.route_plan().route_queries(), forwards);
    }

    #[test]
    fn blocking_departures_reuse_the_probe_route() {
        // The identity permutation is conflict-free in an Omega network
        // and the downstream buffers drain every cycle, so every
        // backpressure probe leads to a departure. Routing must therefore
        // be queried exactly once per non-final forward; recomputing the
        // route in the departure loop would double the count.
        let mut sim = NetworkSim::with_sink(
            NetworkConfig::new(16, 4)
                .buffer_kind(BufferKind::Damq)
                .traffic(TrafficPattern::Shifted { offset: 0 })
                .flow_control(FlowControl::Blocking)
                .offered_load(1.0)
                .seed(5),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.run(100);
        let forwards = non_final_forwards(&sim);
        assert!(forwards > 0);
        assert_eq!(sim.route_plan().route_queries(), forwards);
    }

    #[test]
    fn hot_spot_concentrates_deliveries() {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .traffic(TrafficPattern::HotSpot {
                    fraction: 0.3,
                    target: NodeId::new(5),
                })
                .offered_load(0.2)
                .seed(8),
        )
        .unwrap();
        sim.run(400);
        let per_sink = sim.metrics().per_sink_delivered();
        let hot = per_sink[5];
        let mean_other: f64 = per_sink
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 5)
            .map(|(_, &c)| c as f64)
            .sum::<f64>()
            / 15.0;
        assert!(hot as f64 > 3.0 * mean_other);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use damq_core::{FaultSite, FaultSpec};

    fn base(kind: BufferKind) -> NetworkConfig {
        NetworkConfig::new(16, 4)
            .buffer_kind(kind)
            .offered_load(0.5)
            .seed(17)
    }

    fn spec(dead_fraction: f64) -> FaultSpec {
        FaultSpec {
            dead_slot_fraction: dead_fraction,
            link_flaps: 2,
            flap_duration: 15,
            corrupt_packets: 3,
            misroutes: 3,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 150)
        }
    }

    #[test]
    fn dead_slots_shrink_capacity_without_breaking_the_run() {
        let plan = FaultPlan::generate(5, &spec(0.25));
        let mut sim = NetworkSim::with_faults(base(BufferKind::Damq), plan).unwrap();
        sim.run(300);
        let ledger = sim.fault_ledger();
        assert!(ledger.slots_killed > 0);
        assert_eq!(ledger.slots_killed, sim.dead_slots() as u64);
        assert!(sim.metrics().delivered() > 0, "network still delivers");
        sim.audit().expect("faulted run stays consistent");
    }

    #[test]
    fn corruption_is_caught_at_the_sink() {
        let plan = FaultPlan::new()
            .with_corruption(1, 0)
            .with_corruption(1, 3)
            .with_corruption(2, 7);
        let mut sim = NetworkSim::with_faults(
            base(BufferKind::Damq).flow_control(FlowControl::Blocking),
            plan,
        )
        .unwrap();
        sim.run(300);
        // Blocking flow control never drops, so all three corrupted
        // packets reach a sink and fail the checksum there.
        assert_eq!(sim.fault_ledger().corrupt_dropped, 3);
        sim.audit().expect("conservation holds modulo the ledger");
    }

    #[test]
    fn link_outage_holds_under_blocking_and_drops_under_discarding() {
        let flap = |flow| {
            let site = FaultSite {
                stage: 0,
                switch: 0,
                input: 0,
            };
            let plan = FaultPlan::new().with_link_down(10, site, 200);
            let mut sim =
                NetworkSim::with_faults(base(BufferKind::Damq).flow_control(flow), plan).unwrap();
            sim.run(150);
            sim.audit().expect("faulted run stays consistent");
            sim.fault_ledger().link_dropped
        };
        assert_eq!(flap(FlowControl::Blocking), 0, "blocking holds upstream");
        assert!(
            flap(FlowControl::Discarding) > 0,
            "discarding loses packets"
        );
    }

    #[test]
    fn misroutes_are_dropped_and_declared() {
        let plan = FaultPlan::new()
            .with_misroute(5, 0, 0)
            .with_misroute(5, 0, 1)
            .with_misroute(10, 1, 0);
        let mut sim = NetworkSim::with_faults(base(BufferKind::Damq), plan).unwrap();
        sim.run(200);
        assert!(sim.fault_ledger().misrouted > 0);
        sim.audit().expect("faulted run stays consistent");
    }

    #[test]
    fn faulted_runs_are_deterministic_to_the_byte() {
        let run = || {
            let plan = FaultPlan::generate(9, &spec(0.1));
            let mut sim = NetworkSim::with_sink(
                base(BufferKind::Samq).flow_control(FlowControl::Discarding),
                damq_telemetry::MemorySink::new(),
            )
            .unwrap();
            sim.install_fault_plan(plan);
            sim.run(200);
            let ledger = sim.fault_ledger();
            let trace: String = sim
                .into_sink()
                .events()
                .iter()
                .map(|e| e.to_jsonl() + "\n")
                .collect();
            (ledger, trace)
        };
        let (ledger_a, trace_a) = run();
        let (ledger_b, trace_b) = run();
        assert_eq!(ledger_a, ledger_b);
        assert_eq!(trace_a, trace_b, "fault JSONL must be byte-identical");
        assert!(trace_a.contains("slot_killed"), "fault events in the trace");
    }

    #[test]
    fn all_designs_and_protocols_audit_clean_with_faults_active() {
        for kind in BufferKind::ALL {
            for flow in FlowControl::ALL {
                let plan = FaultPlan::generate(3, &spec(0.2));
                let mut sim = NetworkSim::with_faults(base(kind).flow_control(flow), plan).unwrap();
                sim.run(250);
                assert!(sim.fault_ledger().slots_killed > 0, "{kind}/{flow}");
                sim.audit().unwrap_or_else(|e| panic!("{kind}/{flow}: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use damq_core::{FaultSite, FaultSpec};

    fn base(kind: BufferKind) -> NetworkConfig {
        NetworkConfig::new(16, 4)
            .buffer_kind(kind)
            .offered_load(0.5)
            .seed(17)
    }

    /// Retransmission-only recovery with a deep per-hop buffer and a
    /// long detection window (no deflection).
    fn deep_retransmit() -> RecoveryConfig {
        RecoveryConfig {
            retransmit: true,
            retransmit_slots: 64,
            max_retries: 16,
            base_timeout: 4,
            max_backoff_exp: 5,
            adaptive: false,
            misroute_budget: 0,
            detection_window: 10,
        }
    }

    fn trace_of<B: SwitchBuffer>(sim: NetworkSim<B, damq_telemetry::MemorySink<Event>>) -> String {
        sim.into_sink()
            .events()
            .iter()
            .map(|e| e.to_jsonl() + "\n")
            .collect()
    }

    #[test]
    fn corrupted_payloads_are_repaired_and_delivered() {
        let plan = FaultPlan::new()
            .with_corruption(1, 0)
            .with_corruption(1, 3)
            .with_corruption(2, 7);
        let mut sim = NetworkSim::with_sink(
            base(BufferKind::Damq)
                .flow_control(FlowControl::Blocking)
                .recovery(deep_retransmit()),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.install_fault_plan(plan);
        sim.run(300);
        // The sink NACKs each damaged arrival; the hop buffer resends a
        // repaired copy instead of charging a corrupt drop.
        assert_eq!(sim.fault_ledger().corrupt_dropped, 0);
        assert_eq!(sim.fault_ledger().dropped(), 0);
        sim.audit().expect("recovered run stays consistent");
        let trace = trace_of(sim);
        assert!(trace.contains("\"retransmit\""), "resends in the trace");
        assert!(!trace.contains("\"corrupt_dropped\""), "no corrupt drops");
    }

    #[test]
    fn flapped_link_losses_are_retransmitted_not_dropped() {
        let site = FaultSite {
            stage: 1,
            switch: 0,
            input: 0,
        };
        let run = |recovery: RecoveryConfig| {
            let plan = FaultPlan::new().with_link_down(10, site, 60);
            let mut sim = NetworkSim::with_faults(
                base(BufferKind::Damq)
                    .flow_control(FlowControl::Discarding)
                    .recovery(recovery),
                plan,
            )
            .unwrap();
            sim.run(400);
            sim.audit().expect("flapped run stays consistent");
            assert_eq!(sim.recovery_held(), 0, "buffers drain after the flap");
            (sim.fault_ledger().link_dropped, sim.metrics().delivered())
        };
        let (dropped_off, delivered_off) = run(RecoveryConfig::disabled());
        let (dropped_on, delivered_on) = run(deep_retransmit());
        assert!(dropped_off > 0, "the flap costs the plain fault model");
        assert_eq!(dropped_on, 0, "every flap loss parks and resends");
        assert!(
            delivered_on > delivered_off,
            "recovery delivers more: {delivered_on} vs {delivered_off}"
        );
    }

    #[test]
    fn deflection_recirculates_to_the_true_destination() {
        let site = FaultSite {
            stage: 1,
            switch: 0,
            input: 0,
        };
        let plan = FaultPlan::new().with_link_down(10, site, 260);
        let mut sim = NetworkSim::with_sink(
            base(BufferKind::Damq)
                .flow_control(FlowControl::Discarding)
                .recovery(RecoveryConfig::enabled()),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.install_fault_plan(plan);
        sim.run(400);
        sim.audit().expect("deflected run stays consistent");
        assert!(sim.metrics().delivered() > 0);
        let trace = trace_of(sim);
        assert!(trace.contains("\"rerouted\""), "deflections in the trace");
        assert!(
            trace.contains("\"recirculated\""),
            "wrong-sink arrivals recirculate instead of dropping"
        );
    }

    #[test]
    fn bounded_retries_give_the_packet_up() {
        let site = FaultSite {
            stage: 0,
            switch: 0,
            input: 0,
        };
        // The entry link never comes back: every park must eventually
        // exhaust its retries and be given up, not held forever.
        let plan = FaultPlan::new().with_link_down(5, site, 100_000);
        let recovery = RecoveryConfig {
            retransmit: true,
            retransmit_slots: 8,
            max_retries: 3,
            base_timeout: 2,
            max_backoff_exp: 3,
            adaptive: false,
            misroute_budget: 0,
            detection_window: 5,
        };
        let mut sim = NetworkSim::with_sink(
            base(BufferKind::Damq)
                .flow_control(FlowControl::Discarding)
                .recovery(recovery)
                .seed(23),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.install_fault_plan(plan);
        sim.run(600);
        sim.audit().expect("exhausted run stays consistent");
        assert!(sim.metrics().discarded() > 0, "give-ups count as discards");
        let snapshot = sim.metrics_snapshot();
        let trace = trace_of(sim);
        assert!(trace.contains("\"gave_up\""), "give-ups in the trace");
        // The registry was never enabled, so the snapshot stays zeroed —
        // the counter exists either way.
        assert!(snapshot.contains("\"net.retry_exhausted\""));
    }

    #[test]
    fn recovery_metrics_land_in_the_registry() {
        let plan = FaultPlan::new()
            .with_link_down(
                10,
                FaultSite {
                    stage: 1,
                    switch: 1,
                    input: 2,
                },
                60,
            )
            .with_corruption(5, 3);
        let mut sim = NetworkSim::with_faults(
            base(BufferKind::Damq)
                .flow_control(FlowControl::Discarding)
                .recovery(RecoveryConfig::enabled()),
            plan,
        )
        .unwrap()
        .with_metrics();
        sim.run(400);
        let snapshot = sim.metrics_snapshot();
        let counter = |name: &str| {
            let key = format!("\"{name}\":");
            let at = snapshot
                .find(&key)
                .unwrap_or_else(|| panic!("{name} missing"))
                + key.len();
            snapshot[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse::<u64>()
                .unwrap()
        };
        assert!(counter("net.retransmits") > 0, "resends counted");
        assert_eq!(
            counter("net.fault.corrupt_dropped"),
            sim.fault_ledger().corrupt_dropped,
            "registry mirrors the fault ledger"
        );
        assert_eq!(
            counter("net.fault.link_dropped"),
            sim.fault_ledger().link_dropped
        );
    }

    #[test]
    fn registry_counters_are_the_lifetime_view_across_a_warm_up() {
        let spec = FaultSpec {
            dead_slot_fraction: 0.1,
            link_flaps: 4,
            flap_duration: 30,
            corrupt_packets: 3,
            misroutes: 2,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 200)
        };
        let mut sim = NetworkSim::with_faults(
            base(BufferKind::Damq)
                .flow_control(FlowControl::Discarding)
                .recovery(RecoveryConfig::enabled()),
            FaultPlan::generate(11, &spec),
        )
        .unwrap()
        .with_metrics();
        sim.warm_up(150);
        let carried = sim.metrics().lifetime();
        assert_eq!(*sim.metrics().window(), Default::default());
        sim.run(250);

        let m = sim.metrics();
        let (window, life, faults) = (*m.window(), m.lifetime(), sim.fault_ledger());
        assert_eq!((m.cycles(), life.cycles), (250, 400));
        assert_eq!(sim.idle_skipped_total(), life.idle_skipped);
        let registry = sim.metrics_registry();
        let both = |of: fn(&crate::metrics::Counters) -> u64| of(&carried) + of(&window);
        let expected = [
            ("net.cycles", both(|c| c.cycles)),
            ("net.generated", both(|c| c.generated)),
            ("net.injected", both(|c| c.injected)),
            ("net.delivered", both(|c| c.delivered)),
            ("net.discarded_entry", both(|c| c.discarded_entry)),
            ("net.discarded_network", both(|c| c.discarded_network)),
            ("net.idle_skipped", both(|c| c.idle_skipped)),
            ("net.retransmits", both(|c| c.retransmits)),
            ("net.retry_exhausted", both(|c| c.retry_exhausted)),
            ("net.rerouted", both(|c| c.rerouted)),
            ("net.recirculated", both(|c| c.recirculated)),
            ("net.fault.slots_killed", faults.slots_killed),
            ("net.fault.link_dropped", faults.link_dropped),
            ("net.fault.corrupt_dropped", faults.corrupt_dropped),
            ("net.fault.misrouted", faults.misrouted),
            ("net.fault.probe_invalidated", faults.probe_invalidated),
        ];
        assert_eq!(registry.counter_names().len(), expected.len());
        for (name, value) in expected {
            assert_eq!(registry.counter_value(name), Some(value), "{name}");
        }
        // Both halves of the sum are live, for the recovery counters too.
        for (before, during) in [
            (carried.delivered, window.delivered),
            (carried.retransmits, window.retransmits),
            (carried.rerouted, window.rerouted),
            (carried.idle_skipped, window.idle_skipped),
        ] {
            assert!(before > 0 && during > 0, "{carried:?} + {window:?}");
        }
        // The histograms are fed per sample and never reset either.
        let latency = registry.histogram_named("net.latency_cycles").unwrap();
        assert_eq!(latency.count(), life.delivered);
    }

    #[test]
    fn recovered_runs_are_deterministic_to_the_byte() {
        let run = || {
            let spec = FaultSpec {
                dead_slot_fraction: 0.1,
                link_flaps: 4,
                flap_duration: 30,
                corrupt_packets: 3,
                misroutes: 2,
                ..FaultSpec::fault_free(2, 4, 4, 16, 4, 200)
            };
            let plan = FaultPlan::generate(11, &spec);
            let mut sim = NetworkSim::with_sink(
                base(BufferKind::Damq)
                    .flow_control(FlowControl::Discarding)
                    .recovery(RecoveryConfig::enabled()),
                damq_telemetry::MemorySink::new(),
            )
            .unwrap()
            .with_metrics();
            sim.install_fault_plan(plan);
            sim.run(400);
            sim.audit().expect("recovered run stays consistent");
            let snapshot = sim.metrics_snapshot();
            let ledger = sim.fault_ledger();
            (ledger, snapshot, trace_of(sim))
        };
        let (ledger_a, snap_a, trace_a) = run();
        let (ledger_b, snap_b, trace_b) = run();
        assert_eq!(ledger_a, ledger_b);
        assert_eq!(snap_a, snap_b, "registry snapshots byte-identical");
        assert_eq!(trace_a, trace_b, "recovery JSONL byte-identical");
        assert!(trace_a.contains("\"retransmit\""), "recovery was exercised");
    }

    #[test]
    fn all_designs_and_protocols_audit_clean_with_recovery_active() {
        let spec = FaultSpec {
            dead_slot_fraction: 0.15,
            link_flaps: 3,
            flap_duration: 25,
            corrupt_packets: 3,
            misroutes: 3,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 150)
        };
        for kind in BufferKind::ALL {
            for flow in FlowControl::ALL {
                let plan = FaultPlan::generate(7, &spec);
                let mut sim = NetworkSim::with_faults(
                    base(kind)
                        .flow_control(flow)
                        .recovery(RecoveryConfig::enabled()),
                    plan,
                )
                .unwrap();
                sim.run(300);
                sim.audit().unwrap_or_else(|e| panic!("{kind}/{flow}: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod burst_tests {
    use super::*;

    #[test]
    fn on_off_preserves_the_mean_rate() {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .offered_load(0.3)
                .arrival_process(ArrivalProcess::OnOff {
                    mean_burst: 8.0,
                    duty: 0.4,
                })
                .seed(42),
        )
        .unwrap();
        sim.run(20_000);
        let rate = sim.metrics().offered_throughput();
        assert!((rate - 0.3).abs() < 0.01, "mean rate drifted: {rate}");
    }

    #[test]
    fn bursts_create_burstier_queues_than_bernoulli() {
        // Same mean load; the on/off process should produce a longer
        // latency tail (p99) than Bernoulli.
        let run = |arrivals: ArrivalProcess| {
            let mut sim = NetworkSim::new(
                NetworkConfig::new(16, 4)
                    .buffer_kind(BufferKind::Damq)
                    .offered_load(0.35)
                    .arrival_process(arrivals)
                    .seed(9),
            )
            .unwrap();
            sim.warm_up(500);
            sim.run(8_000);
            sim.metrics().latency_percentile_clocks(0.99)
        };
        let smooth = run(ArrivalProcess::Bernoulli);
        let bursty = run(ArrivalProcess::OnOff {
            mean_burst: 12.0,
            duty: 0.3,
        });
        assert!(
            bursty > smooth,
            "bursty p99 {bursty} should exceed smooth p99 {smooth}"
        );
    }

    #[test]
    fn duty_one_degenerates_to_bernoulli_rates() {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .offered_load(0.25)
                .arrival_process(ArrivalProcess::OnOff {
                    mean_burst: 5.0,
                    duty: 1.0,
                })
                .seed(3),
        )
        .unwrap();
        sim.run(10_000);
        let rate = sim.metrics().offered_throughput();
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "duty is a fraction")]
    fn invalid_duty_rejected() {
        let _ = NetworkConfig::new(16, 4).arrival_process(ArrivalProcess::OnOff {
            mean_burst: 4.0,
            duty: 1.5,
        });
    }
}
