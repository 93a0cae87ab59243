//! The switch grid, the one hop primitive, and the stage-advance steps.
//!
//! [`Fabric`] is the grid of switches plus the wires between them; its
//! [`hop`](Fabric::hop) is the single way a packet crosses a wire — the
//! stage merges, the deflection, both kinds of retransmit resend and
//! injection all land packets through it, so the wire-outage check and
//! the quiescence-map update cannot be forgotten at any site.
//!
//! One cycle advances the stages **last stage first**, each in two
//! passes: [`arbitrate_stage`](NetworkSim::arbitrate_stage) walks the
//! stage's switches and parks their departures as records, and a merge
//! drains the records in the same ascending switch order: to the sinks
//! for the last stage, through [`Fabric::hop`] for interior stages.
//! Arbitration holds the stage below by shared borrow, so every probe of
//! the pass sees the same downstream space; only the merge writes it
//! (see "Why the cycle is two passes per stage" in
//! `docs/ARCHITECTURE.md`).

use damq_core::{FrontMeta, InputPort, OutputPort, Packet, RejectReason, SwitchBuffer};
use damq_switch::{CycleSink, Switch};
use damq_telemetry::{Event, TelemetrySink};

use super::account::{DropCause, FaultTally};
use super::faults::{FaultState, Wiring};
use super::recovery::{HopKind, LostHop, RecoveryView};
use super::NetworkSim;
use crate::topology::{HopRoute, RoutePlan};

/// The grid of switches, the wires between them, and the per-switch
/// quiescence map.
#[derive(Debug)]
pub(super) struct Fabric<B: SwitchBuffer> {
    /// `switches[stage][index]`.
    pub(super) switches: Vec<Vec<Switch<B>>>,
    pub(super) wiring: Wiring,
    /// Per-switch quiescence map, indexed by [`Wiring::switch`].
    /// Invariant (audited as `quiescence-map`): whenever a stage starts
    /// arbitrating and at end of cycle, `quiescent[i]` ⇔ that switch
    /// holds zero packets. Maintained incrementally: a successful
    /// [`hop`](Fabric::hop) clears the receiver's bit; each departure
    /// record re-derives the transmitter's bit from
    /// [`Switch::is_quiescent`].
    pub(super) quiescent: Vec<bool>,
    /// The installed fault plan's state (which wires are down), if any.
    pub(super) faults: Option<FaultState>,
}

/// A packet that failed to cross a wire, and why.
#[derive(Debug)]
pub(super) struct Lost {
    pub(super) packet: Packet,
    /// The wire was out of service (the packet never reached the
    /// buffer); otherwise the receiving buffer bounced it.
    pub(super) wire_down: bool,
}

impl<B: SwitchBuffer> Fabric<B> {
    pub(super) fn new(switches: Vec<Vec<Switch<B>>>, wiring: Wiring) -> Self {
        // Every switch starts empty, hence quiescent.
        let quiescent = vec![true; wiring.switch(switches.len(), 0)];
        Fabric {
            switches,
            wiring,
            quiescent,
            faults: None,
        }
    }

    /// Whether the wire into (`stage`, `sw`, `input`) is out of service
    /// at `cycle`.
    pub(super) fn wire_down(&self, cycle: u64, stage: usize, sw: usize, input: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.link_down(self.wiring.link(stage, sw, input), cycle))
    }

    /// Whether a [`hop`](Fabric::hop) of `packet` into `stage` along
    /// `route` would land right now: the wire is up and the buffer has
    /// room. Senders that keep their copy on failure (resends,
    /// deflections) ask first, so a refusal never reaches the buffer's
    /// reject statistics.
    pub(super) fn open(&self, cycle: u64, stage: usize, route: HopRoute, packet: &Packet) -> bool {
        !self.wire_down(cycle, stage, route.next_switch, route.next_port.index())
            && self.switches[stage][route.next_switch].can_accept(
                route.next_port,
                route.next_output,
                packet.slots_needed(),
            )
    }

    /// The hop primitive: `packet` crosses the wire into `stage` along
    /// `route` and joins the queue for `route.next_output`. On success
    /// the receiver's quiescence bit is cleared — it now holds a packet
    /// and cannot idle-skip until it drains again.
    ///
    /// # Errors
    ///
    /// Returns the packet as [`Lost`] if the wire is down or the buffer
    /// rejects it.
    pub(super) fn hop(
        &mut self,
        cycle: u64,
        stage: usize,
        route: HopRoute,
        packet: Packet,
    ) -> Result<(), Lost> {
        let HopRoute {
            next_switch,
            next_port,
            next_output,
        } = route;
        if self.wire_down(cycle, stage, next_switch, next_port.index()) {
            // The packet flies into the outage and is lost.
            return Err(Lost {
                packet,
                wire_down: true,
            });
        }
        match self.switches[stage][next_switch].receive(next_port, next_output, packet) {
            Ok(()) => {
                self.quiescent[self.wiring.switch(stage, next_switch)] = false;
                Ok(())
            }
            Err(rejected) => {
                // Every rejection reason is handled by name, so a new one
                // does not compile until it is placed: capacity and fault
                // bounces are recoverable losses, structural rejects are
                // programming errors in the route plan.
                match rejected.reason {
                    RejectReason::BufferFull | RejectReason::QueueFull | RejectReason::Faulted => {}
                    RejectReason::PacketTooLarge | RejectReason::NoSuchOutput => {
                        debug_assert!(
                            false,
                            "structural reject in the delivery path: {}",
                            rejected.reason
                        );
                    }
                }
                Err(Lost {
                    packet: rejected.into_packet(),
                    wire_down: false,
                })
            }
        }
    }

    /// Re-derives the quiescence bit of (`stage`, `sw`) from its
    /// residency (after it transmitted).
    fn refresh_quiescence(&mut self, stage: usize, sw: usize) {
        self.quiescent[self.wiring.switch(stage, sw)] = self.switches[stage][sw].is_quiescent();
    }

    /// Consumes one armed misroute fault at (`stage`, `sw`), if any.
    fn take_misroute(&mut self, stage: usize, sw: usize) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|f| f.take_misroute(stage, sw))
    }
}

/// One departure parked by a stage's arbitration pass, applied by its
/// merge pass.
///
/// `route` carries the backpressure probe's parked [`HopRoute`] under
/// the blocking protocol, so every departure is routed exactly once; it
/// is `None` under discarding flow control, where only the merge routes.
#[derive(Debug)]
struct DepartRecord {
    /// Switch index within the stage.
    sw: usize,
    /// The crossbar output the packet left through.
    output: OutputPort,
    /// The probe's parked route (blocking protocol only).
    route: Option<HopRoute>,
    /// The departing packet.
    packet: Packet,
}

/// Working memory of the two passes, reused every stage of every cycle
/// so steady-state stepping stays allocation-free.
#[derive(Debug)]
pub(super) struct StageScratch {
    /// Per-output parked probe routes (reset per switch).
    parked: Vec<Option<HopRoute>>,
    /// The arbitrating stage's departures, in ascending switch order.
    records: Vec<DepartRecord>,
}

impl StageScratch {
    pub(super) fn new(radix: usize) -> Self {
        StageScratch {
            parked: vec![None; radix],
            records: Vec::new(),
        }
    }
}

/// Read-only context of one stage's transmit probes: everything a switch
/// needs to route a candidate departure and test downstream space.
/// Downstream space is asked of the downstream switches themselves
/// through `downstream`, and that shared borrow is the proof the stage
/// below is frozen for the whole pass: its own transmit and every merge
/// into it are already done, and while the borrow lives nothing can
/// mutate it, so a probe made at any point of the pass gets the answer
/// the merge will find.
struct ProbeCtx<'a, B: SwitchBuffer> {
    stage: usize,
    wiring: Wiring,
    cycle: u64,
    /// Whether departures are probed against downstream space: interior
    /// stages under the blocking protocol. The last stage feeds the
    /// (always-ready) sinks, so it never probes.
    probing: bool,
    plan: &'a RoutePlan,
    faults: Option<&'a FaultState>,
    /// The stage below (empty for the last stage, which never probes).
    downstream: &'a [Switch<B>],
    /// Recovery's believed link health, for the adaptive probe (absent
    /// while recovery is off — the probe then behaves exactly as before
    /// recovery existed).
    recovery: Option<RecoveryView<'a>>,
}

impl<B: SwitchBuffer> ProbeCtx<'_, B> {
    /// Whether the frozen downstream stage would take a `slots`-slot
    /// packet over wire `link` along `route`: the wire is up and the
    /// receiving buffer has room — the two conditions of
    /// [`Fabric::open`], read here through the pass's shared borrows.
    fn admits(&self, link: usize, route: HopRoute, slots: usize) -> bool {
        !self.faults.is_some_and(|f| f.link_down(link, self.cycle))
            && self.downstream[route.next_switch].can_accept(
                route.next_port,
                route.next_output,
                slots,
            )
    }

    /// The wire a departure from this stage along `route` crosses.
    fn link(&self, route: HopRoute) -> usize {
        self.wiring
            .link(self.stage + 1, route.next_switch, route.next_port.index())
    }
}

/// The arbitration pass's departure sink for one switch. Under the
/// blocking protocol the `can_send` probe of an interior stage routes
/// the candidate, parks the route in the scratch, and tests the
/// downstream link and space; each grant then moves the parked route
/// onto its departure record, so the merge routes no probed departure a
/// second time. Without probing (the discarding protocol, or the last
/// stage, whose terminals always accept) the sink never refuses, so the
/// switch never asks it and no route is parked.
struct StageSink<'a, 'b, B: SwitchBuffer> {
    sw: usize,
    ctx: &'a ProbeCtx<'b, B>,
    parked: &'a mut [Option<HopRoute>],
    records: &'a mut Vec<DepartRecord>,
    /// Route queries made by this switch's probes; the stage adds its
    /// total to the plan's counter once (see
    /// [`RoutePlan::count_queries`]).
    probes: u64,
}

impl<B: SwitchBuffer> CycleSink for StageSink<'_, '_, B> {
    fn never_refuses(&self) -> bool {
        !self.ctx.probing
    }

    fn can_send(&mut self, output: OutputPort, front: FrontMeta) -> bool {
        let ctx = self.ctx;
        if !ctx.probing {
            return true;
        }
        // A grant through `output` always takes the packet probed here
        // most recently (the crossbar skips taken outputs), so the parked
        // route is the granted packet's when `depart` fires.
        self.probes += 1;
        let route = ctx
            .plan
            .departure_route_uncounted(ctx.stage, self.sw, output, front.dest);
        self.parked[output.index()] = Some(route);
        let slots = front.slots_needed();
        if ctx.admits(ctx.link(route), route, slots) {
            return true;
        }
        // Adaptive recovery: the departure may still leave through the
        // alternate output (misroute-on-block), so the probe passes if
        // the deflection target looks viable. The merge re-checks both
        // live and charges the misroute budget.
        let Some(recovery) = ctx.recovery.filter(|r| r.adaptive) else {
            return false; // hold: link out or downstream space exhausted
        };
        self.probes += 1;
        let alt_out = ctx.plan.alternate_output(ctx.stage, self.sw, output);
        let alt = ctx
            .plan
            .departure_route_uncounted(ctx.stage, self.sw, alt_out, front.dest);
        let alt_link = ctx.link(alt);
        !recovery.believed_down(alt_link, ctx.cycle) && ctx.admits(alt_link, alt, slots)
    }

    fn depart(&mut self, _input: InputPort, output: OutputPort, packet: Packet) {
        let route = if self.ctx.probing {
            self.parked[output.index()].take()
        } else {
            None
        };
        self.records.push(DepartRecord {
            sw: self.sw,
            output,
            route,
            packet,
        });
    }
}

impl<B: SwitchBuffer, S: TelemetrySink<Event>> NetworkSim<B, S> {
    /// Step 2 of the cycle: every stage transmits, last stage first, so
    /// that space freed downstream in this cycle is visible upstream —
    /// a packet advances at most one stage per cycle.
    pub(super) fn advance_stages(&mut self) {
        let last = self.fabric.switches.len() - 1;
        self.timed(|p| &mut p.arbitrate_ns, |sim| sim.arbitrate_stage(last));
        self.timed(|p| &mut p.merge_ns, Self::merge_last_stage);
        for stage in (0..last).rev() {
            self.timed(|p| &mut p.arbitrate_ns, |sim| sim.arbitrate_stage(stage));
            self.timed(|p| &mut p.merge_ns, |sim| sim.merge_interior_stage(stage));
        }
        if self.phase_timing {
            self.profile.phases += last as u64 + 1;
        }
    }

    /// The arbitration pass of `stage`: every switch arbitrates —
    /// quiescent switches take the idle fast path, one counter tick
    /// instead of a buffer sweep — and parks its departures as records.
    ///
    /// Reads the downstream stage (frozen: its own transmit and every
    /// merge into it already ran this cycle — and borrowed shared for
    /// the pass, so the compiler holds every probe to it), the fault and
    /// recovery link tables and this stage's quiescence bits; writes
    /// only this stage's switches, the scratch and the idle-skip
    /// tallies.
    fn arbitrate_stage(&mut self, stage: usize) {
        let wiring = self.fabric.wiring;
        let last = self.fabric.switches.len() - 1;
        let probing = stage < last && self.config.flow_control.requires_backpressure();
        // `&mut` to the arbitrating row, `&` to the one below it.
        let (upper, lower) = self.fabric.switches.split_at_mut(stage + 1);
        let row = &mut upper[stage];
        let downstream: &[Switch<B>] = lower.first().map_or(&[], |below| below);
        // Blocking probes route, check the downstream link and ask the
        // downstream buffer for space; each departure leaves with the
        // probe's parked route.
        let ctx = ProbeCtx {
            stage,
            wiring,
            cycle: self.cycle,
            probing,
            plan: &self.plan,
            faults: self.fabric.faults.as_ref(),
            recovery: self.recovery.as_ref().map(|r| r.view()),
            downstream,
        };
        let idle_skip = self.idle_skip;
        let quiescent =
            &self.fabric.quiescent[wiring.switch(stage, 0)..wiring.switch(stage + 1, 0)];
        let StageScratch { parked, records } = &mut self.scratch;
        debug_assert!(records.is_empty(), "the previous merge drains its records");
        let mut skipped = 0u64;
        let mut probes = 0u64;
        for (sw, switch) in row.iter_mut().enumerate() {
            debug_assert_eq!(quiescent[sw], switch.is_quiescent(), "stale quiescence bit");
            if idle_skip && quiescent[sw] {
                switch.note_idle_cycle();
                skipped += 1;
                continue;
            }
            if probing {
                parked.fill(None);
            }
            let mut sink = StageSink {
                sw,
                ctx: &ctx,
                parked,
                records,
                probes: 0,
            };
            switch.transmit_cycle_with(&mut sink);
            probes += sink.probes;
        }
        self.plan.count_queries(probes);
        self.acct.idle_skipped(skipped);
    }

    /// The merge pass of the last stage: its departures, in ascending
    /// switch order, meet their sink's verdict — delivered, or refused
    /// (wrong terminal, failed checksum) and then parked by recovery or
    /// dropped.
    fn merge_last_stage(&mut self) {
        let last = self.fabric.switches.len() - 1;
        let cycle = self.cycle;
        for rec in self.scratch.records.drain(..) {
            let sw = rec.sw;
            // The record proves `sw` transmitted: re-derive its
            // quiescence bit from the post-arbitration residency
            // (idempotent; receives into this stage happen later, in
            // the previous stage's merge, and clear it again).
            self.fabric.refresh_quiescence(last, sw);
            let out = if self.fabric.take_misroute(last, sw) {
                OutputPort::new((rec.output.index() + 1) % self.config.radix)
            } else {
                rec.output
            };
            let sink = self.plan.sink_of(sw, out).index();
            let serial = rec.packet.id().serial();
            self.acct.forwarded(cycle, serial, last, sw, out.index());
            let refusal = if sink != rec.packet.dest().index() {
                // A transient misroute (here or upstream) or a
                // deliberate deflection carried the packet to the
                // wrong terminal.
                debug_assert!(
                    self.fabric.faults.is_some() || rec.packet.deflections() > 0,
                    "misrouted packet without faults"
                );
                DropCause::WrongSink { sink }
            } else if !rec.packet.verify_checksum() {
                // Payload damaged in flight: the sink refuses delivery.
                DropCause::Corrupt { sink }
            } else {
                self.acct.delivered(cycle, &rec.packet);
                continue;
            };
            // With retransmission on the refusal is a NACK: the packet
            // parks at the terminal hop of its *true* destination and
            // the timer resends a repaired copy end-to-end (no discard
            // is charged unless every retry is exhausted).
            let unsaved = match self.recovery.as_mut() {
                Some(recv) => recv.try_park(cycle, false, (last, sw), HopKind::Final, rec.packet),
                None => Some(rec.packet),
            };
            if unsaved.is_some() {
                self.acct.dropped(cycle, serial, refusal);
            } else if matches!(refusal, DropCause::WrongSink { .. }) {
                self.acct.recirculated(cycle, serial, sink);
            }
        }
    }

    /// The merge pass of interior `stage`: its departures, in ascending
    /// switch order, hop into stage `stage + 1` — misroute faults,
    /// routing fallback, telemetry, the hop, and for a failed hop the
    /// recovery ladder, then the drop.
    fn merge_interior_stage(&mut self, stage: usize) {
        let blocking = self.config.flow_control.requires_backpressure();
        let adaptive = self.recovery.as_ref().is_some_and(|r| r.config.adaptive);
        let cycle = self.cycle;
        // Misroutes applied so far in *this stage's* merge — the only
        // mechanism that can invalidate an arbitration-pass probe (see
        // the invariant at the failed hop below).
        let mut stage_misroutes = 0u64;
        // Departures routed here rather than by a probe, added to the
        // plan's query counter once after the merge.
        let mut routed = 0u64;
        for rec in self.scratch.records.drain(..) {
            let sw = rec.sw;
            // The record proves `sw` transmitted: re-derive its
            // quiescence bit from the post-arbitration residency.
            self.fabric.refresh_quiescence(stage, sw);
            // Blocking probes parked the route on the record; the
            // discarding path routes here — either way exactly one
            // query per departure (misroutes pay one extra for the
            // flip).
            let dest = rec.packet.dest();
            let misrouted_here = self.fabric.take_misroute(stage, sw);
            stage_misroutes += u64::from(misrouted_here);
            let out = if misrouted_here {
                OutputPort::new((rec.output.index() + 1) % self.config.radix)
            } else {
                rec.output
            };
            let route = match rec.route {
                Some(route) if !misrouted_here => route,
                _ => {
                    routed += 1;
                    self.plan.departure_route_uncounted(stage, sw, out, dest)
                }
            };
            let serial = rec.packet.id().serial();
            self.acct.forwarded(cycle, serial, stage, sw, out.index());
            let Err(lost) = self.fabric.hop(cycle, stage + 1, route, rec.packet) else {
                continue;
            };
            // Invariant: a probed blocking departure can only
            // bounce after a misroute or a deflection in this
            // same stage's merge. The banyan wiring maps each
            // upstream (switch, output) to a *unique*
            // downstream (switch, input), and the crossbar
            // grants at most one departure per output per
            // cycle, so every in-order departure in this
            // merge owns a private downstream input whose
            // space its probe reserved. Earlier in-order
            // receives therefore cannot consume it; only a
            // misroute or deflection — which flips a packet
            // onto an output it never probed, landing on an
            // input port that belongs to another departure —
            // can. (Retransmit resends run before this
            // stage arbitrates, so they cannot
            // invalidate a probe.) With adaptive recovery
            // the bounce is additionally expected whenever
            // the probe admitted the departure on the
            // *alternate* route's space — the primary was
            // already known to be blocked and the ladder
            // below deflects — so the invariant only has
            // teeth without deflection in play.
            assert!(
                lost.wire_down || !blocking || adaptive || stage_misroutes > 0,
                "blocking probe invalidated with no misroute or deflection in this \
                     stage's merge (stage {stage}, switch {sw})"
            );
            let unsaved = match self.recovery.as_mut() {
                Some(recv) => {
                    let hop = LostHop {
                        stage,
                        sw,
                        out,
                        route,
                        wire_down: lost.wire_down,
                    };
                    let (fabric, acct) = (&mut self.fabric, &mut self.acct);
                    recv.rescue(cycle, fabric, &self.plan, acct, hop, lost.packet)
                }
                None => Some(lost.packet),
            };
            if unsaved.is_some() {
                // The plain fault model: recovery off, out of
                // deflection budget, or the hop buffer is full.
                let fault = if lost.wire_down {
                    Some(FaultTally::LinkDropped)
                } else if misrouted_here {
                    Some(FaultTally::Misrouted)
                } else if blocking {
                    // An in-order departure whose probe a misroute or
                    // deflection invalidated (the invariant above).
                    Some(FaultTally::ProbeInvalidated)
                } else {
                    None
                };
                let cause = DropCause::Hop {
                    stage,
                    switch: sw,
                    fault,
                };
                self.acct.dropped(cycle, serial, cause);
            }
        }
        self.plan.count_queries(routed);
    }
}
