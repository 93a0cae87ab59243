//! Closed-loop recovery: link-level retransmission and fault-adaptive
//! (deflection) rerouting, as a layer over the hop primitive.
//!
//! [`RecoveryState`] exists only while the configuration's
//! [`RecoveryConfig`] is active; with it off, every call site in the
//! cycle is a single `None` branch. It owns the bounded per-hop
//! retransmit buffers, the per-hop sequence counters and the *believed*
//! link-health table, and exposes three entry points:
//!
//! * [`RecoveryState::service`] — the cycle-start timer: promote due
//!   link-fault detections, then resend, back off or give up every due
//!   parked packet;
//! * [`RecoveryState::rescue`] — the deflect → park ladder for a packet
//!   whose hop between stages just failed; it returns the packet only
//!   if it could not be saved;
//! * [`RecoveryState::try_park`] — the park rung alone, for the edges
//!   of the network (a dead entry wire, a sink's NACK).
//!
//! Everything here is read by the arbitration probes (through
//! [`RecoveryView`]) but **mutated only between arbitration passes**
//! (cycle start, the merges, inject), and every deadline is a saturating
//! cycle count — never wall clock — so recovery is seed-stable.

use std::collections::VecDeque;

use damq_core::{OutputPort, Packet, SwitchBuffer};
use damq_telemetry::{Event, TelemetrySink};

use super::account::{Account, DropCause};
use super::config::RecoveryConfig;
use super::faults::Wiring;
use super::stage::Fabric;
use crate::topology::{HopRoute, RoutePlan};

/// Where a parked packet re-enters the network when its retransmit
/// timer fires.
#[derive(Debug, Clone, Copy)]
pub(super) enum HopKind {
    /// Lost on the wire into `stage` along `route`: re-deliver it there.
    /// Stage 0 is the source→network entry wire, so a successful resend
    /// is the packet's injection.
    Wire { stage: usize, route: HopRoute },
    /// NACKed at the sink (checksum failure or a misrouted arrival):
    /// resend the clean upstream copy end-to-end to the packet's true
    /// destination terminal.
    Final,
}

/// A departure from (`stage`, `sw`) through `out` whose hop along
/// `route` into the next stage failed — what the merge hands to
/// [`RecoveryState::rescue`].
#[derive(Debug, Clone, Copy)]
pub(super) struct LostHop {
    pub(super) stage: usize,
    pub(super) sw: usize,
    pub(super) out: OutputPort,
    pub(super) route: HopRoute,
    /// Whether the wire was down (as opposed to the buffer bouncing it).
    pub(super) wire_down: bool,
}

/// One packet parked in a hop's retransmit buffer, waiting for its
/// cycle-count timer.
#[derive(Debug, Clone)]
struct RetransmitEntry {
    /// Per-hop sequence number, stamped at park time.
    seq: u64,
    /// Hop slot (see [`RecoveryState::held`]) charged for this entry.
    link: usize,
    /// Cycle at which the next resend attempt fires.
    due: u64,
    /// Failed resend attempts so far.
    attempts: u32,
    /// Whether the current attempt already deferred once for believed
    /// link health (the free wait is capped at one deferral per
    /// attempt, so a permanently dead link still exhausts its retries).
    deferred: bool,
    /// Upstream (stage, switch) of the lossy hop, for telemetry.
    from: (u32, u32),
    kind: HopKind,
    packet: Packet,
}

/// Run-time recovery machinery. See the module docs.
#[derive(Debug)]
pub(super) struct RecoveryState {
    pub(super) config: RecoveryConfig,
    wiring: Wiring,
    /// First hop slot of the per-sink namespace (`Final` entries): one
    /// past the last [`Wiring::link`].
    sink_base: usize,
    /// Parked packets, serviced in park order each cycle. A ring, so the
    /// service pass can rotate through it in place (see
    /// [`RecoveryState::service`]).
    pending: VecDeque<RetransmitEntry>,
    /// Next sequence number per hop slot.
    next_seq: Vec<u64>,
    /// Parked packets per hop slot — the bounded retransmit buffer.
    held: Vec<u32>,
    /// Cycle (exclusive) until which each link is *believed* down.
    /// Trails ground truth by the detection window; also raised by
    /// every observed loss.
    believed_down_until: Vec<u64>,
    /// Link faults observed but not yet believed:
    /// `(effective_cycle, hop slot, down until)`, in effective-cycle
    /// order (fault events apply in cycle order, window is constant).
    detections: Vec<(u64, usize, u64)>,
}

impl RecoveryState {
    pub(super) fn new(config: RecoveryConfig, stages: usize, wiring: Wiring, size: usize) -> Self {
        let sink_base = wiring.link(stages, 0, 0);
        RecoveryState {
            config,
            wiring,
            sink_base,
            pending: VecDeque::new(),
            next_seq: vec![0; sink_base + size],
            held: vec![0; sink_base + size],
            believed_down_until: vec![0; sink_base + size],
            detections: Vec::new(),
        }
    }

    /// Packets currently parked in the retransmit buffers.
    pub(super) fn parked(&self) -> usize {
        self.pending.len()
    }

    /// Whether recovery currently believes the link behind `slot` is
    /// out of service.
    fn believed_down(&self, slot: usize, cycle: u64) -> bool {
        self.believed_down_until[slot] > cycle
    }

    /// Raises the believed-down horizon of `slot` to at least `until`.
    fn believe_down(&mut self, slot: usize, until: u64) {
        let horizon = &mut self.believed_down_until[slot];
        *horizon = (*horizon).max(until);
    }

    /// Records an observed loss on `slot`: believe the link down for
    /// one detection window (local suspicion; cleared by time).
    fn note_loss(&mut self, slot: usize, cycle: u64) {
        self.believe_down(
            slot,
            cycle.saturating_add(self.config.detection_window.max(1)),
        );
    }

    /// Schedules a link fault that struck `link` at cycle `struck`:
    /// recovery learns of the outage one detection window later and
    /// believes it until the fault's own end cycle.
    pub(super) fn schedule_detection(&mut self, struck: u64, link: usize, until: u64) {
        let effective = struck.saturating_add(self.config.detection_window);
        self.detections.push((effective, link, until));
    }

    /// The park rung: holds `packet` in its hop's bounded retransmit
    /// buffer — stamping its sequence number and first resend deadline —
    /// or returns it if retransmission is off or the buffer is full.
    /// `from` is the upstream (stage, switch) of the lossy hop;
    /// `wire_down` marks a loss to an outage, which recovery then also
    /// believes.
    pub(super) fn try_park(
        &mut self,
        cycle: u64,
        wire_down: bool,
        from: (usize, usize),
        kind: HopKind,
        packet: Packet,
    ) -> Option<Packet> {
        let slot = match kind {
            HopKind::Wire { stage, route } => {
                self.wiring
                    .link(stage, route.next_switch, route.next_port.index())
            }
            HopKind::Final => self.sink_base + packet.dest().index(),
        };
        if !self.config.retransmit || self.held[slot] as usize >= self.config.retransmit_slots {
            return Some(packet);
        }
        if wire_down {
            self.note_loss(slot, cycle);
        }
        let seq = self.next_seq[slot];
        self.next_seq[slot] += 1;
        self.held[slot] += 1;
        self.pending.push_back(RetransmitEntry {
            seq,
            link: slot,
            due: cycle.saturating_add(self.config.backoff(0)),
            attempts: 0,
            deferred: false,
            from: (from.0 as u32, from.1 as u32),
            kind,
            packet,
        });
        None
    }

    /// The deflect → park ladder for a packet whose hop between stages
    /// just failed. Returns the packet only if neither rung could save
    /// it (out of deflection budget and the hop buffer is full) — the
    /// caller then drops it, the plain fault model.
    pub(super) fn rescue<B: SwitchBuffer, S: TelemetrySink<Event>>(
        &mut self,
        cycle: u64,
        fabric: &mut Fabric<B>,
        plan: &RoutePlan,
        acct: &mut Account<S>,
        lost: LostHop,
        mut packet: Packet,
    ) -> Option<Packet> {
        let LostHop { stage, sw, .. } = lost;
        // Rung 1 — deflect: misroute on purpose through the alternate
        // output and let the wrong sink recirculate it (unique-path
        // banyans have no second path to the right sink mid-network).
        if self.config.adaptive && packet.deflections() < self.config.misroute_budget {
            let alt_out = plan.alternate_output(stage, sw, lost.out);
            let alt = plan.departure_route(stage, sw, alt_out, packet.dest());
            let alt_link = self
                .wiring
                .link(stage + 1, alt.next_switch, alt.next_port.index());
            if !self.believed_down(alt_link, cycle) && fabric.open(cycle, stage + 1, alt, &packet) {
                let serial = packet.id().serial();
                packet.note_deflection();
                match fabric.hop(cycle, stage + 1, alt, packet) {
                    Ok(()) => {
                        acct.rerouted(cycle, serial, stage, sw, alt_out.index());
                        return None;
                    }
                    Err(bounced) => {
                        debug_assert!(false, "deflection bounced after can_accept");
                        packet = bounced.packet;
                    }
                }
            }
        }
        // Rung 2 — park: hold the packet in the hop's bounded retransmit
        // buffer; the timer resends it once the link is believed healthy
        // again.
        let kind = HopKind::Wire {
            stage: stage + 1,
            route: lost.route,
        };
        self.try_park(cycle, lost.wire_down, (stage, sw), kind, packet)
    }

    /// Drives the recovery protocols at the start of each cycle
    /// (right after fault application): promotes link-fault
    /// detections whose window elapsed into believed link health, then
    /// services every due retransmit entry — resending, backing off,
    /// or giving up. All deadlines are cycle counts, so the schedule is
    /// seed-stable.
    pub(super) fn service<B: SwitchBuffer, S: TelemetrySink<Event>>(
        &mut self,
        cycle: u64,
        fabric: &mut Fabric<B>,
        acct: &mut Account<S>,
    ) {
        // Believe every detection whose window has elapsed (kept in
        // effective-cycle order by construction).
        let due = self.detections.iter().take_while(|d| d.0 <= cycle).count();
        for i in 0..due {
            let (_, slot, until) = self.detections[i];
            self.believe_down(slot, until);
        }
        self.detections.drain(..due);
        // One rotation of the ring: each entry is popped from the front
        // and, if it stays parked, pushed to the back — survivors keep
        // their order and the ring never grows, so a cycle allocates
        // nothing however many packets are parked.
        for _ in 0..self.pending.len() {
            let Some(mut entry) = self.pending.pop_front() else {
                break;
            };
            if entry.due > cycle {
                self.pending.push_back(entry);
                continue;
            }
            if entry.link < self.sink_base
                && !entry.deferred
                && self.believed_down(entry.link, cycle)
            {
                // The link is still believed out: wait for believed
                // health instead of burning an attempt. The free wait
                // is capped at one maximum-backoff deferral per attempt
                // — when the capped deadline arrives the resend goes
                // out against ground truth regardless, so a permanently
                // dead link still burns through its retries and gives
                // the packet up (bounded memory). The new deadline is
                // itself deterministic.
                entry.deferred = true;
                let cap = cycle.saturating_add(self.config.backoff(self.config.max_backoff_exp));
                entry.due = self.believed_down_until[entry.link]
                    .min(cap)
                    .max(cycle.saturating_add(1));
                self.pending.push_back(entry);
                continue;
            }
            // One resend attempt.
            entry.deferred = false;
            let attempt = entry.attempts + 1;
            let serial = entry.packet.id().serial();
            acct.retransmit(cycle, serial, entry.from, attempt, entry.seq);
            let bounced = match entry.kind {
                HopKind::Final => {
                    // Sinks always accept: the clean upstream copy is
                    // resent end-to-end and delivered.
                    entry.packet.repair_payload();
                    acct.delivered(cycle, &entry.packet);
                    None
                }
                HopKind::Wire { stage, route }
                    if fabric.open(cycle, stage, route, &entry.packet) =>
                {
                    let source = entry.packet.source().index();
                    let landed = fabric.hop(cycle, stage, route, entry.packet);
                    debug_assert!(landed.is_ok(), "can_accept pre-checked the resend");
                    if landed.is_ok() && stage == 0 {
                        acct.injected(cycle, serial, source);
                    }
                    landed.err().map(|lost| lost.packet)
                }
                HopKind::Wire { .. } => Some(entry.packet),
            };
            let Some(packet) = bounced else {
                self.held[entry.link] -= 1;
                continue;
            };
            // The attempt failed: the copy stays parked.
            entry.packet = packet;
            entry.attempts = attempt;
            self.note_loss(entry.link, cycle);
            if attempt >= self.config.max_retries.max(1) {
                // Retries exhausted: the protocol gives the packet up.
                self.held[entry.link] -= 1;
                let cause = DropCause::GaveUp {
                    stage: entry.from.0,
                    switch: entry.from.1,
                    attempts: attempt,
                    at_entry: matches!(entry.kind, HopKind::Wire { stage: 0, .. }),
                };
                acct.dropped(cycle, serial, cause);
            } else {
                entry.due = cycle.saturating_add(self.config.backoff(attempt));
                self.pending.push_back(entry);
            }
        }
    }

    /// The read-only view the arbitration probes take of recovery state.
    pub(super) fn view(&self) -> RecoveryView<'_> {
        RecoveryView {
            adaptive: self.config.adaptive,
            believed_down_until: &self.believed_down_until,
        }
    }
}

/// The arbitration probes' read-only view of recovery state: the
/// adaptive flag and the believed link-health table.
#[derive(Clone, Copy)]
pub(super) struct RecoveryView<'a> {
    pub(super) adaptive: bool,
    believed_down_until: &'a [u64],
}

impl RecoveryView<'_> {
    pub(super) fn believed_down(&self, slot: usize, cycle: u64) -> bool {
        self.believed_down_until[slot] > cycle
    }
}
