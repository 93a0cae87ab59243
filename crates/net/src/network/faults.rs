//! Run-time fault machinery: the installed [`FaultPlan`], the link
//! outage table, and the armed corruptions and misroutes.
//!
//! [`Wiring`] is the one numbering of inter-stage wires; the outage
//! table here, recovery's believed-health table and the adaptive probe
//! all index by it. Fault state is read by the arbitration probes
//! ([`FaultState::link_down`]) and mutated at plan application (cycle
//! start) and by `take_*` in generate and the merges — never while a
//! stage arbitrates.

use damq_core::{FaultEvent, FaultPlan, FaultSite, InputPort, OutputPort, SwitchBuffer};
use damq_switch::Switch;
use damq_telemetry::{Event, TelemetrySink};

use super::account::Account;
use super::recovery::RecoveryState;

/// Flat numbering of the switch grid and the wires into it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Wiring {
    pub(super) per_stage: usize,
    pub(super) radix: usize,
}

impl Wiring {
    /// Index of (`stage`, `sw`) in stage-major per-switch tables.
    pub(super) fn switch(self, stage: usize, sw: usize) -> usize {
        stage * self.per_stage + sw
    }

    /// Index of the wire into (`stage`, `sw`, `input`).
    pub(super) fn link(self, stage: usize, sw: usize, input: usize) -> usize {
        self.switch(stage, sw) * self.radix + input
    }
}

/// The installed [`FaultPlan`] plus the mutable state its application
/// needs, sized against the topology at install time.
#[derive(Debug)]
pub(super) struct FaultState {
    plan: FaultPlan,
    /// Index of the first plan event not yet applied.
    next_event: usize,
    wiring: Wiring,
    stages: usize,
    /// Per-wire outage end cycle (exclusive), indexed by
    /// [`Wiring::link`].
    link_down_until: Vec<u64>,
    /// Payload corruptions waiting to strike, per source terminal.
    corrupt_pending: Vec<u32>,
    /// Transient misroutes waiting to strike, indexed by
    /// [`Wiring::switch`].
    misroute_pending: Vec<u32>,
}

impl FaultState {
    pub(super) fn new(plan: FaultPlan, stages: usize, wiring: Wiring, size: usize) -> Self {
        FaultState {
            plan,
            next_event: 0,
            wiring,
            stages,
            link_down_until: vec![0; wiring.link(stages, 0, 0)],
            corrupt_pending: vec![0; size],
            misroute_pending: vec![0; wiring.switch(stages, 0)],
        }
    }

    /// Whether wire `link` is out of service at `cycle`.
    pub(super) fn link_down(&self, link: usize, cycle: u64) -> bool {
        self.link_down_until[link] > cycle
    }

    /// Consumes one pending misroute at (`stage`, `sw`) if any is armed.
    pub(super) fn take_misroute(&mut self, stage: usize, sw: usize) -> bool {
        take_one(&mut self.misroute_pending[self.wiring.switch(stage, sw)])
    }

    /// Consumes one pending corruption for terminal `src` if any is armed.
    pub(super) fn take_corruption(&mut self, src: usize) -> bool {
        take_one(&mut self.corrupt_pending[src])
    }

    /// Whether `site` names a buffer of this topology (plans are
    /// topology-agnostic index schedules; off-grid sites are skipped).
    fn on_grid(&self, site: FaultSite) -> bool {
        site.stage < self.stages
            && site.switch < self.wiring.per_stage
            && site.input < self.wiring.radix
    }

    /// Applies every plan event due at `cycle`: dead slots and link
    /// outages take effect immediately; corruptions and misroutes arm
    /// and strike on the next matching packet.
    pub(super) fn apply_due<B: SwitchBuffer, S: TelemetrySink<Event>>(
        &mut self,
        cycle: u64,
        switches: &mut [Vec<Switch<B>>],
        mut recovery: Option<&mut RecoveryState>,
        acct: &mut Account<S>,
    ) {
        while let Some(&event) = self.plan.events().get(self.next_event) {
            if event.cycle() > cycle {
                break;
            }
            self.next_event += 1;
            match event {
                FaultEvent::DeadSlot {
                    site, queue_hint, ..
                } if self.on_grid(site) => {
                    let killed = switches[site.stage][site.switch]
                        .kill_buffer_slot(InputPort::new(site.input), OutputPort::new(queue_hint));
                    if killed {
                        acct.slot_killed(cycle, site);
                    }
                }
                FaultEvent::LinkDown { site, until, .. } if self.on_grid(site) => {
                    let link = self.wiring.link(site.stage, site.switch, site.input);
                    let down_until = &mut self.link_down_until[link];
                    *down_until = (*down_until).max(until);
                    if let Some(rec) = recovery.as_deref_mut() {
                        rec.schedule_detection(cycle, link, until);
                    }
                    acct.link_down(cycle, site, until);
                }
                FaultEvent::CorruptPayload { source, .. }
                    if source < self.corrupt_pending.len() =>
                {
                    self.corrupt_pending[source] += 1;
                }
                FaultEvent::Misroute { stage, switch, .. }
                    if stage < self.stages && switch < self.wiring.per_stage =>
                {
                    self.misroute_pending[self.wiring.switch(stage, switch)] += 1;
                }
                // Off-grid sites, and — `FaultEvent` being non-exhaustive
                // — fault classes this simulator does not model, are
                // skipped, not errors.
                _ => {}
            }
        }
    }
}

/// Decrements an armed-fault counter, reporting whether one was armed.
fn take_one(pending: &mut u32) -> bool {
    let armed = *pending > 0;
    if armed {
        *pending -= 1;
    }
    armed
}
