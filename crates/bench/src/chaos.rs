//! Chaos soak engine: long randomized fault storms with per-epoch
//! invariant audits and automatic reproducer minimization.
//!
//! A soak runs one simulation for many **epochs**. Each epoch draws its
//! own fault storm (dead slots + link flaps + payload corruption +
//! misroutes) from a deterministic per-epoch seed; because installing a
//! plan mid-run replaces the previous fault state, the storms are
//! composed up front into one master [`FaultPlan`] via
//! [`FaultPlan::shifted`] + [`FaultPlan::merged`]. At every epoch
//! boundary the simulator's full audit suite re-runs, plus any extra
//! caller-supplied invariant (the seeded-mutation test injects its
//! violation through that hook).
//!
//! When an epoch check fails, [`minimize`] shrinks the master plan by
//! greedy event elimination — re-running the soak without each event and
//! keeping every deletion that still violates — and truncates the cycle
//! window to the first failing epoch. The result is a [`Reproducer`]
//! (seed + cycle window + minimized fault plan) that [`replay`] verifies
//! by re-triggering the violation. A violation is an ordinary value all
//! the way out: [`run_soak`] returns it together with the flight recorder
//! it recorded into, and [`write_dump`] writes the reproducer and the
//! ring's event tail to one JSONL file for the `chaos_soak` bin.
//!
//! Everything here is wall-clock-free and seed-stable: the same config,
//! soak plan, and checker reproduce the same violation, minimization
//! trajectory, and reproducer byte for byte.

use std::io;
use std::path::{Path, PathBuf};

use damq_core::{FaultEvent, FaultPlan, FaultSpec};
use damq_net::{NetworkConfig, NetworkError, NetworkSim};
use damq_telemetry::{Event, FlightRecorder, TelemetrySink};

use crate::json::Json;
use crate::sweep;

/// Shape of one soak: epoch count and length, plus the storm drawn per
/// epoch (`storm.horizon` is clamped to the epoch length).
#[derive(Debug, Clone, Copy)]
pub struct SoakPlan {
    /// Base seed for the per-epoch storm draws.
    pub seed: u64,
    /// Number of epochs to run.
    pub epochs: u64,
    /// Simulated cycles per epoch.
    pub epoch_cycles: u64,
    /// Fault rates drawn once per epoch.
    pub storm: FaultSpec,
}

impl SoakPlan {
    /// Total simulated cycles the soak covers.
    pub fn horizon(&self) -> u64 {
        self.epochs * self.epoch_cycles
    }

    /// Composes the per-epoch storms into one master plan.
    ///
    /// Epoch `e`'s storm is generated over `[0, epoch_cycles)` from a
    /// seed mixed from the soak seed and the epoch index, then shifted
    /// to the epoch's start cycle and merged in — one schedule for the
    /// whole run, installed once.
    pub fn compose(&self) -> FaultPlan {
        let mut storm = self.storm;
        storm.horizon = self.epoch_cycles.max(1);
        let mut master = FaultPlan::new();
        for epoch in 0..self.epochs {
            let seed = sweep::cell_seed(self.seed, &[epoch]);
            let shifted = FaultPlan::generate(seed, &storm).shifted(epoch * self.epoch_cycles);
            master = master.merged(shifted);
        }
        master
    }
}

/// Plain-data snapshot handed to the epoch checker: enough simulator
/// state to express invariants without exposing the simulator itself
/// (which keeps the checker closure trivially replayable during
/// minimization).
#[derive(Debug, Clone, Copy)]
pub struct EpochProbe {
    /// 0-based epoch index just completed.
    pub epoch: u64,
    /// Simulated cycle at the probe (the epoch's end).
    pub cycle: u64,
    /// Packets delivered so far.
    pub delivered: u64,
    /// Packets discarded so far (entry + network).
    pub discarded: u64,
    /// Packets currently parked in retransmit buffers.
    pub recovery_held: u64,
    /// Faults actually inflicted so far.
    pub ledger: damq_core::FaultLedger,
}

/// An invariant check run at every epoch boundary. Return `Err` with a
/// one-line description to flag a violation.
pub type EpochCheck<'a> = dyn Fn(&EpochProbe) -> Result<(), String> + 'a;

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Epoch whose boundary check failed.
    pub epoch: u64,
    /// Simulated cycle at detection.
    pub cycle: u64,
    /// What failed (audit message or checker error).
    pub message: String,
}

impl Violation {
    /// `{"epoch": .., "cycle": .., "message": ..}`: the violation as the
    /// chaos report and its dump record it.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("epoch", Json::from(self.epoch)),
            ("cycle", Json::from(self.cycle)),
            ("message", Json::from(self.message.as_str())),
        ])
    }
}

/// Outcome of one soak run.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Epochs fully completed (the violating epoch counts as run).
    pub epochs_run: u64,
    /// Simulated cycles stepped.
    pub cycles_run: u64,
    /// Packets delivered over the whole soak.
    pub delivered: u64,
    /// Packets discarded over the whole soak.
    pub discarded: u64,
    /// Faults the master plan actually inflicted.
    pub ledger: damq_core::FaultLedger,
    /// First violation found, if any (the soak stops there).
    pub violation: Option<Violation>,
    /// The flight recorder the soak recorded into, handed back with the
    /// tail of the run's events.
    pub recorder: FlightRecorder<Event>,
}

/// A minimized, self-contained recipe for re-triggering a violation:
/// the traffic/storm seeds live in the config and soak plan, so the
/// reproducer carries only the window and the surviving fault events.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The soak's storm seed (provenance; the plan below is explicit).
    pub seed: u64,
    /// Cycle window `[start, end)`: `start` is the earliest surviving
    /// fault cycle (0 for an empty plan), `end` the first failing
    /// epoch's boundary.
    pub window: (u64, u64),
    /// Epoch length, so replay probes the same boundaries.
    pub epoch_cycles: u64,
    /// The minimized fault plan.
    pub plan: FaultPlan,
    /// The violation message the reproducer re-triggers.
    pub message: String,
}

impl Reproducer {
    /// Renders the reproducer as a deterministic JSON object (the
    /// payload of a violation dump's meta line).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::from(self.seed)),
            ("window_start", Json::from(self.window.0)),
            ("window_end", Json::from(self.window.1)),
            ("epoch_cycles", Json::from(self.epoch_cycles)),
            ("message", Json::from(self.message.as_str())),
            (
                "fault_plan",
                Json::Arr(self.plan.events().iter().map(fault_event_json).collect()),
            ),
        ])
    }

    /// Parses a reproducer back out of its [`Reproducer::to_json`] form
    /// (`None` on any missing or ill-typed field) — the path a violation
    /// dump travels to become a replayable plan again.
    pub fn from_json(json: &Json) -> Option<Reproducer> {
        let uint = |key: &str| json.get(key)?.as_u64();
        let message = match json.get("message")? {
            Json::Str(s) => s.clone(),
            _ => return None,
        };
        let events = match json.get("fault_plan")? {
            Json::Arr(events) => events,
            _ => return None,
        };
        let mut plan = FaultPlan::new();
        for event in events {
            plan = fault_event_from_json(event, plan)?;
        }
        Some(Reproducer {
            seed: uint("seed")?,
            window: (uint("window_start")?, uint("window_end")?),
            epoch_cycles: uint("epoch_cycles")?,
            plan,
            message,
        })
    }
}

/// Parses one [`fault_event_json`] object back onto `plan`.
fn fault_event_from_json(event: &Json, plan: FaultPlan) -> Option<FaultPlan> {
    let uint = |key: &str| event.get(key)?.as_u64();
    let idx = |key: &str| uint(key).map(|v| v as usize);
    let kind = match event.get("kind")? {
        Json::Str(s) => s.as_str(),
        _ => return None,
    };
    let site = || -> Option<damq_core::FaultSite> {
        Some(damq_core::FaultSite {
            stage: idx("stage")?,
            switch: idx("switch")?,
            input: idx("input")?,
        })
    };
    match kind {
        "dead_slot" => Some(plan.with_dead_slot(uint("cycle")?, site()?, idx("queue_hint")?)),
        "link_down" => Some(plan.with_link_down(uint("cycle")?, site()?, uint("until")?)),
        "corrupt_payload" => Some(plan.with_corruption(uint("cycle")?, idx("source")?)),
        "misroute" => Some(plan.with_misroute(uint("cycle")?, idx("stage")?, idx("switch")?)),
        _ => None,
    }
}

/// Renders one fault event as a JSON object.
fn fault_event_json(event: &FaultEvent) -> Json {
    match *event {
        FaultEvent::DeadSlot {
            cycle,
            site,
            queue_hint,
        } => Json::obj([
            ("kind", Json::from("dead_slot")),
            ("cycle", Json::from(cycle)),
            ("stage", Json::from(site.stage)),
            ("switch", Json::from(site.switch)),
            ("input", Json::from(site.input)),
            ("queue_hint", Json::from(queue_hint)),
        ]),
        FaultEvent::LinkDown { cycle, site, until } => Json::obj([
            ("kind", Json::from("link_down")),
            ("cycle", Json::from(cycle)),
            ("stage", Json::from(site.stage)),
            ("switch", Json::from(site.switch)),
            ("input", Json::from(site.input)),
            ("until", Json::from(until)),
        ]),
        FaultEvent::CorruptPayload { cycle, source } => Json::obj([
            ("kind", Json::from("corrupt_payload")),
            ("cycle", Json::from(cycle)),
            ("source", Json::from(source)),
        ]),
        FaultEvent::Misroute {
            cycle,
            stage,
            switch,
        } => Json::obj([
            ("kind", Json::from("misroute")),
            ("cycle", Json::from(cycle)),
            ("stage", Json::from(stage)),
            ("switch", Json::from(switch)),
        ]),
        // FaultEvent is #[non_exhaustive]; an unknown future class has no
        // structured fields we can name, so render it opaquely.
        other => Json::obj([
            ("kind", Json::from("unknown")),
            ("cycle", Json::from(other.cycle())),
        ]),
    }
}

/// Rebuilds a plan from an event subset (the minimizer's workhorse).
fn plan_from_events(events: &[FaultEvent]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for event in events {
        plan = match *event {
            FaultEvent::DeadSlot {
                cycle,
                site,
                queue_hint,
            } => plan.with_dead_slot(cycle, site, queue_hint),
            FaultEvent::LinkDown { cycle, site, until } => plan.with_link_down(cycle, site, until),
            FaultEvent::CorruptPayload { cycle, source } => plan.with_corruption(cycle, source),
            FaultEvent::Misroute {
                cycle,
                stage,
                switch,
            } => plan.with_misroute(cycle, stage, switch),
            // A future fault class we cannot reconstruct is kept out of
            // the minimized plan; if it mattered, the violation stops
            // reproducing and the deletion is rejected upstream anyway.
            _ => plan,
        };
    }
    plan
}

/// Steps `sim` through epochs of `epoch_cycles` until `end_cycle`,
/// probing the audits and `check` at every boundary. Returns the first
/// violation, or `None` if the window completes clean.
fn drive<S: TelemetrySink<Event>>(
    sim: &mut NetworkSim<damq_core::AnyBuffer, S>,
    epoch_cycles: u64,
    end_cycle: u64,
    check: &EpochCheck<'_>,
) -> (u64, Option<Violation>) {
    let epoch_cycles = epoch_cycles.max(1);
    let mut cycles_run = 0;
    let mut epoch = 0;
    while cycles_run < end_cycle {
        let stride = epoch_cycles.min(end_cycle - cycles_run);
        sim.run(stride);
        cycles_run += stride;
        let probe = EpochProbe {
            epoch,
            cycle: sim.cycle(),
            delivered: sim.metrics().delivered(),
            discarded: sim.metrics().discarded(),
            recovery_held: sim.recovery_held() as u64,
            ledger: sim.fault_ledger(),
        };
        let verdict = sim
            .audit()
            .map_err(|e| format!("audit failed: {e}"))
            .and_then(|()| check(&probe));
        if let Err(message) = verdict {
            return (
                cycles_run,
                Some(Violation {
                    epoch,
                    cycle: probe.cycle,
                    message,
                }),
            );
        }
        epoch += 1;
    }
    (cycles_run, None)
}

/// Runs one full soak: composes the master plan, steps every epoch with
/// `recorder` attached as the simulation's sink, and re-audits (built-in
/// audits + `check`) at each epoch boundary. Stops at the first
/// violation, and hands the recorder back in the outcome.
///
/// # Errors
///
/// Returns [`NetworkError`] if the configuration is rejected.
pub fn run_soak(
    config: NetworkConfig,
    soak: &SoakPlan,
    recorder: FlightRecorder<Event>,
    check: &EpochCheck<'_>,
) -> Result<SoakOutcome, NetworkError> {
    let mut sim = NetworkSim::with_sink(config, recorder)?;
    sim.install_fault_plan(soak.compose());
    let (cycles_run, violation) = drive(&mut sim, soak.epoch_cycles, soak.horizon(), check);
    Ok(SoakOutcome {
        epochs_run: violation
            .as_ref()
            .map_or(soak.epochs, |v| v.epoch + 1)
            .min(soak.epochs),
        cycles_run,
        delivered: sim.metrics().delivered(),
        discarded: sim.metrics().discarded(),
        ledger: sim.fault_ledger(),
        violation,
        recorder: sim.into_sink(),
    })
}

/// Writes the dump of the violating grid cell `cell` to
/// `dir/cell{cell:04}.jsonl` and returns its path.
///
/// The first line is a `chaos_violation` meta record: the cell, the
/// violation, the minimized reproducer as a JSON object (read it back
/// with [`Reproducer::from_json`]) and the ring's occupancy (`retained`
/// of `seen` events). The ring's retained events follow as JSONL, oldest
/// first.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the write.
pub fn write_dump(
    dir: &Path,
    cell: usize,
    violation: &Violation,
    reproducer: &Reproducer,
    recorder: &FlightRecorder<Event>,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("cell{cell:04}.jsonl"));
    let meta = Json::obj([
        ("type", Json::from("chaos_violation")),
        ("cell", Json::from(cell)),
        ("violation", violation.to_json()),
        ("reproducer", reproducer.to_json()),
        ("retained", Json::from(recorder.len())),
        ("seen", Json::from(recorder.seen())),
    ]);
    std::fs::write(
        &path,
        format!("{}\n{}", meta.render(), recorder.dump_jsonl()),
    )?;
    Ok(path)
}

/// Replays `plan` over `[0, end_cycle)` with fresh traffic from
/// `config` and returns the first violation, if any.
fn violates(
    config: NetworkConfig,
    plan: &FaultPlan,
    epoch_cycles: u64,
    end_cycle: u64,
    check: &EpochCheck<'_>,
) -> Option<Violation> {
    let mut sim =
        NetworkSim::with_faults(config, plan.clone()).expect("config validated by the first run");
    drive(&mut sim, epoch_cycles, end_cycle, check).1
}

/// Shrinks a violating soak to a [`Reproducer`]: truncates the cycle
/// window to the first failing epoch's boundary, then greedily deletes
/// fault events — re-running the window without each event, keeping
/// every deletion under which the violation still fires — until a full
/// pass removes nothing (or the pass cap is hit).
///
/// Greedy one-at-a-time elimination is quadratic in the worst case but
/// the plans here are storm-sized (tens of events), each probe run is a
/// few thousand cycles, and every probe is deterministic — the same
/// inputs always minimize to the same reproducer.
///
/// # Panics
///
/// Panics if the violation does not reproduce against the composed plan
/// over the truncated window — a checker that is not a pure function of
/// the probe cannot be minimized.
pub fn minimize(
    config: NetworkConfig,
    soak: &SoakPlan,
    violation: &Violation,
    check: &EpochCheck<'_>,
) -> Reproducer {
    let end_cycle = (violation.epoch + 1) * soak.epoch_cycles.max(1);
    // Events due after the window cannot influence it; drop them wholesale.
    let mut events: Vec<FaultEvent> = soak
        .compose()
        .events()
        .iter()
        .copied()
        .filter(|e| e.cycle() < end_cycle)
        .collect();
    violates(
        config,
        &plan_from_events(&events),
        soak.epoch_cycles,
        end_cycle,
        check,
    )
    .expect("violation must reproduce deterministically over its own window");

    const MAX_PASSES: usize = 8;
    for _ in 0..MAX_PASSES {
        let mut removed_any = false;
        let mut index = 0;
        while index < events.len() {
            let mut candidate = events.clone();
            candidate.remove(index);
            if violates(
                config,
                &plan_from_events(&candidate),
                soak.epoch_cycles,
                end_cycle,
                check,
            )
            .is_some()
            {
                events = candidate;
                removed_any = true;
                // Do not advance: the element now at `index` is untried.
            } else {
                index += 1;
            }
        }
        if !removed_any {
            break;
        }
    }

    let plan = plan_from_events(&events);
    // One final probe against the minimized plan, so the reproducer
    // carries the exact message its own replay re-triggers (deletions
    // can change counts embedded in the text, e.g. "3 drops" -> "1").
    let confirmed = violates(config, &plan, soak.epoch_cycles, end_cycle, check)
        .expect("every kept deletion preserved the violation");
    let start = plan.events().first().map_or(0, FaultEvent::cycle);
    Reproducer {
        seed: soak.seed,
        window: (start, end_cycle),
        epoch_cycles: soak.epoch_cycles,
        plan,
        message: confirmed.message,
    }
}

/// Verifies a reproducer by replaying it: fresh simulation, the
/// minimized plan, the same epoch boundaries. Returns the re-triggered
/// violation, or `None` if the reproducer went stale.
pub fn replay(
    config: NetworkConfig,
    reproducer: &Reproducer,
    check: &EpochCheck<'_>,
) -> Option<Violation> {
    violates(
        config,
        &reproducer.plan,
        reproducer.epoch_cycles,
        reproducer.window.1,
        check,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use damq_core::BufferKind;
    use damq_net::RecoveryConfig;
    use damq_switch::FlowControl;

    fn config() -> NetworkConfig {
        NetworkConfig::new(16, 4)
            .slots_per_buffer(4)
            .buffer_kind(BufferKind::Damq)
            .flow_control(FlowControl::Discarding)
            .recovery(RecoveryConfig::enabled())
            .offered_load(0.5)
            .seed(41)
    }

    fn soak() -> SoakPlan {
        SoakPlan {
            seed: 0xC4A05,
            epochs: 4,
            epoch_cycles: 200,
            storm: FaultSpec {
                dead_slot_fraction: 0.02,
                link_flaps: 2,
                flap_duration: 30,
                corrupt_packets: 1,
                misroutes: 1,
                ..FaultSpec::fault_free(2, 4, 4, 16, 4, 200)
            },
        }
    }

    #[test]
    fn composed_plan_is_sorted_and_covers_every_epoch() {
        let soak = soak();
        let plan = soak.compose();
        assert!(!plan.is_empty());
        let cycles: Vec<u64> = plan.events().iter().map(FaultEvent::cycle).collect();
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        assert_eq!(cycles, sorted, "merged storms stay cycle-ordered");
        assert!(
            cycles.iter().any(|&c| c >= 3 * soak.epoch_cycles),
            "the last epoch draws its own storm"
        );
        assert_eq!(plan, soak.compose(), "composition is deterministic");
    }

    #[test]
    fn clean_soak_runs_every_epoch_and_stays_audited() {
        let outcome = run_soak(config(), &soak(), FlightRecorder::new(64), &|_| Ok(()))
            .expect("config is valid");
        assert!(outcome.violation.is_none());
        assert_eq!(outcome.epochs_run, 4);
        assert_eq!(outcome.cycles_run, 800);
        assert_eq!(outcome.recorder.len(), 64, "the ring comes back full");
        assert!(outcome.delivered > 0);
        assert!(outcome.ledger.dropped() + outcome.ledger.slots_killed > 0);
    }

    #[test]
    fn injected_violation_minimizes_to_a_replayable_reproducer() {
        // The mutation: declare any killed slot a violation. The full
        // storm schedules flaps, corruption and misroutes too; a correct
        // minimizer strips everything but the dead slots the checker
        // actually keys on. (Corruption would not work as the mutation
        // here: with recovery enabled, corrupted payloads are repaired
        // and redelivered, so `corrupt_dropped` never rises.)
        let check = |probe: &EpochProbe| {
            if probe.ledger.slots_killed > 0 {
                Err(format!(
                    "seeded mutation: {} slots killed by cycle {}",
                    probe.ledger.slots_killed, probe.cycle
                ))
            } else {
                Ok(())
            }
        };
        let outcome =
            run_soak(config(), &soak(), FlightRecorder::new(64), &check).expect("config is valid");
        let violation = outcome.violation.expect("the seeded mutation fires");

        let full_events = soak().compose().events().len();
        let rep = minimize(config(), &soak(), &violation, &check);
        assert!(
            rep.plan.events().len() < full_events,
            "minimization must shrink the plan ({} -> {})",
            full_events,
            rep.plan.events().len()
        );
        assert!(
            rep.plan
                .events()
                .iter()
                .all(|e| matches!(e, FaultEvent::DeadSlot { .. })),
            "only the faults the checker keys on survive: {:?}",
            rep.plan.events()
        );
        assert_eq!(
            rep.plan.events().len(),
            1,
            "one dead slot suffices to re-trigger the mutation"
        );
        assert!(rep.window.1 <= soak().horizon());
        assert!(rep.window.0 < rep.window.1);

        let again = replay(config(), &rep, &check).expect("reproducer re-triggers");
        assert_eq!(again.message, rep.message);

        let json = rep.to_json().render();
        assert!(json.contains("\"fault_plan\""));
        assert!(json.contains("dead_slot"));
    }

    #[test]
    fn reproducer_json_round_trips_through_the_parser() {
        let rep = Reproducer {
            seed: 7,
            window: (10, 400),
            epoch_cycles: 200,
            plan: FaultPlan::new()
                .with_dead_slot(
                    10,
                    damq_core::FaultSite {
                        stage: 0,
                        switch: 1,
                        input: 2,
                    },
                    3,
                )
                .with_link_down(
                    20,
                    damq_core::FaultSite {
                        stage: 1,
                        switch: 0,
                        input: 0,
                    },
                    50,
                )
                .with_corruption(30, 5)
                .with_misroute(40, 1, 2),
            message: "demo".to_owned(),
        };
        let parsed = Json::parse(&rep.to_json().render()).expect("reproducer JSON parses");
        let events = match parsed.get("fault_plan") {
            Some(Json::Arr(events)) => events.clone(),
            other => panic!("fault_plan must be an array, got {other:?}"),
        };
        assert_eq!(events.len(), 4);
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| match e.get("kind") {
                Some(Json::Str(s)) => s.as_str(),
                _ => "?",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["dead_slot", "link_down", "corrupt_payload", "misroute"]
        );
        let back = Reproducer::from_json(&parsed).expect("reproducer parses back");
        assert_eq!(back.seed, rep.seed);
        assert_eq!(back.window, rep.window);
        assert_eq!(back.epoch_cycles, rep.epoch_cycles);
        assert_eq!(back.message, rep.message);
        assert_eq!(
            back.plan, rep.plan,
            "the fault plan survives the round trip"
        );
    }
    #[test]
    fn full_width_seeds_and_cycles_round_trip_exactly() {
        // 2^53 + 1 is the first integer an f64 cannot hold; a crash dump's
        // seed is a full-width SplitMix value.
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let rep = Reproducer {
                seed,
                window: (seed - 1, seed),
                epoch_cycles: seed,
                plan: FaultPlan::new().with_link_down(
                    seed,
                    damq_core::FaultSite {
                        stage: 0,
                        switch: 1,
                        input: 2,
                    },
                    u64::MAX,
                ),
                message: "wide".to_owned(),
            };
            let parsed = Json::parse(&rep.to_json().render()).expect("reproducer JSON parses");
            let back = Reproducer::from_json(&parsed).expect("reproducer parses back");
            assert_eq!(back.seed, seed);
            assert_eq!(back.window, rep.window);
            assert_eq!(back.epoch_cycles, seed);
            assert_eq!(back.plan, rep.plan);
        }
    }
}
