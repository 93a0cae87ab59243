//! Chaos soak: long randomized fault storms against every buffer design
//! with the self-healing data path switched on.
//!
//! Each cell soaks one buffer design under one flow-control protocol for
//! many epochs; every epoch draws a fresh storm (dead slots, link flaps,
//! payload corruption, and misroutes) and ends with a full invariant
//! re-audit (conservation, fault-ledger accounting, quiescence). Cells
//! run under the recorded isolation harness
//! ([`sweep::run_isolated_recorded`]): each cell records telemetry into
//! a flight-recorder ring, and an invariant violation minimizes itself
//! to a reproducer (seed + cycle window + fault plan), panics with the
//! reproducer JSON as the message, and so lands in the crash dump
//! sidecar under `results/chaos_dumps/` alongside the trailing event
//! tail. Any failed cell makes the harness exit non-zero.
//!
//! Flags: `--smoke` shrinks the grid and epochs for the CI gate.

use std::path::PathBuf;

use damq_bench::chaos::{self, SoakPlan};
use damq_bench::grid::{Axis, Cell, Grid};
use damq_bench::json::{Json, Report};
use damq_bench::{cli, sweep};
use damq_core::{BufferKind, FaultSpec};
use damq_net::{NetworkConfig, RecoveryConfig};
use damq_switch::FlowControl;

const TERMINALS: usize = 16;
const RADIX: usize = 4;
const STAGES: usize = 2;
const PER_STAGE: usize = 4;
const SLOTS: usize = 4;
const RING_CAPACITY: usize = 256;

/// One size of the soak: the full grid or the CI smoke.
struct Plan {
    name: &'static str,
    kinds: Vec<BufferKind>,
    flows: Vec<FlowControl>,
    epochs: u64,
    epoch_cycles: u64,
}

fn plan(smoke: bool) -> Plan {
    if smoke {
        Plan {
            name: "chaos_soak_smoke",
            kinds: vec![BufferKind::Samq, BufferKind::Damq],
            flows: vec![FlowControl::Discarding],
            epochs: 3,
            epoch_cycles: 150,
        }
    } else {
        Plan {
            name: "chaos_soak",
            kinds: BufferKind::EXTENDED.to_vec(),
            flows: FlowControl::ALL.to_vec(),
            epochs: 20,
            epoch_cycles: 500,
        }
    }
}

fn soak_for(cell: &Cell, plan: &Plan) -> SoakPlan {
    SoakPlan {
        seed: cell.seed_from(sweep::BASE_SEED ^ 0xC4A05),
        epochs: plan.epochs,
        epoch_cycles: plan.epoch_cycles,
        storm: FaultSpec {
            dead_slot_fraction: 0.02,
            link_flaps: 3,
            flap_duration: plan.epoch_cycles / 5,
            corrupt_packets: 2,
            misroutes: 1,
            ..FaultSpec::fault_free(
                STAGES,
                PER_STAGE,
                RADIX,
                TERMINALS,
                SLOTS,
                plan.epoch_cycles,
            )
        },
    }
}

fn config_for(cell: &Cell, plan: &Plan) -> NetworkConfig {
    NetworkConfig::new(TERMINALS, RADIX)
        .buffer_kind(plan.kinds[cell[0]])
        .slots_per_buffer(SLOTS)
        .flow_control(plan.flows[cell[1]])
        .recovery(RecoveryConfig::enabled())
        .offered_load(0.5)
        .seed(cell.seed())
}

fn main() {
    let args = cli::parse(&["--smoke"], &[]);
    let plan = plan(args.flag("--smoke"));

    let mut report = Report::new(plan.name);
    report.meta("terminals", Json::from(TERMINALS));
    report.meta("radix", Json::from(RADIX));
    report.meta("slots_per_buffer", Json::from(SLOTS));
    report.meta("recovery", Json::from("enabled"));
    report.meta("epochs", Json::from(plan.epochs));
    report.meta("epoch_cycles", Json::from(plan.epoch_cycles));

    let grid = Grid::product([
        Axis::new("buffer", plan.kinds.iter().map(|k| k.name())),
        Axis::new("flow", plan.flows.iter().map(|f| format!("{f:?}"))),
    ]);
    let cycle_budget = plan.epochs * plan.epoch_cycles * 20;
    let dump_dir = damq_bench::results_dir().join("chaos_dumps");
    // Built-in audits are the soaked invariants; the extra hook stays
    // inert here (the seeded-mutation test exercises it).
    let check = |_probe: &chaos::EpochProbe| -> Result<(), String> { Ok(()) };
    let soak_cell = |cell: &Cell, watchdog: &sweep::Watchdog, recorder| {
        let soak = soak_for(cell, &plan);
        let config = config_for(cell, &plan);
        let outcome = chaos::run_soak(config, &soak, recorder, &check, || watchdog.tick())
            .expect("grid cell configuration is valid");
        if let Some(violation) = &outcome.violation {
            // Minimize first, then panic with the reproducer as the
            // message: the recorded harness writes it (plus the
            // telemetry ring's tail) into the crash-dump sidecar.
            let rep = chaos::minimize(config, &soak, violation, &check);
            panic!(
                "chaos invariant violated at epoch {} cycle {}: {} — reproducer {}",
                violation.epoch,
                violation.cycle,
                violation.message,
                rep.to_json().render()
            );
        }
        Json::obj([
            ("epochs_run", Json::from(outcome.epochs_run)),
            ("cycles_run", Json::from(outcome.cycles_run)),
            ("delivered", Json::from(outcome.delivered)),
            ("discarded", Json::from(outcome.discarded)),
            ("fault_drops", Json::from(outcome.ledger.dropped())),
            ("slots_killed", Json::from(outcome.ledger.slots_killed)),
        ])
    };
    let recorded = sweep::run_isolated_recorded(
        grid.cells(),
        cycle_budget,
        RING_CAPACITY,
        &dump_dir,
        soak_cell,
    );
    let dumps: Vec<PathBuf> = recorded.iter().filter_map(|r| r.dump.clone()).collect();
    let (records, outcomes) = grid.with_reports(recorded.into_iter().map(|r| r.report));
    records.report(&mut report, Json::clone);

    let header = [
        "buffer",
        "flow",
        "epochs",
        "delivered",
        "discarded",
        "fault_drops",
    ];
    let table = records.table(2, &header, |_, record| {
        let field = |name: &str| -> String {
            let value = record[0].get(name).and_then(Json::as_f64);
            value.map_or_else(|| "failed".to_owned(), |v| format!("{v:.0}"))
        };
        ["epochs_run", "delivered", "discarded", "fault_drops"]
            .map(field)
            .to_vec()
    });
    print!("{table}");

    if let Err(failure) = report.finish(&outcomes, Some(&dumps)) {
        eprintln!(
            "error: {failure}; chaos soak reproducers are in {}",
            dump_dir.display()
        );
        std::process::exit(1);
    }
}
