//! Chaos soak: long randomized fault storms against every buffer design
//! with the self-healing data path switched on.
//!
//! Each cell soaks one buffer design under one flow-control protocol for
//! many epochs; every epoch draws a fresh storm (dead slots, link flaps,
//! payload corruption, and misroutes) and ends with a full invariant
//! re-audit (conservation, fault-ledger accounting, quiescence). Each
//! cell records telemetry into a flight-recorder ring. A violation is
//! data: the cell minimizes it to a reproducer (seed + cycle window +
//! fault plan) and its report cell becomes `{"violation": {epoch, cycle,
//! message}}`. After writing the report the harness writes one dump per
//! violating cell under `results/chaos_dumps/` ([`chaos::write_dump`]:
//! the reproducer, then the ring's event tail) and exits non-zero.
//!
//! Flags: `--smoke` shrinks the grid and epochs for the CI gate.

use damq_bench::chaos::{self, SoakPlan};
use damq_bench::grid::{Axis, Cell, Grid};
use damq_bench::json::{Json, Report};
use damq_bench::{cli, sweep};
use damq_core::{BufferKind, FaultSpec};
use damq_net::{NetworkConfig, RecoveryConfig};
use damq_switch::FlowControl;
use damq_telemetry::FlightRecorder;

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
    // Built-in audits are the soaked invariants; the extra hook stays
    // inert here (the seeded-mutation test exercises it).
    let check = |_probe: &chaos::EpochProbe| -> Result<(), String> { Ok(()) };
    let results = grid.run(|cell| {
        let soak = soak_for(cell, &plan);
        let config = config_for(cell, &plan);
        let recorder = FlightRecorder::new(RING_CAPACITY);
        let outcome = chaos::run_soak(config, &soak, recorder, &check)
            .expect("grid cell configuration is valid");
        let reproducer = (outcome.violation.as_ref())
            .map(|violation| chaos::minimize(config, &soak, violation, &check));
        (outcome, reproducer)
    });
    results.report(&mut report, |(outcome, _)| match &outcome.violation {
        Some(violation) => Json::obj([("violation", violation.to_json())]),
        None => Json::obj([
            ("epochs_run", Json::from(outcome.epochs_run)),
            ("cycles_run", Json::from(outcome.cycles_run)),
            ("delivered", Json::from(outcome.delivered)),
            ("discarded", Json::from(outcome.discarded)),
            ("fault_drops", Json::from(outcome.ledger.dropped())),
            ("slots_killed", Json::from(outcome.ledger.slots_killed)),
        ]),
    });

    let header = [
        "buffer",
        "flow",
        "epochs",
        "delivered",
        "discarded",
        "fault_drops",
    ];
    let table = results.table(2, &header, |_, cell| {
        let (outcome, _) = &cell[0];
        if outcome.violation.is_some() {
            return vec!["violated".to_owned(); 4];
        }
        let columns = [
            outcome.epochs_run,
            outcome.delivered,
            outcome.discarded,
            outcome.ledger.dropped(),
        ];
        columns.map(|v| v.to_string()).to_vec()
    });
    print!("{table}");
    report.write_and_announce();

    let dump_dir = damq_bench::results_dir().join("chaos_dumps");
    let mut violated = 0;
    for (index, (_, (outcome, reproducer))) in results.iter().enumerate() {
        let (Some(violation), Some(reproducer)) = (&outcome.violation, reproducer) else {
            continue;
        };
        violated += 1;
        match chaos::write_dump(&dump_dir, index, violation, reproducer, &outcome.recorder) {
            Ok(path) => eprintln!(
                "chaos invariant violated in cell {index} at epoch {} cycle {}: {}; dump {}",
                violation.epoch,
                violation.cycle,
                violation.message,
                path.display()
            ),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", dump_dir.display());
                std::process::exit(1);
            }
        }
    }
    if violated > 0 {
        eprintln!("error: {violated} chaos cells violated an invariant");
        std::process::exit(1);
    }
}
