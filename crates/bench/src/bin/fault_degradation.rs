//! Fault-degradation sweep: how gracefully does each buffer design shed
//! throughput as slots die?
//!
//! The grid is buffer kind × dead-slot fraction × offered load on the
//! standard 16-terminal radix-4 Omega network under discarding flow
//! control. Each cell installs a seeded [`FaultPlan`] that kills the given
//! fraction of every buffer's slots early in the run, then measures
//! steady-state throughput. The paper's central claim extends naturally:
//! DAMQ's shared pool degrades *smoothly* (a dead slot is one slot
//! anywhere), while static partitions lose a whole queue's worth of
//! headroom when their slots die.
//!
//! Every design meets the same damage: the dead-slot plan and the
//! traffic stream are drawn from the (fraction, draw) coordinates only,
//! never from the design or the load, and each point is repeated over
//! eight draws. The text table and the report's aggregate cells give the
//! mean and min–max over the draws; the per-draw cells pair the designs
//! draw by draw.
//!
//! A cell is a deterministic function of its seed, so a cell that panics
//! (a failed post-run audit, say) is a bug: the panic fails the harness.
//!
//! Flags: `--smoke` shrinks the grid and windows for the CI gate.

use damq_bench::grid::{Axis, Cell, Grid, Spread};
use damq_bench::json::{measurement_json, Json, Report};
use damq_bench::{cli, sweep};
use damq_core::{BufferKind, FaultPlan, FaultSpec};
use damq_net::{measure_with_faults, NetworkConfig};
use damq_switch::FlowControl;

const TERMINALS: usize = 16;
const RADIX: usize = 4;
const STAGES: usize = 2;
const PER_STAGE: usize = 4;
const SLOTS: usize = 4;

/// One size of the experiment: the full grid or the CI smoke.
struct Plan {
    name: &'static str,
    kinds: Vec<BufferKind>,
    fractions: Vec<f64>,
    loads: Vec<f64>,
    draws: usize,
    warm_up: u64,
    window: u64,
}

fn plan(smoke: bool) -> Plan {
    if smoke {
        Plan {
            name: "fault_degradation_smoke",
            kinds: vec![BufferKind::Samq, BufferKind::Damq],
            fractions: vec![0.0, 0.25],
            loads: vec![0.6],
            draws: 2,
            warm_up: 50,
            window: 200,
        }
    } else {
        Plan {
            name: "fault_degradation",
            kinds: BufferKind::EXTENDED.to_vec(),
            fractions: vec![0.0, 0.10, 0.25],
            loads: vec![0.3, 0.6, 0.9],
            draws: 8,
            warm_up: 300,
            window: 1000,
        }
    }
}

/// The seed of a (dead fraction, draw) point under `base`: the design and
/// load axes stay out of it, so every design faces the same dead slots
/// and the same traffic stream.
fn point_seed(cell: &Cell, base: u64) -> u64 {
    sweep::cell_seed(base, &[cell[1] as u64, cell[3] as u64])
}

fn faults_for(cell: &Cell, dead_fraction: f64, horizon: u64) -> FaultPlan {
    if dead_fraction == 0.0 {
        return FaultPlan::new();
    }
    let spec = FaultSpec {
        dead_slot_fraction: dead_fraction,
        ..FaultSpec::fault_free(STAGES, PER_STAGE, RADIX, TERMINALS, SLOTS, horizon)
    };
    FaultPlan::generate(point_seed(cell, sweep::BASE_SEED ^ 0xFA17), &spec)
}

fn run_cell(cell: &Cell, plan: &Plan) -> Json {
    let (kind, dead_fraction, load) = (
        plan.kinds[cell[0]],
        plan.fractions[cell[1]],
        plan.loads[cell[2]],
    );
    let config = NetworkConfig::new(TERMINALS, RADIX)
        .buffer_kind(kind)
        .slots_per_buffer(SLOTS)
        .flow_control(FlowControl::Discarding)
        .offered_load(load)
        .seed(point_seed(cell, sweep::BASE_SEED));
    let faults = faults_for(cell, dead_fraction, plan.warm_up / 2);
    let (m, ledger) = measure_with_faults(config, faults, plan.warm_up, plan.window)
        .expect("grid cell configuration is valid");
    Json::obj([
        ("slots_killed", Json::from(ledger.slots_killed)),
        ("fault_drops", Json::from(ledger.dropped())),
        ("measurement", measurement_json(&m)),
    ])
}

fn main() {
    let args = cli::parse(&["--smoke"], &[]);
    let plan = plan(args.flag("--smoke"));

    let mut report = Report::new(plan.name);
    report.meta("terminals", Json::from(TERMINALS));
    report.meta("radix", Json::from(RADIX));
    report.meta("slots_per_buffer", Json::from(SLOTS));
    report.meta("flow_control", Json::from("discarding"));
    report.meta("warm_up", Json::from(plan.warm_up));
    report.meta("window", Json::from(plan.window));
    report.meta("draws", Json::from(plan.draws));

    let grid = Grid::product([
        Axis::new("buffer", plan.kinds.iter().map(|k| k.name())),
        Axis::new("dead_fraction", plan.fractions.iter().copied()),
        Axis::new("load", plan.loads.iter().copied()),
        Axis::new("draw", 0..plan.draws),
    ]);
    let records = grid.run(|cell| run_cell(cell, &plan));

    // Per (design, fraction, load): the spread of a measured field over
    // the draws.
    let spread = |draws: &[Json], name| Spread::of_field(draws, &["measurement", name]);
    records.report(&mut report, Json::clone);
    records.report_rows(3, &mut report, |draws| {
        let summary = |name| spread(draws, name).map_or(Json::Null, Spread::to_json);
        Json::obj([
            ("aggregate", Json::from(true)),
            ("delivered", summary("delivered")),
            ("discard_fraction", summary("discard_fraction")),
        ])
    });

    // Text table on stdout, mirroring the other harnesses.
    let header = ["buffer", "dead", "load", "killed", "delivered", "discard"];
    let table = records.table(3, &header, |_, draws| {
        let missing = || "-".to_owned();
        let mean = |s: Option<Spread>, digits| {
            s.map_or_else(missing, |s| format!("{:.*}", digits, s.mean))
        };
        vec![
            mean(Spread::of_field(draws, &["slots_killed"]), 0),
            spread(draws, "delivered").map_or_else(missing, |s| s.to_string()),
            mean(spread(draws, "discard_fraction"), 3),
        ]
    });
    print!("{table}");

    report.write_and_announce();
}
