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
//! Cells run through the resumable self-healing pipeline
//! ([`damq_bench::resume::run`]): panic-isolated, cycle-budget
//! watchdogged, retried with a fresh seed on panic, and checkpointed per
//! cell so `--resume` re-runs only what is missing. Outcomes land in the
//! report's `robustness` section.
//!
//! Flags: `--smoke` shrinks the grid and windows for the CI gate;
//! `--resume` reloads `results/json/<name>.cells.jsonl`.

use damq_bench::grid::{Axis, Cell, Grid};
use damq_bench::json::{measurement_json, Json, Report};
use damq_bench::sweep::{self, IsolationOptions};
use damq_bench::{cli, render_table, resume};
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
            warm_up: 50,
            window: 200,
        }
    } else {
        Plan {
            name: "fault_degradation",
            kinds: BufferKind::EXTENDED.to_vec(),
            fractions: vec![0.0, 0.10, 0.25],
            loads: vec![0.3, 0.6, 0.9],
            warm_up: 300,
            window: 1000,
        }
    }
}

fn faults_for(cell: &Cell, dead_fraction: f64, horizon: u64) -> FaultPlan {
    if dead_fraction == 0.0 {
        return FaultPlan::new();
    }
    let spec = FaultSpec {
        dead_slot_fraction: dead_fraction,
        ..FaultSpec::fault_free(STAGES, PER_STAGE, RADIX, TERMINALS, SLOTS, horizon)
    };
    // The plan seed depends only on the grid coordinates, not the attempt:
    // the *faults* are the experiment, so a retry replays the same damage
    // against a fresh traffic stream.
    FaultPlan::generate(cell.seed_from(sweep::BASE_SEED ^ 0xFA17), &spec)
}

fn run_cell(cell: &Cell, plan: &Plan, watchdog: &sweep::Watchdog, attempt: u32) -> Json {
    let (kind, dead_fraction, load) = (
        plan.kinds[cell[0]],
        plan.fractions[cell[1]],
        plan.loads[cell[2]],
    );
    // Fold the attempt index into the traffic seed so a retry after a
    // panic explores a different stream (the reseed of retry-with-reseed).
    let config = NetworkConfig::new(TERMINALS, RADIX)
        .buffer_kind(kind)
        .slots_per_buffer(SLOTS)
        .flow_control(FlowControl::Discarding)
        .offered_load(load)
        .seed(cell.seed_from(sweep::BASE_SEED + u64::from(attempt)));
    let faults = faults_for(cell, dead_fraction, plan.warm_up / 2);
    let (m, ledger) = measure_with_faults(config, faults, plan.warm_up, plan.window, || {
        watchdog.tick();
    })
    .expect("grid cell configuration is valid");
    Json::obj([
        ("slots_killed", Json::from(ledger.slots_killed)),
        ("fault_drops", Json::from(ledger.dropped())),
        ("measurement", measurement_json(&m)),
    ])
}

fn main() {
    let args = cli::parse(&["--smoke", "--resume"], &[]);
    let plan = plan(args.flag("--smoke"));

    let mut report = Report::new(plan.name);
    report.meta("terminals", Json::from(TERMINALS));
    report.meta("radix", Json::from(RADIX));
    report.meta("slots_per_buffer", Json::from(SLOTS));
    report.meta("flow_control", Json::from("discarding"));
    report.meta("warm_up", Json::from(plan.warm_up));
    report.meta("window", Json::from(plan.window));

    let grid = Grid::product([
        Axis::new("buffer", plan.kinds.iter().map(|k| k.name())),
        Axis::new("dead_fraction", plan.fractions.iter().copied()),
        Axis::new("load", plan.loads.iter().copied()),
    ]);
    let opts = IsolationOptions {
        // Generous: ~20x the cell's simulated cycles. A cell that ticks
        // past this is wedged, not slow.
        cycle_budget: (plan.warm_up + plan.window) * 20,
        max_retries: 2,
    };
    let (records, robustness) = resume::run(
        plan.name,
        args.flag("--resume"),
        grid,
        opts,
        |cell, watchdog, attempt| run_cell(cell, &plan, watchdog, attempt),
    );

    records.report(&mut report, Json::clone);
    report.set_robustness(robustness);

    // Text table on stdout, mirroring the other harnesses.
    let rows = records.iter().map(|(cell, record)| {
        let field = |name: &str| -> String {
            record
                .get("measurement")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .map_or_else(|| "failed".to_owned(), |v| format!("{v:.3}"))
        };
        let killed = record
            .get("slots_killed")
            .and_then(Json::as_f64)
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.0}"));
        vec![
            plan.kinds[cell[0]].name().to_owned(),
            format!("{:.2}", plan.fractions[cell[1]]),
            format!("{:.2}", plan.loads[cell[2]]),
            killed,
            field("delivered"),
            field("discard_fraction"),
        ]
    });
    let header = ["buffer", "dead", "load", "killed", "delivered", "discard"];
    print!("{}", render_table(&header, &rows.collect::<Vec<_>>()));

    report.write_and_announce();
}
