//! Recovery headline: delivered fraction and p99 latency under heavy
//! link failure, self-healing data path on versus off.
//!
//! The grid is buffer kind × dead-link fraction × recovery {off, on} on
//! the 64-terminal radix-4 Omega network (three stages of sixteen) under
//! discarding flow control. Each cell kills the given fraction of the
//! fabric's input links early in the run — every failed link stays down
//! for the rest of the simulation — then measures steady state. With
//! recovery *off* the network is the PR 5 drop-only baseline: packets
//! crossing a dead link are charged to the fault ledger and lost. With
//! recovery *on*, link-level retransmission parks and retries them, and
//! fault-adaptive rerouting deflects departures around dead links
//! through the DAMQ per-output queues.
//!
//! Every design meets the same damage: the dead links and the traffic
//! stream are drawn from the (fraction, draw) coordinates only, never
//! from the design or the recovery mode, and each point is repeated over
//! eight draws. Designs are compared draw by draw; the text table and the
//! report's aggregate cells give the mean and min–max over the draws.
//!
//! A cell is a deterministic function of its seed, so a cell that panics
//! is a bug: the panic fails the harness. So does a report that cannot be
//! written.
//!
//! Flags: `--smoke` shrinks the grid and windows for quick checks.

use damq_bench::grid::{Axis, Cell, Grid, Spread};
use damq_bench::json::{measurement_json, Json, Report};
use damq_bench::{cli, sweep};
use damq_core::{BufferKind, FaultPlan, FaultSpec};
use damq_net::{measure_with_faults, NetworkConfig, RecoveryConfig};
use damq_switch::FlowControl;

const TERMINALS: usize = 64;
const RADIX: usize = 4;
const STAGES: usize = 3;
const PER_STAGE: usize = 16;
const SLOTS: usize = 4;
const LINKS: usize = STAGES * PER_STAGE * RADIX;
const RECOVERY: [&str; 2] = ["off", "on"];

/// One size of the experiment: the full grid or the quick smoke.
struct Plan {
    name: &'static str,
    kinds: Vec<BufferKind>,
    fractions: Vec<f64>,
    draws: usize,
    warm_up: u64,
    window: u64,
}

fn plan(smoke: bool) -> Plan {
    if smoke {
        Plan {
            name: "recovery_headline_smoke",
            kinds: vec![BufferKind::Damq],
            fractions: vec![0.10],
            draws: 2,
            warm_up: 100,
            window: 400,
        }
    } else {
        Plan {
            name: "recovery_headline",
            kinds: BufferKind::EXTENDED.to_vec(),
            fractions: vec![0.10, 0.20, 0.30],
            draws: 8,
            warm_up: 200,
            window: 2000,
        }
    }
}

/// The seed of a (dead fraction, draw) point under `base`: the design
/// and recovery axes stay out of it, so every design, healing or not,
/// faces an identical set of dead links and an identical traffic stream.
fn point_seed(cell: &Cell, base: u64) -> u64 {
    sweep::cell_seed(base, &[cell[1] as u64, cell[3] as u64])
}

/// Kills `dead_links` of the fabric's links permanently: each failure
/// starts inside the first half of the warm-up and lasts past the end of
/// the run, so the measurement window sees a stably-degraded fabric.
fn faults_for(cell: &Cell, dead_links: f64, warm_up: u64, window: u64) -> FaultPlan {
    let spec = FaultSpec {
        link_flaps: (dead_links * LINKS as f64).round() as usize,
        flap_duration: warm_up + window + 1,
        ..FaultSpec::fault_free(
            STAGES,
            PER_STAGE,
            RADIX,
            TERMINALS,
            SLOTS,
            (warm_up / 2).max(1),
        )
    };
    FaultPlan::generate(point_seed(cell, sweep::BASE_SEED ^ 0x4EA1), &spec)
}

fn run_cell(cell: &Cell, plan: &Plan) -> Json {
    let recovery = if RECOVERY[cell[2]] == "on" {
        RecoveryConfig::enabled()
    } else {
        RecoveryConfig::disabled()
    };
    let config = NetworkConfig::new(TERMINALS, RADIX)
        .buffer_kind(plan.kinds[cell[0]])
        .slots_per_buffer(SLOTS)
        .flow_control(FlowControl::Discarding)
        .recovery(recovery)
        .offered_load(0.6)
        .seed(point_seed(cell, sweep::BASE_SEED));
    let faults = faults_for(cell, plan.fractions[cell[1]], plan.warm_up, plan.window);
    let (m, ledger) = measure_with_faults(config, faults, plan.warm_up, plan.window)
        .expect("grid cell configuration is valid");
    let delivered_fraction = if m.offered > 0.0 {
        m.delivered / m.offered
    } else {
        0.0
    };
    Json::obj([
        ("delivered_fraction", Json::from(delivered_fraction)),
        ("fault_drops", Json::from(ledger.dropped())),
        ("measurement", measurement_json(&m)),
    ])
}

fn main() {
    let plan = plan(cli::parse(&["--smoke"], &[]).flag("--smoke"));

    let mut report = Report::new(plan.name);
    report.meta("terminals", Json::from(TERMINALS));
    report.meta("radix", Json::from(RADIX));
    report.meta("slots_per_buffer", Json::from(SLOTS));
    report.meta("flow_control", Json::from("discarding"));
    report.meta("offered_load", Json::from(0.6));
    report.meta("warm_up", Json::from(plan.warm_up));
    report.meta("window", Json::from(plan.window));
    report.meta("total_links", Json::from(LINKS));
    report.meta("draws", Json::from(plan.draws));

    let grid = Grid::product([
        Axis::new("buffer", plan.kinds.iter().map(|k| k.name())),
        Axis::new("dead_links", plan.fractions.iter().copied()),
        Axis::new("recovery", RECOVERY),
        Axis::new("draw", 0..plan.draws),
    ]);
    let records = grid.run(|cell| run_cell(cell, &plan));

    // Per (design, fraction, recovery): the spread of each headline
    // number over the draws.
    let delivered = |draws: &[Json]| Spread::of_field(draws, &["delivered_fraction"]);
    let p99 = |draws: &[Json]| Spread::of_field(draws, &["measurement", "latency_p99_clocks"]);
    let summary = |draws: &[Json]| {
        let json = |s: Option<Spread>| s.map_or(Json::Null, Spread::to_json);
        Json::obj([
            ("delivered_fraction", json(delivered(draws))),
            ("latency_p99_clocks", json(p99(draws))),
        ])
    };
    records.report(&mut report, Json::clone);
    records.report_rows(3, &mut report, |draws| {
        Json::cell([("aggregate", Json::from(true))], summary(draws))
    });

    let header = [
        "buffer",
        "dead_links",
        "recovery",
        "delivered_frac (min-max)",
        "p99_clocks",
        "fault_drops",
    ];
    let table = records.table(3, &header, |_, draws| {
        let missing = || "-".to_owned();
        let mean = |s: Option<Spread>| s.map_or_else(missing, |s| format!("{:.1}", s.mean));
        vec![
            delivered(draws).map_or_else(missing, |s| s.to_string()),
            mean(p99(draws)),
            mean(Spread::of_field(draws, &["fault_drops"])),
        ]
    });
    print!("{table}");

    report.write_and_announce();
}
