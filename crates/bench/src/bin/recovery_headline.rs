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
//! Results land in `results/json/recovery_headline.json` and the
//! `recovery` section of `BENCH_throughput.json`.
//!
//! Flags: `--smoke` shrinks the grid and windows for quick checks;
//! `--resume` reloads `results/json/<name>.cells.jsonl`.

use damq_bench::grid::{Axis, Cell, Grid};
use damq_bench::json::{measurement_json, Json, Report};
use damq_bench::record::BenchRecord;
use damq_bench::sweep::{self, IsolationOptions};
use damq_bench::{cli, render_table, resume};
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
    warm_up: u64,
    window: u64,
}

fn plan(smoke: bool) -> Plan {
    if smoke {
        Plan {
            name: "recovery_headline_smoke",
            kinds: vec![BufferKind::Damq],
            fractions: vec![0.10],
            warm_up: 100,
            window: 400,
        }
    } else {
        Plan {
            name: "recovery_headline",
            kinds: BufferKind::EXTENDED.to_vec(),
            fractions: vec![0.10, 0.20, 0.30],
            warm_up: 200,
            window: 2000,
        }
    }
}

/// The seed of a (design, damage) point under `base`: the recovery axis
/// stays out of it, so the on/off pair of every point faces an identical
/// set of dead links and an identical traffic stream.
fn point_seed(cell: &Cell, base: u64) -> u64 {
    sweep::cell_seed(base, &[cell[0] as u64, cell[1] as u64])
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

fn run_cell(cell: &Cell, plan: &Plan, watchdog: &sweep::Watchdog, attempt: u32) -> Json {
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
        .seed(point_seed(cell, sweep::BASE_SEED + u64::from(attempt)));
    let faults = faults_for(cell, plan.fractions[cell[1]], plan.warm_up, plan.window);
    let (m, ledger) = measure_with_faults(config, faults, plan.warm_up, plan.window, || {
        watchdog.tick();
    })
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
    let args = cli::parse(&["--smoke", "--resume"], &[]);
    let smoke = args.flag("--smoke");
    let plan = plan(smoke);
    // Smoke runs stay out of the committed throughput record: it holds
    // full-grid numbers only.
    let mut bench_record = (!smoke).then(BenchRecord::open);

    let mut report = Report::new(plan.name);
    report.meta("terminals", Json::from(TERMINALS));
    report.meta("radix", Json::from(RADIX));
    report.meta("slots_per_buffer", Json::from(SLOTS));
    report.meta("flow_control", Json::from("discarding"));
    report.meta("offered_load", Json::from(0.6));
    report.meta("warm_up", Json::from(plan.warm_up));
    report.meta("window", Json::from(plan.window));
    report.meta("total_links", Json::from(LINKS));

    let grid = Grid::product([
        Axis::new("buffer", plan.kinds.iter().map(|k| k.name())),
        Axis::new("dead_links", plan.fractions.iter().copied()),
        Axis::new("recovery", RECOVERY),
    ]);
    let opts = IsolationOptions {
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

    let mut rows = Vec::new();
    let mut section_cells = Vec::new();
    for (cell, record) in records.iter() {
        let (kind, dead_links, recovery) = (
            plan.kinds[cell[0]].name(),
            plan.fractions[cell[1]],
            RECOVERY[cell[2]],
        );
        let top = |name: &str| record.get(name).and_then(Json::as_f64);
        let p99 = record
            .get("measurement")
            .and_then(|m| m.get("latency_p99_clocks"))
            .and_then(Json::as_f64);
        let fmt = |v: Option<f64>| v.map_or_else(|| "failed".to_owned(), |v| format!("{v:.3}"));
        rows.push(vec![
            kind.to_owned(),
            format!("{dead_links:.2}"),
            recovery.to_owned(),
            fmt(top("delivered_fraction")),
            fmt(p99),
            fmt(top("fault_drops")),
        ]);
        let mode = if recovery == "on" { "heal" } else { "drop" };
        section_cells.push((
            format!("{kind}|links{dead_links:.2}|{mode}"),
            Json::obj([
                (
                    "delivered_fraction",
                    top("delivered_fraction").map_or(Json::Null, Json::from),
                ),
                ("latency_p99_clocks", p99.map_or(Json::Null, Json::from)),
            ]),
        ));
    }
    let header = [
        "buffer",
        "dead_links",
        "recovery",
        "delivered_frac",
        "p99_clocks",
        "fault_drops",
    ];
    print!("{}", render_table(&header, &rows));

    report.write_and_announce();

    // Mirror the headline numbers into the committed throughput record,
    // replacing only this harness's section.
    if let Some(bench_record) = &mut bench_record {
        let section = Json::obj([
            ("experiment", Json::from(plan.name)),
            ("offered_load", Json::from(0.6)),
            ("cells", Json::Obj(section_cells)),
        ]);
        bench_record.set("recovery", section);
        bench_record.save();
    }
}
