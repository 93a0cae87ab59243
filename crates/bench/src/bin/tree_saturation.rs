//! **Extension**: watching tree saturation happen.
//!
//! Pfister & Norton named the phenomenon; the paper's Table 6 measures its
//! end state. This harness shows the *dynamics*: per-switch buffer
//! occupancy of the 64×64 Omega network, stage by stage, as a 5% hot spot
//! saturates the tree rooted at sink 0 — and the same network under
//! uniform traffic for contrast.
//!
//! Each row of the heat map is one switch stage (input side at the top);
//! each cell is one switch, shaded by buffer occupancy (` .:-=+*#%@`).
//!
//! The two traffic patterns are the cells of a one-axis
//! [`damq_bench::grid`] (the checkpoints within a run are sequential sim
//! state, so they stay inside the cell);
//! the run also writes `results/json/tree_saturation.json` with per-stage
//! mean occupancy at every checkpoint. Seed 77 is pinned — the point is a
//! reproducible picture, not a statistic.

use damq_bench::cli;
use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{Json, Report};
use damq_core::BufferKind;
use damq_net::{NetworkConfig, NetworkSim, TrafficPattern};
use damq_switch::FlowControl;
use damq_telemetry::Profiler;

const SHADES: &[u8] = b" .:-=+*#%@";
const CHECKPOINTS: [u64; 4] = [10, 50, 200, 1000];
const SEED: u64 = 77;

fn shade(fraction: f64) -> char {
    let idx = (fraction * (SHADES.len() - 1) as f64).round() as usize;
    SHADES[idx.min(SHADES.len() - 1)] as char
}

fn heat_map(sim: &NetworkSim) -> String {
    let mut out = String::new();
    for stage in 0..sim.topology().stages() {
        out.push_str(&format!("stage {stage} |"));
        for occ in sim.stage_occupancy(stage) {
            out.push(shade(occ));
        }
        out.push_str(&format!("| mean {:.2}\n", {
            let o = sim.stage_occupancy(stage);
            o.iter().sum::<f64>() / o.len() as f64
        }));
    }
    out
}

/// One checkpoint of one run: the rendered map plus the numbers behind it.
struct Snapshot {
    cycle: u64,
    map: String,
    delivered: f64,
    backlog: usize,
    stage_means: Vec<f64>,
}

fn run_pattern(pattern: TrafficPattern) -> Vec<Snapshot> {
    let mut sim = NetworkSim::new(
        NetworkConfig::new(64, 4)
            .buffer_kind(BufferKind::Damq)
            .slots_per_buffer(4)
            .flow_control(FlowControl::Blocking)
            .traffic(pattern)
            .offered_load(0.30)
            .seed(SEED),
    )
    .expect("valid config");
    CHECKPOINTS
        .iter()
        .map(|&checkpoint| {
            sim.run(checkpoint - sim.cycle());
            let stage_means = (0..sim.topology().stages())
                .map(|stage| {
                    let o = sim.stage_occupancy(stage);
                    o.iter().sum::<f64>() / o.len() as f64
                })
                .collect();
            Snapshot {
                cycle: checkpoint,
                map: heat_map(&sim),
                delivered: sim.metrics().delivered_throughput(),
                backlog: sim.source_backlog(),
                stage_means,
            }
        })
        .collect()
}

fn main() {
    cli::parse(&[], &[]);
    println!("Tree saturation dynamics (64x64 Omega, DAMQ, 4 slots, load 0.30)");
    println!("(shade scale: ' ' empty ... '@' full; 16 switches per stage)");
    println!();

    let patterns = [
        (
            "uniform",
            TrafficPattern::Uniform,
            "uniform traffic: buffers stay sparse",
        ),
        (
            "hot_spot",
            TrafficPattern::paper_hot_spot(),
            "5% hot spot to sink 0: the tree rooted at sink 0 fills backwards",
        ),
    ];
    let mut report = Report::new("tree_saturation");
    let mut profiler = Profiler::new();
    let sweep_phase = profiler.phase("sweep");
    let (runs, profile) = Grid::product([Axis::new("traffic", patterns.map(|p| p.0))])
        .run_profiled(CHECKPOINTS[CHECKPOINTS.len() - 1], |c| {
            run_pattern(patterns[c[0]].1)
        });
    drop(sweep_phase);
    let render_phase = profiler.phase("render");

    report.meta(
        "network",
        Json::from("64x64 Omega, DAMQ, 4 slots, blocking"),
    );
    report.meta("offered_load", Json::from(0.30));
    report.meta("seed", Json::from(SEED));
    for (cell, snapshots) in runs.iter() {
        println!("== {} ==", patterns[cell[0]].2);
        for snap in snapshots {
            println!("after {} cycles:", snap.cycle);
            print!("{}", snap.map);
            println!(
                "  delivered throughput so far: {:.3}, source backlog: {}",
                snap.delivered, snap.backlog
            );
            println!();
            let checkpoint = [("cycle", Json::from(snap.cycle))];
            report.push_cell(Json::cell(
                runs.grid().labels(cell).into_iter().chain(checkpoint),
                Json::obj([
                    ("delivered", Json::from(snap.delivered)),
                    ("source_backlog", Json::from(snap.backlog)),
                    (
                        "stage_mean_occupancy",
                        Json::from(
                            snap.stage_means
                                .iter()
                                .map(|&m| Json::from(m))
                                .collect::<Vec<_>>(),
                        ),
                    ),
                ]),
            ));
        }
    }
    println!("the hot spot's tree: 1 last-stage switch -> 4 middle -> 16 first-stage;");
    println!("once it is full, backpressure reaches every source and the whole");
    println!("network is capped at ~0.24 offered load no matter which buffer is used.");
    drop(render_phase);
    report.telemetry_from_profile(&profile, &profiler);
    report.write_and_announce();
}
