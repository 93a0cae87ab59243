//! Threads × network-size scaling curves for the sharded simulation core.
//!
//! `NetworkSim::with_threads(n)` splits every pipeline stage into `n`
//! islands and runs phase A (arbitration + backpressure probes) on a
//! persistent barrier-synchronized pool, merging departures serially in
//! phase B (see `docs/ARCHITECTURE.md` and `docs/SCALING.md`). This
//! harness measures steady-state cycles/sec for each (terminals,
//! threads) cell of the paper's hot-spot DAMQ workload and records the
//! curves in the `scaling` section of `BENCH_throughput.json` at the
//! workspace root, alongside the serial perf trajectory that
//! `benches/sim_throughput.rs` maintains.
//!
//! A second pass re-runs every cell with the shard-phase timer on
//! (`NetworkSim::with_phase_timing`, see `docs/OBSERVABILITY.md`) and
//! records the idle-share breakdown — per-lane phase-A busy time,
//! barrier wait, serial phase-B merge — as the `phase_profile` section,
//! so the scaling table carries its own explanation of where the
//! non-ideal speedup goes.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p damq-bench --bin parallel_scaling            # measure + update JSON
//! cargo run --release -p damq-bench --bin parallel_scaling -- --smoke # CI smoke: 2-thread == serial
//! ```
//!
//! The recorded numbers are honest for the machine they ran on:
//! `host_cpus` is stamped next to the curves, and on a single-core host
//! the threaded cells measure phase-pool overhead, not speedup — the
//! `_note` in the JSON says exactly that, so a reader never mistakes a
//! 1-CPU curve for the multi-core scaling story.

use std::hint::black_box;

use damq_bench::cli;
use damq_bench::json::Json;
use damq_bench::record::BenchRecord;
use damq_bench::timing::{bench, Stats};
use damq_core::BufferKind;
use damq_net::{NetworkConfig, NetworkSim, PhaseProfile, TrafficPattern};
use damq_switch::FlowControl;

/// Cycles simulated before timing starts: enough for the hot-spot tree
/// to fill and backpressure to reach the sources.
const WARM_UP: u64 = 500;

/// Network sizes swept (terminals of a radix-4 Omega: 3, 4 and 5 stages).
const SIZES: [usize; 3] = [64, 256, 1024];

/// Thread counts swept; 1 is the serial baseline every cell is
/// normalized against.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Timed cycles per cell of the phase-profile pass (after `WARM_UP`).
const PROFILE_CYCLES: u64 = 200;

/// The same headline workload as `sim_throughput`: hot-spot traffic
/// against DAMQ buffers under blocking flow control, past saturation, so
/// every cycle exercises probing, routing and arbitration.
fn config(terminals: usize) -> NetworkConfig {
    NetworkConfig::new(terminals, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .traffic(TrafficPattern::paper_hot_spot())
        .flow_control(FlowControl::Blocking)
        .offered_load(0.5)
        .seed(0xBEEF)
}

fn bench_cell(terminals: usize, threads: usize) -> f64 {
    let mut sim = NetworkSim::new(config(terminals))
        .expect("valid config")
        .with_threads(threads);
    sim.run(WARM_UP);
    let label = format!("{terminals}t x {threads}thr");
    let stats: Stats = bench(&label, || {
        sim.step();
        black_box(sim.cycle())
    });
    1e9 / stats.min_ns
}

/// One phase-profile cell: warm the sim, then time `PROFILE_CYCLES`
/// cycles with the shard-phase timer on and drain the profile.
fn profile_cell(terminals: usize, threads: usize) -> PhaseProfile {
    let mut sim = NetworkSim::new(config(terminals))
        .expect("valid config")
        .with_threads(threads);
    sim.run(WARM_UP);
    sim = sim.with_phase_timing();
    sim.run(PROFILE_CYCLES);
    sim.phase_profile()
}

/// Renders one drained profile as its JSON cell.
fn profile_json(profile: &PhaseProfile) -> Json {
    let lanes: Vec<Json> = profile
        .lane_busy_ns
        .iter()
        .map(|&ns| Json::from(ns))
        .collect();
    Json::obj([
        ("lane_busy_ns", Json::Arr(lanes)),
        ("barrier_wait_ns", Json::from(profile.barrier_wait_ns)),
        ("merge_ns", Json::from(profile.merge_ns)),
        ("phases", Json::from(profile.phases)),
        ("barrier_share", Json::from(profile.barrier_share())),
        ("merge_share", Json::from(profile.merge_share())),
    ])
}

fn smoke() {
    // CI smoke: the sharded engine must reproduce the serial metrics on
    // the headline workload — a cheap cross-check of the full
    // byte-equivalence suite in crates/net/tests/parallel_equivalence.rs.
    let mut serial = NetworkSim::new(config(64)).expect("valid config");
    let mut sharded = NetworkSim::new(config(64))
        .expect("valid config")
        .with_threads(2);
    serial.run(100);
    sharded.run(100);
    assert_eq!(
        serial.metrics().generated(),
        sharded.metrics().generated(),
        "2-thread generation diverged from serial"
    );
    assert_eq!(
        serial.metrics().delivered(),
        sharded.metrics().delivered(),
        "2-thread delivery diverged from serial"
    );
    assert_eq!(
        serial.metrics().discarded(),
        sharded.metrics().discarded(),
        "2-thread discards diverged from serial"
    );
    assert!(serial.metrics().delivered() > 0, "degenerate smoke run");
    println!("parallel_scaling smoke: 2-thread run matches serial after 100 cycles");
}

fn main() {
    if cli::parse(&["--smoke"], &[]).flag("--smoke") {
        smoke();
        return;
    }
    let mut record = BenchRecord::open();

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!("parallel_scaling: hot-spot DAMQ, blocking, radix-4 Omega ({host_cpus} host CPUs)");
    println!("(cycles/sec from min ns/cycle over {WARM_UP}-cycle warmed sims)");
    println!();

    let mut curves: Vec<(String, Json)> = Vec::new();
    let mut speedups: Vec<(String, Json)> = Vec::new();
    for terminals in SIZES {
        let mut cells: Vec<(String, Json)> = Vec::new();
        let mut ratios: Vec<(String, Json)> = Vec::new();
        let mut serial_cps = 0.0f64;
        for threads in THREADS {
            let cps = bench_cell(terminals, threads);
            if threads == 1 {
                serial_cps = cps;
            }
            cells.push((
                format!("threads_{threads}"),
                Json::obj([
                    ("cycles_per_sec", Json::from(cps)),
                    ("ns_per_cycle", Json::from(1e9 / cps)),
                ]),
            ));
            if threads > 1 && serial_cps > 0.0 {
                ratios.push((format!("threads_{threads}"), Json::from(cps / serial_cps)));
            }
        }
        curves.push((format!("terminals_{terminals}"), Json::Obj(cells)));
        speedups.push((format!("terminals_{terminals}"), Json::Obj(ratios)));
        println!();
    }

    let scaling = Json::obj([
        ("bench", Json::from("parallel_scaling")),
        (
            "workload",
            Json::from("hot-spot DAMQ, blocking, radix-4 Omega, offered load 0.5"),
        ),
        ("warm_up_cycles", Json::from(WARM_UP)),
        ("host_cpus", Json::from(host_cpus)),
        (
            "_note",
            Json::from(if host_cpus > 1 {
                "cycles/sec per (terminals, threads) cell; speedup_vs_serial normalizes \
                 each curve to its threads_1 cell on this host"
            } else {
                "measured on a single-CPU host: threaded cells cannot run concurrently \
                 here, so these curves record the phased engine's overhead, not parallel \
                 speedup; determinism (serial == N-thread, byte for byte) is enforced by \
                 crates/net/tests/parallel_equivalence.rs regardless of core count — \
                 re-run this harness on a multi-core host for the real scaling story"
            }),
        ),
        ("curves", Json::Obj(curves)),
        ("speedup_vs_serial", Json::Obj(speedups)),
    ]);

    println!("phase profile ({PROFILE_CYCLES} timed cycles per cell, after warm-up)");
    let mut profile_cells: Vec<(String, Json)> = Vec::new();
    for terminals in SIZES {
        let mut per_threads: Vec<(String, Json)> = Vec::new();
        for threads in THREADS {
            let profile = profile_cell(terminals, threads);
            println!(
                "  {terminals}t x {threads}thr: busy {} ns, barrier {:.1}%, merge {:.1}%",
                profile.busy_ns(),
                profile.barrier_share() * 100.0,
                profile.merge_share() * 100.0
            );
            per_threads.push((format!("threads_{threads}"), profile_json(&profile)));
        }
        profile_cells.push((format!("terminals_{terminals}"), Json::Obj(per_threads)));
    }
    let phase_profile = Json::obj([
        ("bench", Json::from("parallel_scaling")),
        ("profile_cycles", Json::from(PROFILE_CYCLES)),
        ("host_cpus", Json::from(host_cpus)),
        (
            "_note",
            Json::from(
                "wall-clock decomposition of the phased engine per (terminals, threads) \
                 cell: per-lane phase-A busy ns, submitting thread's barrier-wait ns, \
                 serial phase-B merge ns; shares are fractions of busy+barrier+merge",
            ),
        ),
        ("cells", Json::Obj(profile_cells)),
    ]);

    // Only this harness's sections change; every other section stays
    // exactly as `sim_throughput` and `recovery_headline` wrote it.
    record.set("scaling", scaling);
    record.set("phase_profile", phase_profile);
    record.save();
}
