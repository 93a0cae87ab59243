//! What no benchmark workload measures about the Omega-network simulator:
//! how the cost of a switch-cycle moves with the fabric's size (and the
//! bytes a switch takes), and how one cycle's wall-clock splits over the
//! seven phases of `NetworkSim::step`. Per-design cycle costs, whole
//! measurement windows and the microarchitecture model's clock are
//! benchmark rows (`work_per_sec`, `switch.busy_cycle_ns.*`,
//! `microarch.tick_busy_ns`), not repeated here. Run with
//! `cargo bench -p damq-bench --bench network_cycle`.

use std::hint::black_box;
use std::time::Instant;

use damq_core::{AnyBuffer, BufferKind, Packet};
use damq_net::{NetworkConfig, NetworkSim, PhaseProfile, TrafficPattern};
use damq_switch::{FlowControl, Switch};

/// Cost of one switch-cycle as the fabric grows (DAMQ, 4 slots, blocking,
/// load 0.4): the per-switch work is the same at every size, so a rise
/// with size is the working set leaving a cache level, not more work.
///
/// Not through the batch timer (`damq_bench::timing`): each sample is a
/// fresh network (warmed up, then about three million switch-cycles, a
/// second or so) and the minimum of seven is reported, because a shared
/// host's interference comes in phases of seconds — longer than a whole
/// 20 ms-batch benchmark.
///
/// Each line carries the other half of the cost model: the bytes of one
/// switch (the `Switch` value, its four buffers and their four-slot
/// packet arenas, from `size_of`) and of the whole grid, to set against
/// the host's cache sizes.
fn bench_size_sweep() {
    const RUNS: usize = 7;
    const RADIX: usize = 4;
    const SLOTS: usize = 4;
    let arena = SLOTS * std::mem::size_of::<Option<Packet>>();
    let per_switch =
        std::mem::size_of::<Switch>() + RADIX * (std::mem::size_of::<AnyBuffer>() + arena);
    println!("-- size sweep: ns per switch-cycle, min of {RUNS} fresh networks --");
    println!(
        "   ({per_switch} B per radix-{RADIX} DAMQ switch: Switch {} + {RADIX} x (AnyBuffer {} + arena {arena}))",
        std::mem::size_of::<Switch>(),
        std::mem::size_of::<AnyBuffer>(),
    );
    for (size, stages) in [(64usize, 3usize), (256, 4), (1024, 5), (4096, 6)] {
        let switches = stages * size / RADIX;
        let cycles = (3_000_000 / switches) as u64;
        let mut best = f64::INFINITY;
        for _ in 0..RUNS {
            let mut sim = NetworkSim::new(
                NetworkConfig::new(size, RADIX)
                    .buffer_kind(BufferKind::Damq)
                    .slots_per_buffer(SLOTS)
                    .flow_control(FlowControl::Blocking)
                    .offered_load(0.4)
                    .seed(0xBEEF),
            )
            .unwrap();
            sim.run(1_000); // steady state
            let start = Instant::now();
            sim.run(cycles);
            let ns = start.elapsed().as_nanos() as f64;
            black_box(sim.metrics().delivered());
            best = best.min(ns / (cycles * switches as u64) as f64);
        }
        println!(
            "omega{size}_blocking ({switches} switches x {cycles} cycles, {} KB of switches): {best:.0} ns/switch-cycle",
            switches * per_switch / 1024
        );
    }
}

/// Where one cycle's wall-clock goes — the seven buckets of the
/// simulator's own phase profile (`NetworkSim::with_phase_timing`) — for
/// the hot-spot fabric past saturation, a busy 256-terminal fabric, and
/// the sparse and busy 1024-terminal fabrics (the shapes of the
/// benchmark's `hotspot_block_64`, `sparse_1024` and
/// `uniform_block_1024`). These runs install no fault plan, recovery or
/// registry, so three buckets read zero; `obs_report` prints a run with
/// all seven live. The quietest of five fresh networks each, as in the
/// size sweep. Timing costs two clock reads per step, so the shares are
/// what to read, not the total.
fn bench_phase_split() {
    const RUNS: usize = 5;
    println!("-- phase split: us per cycle, timing on, quietest of {RUNS} fresh networks --");
    println!("   (faults / recovery / generate / arbitrate / merge / inject / observe)");
    let hot_spot = Some(TrafficPattern::paper_hot_spot());
    let shapes = [
        ("omega64_hotspot", 64, 0.5, hot_spot, 8_000),
        ("omega256_blocking", 256, 0.4, None, 2_400),
        ("omega1024_sparse", 1024, 0.05, None, 2_000),
        ("omega1024_blocking", 1024, 0.4, None, 600),
    ];
    for (name, size, load, traffic, cycles) in shapes {
        let mut config = NetworkConfig::new(size, 4)
            .buffer_kind(BufferKind::Damq)
            .slots_per_buffer(4)
            .flow_control(FlowControl::Blocking)
            .offered_load(load)
            .seed(0xBEEF);
        if let Some(pattern) = traffic {
            config = config.traffic(pattern);
        }
        let p = (0..RUNS)
            .map(|_| {
                let mut sim = NetworkSim::new(config).unwrap().with_phase_timing();
                sim.run(1_000); // steady state (the hot spot: already saturated)
                sim.phase_profile();
                sim.run(cycles);
                sim.phase_profile()
            })
            .min_by_key(PhaseProfile::total_ns)
            .expect("RUNS > 0");
        let us = |ns: u64| ns as f64 / 1e3 / cycles as f64;
        println!(
            "{name}: {:.1} / {:.1} / {:.1} / {:.1} / {:.1} / {:.1} / {:.1} of {:.1} us",
            us(p.faults_ns),
            us(p.recovery_ns),
            us(p.generate_ns),
            us(p.arbitrate_ns),
            us(p.merge_ns),
            us(p.inject_ns),
            us(p.observe_ns),
            us(p.total_ns()),
        );
    }
}

fn main() {
    // First, on a fresh heap: where a network's blocks land depends on
    // what was allocated and freed before it.
    bench_size_sweep();
    bench_phase_split();
}
