//! Benchmarks of the Omega-network simulator: cost of one network cycle
//! for each buffer design, and of the microarchitecture model's clock.
//! Run with `cargo bench -p damq-bench`; timing comes from the std-only
//! [`damq_bench::timing`] harness.

use std::hint::black_box;
use std::time::Instant;

use damq_bench::timing::bench;
use damq_core::BufferKind;
use damq_microarch::{Chip, ChipConfig, RouteEntry};
use damq_net::{NetworkConfig, NetworkSim};
use damq_switch::FlowControl;

/// One 64x64 network cycle at 0.5 offered load, per buffer design.
fn bench_network_cycle() {
    println!("-- omega64_cycle --");
    for kind in BufferKind::ALL {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(64, 4)
                .buffer_kind(kind)
                .slots_per_buffer(4)
                .offered_load(0.5)
                .seed(1),
        )
        .unwrap();
        sim.run(500); // steady state
        bench(&format!("omega64_cycle/{kind}"), || {
            sim.step();
            black_box(sim.metrics().delivered())
        });
    }
}

/// Cost of one switch-cycle as the fabric grows (DAMQ, 4 slots, blocking,
/// load 0.4): the per-switch work is the same at every size, so a rise
/// with size is the working set leaving a cache level, not more work.
///
/// Not through [`bench`]: each sample is a fresh network (warmed up, then
/// about three million switch-cycles, a second or so) and the minimum of
/// seven is reported, because a shared host's interference comes in
/// phases of seconds — longer than a whole 20 ms-batch benchmark.
fn bench_size_sweep() {
    const RUNS: usize = 7;
    println!("-- size sweep: ns per switch-cycle, min of {RUNS} fresh networks --");
    for (size, stages) in [(64usize, 3usize), (256, 4), (1024, 5), (4096, 6)] {
        let switches = stages * size / 4;
        let cycles = (3_000_000 / switches) as u64;
        let mut best = f64::INFINITY;
        for _ in 0..RUNS {
            let mut sim = NetworkSim::new(
                NetworkConfig::new(size, 4)
                    .buffer_kind(BufferKind::Damq)
                    .slots_per_buffer(4)
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
        println!("omega{size}_blocking ({switches} switches x {cycles} cycles): {best:.0} ns/switch-cycle");
    }
}

/// Whole measurement windows, as the table harnesses run them.
fn bench_measurement_window() {
    println!("-- measurement windows --");
    let mut sim = NetworkSim::new(
        NetworkConfig::new(64, 4)
            .buffer_kind(BufferKind::Damq)
            .offered_load(0.5)
            .seed(2),
    )
    .unwrap();
    sim.run(500);
    bench("omega64_damq_100cycles", || {
        sim.run(100);
        black_box(sim.metrics().delivered())
    });
}

/// One ComCoBB clock cycle with all five ports streaming.
fn bench_chip_tick() {
    println!("-- chip --");
    let mut chip = Chip::new(ChipConfig::comcobb());
    for input in 0..5 {
        let output = (input + 1) % 5;
        chip.program_route(
            input,
            input as u8,
            RouteEntry {
                output,
                new_header: input as u8,
            },
        )
        .unwrap();
    }
    // Keep the wires saturated far beyond the benchmark horizon.
    for input in 0..5usize {
        let mut at = 0;
        for _ in 0..20_000 {
            at = chip
                .input_wire_mut(input)
                .drive_packet(at, input as u8, &[0xAB; 32]);
        }
    }
    bench("comcobb_tick_busy", || {
        chip.tick();
        black_box(chip.cycle())
    });
}

fn main() {
    // First, on a fresh heap: where a network's blocks land depends on
    // what was allocated and freed before it.
    bench_size_sweep();
    bench_network_cycle();
    bench_measurement_window();
    bench_chip_tick();
}
