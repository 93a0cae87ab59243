//! Asserts the free-when-disabled metrics-registry claim.
//!
//! `NetworkSim` constructs its `MetricsRegistry` disabled; every
//! `registry.observe` site is then a single branch on a cold flag, and
//! the end-of-cycle pass (occupancy scan, counter publish) is skipped
//! entirely. This
//! harness times one network cycle with the registry in its default
//! (disabled) state against the established zero-overhead baseline — a
//! disabled `MemorySink` — and fails if the disabled registry makes the
//! cycle measurably slower. It also reports the enabled-registry cost
//! for the record (that path pays for real histogram updates and the
//! occupancy scan, and is *expected* to cost something).

use damq_bench::timing::{bench, bench_pair};
use damq_core::BufferKind;
use damq_net::{NetworkConfig, NetworkSim};
use damq_switch::FlowControl;
use damq_telemetry::MemorySink;

fn config() -> NetworkConfig {
    NetworkConfig::new(16, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.5)
        .seed(0xDA3B)
}

fn main() {
    println!("no-op metrics-registry overhead (16x4 Omega, DAMQ, load 0.5; one cycle per op)");

    // The two gated cycles are timed batch for batch in turn, so host
    // load falls on both alike.
    let mut plain_sim = NetworkSim::new(config()).expect("valid config");
    let mut disabled_sink = MemorySink::new();
    disabled_sink.set_enabled(false);
    let mut baseline_sim = NetworkSim::with_sink(config(), disabled_sink).expect("valid config");
    let (plain, baseline) = bench_pair(
        [
            "network_cycle/registry disabled (default)",
            "network_cycle/disabled MemorySink baseline",
        ],
        || {
            plain_sim.step();
            plain_sim.cycle()
        },
        || {
            baseline_sim.step();
            baseline_sim.cycle()
        },
    );

    let mut metered_sim = NetworkSim::new(config())
        .expect("valid config")
        .with_metrics();
    let metered = bench("network_cycle/registry enabled", || {
        metered_sim.step();
        metered_sim.cycle()
    });

    let ratio = plain.min_ns / baseline.min_ns;
    println!();
    println!("disabled registry vs disabled MemorySink (min ns/op): ratio {ratio:.3}");
    println!(
        "metering cost when enabled: {:.2}x the unmetered cycle",
        metered.min_ns / plain.min_ns
    );
    assert!(
        ratio <= 1.25,
        "a cycle with the registry disabled ({:.1} ns) is more than 25% slower \
         than the disabled-MemorySink baseline ({:.1} ns) — the disabled \
         registry path is no longer free",
        plain.min_ns,
        baseline.min_ns
    );
    println!("ok: the disabled registry is free");
}
