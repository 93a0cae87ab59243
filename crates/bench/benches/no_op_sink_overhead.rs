//! Asserts the zero-overhead-when-disabled telemetry claim.
//!
//! `NetworkSim` defaults to `NullSink`, whose `enabled()` returns a
//! constant `false` through a monomorphized generic — every
//! instrumentation site should therefore compile to nothing, leaving the
//! hot path as fast as the pre-telemetry simulator. This harness times
//! one network cycle under three sinks and fails if the `NullSink` path
//! is measurably slower than a disabled `MemorySink` (the cheapest
//! runtime-gated alternative), which would mean the instrumentation
//! stopped compiling away.

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
    println!("no-op sink overhead (16x4 Omega, DAMQ, load 0.5; one cycle per op)");

    // The two gated cycles are timed batch for batch in turn, so host
    // load falls on both alike.
    let mut null_sim = NetworkSim::new(config()).expect("valid config");
    let mut disabled_sink = MemorySink::new();
    disabled_sink.set_enabled(false);
    let mut disabled_sim = NetworkSim::with_sink(config(), disabled_sink).expect("valid config");
    let (null, disabled) = bench_pair(
        [
            "network_cycle/NullSink (default)",
            "network_cycle/MemorySink disabled",
        ],
        || {
            null_sim.step();
            null_sim.cycle()
        },
        || {
            disabled_sim.step();
            disabled_sim.cycle()
        },
    );

    let mut traced_sim = NetworkSim::with_sink(config(), MemorySink::new()).expect("valid config");
    let traced = bench("network_cycle/MemorySink enabled", || {
        traced_sim.sink_mut().clear(); // keep memory flat across batches
        traced_sim.step();
        traced_sim.cycle()
    });

    let ratio = null.min_ns / disabled.min_ns;
    println!();
    println!("NullSink vs disabled MemorySink (min ns/op): ratio {ratio:.3}");
    println!(
        "tracing cost when enabled: {:.2}x the uninstrumented cycle",
        traced.min_ns / null.min_ns
    );
    assert!(
        ratio <= 1.25,
        "NullSink cycle ({:.1} ns) is more than 25% slower than a disabled \
         MemorySink cycle ({:.1} ns) — the no-op instrumentation no longer \
         compiles away",
        null.min_ns,
        disabled.min_ns
    );
    println!("ok: disabled instrumentation is free");
}
