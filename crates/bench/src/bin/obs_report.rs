//! Renders the observability dashboard: a metrics-registry snapshot on
//! the golden 2×2 network plus the cycle's phase profile.
//!
//! Usage:
//!
//! ```text
//! obs_report                 # print dashboard, write results/json/obs_report.json
//! obs_report --out <path>    # write the snapshot JSON somewhere else
//! ```
//!
//! Two sections:
//!
//! 1. **Metrics registry** — the golden 2×2 telemetry configuration
//!    (the same one `scripts/check.sh` pins byte-for-byte) runs 200
//!    cycles with the registry enabled; every counter and histogram is
//!    printed, and the deterministic snapshot (counters + p50/p99/p999,
//!    integers only) is written as JSON. The committed copy under
//!    `results/json/` is the `obs-smoke` gate's golden.
//! 2. **Phase profile** — a 64-terminal hot-spot run with a fault plan,
//!    recovery and the registry on, so every step of the cycle runs,
//!    under the wall-clock phase timer: faults, recovery, generate,
//!    arbitrate, merge, inject, observe. Wall-clock varies run to run,
//!    so this section is printed only and deliberately kept out of the
//!    snapshot file.

use std::path::PathBuf;
use std::process::ExitCode;

use damq_bench::json::Json;
use damq_core::{BufferKind, FaultPlan, FaultSpec};
use damq_net::{NetworkConfig, NetworkSim, PhaseProfile, RecoveryConfig, TrafficPattern};
use damq_switch::FlowControl;

/// Cycles for the deterministic registry section.
const CYCLES: u64 = 200;
/// Cycles for the (non-deterministic) phase-profile section.
const PROFILE_CYCLES: u64 = 200;

/// The golden 2×2 configuration — must stay in lockstep with the
/// `telemetry golden` gate in `scripts/check.sh`.
fn golden_config() -> NetworkConfig {
    NetworkConfig::new(2, 2)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.75)
        .seed(7)
}

fn main() -> ExitCode {
    let args = damq_bench::cli::parse(&[], &["--out"]);
    let out = args
        .value("--out")
        .map_or_else(default_out_path, PathBuf::from);

    // Section 1: the deterministic registry snapshot.
    let config = golden_config();
    let mut sim = NetworkSim::new(config)
        .expect("the golden 2x2 configuration is valid")
        .with_metrics();
    sim.run(CYCLES);

    println!("observability report: golden 2x2 DAMQ, load 0.75, seed 7, {CYCLES} cycles");
    println!();
    render_registry(&sim);

    let doc = Json::obj([
        ("bench", Json::from("obs_report")),
        (
            "network",
            Json::obj([
                ("terminals", Json::from(2u64)),
                ("radix", Json::from(2u64)),
                ("design", Json::from("DAMQ")),
                ("flow", Json::from("blocking")),
                ("load", Json::Num(0.75)),
                ("seed", Json::from(7u64)),
            ]),
        ),
        ("cycles", Json::from(CYCLES)),
        ("metrics", sim.metrics_registry().snapshot_json()),
    ]);
    if let Some(dir) = out.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: could not create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&out, doc.render_pretty()) {
        eprintln!("error: could not write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!();
    println!("wrote deterministic snapshot -> {}", out.display());

    // Section 2: the wall-clock phase profile (printed only).
    let profile = profile_network();
    println!();
    render_profile(&profile);
    ExitCode::SUCCESS
}

/// `obs_report.json` next to the other reports.
fn default_out_path() -> PathBuf {
    damq_bench::results_dir()
        .join("json")
        .join("obs_report.json")
}

/// Prints the registry's counters and histograms as a text table.
fn render_registry<B, S>(sim: &NetworkSim<B, S>)
where
    B: damq_core::SwitchBuffer,
    S: damq_telemetry::TelemetrySink<damq_telemetry::Event>,
{
    let reg = sim.metrics_registry();
    println!("  counters");
    for name in reg.counter_names() {
        let value = reg.counter_value(name).unwrap_or(0);
        println!("    {name:<28} {value:>10}");
    }
    println!("  histograms (cycle / slot domain)");
    println!(
        "    {:<28} {:>8} {:>7} {:>7} {:>7} {:>7} {:>9}",
        "name", "count", "p50", "p99", "p999", "max", "mean"
    );
    for name in reg.histogram_names() {
        let h = reg.histogram_named(name).expect("listed name resolves");
        println!(
            "    {name:<28} {:>8} {:>7} {:>7} {:>7} {:>7} {:>9.2}",
            h.count(),
            h.p50(),
            h.p99(),
            h.p999(),
            h.max(),
            h.mean()
        );
    }
}

/// Runs the paper-shaped hot-spot workload — a few link flaps,
/// corruptions and misroutes against live recovery, registry on — with
/// the phase timer on and returns the drained profile.
fn profile_network() -> PhaseProfile {
    let config = NetworkConfig::new(64, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .traffic(TrafficPattern::paper_hot_spot())
        .offered_load(0.5)
        .recovery(RecoveryConfig::enabled())
        .seed(0xBEEF);
    let storm = FaultSpec {
        link_flaps: 6,
        flap_duration: 40,
        corrupt_packets: 8,
        misroutes: 8,
        ..FaultSpec::fault_free(3, 16, 4, 64, 4, PROFILE_CYCLES)
    };
    let mut sim = NetworkSim::with_faults(config, FaultPlan::generate(0xBEEF, &storm))
        .expect("the 64x4 hot-spot configuration is valid")
        .with_metrics()
        .with_phase_timing();
    sim.run(PROFILE_CYCLES);
    sim.phase_profile()
}

/// Prints the phase-profile section (wall-clock: varies run to run).
fn render_profile(profile: &PhaseProfile) {
    println!(
        "phase profile: 64x4 hot-spot, faults + recovery + registry on, {PROFILE_CYCLES} cycles \
         (wall-clock; not part of the snapshot)"
    );
    let total = profile.total_ns().max(1);
    for (step, ns) in [
        ("faults", profile.faults_ns),
        ("recovery", profile.recovery_ns),
        ("generate", profile.generate_ns),
        ("arbitrate", profile.arbitrate_ns),
        ("merge", profile.merge_ns),
        ("inject", profile.inject_ns),
        ("observe", profile.observe_ns),
    ] {
        println!(
            "    {step:<12} {ns:>10} ns  ({:>5.1}%)",
            ns as f64 / total as f64 * 100.0
        );
    }
    println!("    stage advances timed {:>6}", profile.phases);
}
