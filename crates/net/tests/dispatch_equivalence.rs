//! Dispatch-path and storage-layout equivalence: the enum-dispatched
//! simulator must be bit-for-bit the same simulation as the fully typed
//! one, and the SoA buffer layouts the same simulation as their frozen
//! AoS twins.
//!
//! The enum-dispatched default (`NetworkSim<AnyBuffer>`) and the fully
//! monomorphized path (`NetworkSim<DamqBuffer>`, ...) differ only
//! in how buffer calls are dispatched; RNG draws, arbiter decisions and
//! routing must be identical. The structure-of-arrays designs (`FifoBuffer`,
//! `SamqBuffer`, `SafcBuffer`, `DamqBuffer`, `DafcBuffer`) and the frozen
//! per-packet-struct twins (`AosFifoBuffer`, ...) differ only in slot
//! storage; every accept/reject/dequeue decision must be identical. These
//! tests drive the same seeded configurations — fault-free and with a
//! generated fault plan active — through both axes and compare every
//! observable: delivery and latency metrics, aggregate buffer operation
//! counters, residual state, fault ledgers, and the structural audits.

use damq_core::{
    BufferKind, BufferStats, DafcBuffer, DamqBuffer, FaultLedger, FaultPlan, FaultSpec, FifoBuffer,
    SafcBuffer, SamqBuffer,
};
use damq_net::{NetworkConfig, NetworkSim, TrafficPattern};
use damq_switch::FlowControl;

// The frozen twins, shared with `damq-core`'s `soa_equivalence` suite.
#[path = "../../core/tests/reference/mod.rs"]
mod reference;
use reference::{AosDafcBuffer, AosDamqBuffer, AosFifoBuffer, AosSafcBuffer, AosSamqBuffer};

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    generated: u64,
    delivered: u64,
    discarded: u64,
    mean_latency: u64,
    p99_latency: u64,
    mean_network_latency: u64,
    per_sink: Vec<u64>,
    backlog: usize,
    in_flight: usize,
    buffer_stats: BufferStats,
    occupancy: Vec<f64>,
    idle_skipped: u64,
    fault_ledger: FaultLedger,
    dead_slots: usize,
}

fn run<B: damq_core::BuildBuffer>(config: NetworkConfig, cycles: u64) -> Fingerprint {
    run_with_faults::<B>(config, cycles, None)
}

fn run_with_faults<B: damq_core::BuildBuffer>(
    config: NetworkConfig,
    cycles: u64,
    plan: Option<FaultPlan>,
) -> Fingerprint {
    let mut sim = NetworkSim::<B>::typed(config).expect("valid config");
    if let Some(plan) = plan {
        sim.install_fault_plan(plan);
    }
    sim.run(cycles);
    sim.audit().expect("post-run audit");
    let m = sim.metrics();
    Fingerprint {
        generated: m.generated(),
        delivered: m.delivered(),
        discarded: m.discarded(),
        // Scale float summaries to integers so equality is exact.
        mean_latency: (m.mean_latency_clocks() * 1e6) as u64,
        p99_latency: (m.latency_percentile_clocks(0.99) * 1e6) as u64,
        mean_network_latency: (m.mean_network_latency_clocks() * 1e6) as u64,
        per_sink: m.per_sink_delivered().to_vec(),
        backlog: sim.source_backlog(),
        in_flight: sim.packets_in_flight(),
        buffer_stats: sim.aggregate_buffer_stats(),
        occupancy: sim.occupancy_by_stage(),
        idle_skipped: sim.idle_skipped_total(),
        fault_ledger: sim.fault_ledger(),
        dead_slots: sim.dead_slots(),
    }
}

fn assert_paths_agree(config: NetworkConfig, cycles: u64, label: &str) {
    let enum_path = run::<damq_core::AnyBuffer>(config, cycles);
    let typed_path = match config.kind() {
        BufferKind::Fifo => run::<FifoBuffer>(config, cycles),
        BufferKind::Samq => run::<SamqBuffer>(config, cycles),
        BufferKind::Safc => run::<SafcBuffer>(config, cycles),
        BufferKind::Damq => run::<DamqBuffer>(config, cycles),
        BufferKind::Dafc => run::<DafcBuffer>(config, cycles),
    };
    assert_eq!(enum_path, typed_path, "{label}: enum vs typed dispatch");
    assert!(enum_path.generated > 0, "{label}: degenerate run");
}

#[test]
fn two_by_two_network_agrees_across_dispatch_paths() {
    // 4 terminals of 2x2 switches: the exhaustively model-checked shape.
    for kind in BufferKind::EXTENDED {
        for flow in FlowControl::ALL {
            for seed in [1u64, 0xDA3B, 0xBEEF] {
                let config = NetworkConfig::new(4, 2)
                    .buffer_kind(kind)
                    .slots_per_buffer(4)
                    .flow_control(flow)
                    .offered_load(0.7)
                    .seed(seed);
                assert_paths_agree(config, 400, &format!("4x2 {kind}/{flow}/{seed}"));
            }
        }
    }
}

#[test]
fn paper_shape_network_agrees_across_dispatch_paths() {
    // 16 terminals of 4x4 switches under the stressier workloads.
    for kind in BufferKind::EXTENDED {
        for flow in FlowControl::ALL {
            let config = NetworkConfig::new(16, 4)
                .buffer_kind(kind)
                .slots_per_buffer(4)
                .flow_control(flow)
                .traffic(TrafficPattern::paper_hot_spot())
                .offered_load(0.5)
                .seed(0xDA3B);
            assert_paths_agree(config, 300, &format!("16x4 hot-spot {kind}/{flow}"));
        }
    }
}

#[test]
fn fully_typed_damq_matches_the_kind_erased_paths() {
    let config = NetworkConfig::new(16, 4)
        .buffer_kind(BufferKind::Damq)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.6)
        .seed(7);
    let typed = run::<DamqBuffer>(config, 500);
    let enum_path = run::<damq_core::AnyBuffer>(config, 500);
    assert_eq!(typed, enum_path, "typed DAMQ vs enum dispatch");
}

/// The paper-shape configuration the AoS/SoA runs share. `kind` only
/// matters for audit labels here — the typed paths build their design
/// directly — but keeping it honest keeps the fingerprints comparable
/// with the kind-erased paths too.
fn soa_config(kind: BufferKind, flow: FlowControl, seed: u64) -> NetworkConfig {
    NetworkConfig::new(16, 4)
        .buffer_kind(kind)
        .slots_per_buffer(4)
        .flow_control(flow)
        .traffic(TrafficPattern::paper_hot_spot())
        .offered_load(0.6)
        .seed(seed)
}

/// A moderately hostile fault plan sized for the 16×4 paper shape:
/// dead slots, link flaps, corruptions and misroutes all active.
fn soa_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::generate(
        seed,
        &FaultSpec {
            dead_slot_fraction: 0.15,
            link_flaps: 2,
            flap_duration: 20,
            corrupt_packets: 3,
            misroutes: 3,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 250)
        },
    )
}

fn assert_layouts_agree<Soa, Aos>(kind: BufferKind)
where
    Soa: damq_core::BuildBuffer,
    Aos: damq_core::BuildBuffer,
{
    for flow in FlowControl::ALL {
        for seed in [3u64, 0x50A0] {
            let config = soa_config(kind, flow, seed);
            let soa = run::<Soa>(config, 300);
            let aos = run::<Aos>(config, 300);
            assert_eq!(soa, aos, "{kind}/{flow}/{seed}: SoA vs AoS layout");
            assert!(soa.generated > 0, "{kind}/{flow}/{seed}: degenerate run");
        }
        // The same configuration under an active fault plan: kills,
        // outages, corruptions and misroutes must land identically.
        let config = soa_config(kind, flow, 0xFA07);
        let soa = run_with_faults::<Soa>(config, 300, Some(soa_fault_plan(11)));
        let aos = run_with_faults::<Aos>(config, 300, Some(soa_fault_plan(11)));
        assert_eq!(soa, aos, "{kind}/{flow}: faulted SoA vs AoS layout");
        assert!(
            soa.dead_slots > 0,
            "{kind}/{flow}: fault plan never killed a slot"
        );
    }
}

#[test]
fn soa_fifo_matches_its_aos_twin_end_to_end() {
    assert_layouts_agree::<FifoBuffer, AosFifoBuffer>(BufferKind::Fifo);
}

#[test]
fn soa_samq_matches_its_aos_twin_end_to_end() {
    assert_layouts_agree::<SamqBuffer, AosSamqBuffer>(BufferKind::Samq);
}

#[test]
fn soa_safc_matches_its_aos_twin_end_to_end() {
    assert_layouts_agree::<SafcBuffer, AosSafcBuffer>(BufferKind::Safc);
}

#[test]
fn soa_damq_matches_its_aos_twin_end_to_end() {
    assert_layouts_agree::<DamqBuffer, AosDamqBuffer>(BufferKind::Damq);
}

#[test]
fn soa_dafc_matches_its_aos_twin_end_to_end() {
    assert_layouts_agree::<DafcBuffer, AosDafcBuffer>(BufferKind::Dafc);
}
