//! Idle-skip equivalence: advancing quiescent switches with the fast
//! path must be byte-identical to arbitrating them empty.
//!
//! The quiescence map (see `NetworkSim` internals and
//! `docs/PERFORMANCE.md`) lets arbitration advance an empty switch with
//! one counter tick. `Switch::note_idle_cycle` is pinned byte-identical to
//! an empty `transmit_cycle` per switch; these tests pin the end-to-end
//! claim: the same run with the skip on and off produces identical
//! metrics, buffer stats and residual state, and the `net.idle_skipped`
//! counter accounts exactly for the switch-cycles the fast path
//! absorbed.

use damq_core::{BufferKind, BufferStats};
use damq_net::{NetworkConfig, NetworkSim, TrafficPattern};
use damq_switch::FlowControl;

/// Everything observable about a finished run, minus the idle-skip
/// tallies themselves (those differ by construction when the toggle
/// does).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    generated: u64,
    delivered: u64,
    discarded: u64,
    mean_latency: u64,
    per_sink: Vec<u64>,
    backlog: usize,
    in_flight: usize,
    buffer_stats: BufferStats,
    occupancy: Vec<f64>,
}

fn finish(sim: &mut NetworkSim) -> Fingerprint {
    sim.audit().expect("post-run audit");
    let m = sim.metrics();
    Fingerprint {
        generated: m.generated(),
        delivered: m.delivered(),
        discarded: m.discarded(),
        mean_latency: (m.mean_latency_clocks() * 1e6) as u64,
        per_sink: m.per_sink_delivered().to_vec(),
        backlog: sim.source_backlog(),
        in_flight: sim.packets_in_flight(),
        buffer_stats: sim.aggregate_buffer_stats(),
        occupancy: sim.occupancy_by_stage(),
    }
}

fn hotspot(kind: BufferKind) -> NetworkConfig {
    NetworkConfig::new(16, 4)
        .buffer_kind(kind)
        .slots_per_buffer(4)
        .traffic(TrafficPattern::paper_hot_spot())
        .offered_load(0.5)
        .seed(37)
}

#[test]
fn idle_skip_correctness() {
    // A fully idle network: at load 0 the generator draws no randomness
    // and every switch stays quiescent from cycle 0, so with the skip on
    // every switch-cycle takes the fast path.
    const K: u64 = 50;
    let idle_config = NetworkConfig::new(16, 4).offered_load(0.0).seed(1);
    let mut skipping = NetworkSim::new(idle_config).unwrap();
    let mut full = NetworkSim::new(idle_config).unwrap().with_idle_skip(false);
    skipping.run(K);
    full.run(K);
    let switches = {
        let t = skipping.topology();
        (t.stages() * t.switches_per_stage()) as u64
    };
    assert_eq!(skipping.idle_skipped_total(), K * switches);
    assert_eq!(full.idle_skipped_total(), 0);
    assert_eq!(finish(&mut skipping), finish(&mut full), "fully idle run");

    // A loaded hot-spot run for every design and protocol: quiescent and
    // busy switches mix, and the results must not depend on the toggle.
    for kind in BufferKind::ALL {
        for flow in FlowControl::ALL {
            let config = hotspot(kind).flow_control(flow);
            let mut skipping = NetworkSim::new(config).unwrap();
            let mut full = NetworkSim::new(config).unwrap().with_idle_skip(false);
            skipping.run(400);
            full.run(400);
            assert_eq!(
                finish(&mut skipping),
                finish(&mut full),
                "{kind}/{flow}: idle-skip on vs off"
            );
            // Hot-spot traffic leaves some switches idle: the fast path
            // must actually fire for this test to mean anything.
            assert!(skipping.idle_skipped_total() > 0, "{kind}/{flow}");
        }
    }
}

#[test]
fn idle_skip_counter_reaches_the_registry() {
    let mut sim = NetworkSim::new(hotspot(BufferKind::Fifo))
        .unwrap()
        .with_metrics();
    sim.run(200);
    assert_eq!(
        sim.metrics_registry().counter_value("net.idle_skipped"),
        Some(sim.idle_skipped_total())
    );
    assert!(sim.idle_skipped_total() > 0);
}
