//! What the arbitration kernel and the probe path may not change: every
//! radix that builds keeps running, and the counts no fingerprint in
//! `benchmark/pins.tsv` covers stay where they were.
//!
//! A radix-4 switch keeps its arbiter's stale matrix and its row of
//! queue lengths inline; radix 8 and radix 16 spill both, and probe
//! downstream switches that are spilled too. The first test runs the two
//! wide shapes under both protocols to conservation. The second pins route
//! queries (one per blocking probe, two when adaptive recovery tries the
//! alternate), idle-skipped switch-cycles and the aggregated buffer
//! counters of fixed runs against literals recorded at the parent of the
//! live-probe change — a kernel that asks a sink one question more or
//! less, or examines queues in another order, moves them. Never
//! regenerate these numbers to make a kernel change pass.

use damq_core::{BufferKind, FaultPlan, FaultSpec};
use damq_net::{NetworkConfig, NetworkSim, RecoveryConfig, TrafficPattern};
use damq_switch::FlowControl;
use BufferKind::{Dafc, Damq, Fifo, Safc, Samq};

#[test]
fn wide_radix_networks_run_both_protocols_to_conservation() {
    // (terminals, radix): one stage of one 16x16 switch; two stages of
    // eight 8x8 switches.
    for (size, radix) in [(16, 16), (64, 8)] {
        for kind in BufferKind::EXTENDED {
            for flow in FlowControl::ALL {
                let config = NetworkConfig::new(size, radix)
                    .buffer_kind(kind)
                    .slots_per_buffer(radix)
                    .flow_control(flow)
                    .offered_load(0.8)
                    .seed(0xD3BA + radix as u64);
                let mut sim = NetworkSim::new(config).unwrap();
                sim.run(600);
                sim.audit()
                    .unwrap_or_else(|e| panic!("radix {radix} {kind}/{flow}: {e}"));
                let m = sim.metrics();
                assert!(
                    m.delivered() > 0,
                    "radix {radix} {kind}/{flow} moved nothing"
                );
                let accounted = m.delivered()
                    + m.discarded()
                    + sim.source_backlog() as u64
                    + sim.packets_in_flight() as u64;
                assert_eq!(m.generated(), accounted, "radix {radix} {kind}/{flow}");
            }
        }
    }
}

/// The counts of one finished run: route queries, idle-skipped
/// switch-cycles, then the buffer counters (accepted, rejected,
/// forwarded, slots accepted, peak used slots, head-of-line blocked).
type Counts = (u64, u64, [u64; 6]);

fn counts(sim: &NetworkSim) -> Counts {
    let s = sim.aggregate_buffer_stats();
    (
        sim.route_plan().route_queries(),
        sim.idle_skipped_total(),
        [
            s.packets_accepted(),
            s.packets_rejected(),
            s.packets_forwarded(),
            s.slots_accepted(),
            s.peak_used_slots() as u64,
            s.hol_blocked(),
        ],
    )
}

fn omega64(kind: BufferKind, flow: FlowControl, load: f64) -> NetworkConfig {
    NetworkConfig::new(64, 4)
        .buffer_kind(kind)
        .slots_per_buffer(4)
        .flow_control(flow)
        .offered_load(load)
        .seed(0x5EED_0015)
}

/// Ten percent of the 192 links dead from early on, plus a corruption and
/// a misroute about every ten cycles — the shape of the benchmark's
/// `faulted_heal_64`.
fn storm(cycles: u64) -> FaultPlan {
    let links = FaultSpec {
        link_flaps: 19,
        flap_duration: cycles + 1,
        ..FaultSpec::fault_free(3, 16, 4, 64, 4, 100)
    };
    let noise = FaultSpec {
        corrupt_packets: (cycles / 10) as usize,
        misroutes: (cycles / 10) as usize,
        ..FaultSpec::fault_free(3, 16, 4, 64, 4, cycles)
    };
    FaultPlan::generate(0x4EA1, &links).merged(FaultPlan::generate(0x4EA1 << 17, &noise))
}

fn run(config: NetworkConfig, faults: Option<FaultPlan>, cycles: u64) -> Counts {
    let sim = match faults {
        Some(plan) => NetworkSim::with_faults(config, plan),
        None => NetworkSim::new(config),
    };
    let mut sim = sim.unwrap();
    sim.run(cycles);
    sim.audit().expect("post-run audit");
    counts(&sim)
}

/// Recorded at the parent of the live-probe change (per-stage capacity
/// snapshot, candidate scratch, `bool` served/occupied matrices), by
/// running this file there.
#[test]
fn probe_idle_skip_and_buffer_counts_match_the_parent() {
    const CYCLES: u64 = 1_500;
    let hot = omega64(Damq, FlowControl::Blocking, 0.5).traffic(TrafficPattern::paper_hot_spot());
    let heal = |flow| omega64(Damq, flow, 0.6).recovery(RecoveryConfig::enabled());
    let uniform = |kind| omega64(kind, FlowControl::Discarding, 0.9);
    let cases: [(&str, NetworkConfig, Option<FaultPlan>, Counts); 9] = [
        ("hot-spot blocking", hot, None, PARENT[0]),
        ("uniform discarding fifo", uniform(Fifo), None, PARENT[1]),
        ("uniform discarding samq", uniform(Samq), None, PARENT[2]),
        ("uniform discarding safc", uniform(Safc), None, PARENT[3]),
        ("uniform discarding damq", uniform(Damq), None, PARENT[4]),
        ("uniform discarding dafc", uniform(Dafc), None, PARENT[5]),
        (
            "faulted discarding + recovery",
            heal(FlowControl::Discarding),
            Some(storm(CYCLES)),
            PARENT[6],
        ),
        (
            "faulted blocking + recovery",
            heal(FlowControl::Blocking),
            Some(storm(CYCLES)),
            PARENT[7],
        ),
        (
            "uniform blocking fifo",
            omega64(Fifo, FlowControl::Blocking, 0.6),
            None,
            PARENT[8],
        ),
    ];
    for (name, config, faults, parent) in cases {
        assert_eq!(run(config, faults, CYCLES), parent, "{name}");
    }
}

const PARENT: [Counts; 9] = [
    (131_072, 13_010, [71_912, 0, 71_527, 71_912, 4, 0]),
    (
        120_470,
        173,
        [175_598, 31_339, 175_119, 175_598, 4, 246_649],
    ),
    (133_813, 231, [190_746, 29_534, 190_513, 190_746, 4, 0]),
    (142_848, 192, [205_361, 23_954, 205_147, 205_361, 4, 0]),
    (156_254, 101, [230_073, 12_648, 229_517, 230_073, 4, 0]),
    (159_865, 107, [236_139, 10_193, 235_711, 236_139, 4, 0]),
    (105_487, 1_900, [147_187, 1_056, 147_008, 147_187, 4, 0]),
    (137_933, 1_843, [147_618, 1_261, 147_431, 147_618, 4, 0]),
    (120_986, 603, [150_359, 0, 149_873, 150_359, 4, 250_828]),
];
