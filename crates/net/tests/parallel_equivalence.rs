//! Sharded-stepping equivalence: an N-thread run must be byte-identical
//! to the serial run.
//!
//! `NetworkSim::with_threads(n)` splits every stage into islands and
//! runs phase A (arbitration + backpressure probes) concurrently, then
//! merges departures serially in ascending switch order (phase B). The
//! design argument (`docs/ARCHITECTURE.md`, `crates/net/src/parallel.rs`)
//! says this is *exactly* the serial simulation — same RNG draws, same
//! arbiter decisions, same telemetry byte stream. These tests pin that
//! claim: every observable — metrics, residual state, buffer counters,
//! fault ledgers, and the full JSONL trace — must be equal across
//! thread counts, on uniform, hot-spot and fault-injected workloads,
//! for all five buffer designs, under both flow-control protocols.
//!
//! Every run here is also stepped cycle by cycle with the store
//! cross-check of [`assert_stores_agree`]: a packet's fate is written to
//! `NetMetrics`, the metrics registry, the fault ledger and the trace,
//! and the four must agree after every cycle at every thread count.

use damq_core::{AnyBuffer, BufferKind, BufferStats, FaultPlan, FaultSpec};
use damq_net::{NetworkConfig, NetworkSim, RecoveryConfig, TrafficPattern};
use damq_switch::FlowControl;
use damq_telemetry::{Event, MemorySink, TraceSummary};

/// Everything observable about a finished run, including the raw trace.
#[derive(Debug, PartialEq)]
struct Run {
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
    route_queries: u64,
    misrouted: u64,
    link_dropped: u64,
    corrupt_dropped: u64,
    probe_invalidated: u64,
    /// Packets still parked in recovery's retransmit buffers at the end
    /// of the run (zero unless recovery is on).
    recovery_held: usize,
    /// The metrics registry's deterministic JSON snapshot (counters plus
    /// histogram p50/p99/p999) — must be byte-identical too.
    metrics_snapshot: String,
    trace: String,
}

fn run(config: NetworkConfig, faults: Option<&FaultPlan>, threads: usize, cycles: u64) -> Run {
    let mut sim = NetworkSim::with_sink(config, MemorySink::new())
        .expect("valid config")
        .with_threads(threads)
        .with_metrics();
    assert_eq!(sim.threads(), threads.max(1));
    if let Some(plan) = faults {
        sim.install_fault_plan(plan.clone());
    }
    // Step cycle by cycle, checking after each that every store a
    // packet's fate is written to tells the same story.
    let mut summary = TraceSummary::new();
    let mut fed = 0;
    for _ in 0..cycles {
        sim.step();
        let events = sim.sink().events();
        events[fed..].iter().for_each(|e| summary.feed(e));
        fed = events.len();
        assert_stores_agree(&sim, &summary);
    }
    sim.audit().expect("post-run audit");
    let m = sim.metrics();
    let ledger = sim.fault_ledger();
    Run {
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
        route_queries: sim.route_plan().route_queries(),
        misrouted: ledger.misrouted,
        link_dropped: ledger.link_dropped,
        corrupt_dropped: ledger.corrupt_dropped,
        probe_invalidated: ledger.probe_invalidated,
        recovery_held: sim.recovery_held(),
        metrics_snapshot: sim.metrics_snapshot(),
        trace: sim
            .into_sink()
            .events()
            .iter()
            .map(|e| e.to_jsonl() + "\n")
            .collect(),
    }
}

/// Each fate is counted once in every store: the windowed `NetMetrics`
/// (never reset here, so lifetime), the `net.*` / `net.fault.*` registry
/// counters, the `FaultLedger`, and a `TraceSummary` of the events
/// emitted so far must agree, cause by cause.
fn assert_stores_agree(sim: &NetworkSim<AnyBuffer, MemorySink<Event>>, trace: &TraceSummary) {
    let at = sim.cycle();
    let m = sim.metrics();
    let ledger = sim.fault_ledger();
    let reg = |name: &str| {
        sim.metrics_registry()
            .counter_value(name)
            .unwrap_or_else(|| panic!("{name} is not registered"))
    };
    let same = |what: &str, values: &[u64]| {
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "cycle {at}: stores disagree on {what}: {values:?}"
        );
    };
    same("cycles", &[m.cycles(), reg("net.cycles"), at]);
    same(
        "generated",
        &[m.generated(), reg("net.generated"), trace.generated],
    );
    same(
        "injected",
        &[m.injected(), reg("net.injected"), trace.injected],
    );
    same(
        "delivered",
        &[m.delivered(), reg("net.delivered"), trace.delivered],
    );
    same(
        "entry discards",
        &[m.discarded_entry(), reg("net.discarded_entry")],
    );
    same(
        "network discards",
        &[m.discarded_network(), reg("net.discarded_network")],
    );
    // The trace splits discards by cause; a give-up is an entry or a
    // network discard depending on the hop that parked it.
    let traced_discards = trace.entry_discards
        + trace.network_discards
        + trace.corrupt_drops
        + trace.misroutes
        + trace.gave_ups;
    same("discards", &[m.discarded(), traced_discards]);
    assert!(trace.entry_discards <= m.discarded_entry());
    same("give-ups", &[reg("net.retry_exhausted"), trace.gave_ups]);
    same(
        "slot kills",
        &[
            ledger.slots_killed,
            reg("net.fault.slots_killed"),
            trace.slot_kills,
        ],
    );
    same(
        "corrupt drops",
        &[
            ledger.corrupt_dropped,
            reg("net.fault.corrupt_dropped"),
            trace.corrupt_drops,
        ],
    );
    same(
        "link drops",
        &[ledger.link_dropped, reg("net.fault.link_dropped")],
    );
    // Wrong-sink arrivals have their own event; a misrouted packet lost
    // mid-network is a plain network discard in the trace.
    same(
        "misroute drops",
        &[ledger.misrouted, reg("net.fault.misrouted")],
    );
    assert!(trace.misroutes <= ledger.misrouted);
    same(
        "invalidated probes",
        &[ledger.probe_invalidated, reg("net.fault.probe_invalidated")],
    );
    assert!(ledger.dropped() <= m.discarded());
    same("retransmits", &[reg("net.retransmits"), trace.retransmits]);
    same(
        "recirculations",
        &[reg("net.recirculated"), trace.recirculations],
    );
    same("reroutes", &[reg("net.rerouted"), trace.reroutes]);
}

fn assert_threads_agree(
    config: NetworkConfig,
    faults: Option<&FaultPlan>,
    cycles: u64,
    threads: &[usize],
    label: &str,
) {
    let serial = run(config, faults, 1, cycles);
    assert!(serial.generated > 0, "{label}: degenerate run");
    for &n in threads {
        let sharded = run(config, faults, n, cycles);
        assert_eq!(
            serial.trace, sharded.trace,
            "{label}: {n}-thread JSONL trace differs from serial"
        );
        assert_eq!(serial, sharded, "{label}: {n}-thread run differs");
    }
}

fn uniform(size: usize, radix: usize) -> NetworkConfig {
    NetworkConfig::new(size, radix)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .offered_load(0.6)
        .seed(0xDA3B)
}

fn hot_spot(size: usize, radix: usize) -> NetworkConfig {
    uniform(size, radix)
        .traffic(TrafficPattern::paper_hot_spot())
        .offered_load(0.5)
        .seed(0xBEEF)
}

fn fault_plan() -> FaultPlan {
    FaultPlan::generate(
        11,
        &FaultSpec {
            dead_slot_fraction: 0.1,
            link_flaps: 2,
            flap_duration: 15,
            corrupt_packets: 3,
            misroutes: 3,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 150)
        },
    )
}

/// The gate `scripts/check.sh parallel-smoke` runs: two threads must
/// reproduce the serial bytes on the paper-shaped hot-spot workload.
#[test]
fn two_thread_fingerprints_match_serial() {
    assert_threads_agree(hot_spot(16, 4), None, 250, &[2], "16x4 hot-spot");
}

#[test]
fn uniform_traffic_matches_across_thread_counts() {
    for flow in FlowControl::ALL {
        let config = uniform(16, 4).flow_control(flow);
        assert_threads_agree(config, None, 300, &[2, 4, 8], &format!("uniform/{flow}"));
    }
}

#[test]
fn hot_spot_traffic_matches_across_thread_counts() {
    for flow in FlowControl::ALL {
        let config = hot_spot(16, 4).flow_control(flow);
        assert_threads_agree(config, None, 300, &[2, 4, 8], &format!("hot-spot/{flow}"));
    }
}

#[test]
fn fault_injected_runs_match_across_thread_counts() {
    let plan = fault_plan();
    for flow in FlowControl::ALL {
        let config = uniform(16, 4).flow_control(flow).seed(17);
        assert_threads_agree(
            config,
            Some(&plan),
            300,
            &[2, 4, 8],
            &format!("faulted/{flow}"),
        );
    }
}

#[test]
fn all_five_designs_match_at_four_threads() {
    for kind in BufferKind::EXTENDED {
        for flow in FlowControl::ALL {
            let config = hot_spot(16, 4).buffer_kind(kind).flow_control(flow);
            assert_threads_agree(config, None, 250, &[4], &format!("{kind}/{flow}"));
        }
    }
}

#[test]
fn degenerate_thread_counts_are_valid_partitions() {
    // threads=1 (one island holds the stage), threads=per_stage (one
    // island per switch), and threads beyond per_stage (clamped).
    let config = uniform(16, 4);
    let per_stage = 4; // 16 terminals of 4x4 switches → 4 per stage
    for threads in [1usize, per_stage, per_stage * 4] {
        let sim = NetworkSim::with_sink(config, MemorySink::new())
            .expect("valid config")
            .with_threads(threads);
        let islands = sim.island_partition().islands();
        assert!(islands >= 1 && islands <= per_stage, "islands {islands}");
        assert_eq!(sim.island_partition().bounds()[0], 0);
        assert_eq!(*sim.island_partition().bounds().last().unwrap(), per_stage);
    }
    assert_threads_agree(config, None, 200, &[per_stage, per_stage * 4], "degenerate");
}

/// Regression for the PR 6 caveat: under the blocking protocol, a
/// phase-A probe can be invalidated *only* by a misroute landing on the
/// probed input port earlier in the same stage's serial merge (the
/// banyan wiring gives every in-order departure a private downstream
/// input, so nothing else can consume its reserved space). The merge now
/// enforces that invariant with a hard assert and tallies each
/// invalidated probe in `FaultLedger::probe_invalidated`. The seeds are
/// pinned to a schedule that actually hits the misroute-during-probe
/// window, so this test fails if either the assert or the tally drifts.
#[test]
fn blocking_misroute_probe_invalidation_window() {
    let plan = FaultPlan::generate(
        37,
        &FaultSpec {
            misroutes: 8,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 300)
        },
    );
    let config = uniform(16, 4)
        .offered_load(0.9)
        .flow_control(FlowControl::Blocking);
    let serial = run(config, Some(&plan), 1, 300);
    assert_eq!(
        serial.probe_invalidated, 3,
        "pinned seed must hit the probe-invalidation window"
    );
    assert_eq!(serial.misrouted, 8, "all seeded misroutes fire");
    assert_threads_agree(config, Some(&plan), 300, &[2, 4], "probe-invalidation");

    // Without misroute faults the blocking protocol never bounces a
    // probed departure — the strict assert in the merge would fire
    // otherwise, and the tally must stay zero.
    let clean = run(config, None, 1, 300);
    assert_eq!(clean.probe_invalidated, 0);
}

/// The observability acceptance gate: named-metric snapshots — counters
/// *and* log-histogram percentiles — must be byte-identical between the
/// serial run and 2/4/8-thread runs. Registry updates happen only in
/// the serial sections of the cycle (generate, phase-B merge, inject,
/// the post-inject occupancy scan), so any divergence here means a
/// registry update leaked into phase A.
#[test]
fn metrics_registry_snapshot_matches_across_thread_counts() {
    for flow in FlowControl::ALL {
        let config = hot_spot(16, 4).flow_control(flow);
        let serial = run(config, None, 1, 300);
        assert!(
            serial.metrics_snapshot.contains("\"net.latency_cycles\""),
            "snapshot carries the latency histogram"
        );
        assert!(
            serial.metrics_snapshot.contains("\"p999\""),
            "snapshot carries tail percentiles"
        );
        for threads in [2usize, 4, 8] {
            let sharded = run(config, None, threads, 300);
            assert_eq!(
                serial.metrics_snapshot, sharded.metrics_snapshot,
                "hot-spot/{flow}: {threads}-thread metrics snapshot differs from serial"
            );
        }
    }
    // Histogram percentiles are ordered and live inside the observed
    // range on a real workload.
    let mut sim = NetworkSim::new(hot_spot(16, 4))
        .expect("valid config")
        .with_metrics();
    sim.run(300);
    let reg = sim.metrics_registry();
    let latency = reg
        .histogram_named("net.latency_cycles")
        .expect("registered");
    assert!(latency.count() > 0, "hot-spot run delivers packets");
    assert!(latency.p50() <= latency.p99() && latency.p99() <= latency.p999());
    assert!(latency.p999() <= latency.max());
}

/// The PR 9 acceptance gate: the self-healing data path — link-level
/// retransmission, believed link-health tracking, and fault-adaptive
/// deflection rerouting — mutates state only in the serial sections of
/// the cycle (`RecoveryState::service` at cycle start, phase-B merges,
/// inject), while phase-A probes read an immutable view. These runs pin
/// that argument: with retransmission + rerouting + a storm of faults
/// all active, every observable (including the retransmit/reroute
/// telemetry and the `net.retransmits`-family counters in the registry
/// snapshot) must stay byte-identical from serial through 8 threads.
#[test]
fn recovery_runs_match_across_thread_counts() {
    let plan = FaultPlan::generate(
        11,
        &FaultSpec {
            dead_slot_fraction: 0.1,
            link_flaps: 5,
            flap_duration: 40,
            corrupt_packets: 4,
            misroutes: 3,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 250)
        },
    );
    for flow in FlowControl::ALL {
        let config = uniform(16, 4)
            .flow_control(flow)
            .recovery(RecoveryConfig::enabled())
            .seed(29);
        let serial = run(config, Some(&plan), 1, 350);
        assert!(
            serial.trace.contains("\"retransmit\""),
            "recovery/{flow}: the storm must exercise retransmission"
        );
        assert_threads_agree(
            config,
            Some(&plan),
            350,
            &[2, 4, 8],
            &format!("recovery/{flow}"),
        );
    }
    // The paper's 64-terminal shape under a heavier storm: three stages,
    // so interior hops on both sides of a stage park, deflect and drop.
    let plan = FaultPlan::generate(
        13,
        &FaultSpec {
            dead_slot_fraction: 0.1,
            link_flaps: 12,
            flap_duration: 40,
            corrupt_packets: 8,
            misroutes: 8,
            ..FaultSpec::fault_free(3, 16, 4, 64, 4, 250)
        },
    );
    for flow in FlowControl::ALL {
        let config = uniform(64, 4)
            .flow_control(flow)
            .recovery(RecoveryConfig::enabled())
            .seed(29);
        let label = format!("recovery-64/{flow}");
        assert_threads_agree(config, Some(&plan), 350, &[2], &label);
    }
}

/// Retransmission-only (no deflection) and every buffer design: the
/// recovery path must stay lane-count-invariant regardless of the
/// underlying buffer organisation.
#[test]
fn recovery_designs_match_at_four_threads() {
    let plan = FaultPlan::generate(
        23,
        &FaultSpec {
            link_flaps: 4,
            flap_duration: 30,
            corrupt_packets: 3,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 200)
        },
    );
    let retransmit_only = RecoveryConfig {
        adaptive: false,
        misroute_budget: 0,
        ..RecoveryConfig::enabled()
    };
    for kind in BufferKind::ALL {
        for flow in FlowControl::ALL {
            let config = uniform(16, 4)
                .buffer_kind(kind)
                .flow_control(flow)
                .recovery(retransmit_only);
            assert_threads_agree(
                config,
                Some(&plan),
                300,
                &[4],
                &format!("recovery-retransmit/{kind}/{flow}"),
            );
        }
    }
}

#[test]
fn larger_network_matches_at_four_threads() {
    // 64 terminals (the paper's shape): 16 switches per stage, split 4
    // ways — every island holds several switches.
    for flow in FlowControl::ALL {
        let config = hot_spot(64, 4).flow_control(flow);
        assert_threads_agree(config, None, 200, &[4], &format!("64x4/{flow}"));
    }
}
