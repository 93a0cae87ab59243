//! One packet fate, four stores, one story — checked after every cycle.
//!
//! A packet's fate is written to `NetMetrics`, the metrics registry, the
//! fault ledger and the trace. Every run here is stepped cycle by cycle
//! with the cross-check of [`assert_stores_agree`]: the four must agree,
//! cause by cause, after every cycle — on uniform, hot-spot,
//! fault-injected and recovery-on workloads, for all five buffer designs,
//! under both flow-control protocols, at 16 and 64 terminals.

use damq_core::{AnyBuffer, BufferKind, FaultPlan, FaultSpec};
use damq_net::{NetworkConfig, NetworkSim, RecoveryConfig, TrafficPattern};
use damq_switch::FlowControl;
use damq_telemetry::{Event, MemorySink, TraceSummary};

type Sim = NetworkSim<AnyBuffer, MemorySink<Event>>;

/// Steps `config` for `cycles` with the registry and a memory sink on,
/// cross-checking the stores after every cycle and auditing at the end.
fn run(config: NetworkConfig, faults: Option<&FaultPlan>, cycles: u64, label: &str) -> Sim {
    let mut sim = NetworkSim::with_sink(config, MemorySink::new())
        .expect("valid config")
        .with_metrics();
    if let Some(plan) = faults {
        sim.install_fault_plan(plan.clone());
    }
    let mut summary = TraceSummary::new();
    let mut fed = 0;
    for _ in 0..cycles {
        sim.step();
        let events = sim.sink().events();
        events[fed..].iter().for_each(|e| summary.feed(e));
        fed = events.len();
        assert_stores_agree(&sim, &summary);
    }
    sim.audit()
        .unwrap_or_else(|e| panic!("{label}: post-run audit: {e}"));
    assert!(sim.metrics().generated() > 0, "{label}: degenerate run");
    sim
}

fn trace_of(sim: Sim) -> String {
    sim.into_sink()
        .events()
        .iter()
        .map(|e| e.to_jsonl() + "\n")
        .collect()
}

/// Each fate is counted once in every store: the windowed `NetMetrics`
/// (never reset here, so lifetime), the `net.*` / `net.fault.*` registry
/// counters, the `FaultLedger`, and a `TraceSummary` of the events
/// emitted so far must agree, cause by cause.
fn assert_stores_agree(sim: &Sim, trace: &TraceSummary) {
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

#[test]
fn uniform_and_hot_spot_traffic() {
    for flow in FlowControl::ALL {
        run(uniform(16, 4).flow_control(flow), None, 300, "uniform");
        run(hot_spot(16, 4).flow_control(flow), None, 300, "hot-spot");
        // 64 terminals (the paper's shape): three stages, so an interior
        // stage feeds another interior stage.
        run(hot_spot(64, 4).flow_control(flow), None, 200, "64x4");
    }
}

#[test]
fn all_five_designs() {
    for kind in BufferKind::EXTENDED {
        for flow in FlowControl::ALL {
            let config = hot_spot(16, 4).buffer_kind(kind).flow_control(flow);
            run(config, None, 250, &format!("{kind}/{flow}"));
        }
    }
}

#[test]
fn fault_injected_runs() {
    let plan = FaultPlan::generate(
        11,
        &FaultSpec {
            dead_slot_fraction: 0.1,
            link_flaps: 2,
            flap_duration: 15,
            corrupt_packets: 3,
            misroutes: 3,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 150)
        },
    );
    for flow in FlowControl::ALL {
        let config = uniform(16, 4).flow_control(flow).seed(17);
        run(config, Some(&plan), 300, &format!("faulted/{flow}"));
    }
}

/// Under the blocking protocol, a probe can be invalidated *only* by a
/// misroute landing on the probed input port earlier in the same stage's
/// merge (the banyan wiring gives every in-order departure a private
/// downstream input, so nothing else can consume its reserved space).
/// The merge enforces that invariant with a hard assert and tallies each
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
    let ledger = run(config, Some(&plan), 300, "probe-invalidation").fault_ledger();
    assert_eq!(
        ledger.probe_invalidated, 3,
        "pinned seed must hit the probe-invalidation window"
    );
    assert_eq!(ledger.misrouted, 8, "all seeded misroutes fire");

    // Without misroute faults the blocking protocol never bounces a
    // probed departure — the strict assert in the merge would fire
    // otherwise, and the tally must stay zero.
    let clean = run(config, None, 300, "probe-invalidation, clean");
    assert_eq!(clean.fault_ledger().probe_invalidated, 0);
}

/// Named-metric snapshots carry counters *and* log-histogram
/// percentiles, ordered and inside the observed range on a real workload.
#[test]
fn metrics_registry_snapshot_carries_ordered_percentiles() {
    let sim = run(hot_spot(16, 4), None, 300, "hot-spot");
    let snapshot = sim.metrics_snapshot();
    assert!(snapshot.contains("\"net.latency_cycles\""));
    assert!(snapshot.contains("\"p999\""), "tail percentiles");
    let latency = sim
        .metrics_registry()
        .histogram_named("net.latency_cycles")
        .expect("registered");
    assert!(latency.count() > 0, "hot-spot run delivers packets");
    assert!(latency.p50() <= latency.p99() && latency.p99() <= latency.p999());
    assert!(latency.p999() <= latency.max());
}

/// The self-healing data path — link-level retransmission, believed
/// link-health tracking, and fault-adaptive deflection rerouting — with
/// retransmission + rerouting + a storm of faults all active.
#[test]
fn recovery_runs() {
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
        let sim = run(config, Some(&plan), 350, &format!("recovery/{flow}"));
        assert!(
            trace_of(sim).contains("\"retransmit\""),
            "recovery/{flow}: the storm must exercise retransmission"
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
        run(config, Some(&plan), 350, &format!("recovery-64/{flow}"));
    }
}

/// Retransmission-only (no deflection) over every buffer design.
#[test]
fn recovery_over_every_design() {
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
            let label = format!("recovery-retransmit/{kind}/{flow}");
            run(config, Some(&plan), 300, &label);
        }
    }
}

/// `with_threads` survives only because the frozen benchmark calls it:
/// it must change nothing. Delete this test with the shim.
#[test]
fn with_threads_is_inert() {
    let build = || {
        NetworkSim::with_sink(hot_spot(16, 4), MemorySink::new())
            .expect("valid config")
            .with_metrics()
    };
    let observe = |mut sim: Sim| {
        sim.run(250);
        (sim.metrics_snapshot(), trace_of(sim))
    };
    assert_eq!(observe(build().with_threads(8)), observe(build()));
}
