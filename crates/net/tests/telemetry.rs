//! Integration tests for the telemetry layer threaded through the
//! network simulator: the golden byte-stable 2×2 trace, span-nesting and
//! packet-conservation properties of real traces, the per-cycle occupancy
//! cross-check against the simulator's own audit accessors, and the
//! guarantee that instrumentation does not perturb simulation results.

use damq_core::BufferKind;
use damq_net::{NetworkConfig, NetworkSim, TrafficPattern, CLOCKS_PER_CYCLE};
use damq_switch::FlowControl;
use damq_telemetry::{Event, EventKind, JsonlSink, MemorySink, TraceSummary};

/// The tiny deterministic run behind the golden trace: a 2×2 Omega
/// network (one switch) under heavy uniform load.
fn golden_config() -> NetworkConfig {
    NetworkConfig::new(2, 2)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.75)
        .seed(7)
}

fn golden_trace() -> String {
    let mut sim = NetworkSim::with_sink(golden_config(), JsonlSink::new(Vec::new()))
        .expect("2x2 Omega is a valid topology");
    sim.emit_run_meta("golden 2x2");
    sim.run(12);
    let bytes = sim
        .into_sink()
        .into_inner()
        .expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("JSONL is UTF-8")
}

#[test]
fn golden_2x2_trace_is_byte_stable() {
    let actual = golden_trace();
    if std::env::var_os("DAMQ_REGEN_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_2x2.jsonl");
        std::fs::write(path, &actual).expect("write golden trace");
        return;
    }
    let expected = include_str!("golden/trace_2x2.jsonl");
    assert_eq!(
        actual, expected,
        "the 2x2 golden trace drifted; if the event schema or simulator \
         scheduling changed intentionally, regenerate \
         crates/net/tests/golden/trace_2x2.jsonl"
    );
    // And the golden bytes round-trip through the parser.
    let events = Event::parse_trace(expected).expect("golden trace parses");
    let summary = TraceSummary::from_events(&events);
    summary
        .check_well_nested()
        .expect("golden trace is well-nested");
    assert_eq!(summary.meta.as_ref().unwrap().design, "DAMQ");
    assert!(summary.delivered > 0, "the golden run delivers packets");
}

#[test]
fn spans_are_well_nested_on_a_hot_spot_run() {
    let config = NetworkConfig::new(16, 4)
        .buffer_kind(BufferKind::Fifo)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .traffic(TrafficPattern::paper_hot_spot())
        .offered_load(0.5)
        .seed(42);
    let mut sim = NetworkSim::with_sink(config, MemorySink::new()).expect("valid config");
    sim.run(300);

    let summary = TraceSummary::from_events(sim.sink().events());
    summary
        .check_well_nested()
        .expect("every span is well-nested");

    // The trace's counters reproduce packet conservation: everything
    // generated is injected, dropped at entry, or still queued; everything
    // injected is delivered, dropped in flight, or still buffered.
    assert_eq!(
        summary.generated,
        summary.injected + summary.entry_discards + sim.source_backlog() as u64
    );
    assert_eq!(
        summary.injected,
        summary.delivered + summary.network_discards + sim.packets_in_flight() as u64
    );
    assert!(summary.delivered > 0);
    // FIFO under a hot spot must exhibit HOL blocking.
    assert!(
        summary.hol_blocked_cycles > 0,
        "FIFO hot spot shows HOL blocking"
    );
    // Buffer-cycles per occupancy level, recorded with the histogram
    // type the summary used before the exact histograms were merged.
    let occupancy = &summary.buffer_occupancy;
    assert_eq!(occupancy.counts()[..5], [2834, 3272, 1239, 761, 1494]);
    assert_eq!((occupancy.count(), occupancy.overflow()), (9600, 0));
    assert_eq!(occupancy.mean(), 1.4592708333333333);
    assert_eq!(occupancy.fraction_at_or_above(4), 0.155625);
}

#[test]
fn cycle_samples_match_the_simulator_audit_every_cycle() {
    let config = NetworkConfig::new(4, 2)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.6)
        .seed(11);
    let mut sim = NetworkSim::with_sink(config, MemorySink::new()).expect("valid config");
    let capacity = 2.0 * 4.0; // radix * slots_per_buffer, per switch

    for _ in 0..200 {
        sim.step();
        sim.audit().expect("simulator invariants hold");
        let sample = sim
            .sink()
            .events()
            .iter()
            .rev()
            .find_map(|e| match &e.kind {
                EventKind::CycleSample {
                    occupied, backlog, ..
                } => Some((occupied.clone(), *backlog)),
                _ => None,
            })
            .expect("every cycle emits a sample");
        let (occupied, backlog) = sample;
        for (stage, &slots) in occupied.iter().enumerate() {
            let from_audit: f64 = sim
                .stage_occupancy(stage)
                .iter()
                .map(|fraction| fraction * capacity)
                .sum();
            assert_eq!(
                slots,
                from_audit.round() as u32,
                "stage {stage} occupancy diverged from the audit view at cycle {}",
                sim.cycle()
            );
        }
        assert_eq!(backlog as usize, sim.source_backlog());
    }
}

#[test]
fn per_hop_latency_breakdown_sums_to_end_to_end() {
    let config = NetworkConfig::new(16, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.4)
        .seed(5);
    let mut sim = NetworkSim::with_sink(config, MemorySink::new()).expect("valid config");
    sim.run(400);

    let summary = TraceSummary::from_events(sim.sink().events());
    let waits = summary.mean_hop_waits();
    assert_eq!(waits.len(), sim.topology().stages(), "one wait per stage");
    let hop_sum: f64 = waits.iter().sum();
    let end_to_end = summary
        .mean_network_latency()
        .expect("packets were delivered");
    assert!(
        (hop_sum - end_to_end).abs() < 1e-9,
        "per-hop waits {hop_sum} must sum to end-to-end latency {end_to_end}"
    );

    // The trace-derived latency agrees with the simulator's own metrics —
    // the number that lands in results/json (converted to clocks there).
    let metrics_clocks = sim.metrics().mean_network_latency_clocks();
    let trace_clocks = end_to_end * CLOCKS_PER_CYCLE as f64;
    assert!(
        (trace_clocks - metrics_clocks).abs() < 1e-6,
        "trace says {trace_clocks} clocks, metrics say {metrics_clocks}"
    );
}

#[test]
fn instrumentation_does_not_perturb_results() {
    let config = NetworkConfig::new(16, 4)
        .buffer_kind(BufferKind::Safc)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Discarding)
        .traffic(TrafficPattern::paper_hot_spot())
        .offered_load(0.5)
        .seed(99);

    let mut bare = NetworkSim::new(config).expect("valid config");
    let mut traced = NetworkSim::with_sink(config, MemorySink::new()).expect("valid config");
    bare.run(300);
    traced.run(300);

    assert_eq!(bare.metrics().generated(), traced.metrics().generated());
    assert_eq!(bare.metrics().injected(), traced.metrics().injected());
    assert_eq!(bare.metrics().delivered(), traced.metrics().delivered());
    assert_eq!(bare.metrics().discarded(), traced.metrics().discarded());
    assert_eq!(bare.source_backlog(), traced.source_backlog());
    assert_eq!(bare.packets_in_flight(), traced.packets_in_flight());
    assert_eq!(
        bare.metrics().mean_network_latency_clocks(),
        traced.metrics().mean_network_latency_clocks()
    );
    assert!(
        !traced.sink().is_empty(),
        "the traced run did record events"
    );
}
