//! What the source side may not change, and what it may not cost.
//!
//! Generated packets wait at their source as a delta-coded byte stream
//! behind a decoded head (`crates/net/src/network/source.rs`). Nothing a
//! run can observe depends on that encoding, so the first two tests
//! compare two runs that push hundreds of thousands of packets through
//! the stream — a saturated blocking hot spot, and variable-length
//! packets with generation-time corruptions — field by field against
//! literals recorded at the parent commit, where the queues were
//! `VecDeque<PendingPacket>`: counters, latency bits, per-sink
//! deliveries, the fault ledger, and every telemetry event. The third
//! holds the byte budget the encoding exists for. Never regenerate the
//! literals to make a source-side change pass.

use damq_core::{BufferKind, FaultLedger, FaultPlan, FaultSpec};
use damq_net::{NetworkConfig, NetworkSim, PacketLengths, TrafficPattern};
use damq_switch::FlowControl;
use damq_telemetry::{Event, MemorySink, TelemetrySink};

/// FNV-1a over every event's JSONL line, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventDigest {
    events: u64,
    fnv: u64,
}

impl EventDigest {
    fn new() -> Self {
        EventDigest {
            events: 0,
            fnv: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn fold(&mut self, event: &Event) {
        self.events += 1;
        for byte in event.to_jsonl().bytes().chain([b'\n']) {
            self.fnv = (self.fnv ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The saturated run emits 1.1 M events — a hundred megabytes in a
/// [`MemorySink`] — so it is digested as it streams.
impl TelemetrySink<Event> for EventDigest {
    fn record(&mut self, event: Event) {
        self.fold(&event);
    }
}

/// Everything deterministic a finished run exposes.
#[derive(Debug, PartialEq)]
struct Facts {
    /// Generated, injected, delivered, discarded at entry, discarded in
    /// the network.
    counts: [u64; 5],
    mean_latency_bits: u64,
    p99_latency_bits: u64,
    backlog: usize,
    in_flight: usize,
    route_queries: u64,
    ledger: FaultLedger,
    per_sink: [u64; 64],
    events: EventDigest,
}

fn facts<S: TelemetrySink<Event>>(sim: &NetworkSim<damq_core::AnyBuffer, S>) -> Facts {
    sim.audit().expect("post-run audit");
    let m = sim.metrics();
    Facts {
        counts: [
            m.generated(),
            m.injected(),
            m.delivered(),
            m.discarded_entry(),
            m.discarded_network(),
        ],
        mean_latency_bits: m.mean_latency_clocks().to_bits(),
        p99_latency_bits: m.latency_percentile_clocks(0.99).to_bits(),
        backlog: sim.source_backlog(),
        in_flight: sim.packets_in_flight(),
        route_queries: sim.route_plan().route_queries(),
        ledger: sim.fault_ledger(),
        per_sink: m.per_sink_delivered().try_into().expect("64 sinks"),
        events: EventDigest::new(),
    }
}

/// The benchmark's `hotspot_block_64` shape: every source past
/// saturation, so all but a few hundred packets go through the stream.
fn saturated_config() -> NetworkConfig {
    NetworkConfig::new(64, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .traffic(TrafficPattern::paper_hot_spot())
        .offered_load(0.5)
        .seed(0x50_0BAC)
}

const SATURATED_CYCLES: u64 = 10_000;

#[test]
fn saturated_blocking_run_matches_the_parent() {
    let mut sim = NetworkSim::with_sink(saturated_config(), EventDigest::new()).unwrap();
    sim.run(SATURATED_CYCLES);
    let mut got = facts(&sim);
    got.events = *sim.sink();
    assert_eq!(got, saturated_parent());
}

/// 1–32-byte packets (one to four slots) into 8-slot buffers, blocking at
/// full load so every source backs up, with 200 corruptions armed at
/// generation time: the corrupt flag and every length ride the stream.
#[test]
fn variable_length_corrupted_run_matches_the_parent() {
    const CYCLES: u64 = 1_500;
    let config = NetworkConfig::new(64, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(8)
        .flow_control(FlowControl::Blocking)
        .packet_lengths(PacketLengths::Uniform { min: 1, max: 32 })
        .offered_load(1.0)
        .seed(0x1E_461B);
    let spec = FaultSpec {
        corrupt_packets: 200,
        ..FaultSpec::fault_free(3, 16, 4, 64, 8, CYCLES)
    };
    let plan = FaultPlan::generate(0xC0_4417, &spec);
    let mut sim = NetworkSim::with_sink(config, MemorySink::new()).unwrap();
    sim.install_fault_plan(plan);
    sim.run(CYCLES);
    let mut got = facts(&sim);
    for event in sim.sink().events() {
        got.events.fold(event);
    }
    assert_eq!(got, variable_length_parent());
}

/// The budget the encoding exists for, failing before a benchmark's
/// `peak_live_mb` does.
#[test]
fn layout_source_backlog_fits_eight_bytes_per_packet() {
    /// One stream chunk (`source.rs`'s `CHUNK_BYTES`; a budget is a
    /// literal on purpose).
    const CHUNK: usize = 1024;
    let mut sim = NetworkSim::new(saturated_config()).unwrap();
    sim.run(SATURATED_CYCLES);
    let (bytes, packets) = (sim.source_backlog_bytes(), sim.source_backlog());
    assert_eq!(packets, saturated_parent().backlog);
    // The parent: 32 B a packet, ~51 B live with the ring's growth slack.
    assert!(
        bytes <= 8 * packets + 64 * CHUNK,
        "{bytes} B for {packets} waiting packets"
    );

    // Below saturation no source holds two packets and the stream is
    // never touched, so the fixed footprint is what counts. The parent's
    // `Vec<VecDeque<PendingPacket>>` was a 32-byte header per source
    // plus, from a source's first packet on, a four-entry ring of 128 B.
    const PARENT_BYTES: usize = 1024 * (32 + 4 * 32);
    let config = NetworkConfig::new(1024, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.05)
        .seed(0x50_0BAC);
    let mut sparse = NetworkSim::new(config).unwrap();
    let fresh = sparse.source_backlog_bytes();
    sparse.run(2_000);
    let warm = sparse.source_backlog_bytes();
    assert!(fresh <= warm && warm <= PARENT_BYTES, "{fresh} B, {warm} B");
}

fn saturated_parent() -> Facts {
    Facts {
        counts: [319_717, 153_168, 152_813, 0, 0],
        mean_latency_bits: 4674127577309100073,
        p99_latency_bits: 4676988213024260096,
        backlog: 166_549,
        in_flight: 355,
        route_queries: 877_357,
        ledger: FaultLedger::default(),
        per_sink: [
            9997, 2230, 2355, 2220, 2309, 2266, 2298, 2202, 2241, 2202, 2262, 2244, 2227, 2227,
            2209, 2251, 2221, 2287, 2290, 2270, 2305, 2373, 2236, 2320, 2181, 2218, 2208, 2221,
            2335, 2357, 2245, 2217, 2225, 2311, 2248, 2244, 2297, 2198, 2255, 2333, 2342, 2324,
            2348, 2271, 2313, 2247, 2225, 2187, 2237, 2251, 2317, 2285, 2267, 2236, 2314, 2432,
            2348, 2184, 2257, 2219, 2271, 2284, 2248, 2271,
        ],
        events: EventDigest {
            events: 1_094_263,
            fnv: 3349164685093034793,
        },
    }
}

fn variable_length_parent() -> Facts {
    Facts {
        counts: [96_000, 62_826, 62_340, 0, 112],
        mean_latency_bits: 4659157294750439004,
        p99_latency_bits: 4663846850049081344,
        backlog: 33_174,
        in_flight: 374,
        route_queries: 209_334,
        ledger: FaultLedger {
            corrupt_dropped: 112,
            ..FaultLedger::default()
        },
        per_sink: [
            938, 938, 966, 1008, 926, 1029, 936, 949, 1005, 947, 980, 950, 968, 974, 993, 1020,
            912, 1002, 1043, 985, 990, 972, 907, 1017, 944, 984, 977, 929, 945, 964, 964, 963, 957,
            948, 983, 964, 980, 988, 966, 993, 948, 964, 938, 957, 1050, 992, 954, 1019, 933, 1044,
            991, 1023, 993, 983, 958, 965, 996, 946, 961, 1018, 990, 978, 998, 937,
        ],
        events: EventDigest {
            events: 410_449,
            fnv: 17459258466327260921,
        },
    }
}
