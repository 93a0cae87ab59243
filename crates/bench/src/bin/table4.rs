//! Regenerates **Table 4** of the paper: average latencies for given
//! throughput and saturation throughput, all four buffer designs, four
//! slots per buffer, uniform traffic, blocking protocol.
//!
//! Two [`damq_bench::grid`]s — (design, load) measurements and a
//! per-design saturation search — each cell seeded from its coordinates.
//! The run also writes `results/json/table4.json`.

use damq_bench::cli;
use damq_bench::grid::{self, Axis, Grid};
use damq_bench::json::{measurement_json, saturation_json, Json, Report};
use damq_core::BufferKind;
use damq_net::NetworkConfig;
use damq_switch::FlowControl;

const WARM_UP: u64 = 1_000;
const WINDOW: u64 = 10_000;
const LOADS: [f64; 4] = [0.25, 0.30, 0.40, 0.50];
const KINDS: [BufferKind; 4] = [
    BufferKind::Fifo,
    BufferKind::Damq,
    BufferKind::Safc,
    BufferKind::Samq,
];

fn main() {
    cli::parse(&[], &[]);
    println!("Table 4: Average latencies (clock cycles) for given throughput");
    println!("(64x64 Omega, blocking, uniform traffic, smart arbitration, 4 slots per buffer)");
    println!();

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking);
    let mut report = Report::new("table4");

    let buffers = Axis::new("buffer", KINDS.map(BufferKind::name));
    let loads = Axis::new("offered_load", LOADS);
    let measured = Grid::product([buffers.clone(), loads]).measure(WARM_UP, WINDOW, |c| {
        base.buffer_kind(KINDS[c[0]]).offered_load(LOADS[c[1]])
    });
    let saturated = Grid::product([buffers])
        .seed_suffix(grid::SEARCH)
        .tag("saturation_search", true)
        .saturate(|c| base.buffer_kind(KINDS[c[0]]));

    report.meta("network", Json::from("64x64 Omega, blocking, uniform"));
    report.meta("slots_per_buffer", Json::from(4usize));
    report.meta("warm_up_cycles", Json::from(WARM_UP));
    report.meta("window_cycles", Json::from(WINDOW));
    measured.report(&mut report, measurement_json);
    saturated.report(&mut report, saturation_json);

    let mut header: Vec<String> = vec!["Buffer".into()];
    header.extend(LOADS.iter().map(|l| format!("{l:.2}")));
    header.push("saturated".into());
    header.push("sat. thr".into());
    let table = measured.table(1, &header, |k, at_loads| {
        let sat = saturated.at(k);
        let latencies = at_loads.iter().map(|m| m.latency_clocks);
        let columns = latencies.chain([sat.saturated_latency_clocks, sat.throughput]);
        columns.map(|v| format!("{v:.2}")).collect()
    });
    print!("{table}");
    report.write_and_announce();
}
