//! Regenerates **Table 6** of the paper: average latency for given
//! throughputs with 5% hot-spot traffic, four slots per buffer, blocking
//! protocol.
//!
//! The paper's finding: under hot-spot traffic the buffer design does not
//! matter — every network tree-saturates at the same throughput (just under
//! 0.25 for a 64-terminal network with a 5% hot spot).
//!
//! The (design, load) grid and the per-design saturation searches are
//! [`damq_bench::grid`]s, each cell seeded from its coordinates. The run
//! also writes `results/json/table6.json`.

use damq_bench::cli;
use damq_bench::grid::{self, Axis, Grid};
use damq_bench::json::{measurement_json, saturation_json, Json, Report};
use damq_core::BufferKind;
use damq_net::{NetworkConfig, TrafficPattern};
use damq_switch::FlowControl;

const WARM_UP: u64 = 1_000;
const WINDOW: u64 = 10_000;
const LOADS: [f64; 2] = [0.125, 0.20];

fn main() {
    cli::parse(&[], &[]);
    println!("Table 6: Average latency (clock cycles) with 5% hot-spot traffic");
    println!("(64x64 Omega, blocking, smart arbitration, 4 slots per buffer)");
    println!();

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .traffic(TrafficPattern::paper_hot_spot());
    let mut report = Report::new("table6");

    let buffers = Axis::new("buffer", BufferKind::ALL.map(BufferKind::name));
    let loads = Axis::new("offered_load", LOADS);
    let measured = Grid::product([buffers.clone(), loads]).measure(WARM_UP, WINDOW, |c| {
        base.buffer_kind(BufferKind::ALL[c[0]])
            .offered_load(LOADS[c[1]])
    });
    let saturated = Grid::product([buffers])
        .seed_suffix(grid::SEARCH)
        .tag("saturation_search", true)
        .saturate(|c| base.buffer_kind(BufferKind::ALL[c[0]]));

    report.meta("network", Json::from("64x64 Omega, blocking, 5% hot spot"));
    report.meta("slots_per_buffer", Json::from(4usize));
    report.meta("warm_up_cycles", Json::from(WARM_UP));
    report.meta("window_cycles", Json::from(WINDOW));
    measured.report(&mut report, measurement_json);
    saturated.report(&mut report, saturation_json);

    let header = ["Buffer", "12.5%", "20.0%", "saturated", "sat. thr"];
    let table = measured.table(1, &header, |k, at_loads| {
        let sat = saturated.at(k);
        vec![
            format!("{:.2}", at_loads[0].latency_clocks),
            format!("{:.2}", at_loads[1].latency_clocks),
            format!("{:.2}", sat.saturated_latency_clocks),
            format!("{:.2}", sat.throughput),
        ]
    });
    print!("{table}");
    report.write_and_announce();
}
