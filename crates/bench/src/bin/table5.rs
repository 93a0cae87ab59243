//! Regenerates **Table 5** of the paper: average latencies for given
//! throughput with varying numbers of buffer slots (FIFO vs DAMQ; 3, 4 and
//! 8 slots), uniform traffic, blocking protocol.
//!
//! The paper's point: extra FIFO slots buy far less than DAMQ's smarter
//! organisation — DAMQ with 3 slots beats FIFO with 8.
//!
//! The (design, slots, load) grid and the per-(design, slots) saturation
//! searches are [`damq_bench::grid`]s, each cell seeded from its
//! coordinates. The run also writes `results/json/table5.json`.

use damq_bench::cli;
use damq_bench::grid::{self, Axis, Cell, Grid};
use damq_bench::json::{measurement_json, saturation_json, Json, Report};
use damq_core::BufferKind;
use damq_net::NetworkConfig;
use damq_switch::FlowControl;

const WARM_UP: u64 = 1_000;
const WINDOW: u64 = 10_000;
const KINDS: [BufferKind; 2] = [BufferKind::Fifo, BufferKind::Damq];
const SLOTS: [usize; 3] = [3, 4, 8];
const LOADS: [f64; 2] = [0.25, 0.50];

fn main() {
    cli::parse(&[], &[]);
    println!("Table 5: Average latencies (clock cycles), varying number of slots");
    println!("(64x64 Omega, blocking, uniform traffic, smart arbitration)");
    println!();

    let base = NetworkConfig::new(64, 4).flow_control(FlowControl::Blocking);
    let mut report = Report::new("table5");

    let sizes = [
        Axis::new("buffer", KINDS.map(BufferKind::name)),
        Axis::new("slots_per_buffer", SLOTS),
    ];
    let [buffers, slots] = sizes.clone();
    let sized = |c: &Cell| base.buffer_kind(KINDS[c[0]]).slots_per_buffer(SLOTS[c[1]]);
    let measured = Grid::product([buffers, slots, Axis::new("offered_load", LOADS)]).measure(
        WARM_UP,
        WINDOW,
        |c| sized(c).offered_load(LOADS[c[2]]),
    );
    let saturated = Grid::product(sizes)
        .seed_suffix(grid::SEARCH)
        .tag("saturation_search", true)
        .saturate(sized);

    report.meta("network", Json::from("64x64 Omega, blocking, uniform"));
    report.meta("warm_up_cycles", Json::from(WARM_UP));
    report.meta("window_cycles", Json::from(WINDOW));
    measured.report(&mut report, measurement_json);
    saturated.report(&mut report, saturation_json);

    let header = ["Buffer", "Slots", "25%", "50%", "saturated", "sat. thr"];
    let table = measured.table(2, &header, |c, at_loads| {
        let sat = saturated.at(c);
        vec![
            format!("{:.1}", at_loads[0].latency_clocks),
            format!("{:.1}", at_loads[1].latency_clocks),
            format!("{:.1}", sat.saturated_latency_clocks),
            format!("{:.2}", sat.throughput),
        ]
    });
    print!("{table}");
    report.write_and_announce();
}
