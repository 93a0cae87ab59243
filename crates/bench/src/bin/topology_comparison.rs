//! **Extension**: is the DAMQ advantage a property of the Omega wiring?
//!
//! The paper evaluates one topology. Running the identical experiment on a
//! k-ary butterfly (same stages, same switches, different inter-stage
//! permutations) shows the buffer result is about switches, not wiring —
//! both delta-class MINs route uniform traffic equivalently.
//!
//! The (design, wiring, load) grid and per-(design, wiring) saturation
//! searches are [`damq_bench::grid`]s, each cell seeded from its
//! coordinates. The run also writes
//! `results/json/topology_comparison.json`.

use damq_bench::cli;
use damq_bench::grid::{self, Axis, Cell, Grid};
use damq_bench::json::{measurement_json, saturation_json, Json, Report};
use damq_core::BufferKind;
use damq_net::{NetworkConfig, TopologyKind};
use damq_switch::FlowControl;

const LOADS: [f64; 2] = [0.25, 0.40];

fn main() {
    cli::parse(&[], &[]);
    println!("Topology independence: Omega vs butterfly, 64x64, 4 slots per buffer");
    println!("(blocking, uniform traffic, smart arbitration)");
    println!();

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking);
    let mut report = Report::new("topology_comparison");

    let fabrics = [
        Axis::new("buffer", BufferKind::ALL.map(BufferKind::name)),
        Axis::new("wiring", TopologyKind::ALL.map(TopologyKind::name)),
    ];
    let [buffers, wirings] = fabrics.clone();
    let fabric = |c: &Cell| {
        base.buffer_kind(BufferKind::ALL[c[0]])
            .topology_kind(TopologyKind::ALL[c[1]])
    };
    let measured = Grid::product([buffers, wirings, Axis::new("offered_load", LOADS)]).measure(
        500,
        4_000,
        |c| fabric(c).offered_load(LOADS[c[2]]),
    );
    let saturated = Grid::product(fabrics)
        .seed_suffix(grid::SEARCH)
        .tag("saturation_search", true)
        .saturate(fabric);

    report.meta("network", Json::from("64x64, blocking, uniform"));
    report.meta("slots_per_buffer", Json::from(4usize));
    measured.report(&mut report, measurement_json);
    saturated.report(&mut report, saturation_json);

    let header = ["Buffer", "wiring", "lat@0.25", "lat@0.40", "sat. thr"];
    let table = measured.table(2, &header, |c, at_loads| {
        vec![
            format!("{:.1}", at_loads[0].latency_clocks),
            format!("{:.1}", at_loads[1].latency_clocks),
            format!("{:.2}", saturated.at(c).throughput),
        ]
    });
    print!("{table}");
    println!();
    println!("expected: per-buffer rows agree across wirings to within the search");
    println!("resolution -- the DAMQ gain comes from the switch, not the shuffle.");
    report.write_and_announce();
}
