//! Regenerates **Table 2** of the paper: "Probability for Discarding —
//! Markov Analysis".
//!
//! A single 2×2 discarding switch is analysed in steady state for each
//! buffer design, buffer size and traffic level, arrivals first within
//! each long-clock cycle (see `damq_markov::CycleOrder`).
//!
//! The (design, size, traffic) [`damq_bench::grid`] is ragged — the
//! static designs only come in even sizes; alongside the text table the
//! run writes `results/json/table2.json` with one cell per analysed
//! point.

use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{discard_point_json, Json, Report};
use damq_bench::{cli, fmt_prob, TABLE2_TRAFFIC};
use damq_core::BufferKind;
use damq_markov::discard_probability;

const CAPACITIES: [usize; 5] = [2, 3, 4, 5, 6];
/// Each design with the buffer sizes the paper tabulates for it.
const SIZES: [(BufferKind, &[usize]); 4] = [
    (BufferKind::Fifo, &CAPACITIES),
    (BufferKind::Damq, &CAPACITIES),
    (BufferKind::Samq, &[2, 4, 6]),
    (BufferKind::Safc, &[2, 4, 6]),
];

fn main() {
    cli::parse(&[], &[]);
    println!("Table 2: Probability for Discarding - Markov Analysis");
    println!("(2x2 discarding switch, fixed-length packets, long clock; order: ArrivalsFirst)");
    println!();

    let mut report = Report::new("table2");
    let points = Grid::product([
        Axis::new("buffer", SIZES.map(|(kind, _)| kind.name())),
        Axis::new("capacity_slots", CAPACITIES),
        Axis::new("traffic", TABLE2_TRAFFIC),
    ])
    .retain(|c| SIZES[c[0]].1.contains(&CAPACITIES[c[1]]))
    .run(|c| {
        let (kind, cap, traffic) = (SIZES[c[0]].0, CAPACITIES[c[1]], TABLE2_TRAFFIC[c[2]]);
        discard_probability(kind, cap, traffic)
            .unwrap_or_else(|e| panic!("analysis failed for {kind}/{cap}/{traffic}: {e}"))
    });

    report.meta("switch", Json::from("2x2 discarding"));
    report.meta("order", Json::from("ArrivalsFirst"));
    points.report(&mut report, discard_point_json);

    let mut header: Vec<String> = vec!["Switch".into(), "Space".into()];
    header.extend(TABLE2_TRAFFIC.iter().map(|t| format!("{:.0}%", t * 100.0)));
    let table = points.table(2, &header, |_, at_traffics| {
        let columns = at_traffics.iter().map(|p| fmt_prob(p.discard_probability));
        columns.collect()
    });
    print!("{table}");
    report.write_and_announce();
}
