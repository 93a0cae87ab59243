//! **Extension**: exact Markov analysis of the 4×4 switch.
//!
//! The paper writes: "For the four-by-four switches, the state space was
//! too large for Markov modeling, so the evaluation was done using
//! event-driven simulation" (§4). For the multi-queue designs the state
//! space is per-(input, output) counts, and modern machines solve it
//! directly — an analysis the authors could not run in 1988, reproducing
//! their simulated ordering analytically.
//!
//! FIFO is excluded (its state is order-dependent); the simulation remains
//! the reference for it.
//!
//! The (design, capacity, traffic) [`damq_bench::grid`] is ragged — each
//! design gets the capacities its state space allows; the run also
//! writes `results/json/markov_4x4.json`.

use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{discard_point_json, Json, Report};
use damq_bench::{cli, fmt_prob};
use damq_core::BufferKind;
use damq_markov::{discard_probability_kxk, CycleOrder, SolveOptions};

const TRAFFICS: [f64; 5] = [0.25, 0.50, 0.75, 0.90, 0.99];
const CAPACITIES: [usize; 3] = [1, 2, 4];
/// Capacities are bounded by state-space size: DAMQ/DAFC at 3+ shared
/// slots or SAMQ/SAFC at 2+ slots per queue exceed a million states.
const SIZES: [(BufferKind, &[usize]); 4] = [
    (BufferKind::Damq, &[1, 2]),
    (BufferKind::Dafc, &[1, 2]),
    (BufferKind::Samq, &[4]),
    (BufferKind::Safc, &[4]),
];

fn main() {
    cli::parse(&[], &[]);
    println!("Markov analysis of a 4x4 discarding switch (not in the paper)");
    println!("(multi-queue designs; greedy longest-queue arbitration; arrivals-first)");
    println!();

    let mut report = Report::new("markov_4x4");
    let points = Grid::product([
        Axis::new("buffer", SIZES.map(|(kind, _)| kind.name())),
        Axis::new("capacity_slots", CAPACITIES),
        Axis::new("traffic", TRAFFICS),
    ])
    .retain(|c| SIZES[c[0]].1.contains(&CAPACITIES[c[1]]))
    .run(|c| {
        let (kind, cap, t) = (SIZES[c[0]].0, CAPACITIES[c[1]], TRAFFICS[c[2]]);
        let order = CycleOrder::ArrivalsFirst;
        discard_probability_kxk(kind, 4, cap, t, order, SolveOptions::default())
            .unwrap_or_else(|e| panic!("{kind}/{cap}/{t}: {e}"))
    });

    report.meta("switch", Json::from("4x4 discarding"));
    report.meta("order", Json::from("ArrivalsFirst"));
    points.report(&mut report, discard_point_json);

    let mut header: Vec<String> = vec!["Switch".into(), "Space".into(), "states".into()];
    header.extend(TRAFFICS.iter().map(|t| format!("{:.0}%", t * 100.0)));
    let table = points.table(2, &header, |_, at_traffics| {
        // The state count depends on the design and size, not the traffic.
        let states = [at_traffics[0].states.to_string()];
        let discards = at_traffics.iter().map(|p| fmt_prob(p.discard_probability));
        states.into_iter().chain(discards).collect()
    });
    print!("{table}");
    println!();
    println!("note: SAMQ/SAFC capacity is a total (4 slots = 1 per queue). DAMQ with");
    println!("just 2 *shared* slots discards less than SAMQ with 4 static ones up to");
    println!("~90% traffic (half the storage, better service); only at near-total");
    println!("saturation does raw capacity win -- the dynamic-allocation story, now");
    println!("in closed form at the radix the paper's network actually uses.");
    report.write_and_announce();
}
