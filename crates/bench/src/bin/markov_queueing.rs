//! **Extension**: queueing-delay analysis from the Table-2 Markov chains.
//!
//! The paper's Markov analysis reports only discard probabilities; the
//! same stationary distributions also yield mean buffer occupancy and —
//! via Little's law — the mean buffering delay of an accepted packet.
//! This quantifies head-of-line blocking as *delay*, complementing
//! Table 2's loss numbers.
//!
//! The (design, traffic) points are one [`damq_bench::grid`]; the run
//! also writes `results/json/markov_queueing.json`.

use damq_bench::cli;
use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{discard_point_json, Json, Report};
use damq_core::BufferKind;
use damq_markov::discard_probability;

const CAPACITY: usize = 4;
const TRAFFICS: [f64; 5] = [0.25, 0.50, 0.75, 0.90, 0.99];

fn main() {
    cli::parse(&[], &[]);
    println!("Queueing delay from the Table-2 chains (2x2 discarding switch, 4 slots)");
    println!("(mean wait of an accepted packet, in long-clock cycles; Little's law)");
    println!();

    let mut report = Report::new("markov_queueing");
    let points = Grid::product([
        Axis::new("buffer", BufferKind::ALL.map(BufferKind::name)),
        Axis::new("traffic", TRAFFICS),
    ])
    .run(|c| {
        discard_probability(BufferKind::ALL[c[0]], CAPACITY, TRAFFICS[c[1]]).expect("analysis runs")
    });

    report.meta("switch", Json::from("2x2 discarding"));
    report.meta("capacity_slots", Json::from(CAPACITY));
    points.report(&mut report, discard_point_json);

    let mut header: Vec<String> = vec!["Buffer".into()];
    header.extend(TRAFFICS.iter().map(|t| format!("{:.0}%", t * 100.0)));
    let table = points.table(1, &header, |_, at_traffics| {
        let waits = at_traffics.iter().map(|p| p.mean_wait_cycles);
        waits.map(|w| format!("{w:.3}")).collect()
    });
    print!("{table}");
    println!();
    println!("reading: at heavy traffic a FIFO's accepted packets wait several times");
    println!("longer than a DAMQ's -- head-of-line blocking costs latency even when");
    println!("nothing is dropped. (waits below 1 cycle reflect same-cycle cut-through.)");
    report.write_and_announce();
}
