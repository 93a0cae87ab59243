//! **Extension**: bursty sources.
//!
//! The paper's traffic is Bernoulli — every cycle independent. Real
//! processors emit *bursts* (cache-line sequences, message trains). Since
//! saturation throughput is a mean-rate property, burstiness shows up not
//! at the knee but in the **latency distribution**: this harness keeps the
//! mean load fixed and clumps it into dense on/off bursts (12-cycle
//! bursts, 30% duty — 3.3× the mean rate while ON), then compares means
//! and p99 tails across the designs.
//!
//! The (design, arrival process, load) [`damq_bench::grid`] seeds each
//! cell from its coordinates. The run also writes
//! `results/json/burstiness.json`.

use damq_bench::cli;
use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{measurement_json, Json, Report};
use damq_core::BufferKind;
use damq_net::{ArrivalProcess, NetworkConfig};
use damq_switch::FlowControl;

const ARRIVALS: [(&str, ArrivalProcess); 2] = [
    ("smooth", ArrivalProcess::Bernoulli),
    (
        "bursty",
        ArrivalProcess::OnOff {
            mean_burst: 12.0,
            duty: 0.3,
        },
    ),
];
const LOADS: [f64; 3] = [0.10, 0.20, 0.28];

fn main() {
    cli::parse(&[], &[]);
    println!("Bursty sources: same mean load, clumped into on/off bursts");
    println!("(64x64 Omega, blocking, 4 slots; bursty = 12-cycle bursts at 30% duty)");
    println!();

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking);
    let mut report = Report::new("burstiness");
    let measured = Grid::product([
        Axis::new("buffer", BufferKind::ALL.map(BufferKind::name)),
        Axis::new("arrivals", ARRIVALS.map(|(label, _)| label)),
        Axis::new("offered_load", LOADS),
    ])
    .measure(1_000, 10_000, |c| {
        base.buffer_kind(BufferKind::ALL[c[0]])
            .arrival_process(ARRIVALS[c[1]].1)
            .offered_load(LOADS[c[2]])
    });

    report.meta("network", Json::from("64x64 Omega, blocking, uniform"));
    report.meta("slots_per_buffer", Json::from(4usize));
    report.meta("bursty_mean_burst", Json::from(12.0));
    report.meta("bursty_duty", Json::from(0.3));
    measured.report(&mut report, measurement_json);

    let mut header: Vec<String> = vec!["Buffer".into(), "arrivals".into()];
    for load in LOADS {
        header.push(format!("lat@{load:.2}"));
        header.push(format!("p99@{load:.2}"));
    }
    let table = measured.table(2, &header, |_, at_loads| {
        let columns = at_loads.iter().flat_map(|m| {
            [
                format!("{:.1}", m.latency_clocks),
                format!("{:.0}", m.latency_p99_clocks),
            ]
        });
        columns.collect()
    });
    print!("{table}");
    println!();
    // p99 at the heaviest load, by (design, arrival process); FIFO and
    // DAMQ are the ends of `BufferKind::ALL`.
    let p99 = |kind: usize, arrivals: usize| measured.at(&[kind, arrivals, 2]).latency_p99_clocks;
    let (fifo, damq) = (0, 3);
    println!("at 0.28 mean load (93% of what 30%-duty sources can sustain), bursts push");
    println!(
        "FIFO's p99 from {:.0} to {:.0} clocks; DAMQ's from {:.0} to {:.0} -- the shared",
        p99(fifo, 0),
        p99(fifo, 1),
        p99(damq, 0),
        p99(damq, 1),
    );
    println!("pool absorbs a burst aimed at one output without freezing the rest, so");
    println!("DAMQ's tail grows least. (saturation throughput itself is a mean-rate");
    println!("property and barely moves; the tail is where burstiness bites.)");
    report.write_and_announce();
}
