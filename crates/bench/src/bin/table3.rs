//! Regenerates **Table 3** of the paper: discarding switches, percentage of
//! packets discarded for a given input throughput, uniform traffic, four
//! slots per buffer.
//!
//! The paper's "over capacity" column uses an unspecified offered load well
//! past saturation; we use 0.75, which reproduces the reported output
//! throughputs' regime (see EXPERIMENTS.md).
//!
//! The (design, column) [`damq_bench::grid`] seeds each cell from its
//! coordinates; the run also writes `results/json/table3.json`.

use damq_bench::cli;
use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{measurement_json, Json, Report};
use damq_core::BufferKind;
use damq_net::{NetworkConfig, TrafficPattern};
use damq_switch::{ArbiterPolicy, FlowControl};

const WARM_UP: u64 = 1_000;
const WINDOW: u64 = 10_000;
const OVER_CAPACITY_LOAD: f64 = 0.75;
/// Column order of the paper's table: smart arbiter at two loads, the
/// over-capacity point, then the dumb arbiter at half load.
const VARIANTS: [(f64, ArbiterPolicy); 4] = [
    (0.25, ArbiterPolicy::Smart),
    (0.50, ArbiterPolicy::Smart),
    (OVER_CAPACITY_LOAD, ArbiterPolicy::Smart),
    (0.50, ArbiterPolicy::Dumb),
];

fn pct(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x < 0.005 {
        "0+".into()
    } else {
        format!("{:.2}", x * 100.0)
    }
}

fn main() {
    cli::parse(&[], &[]);
    println!("Table 3: Discarding switches, % packets discarded for given input throughput");
    println!("(64x64 Omega, 4x4 switches, uniform traffic, 4 slots per buffer;");
    println!(" over-capacity column at offered load {OVER_CAPACITY_LOAD})");
    println!();

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Discarding)
        .traffic(TrafficPattern::Uniform);
    let mut report = Report::new("table3");

    let variants = Axis::compound(VARIANTS.map(|(load, policy)| {
        vec![
            ("offered_load", Json::from(load)),
            ("arbiter", Json::from(format!("{policy:?}"))),
        ]
    }));
    let buffers = Axis::new("buffer", BufferKind::ALL.map(BufferKind::name));
    let measured = Grid::product([buffers, variants]).measure(WARM_UP, WINDOW, |c| {
        let (load, policy) = VARIANTS[c[1]];
        base.buffer_kind(BufferKind::ALL[c[0]])
            .arbiter_policy(policy)
            .offered_load(load)
    });

    report.meta("network", Json::from("64x64 Omega, 4x4 switches"));
    report.meta("slots_per_buffer", Json::from(4usize));
    report.meta("flow_control", Json::from("Discarding"));
    report.meta("warm_up_cycles", Json::from(WARM_UP));
    report.meta("window_cycles", Json::from(WINDOW));
    measured.report(&mut report, measurement_json);

    let header = [
        "Buffer",
        "smart 0.25",
        "smart 0.50",
        "over-cap %disc",
        "over-cap thr",
        "dumb 0.50",
    ];
    let table = measured.table(1, &header, |_, m| {
        let (s25, s50, over, d50) = (&m[0], &m[1], &m[2], &m[3]);
        vec![
            pct(s25.discard_fraction),
            pct(s50.discard_fraction),
            pct(over.discard_fraction),
            format!("{:.2}", over.delivered),
            pct(d50.discard_fraction),
        ]
    });
    print!("{table}");
    report.write_and_announce();
}
