//! **Ablation**: how much does *smart* arbitration matter?
//!
//! The paper compares dumb and smart arbitration only for discarding
//! switches at one load (Table 3), finding "not significantly different".
//! This harness sweeps both policies across all designs and both
//! protocols, including the saturation point, to map where the choice
//! matters at all.
//!
//! The two (design, policy) [`damq_bench::grid`]s — blocking latency +
//! saturation, then discarding loss — seed each cell from its coordinates
//! behind a per-protocol prefix. The run also writes
//! `results/json/ablation_arbitration.json`.

use damq_bench::cli;
use damq_bench::grid::{Axis, Cell, Grid};
use damq_bench::json::{measurement_json, saturation_json, Json, Report};
use damq_core::BufferKind;
use damq_net::{find_saturation, measure, NetworkConfig, SaturationOptions};
use damq_switch::{ArbiterPolicy, FlowControl};

const POLICIES: [ArbiterPolicy; 2] = [ArbiterPolicy::Dumb, ArbiterPolicy::Smart];

fn main() {
    cli::parse(&[], &[]);
    println!("Ablation: dumb vs smart crossbar arbitration");
    println!("(64x64 Omega, 4 slots per buffer, uniform traffic)");
    println!();

    let base = NetworkConfig::new(64, 4).slots_per_buffer(4);
    let mut report = Report::new("ablation_arbitration");
    let designs = || {
        Grid::product([
            Axis::new("buffer", BufferKind::ALL.map(BufferKind::name)),
            Axis::new("arbiter", POLICIES.map(ArbiterPolicy::name)),
        ])
    };

    let design = |c: &Cell| {
        base.buffer_kind(BufferKind::ALL[c[0]])
            .arbiter_policy(POLICIES[c[1]])
    };

    // Blocking protocol: latency at 0.45 load + saturation throughput.
    let blocking = designs()
        .seed_prefix(0)
        .tag("flow_control", "Blocking")
        .run(|c| {
            let cfg = design(c).flow_control(FlowControl::Blocking).seed(c.seed());
            let m = measure(cfg.offered_load(0.45), 1_000, 8_000).expect("sim runs");
            let sat = find_saturation(cfg, SaturationOptions::default()).expect("search runs");
            (m, sat)
        });
    // Discarding protocol: loss at 0.50 load.
    let discarding = designs()
        .seed_prefix(1)
        .tag("flow_control", "Discarding")
        .measure(1_000, 8_000, |c| {
            design(c)
                .flow_control(FlowControl::Discarding)
                .offered_load(0.50)
        });

    report.meta("network", Json::from("64x64 Omega, uniform"));
    report.meta("slots_per_buffer", Json::from(4usize));
    for (cell, (m, sat)) in blocking.iter() {
        let labels = blocking.grid().labels(cell);
        report.push_cell(Json::cell(labels.clone(), measurement_json(m)));
        let search = [("saturation_search", Json::from(true))];
        report.push_cell(Json::cell(
            labels.into_iter().chain(search),
            saturation_json(sat),
        ));
    }
    discarding.report(&mut report, measurement_json);

    println!("-- blocking protocol: latency at 0.45 load / saturation throughput --");
    let header = [
        "Buffer",
        "dumb lat@.45",
        "smart lat@.45",
        "dumb sat",
        "smart sat",
    ];
    let table = blocking.table(1, &header, |_, by_policy| {
        let ((dumb_m, dumb_sat), (smart_m, smart_sat)) = (&by_policy[0], &by_policy[1]);
        vec![
            format!("{:.1}", dumb_m.latency_clocks),
            format!("{:.1}", smart_m.latency_clocks),
            format!("{:.2}", dumb_sat.throughput),
            format!("{:.2}", smart_sat.throughput),
        ]
    });
    print!("{table}");

    println!();
    println!("-- discarding protocol: % discarded at 0.50 load --");
    let header = ["Buffer", "dumb %disc", "smart %disc"];
    let table = discarding.table(1, &header, |_, by_policy| {
        let percents = by_policy.iter().map(|m| m.discard_fraction * 100.0);
        percents.map(|p| format!("{p:.2}")).collect()
    });
    print!("{table}");
    println!();
    println!("the paper's Table 3 finding (arbitration policy barely matters) should");
    println!("hold across the board; stale counts mostly protect worst-case fairness.");
    report.write_and_announce();
}
