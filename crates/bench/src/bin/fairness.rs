//! **Extension**: what do stale counts actually buy? Fairness.
//!
//! The paper motivates *smart* arbitration as fairness machinery ("to
//! maintain fairness within the buffers") but only reports mean
//! performance, where dumb and smart are indistinguishable (Table 3).
//! Fairness lives in the *distribution*: this harness measures, per
//! source, the mean delivery latency, and reports the spread (max − min
//! of per-source means) and the p99 tail — where round-robin bookkeeping
//! should show up.
//!
//! The (design, policy) [`damq_bench::grid`] seeds each cell from its
//! coordinates. The run also writes `results/json/fairness.json`.

use damq_bench::cli;
use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{Json, Report};
use damq_core::BufferKind;
use damq_net::{NetworkConfig, NetworkSim};
use damq_switch::{ArbiterPolicy, FlowControl};

const WARM_UP: u64 = 1_000;
const WINDOW: u64 = 15_000;

/// The fairness metrics of one (design, policy) cell.
struct FairnessPoint {
    mean_latency: f64,
    p99_latency: f64,
    source_spread: f64,
}

fn main() {
    cli::parse(&[], &[]);
    println!("Fairness under load: dumb vs smart arbitration");
    println!("(64x64 Omega, blocking, uniform traffic, 4 slots per buffer, load 0.45)");
    println!();

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.45);
    let mut report = Report::new("fairness");
    let points = Grid::product([
        Axis::new("buffer", BufferKind::ALL.map(BufferKind::name)),
        Axis::new("arbiter", ArbiterPolicy::ALL.map(ArbiterPolicy::name)),
    ])
    .run(|c| {
        let config = base
            .buffer_kind(BufferKind::ALL[c[0]])
            .arbiter_policy(ArbiterPolicy::ALL[c[1]]);
        let mut sim = NetworkSim::new(config.seed(c.seed())).expect("valid config");
        sim.warm_up(WARM_UP);
        sim.run(WINDOW);
        let m = sim.metrics();
        FairnessPoint {
            mean_latency: m.mean_latency_clocks(),
            p99_latency: m.latency_percentile_clocks(0.99),
            source_spread: m.source_latency_spread_clocks(),
        }
    });

    report.meta("network", Json::from("64x64 Omega, blocking, uniform"));
    report.meta("slots_per_buffer", Json::from(4usize));
    report.meta("offered_load", Json::from(0.45));
    report.meta("warm_up_cycles", Json::from(WARM_UP));
    report.meta("window_cycles", Json::from(WINDOW));
    points.report(&mut report, |point| {
        Json::obj([
            ("mean_latency_clocks", Json::from(point.mean_latency)),
            ("latency_p99_clocks", Json::from(point.p99_latency)),
            (
                "source_latency_spread_clocks",
                Json::from(point.source_spread),
            ),
        ])
    });

    let header = ["Buffer", "policy", "mean lat", "p99 lat", "src spread"];
    let table = points.table(2, &header, |_, point| {
        vec![
            format!("{:.1}", point[0].mean_latency),
            format!("{:.0}", point[0].p99_latency),
            format!("{:.1}", point[0].source_spread),
        ]
    });
    print!("{table}");
    println!();
    println!("'src spread' = difference between the luckiest and unluckiest source's");
    println!("mean latency (clock cycles). Means barely move between policies (the");
    println!("paper's finding); the spread and tail are where arbitration fairness");
    println!("matters, and where the stale counts earn their silicon.");
    report.write_and_announce();
}
