//! **Methodology check**: how stable are the headline numbers across
//! random seeds?
//!
//! The paper reports single simulation runs. This harness re-runs the
//! Table-4 headline configuration (saturation throughput, FIFO vs DAMQ)
//! over several independent seeds and reports mean ± sample standard
//! deviation (the JSON report adds the 95% confidence interval), so
//! EXPERIMENTS.md can state the noise floor honestly.
//!
//! The (seed, design) samples are one [`damq_bench::grid`], reduced per
//! design with [`Aggregate`]. The run also writes
//! `results/json/seed_stability.json`.

use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{aggregates_json, Json, Report};
use damq_bench::sweep::Aggregate;
use damq_bench::{cli, render_table};
use damq_core::BufferKind;
use damq_net::{find_saturation, measure, NetworkConfig, SaturationOptions};
use damq_switch::FlowControl;

const SEEDS: [u64; 5] = [11, 727, 5_309, 90_210, 424_242];
const KINDS: [BufferKind; 2] = [BufferKind::Fifo, BufferKind::Damq];

fn main() {
    cli::parse(&[], &[]);
    println!(
        "Seed stability of the headline results ({} seeds)",
        SEEDS.len()
    );
    println!("(64x64 Omega, blocking, uniform traffic, 4 slots per buffer)");
    println!();

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking);
    let mut report = Report::new("seed_stability");

    // Each cell: (saturation throughput, latency at 0.40 load) for one
    // (seed, design) pair. The pinned seeds themselves are the experiment —
    // no coordinate-derived seeding here.
    let samples = Grid::product([
        Axis::new("seed", SEEDS),
        Axis::new("buffer", KINDS.map(BufferKind::name)),
    ])
    .run(|c| {
        let cfg = base.buffer_kind(KINDS[c[1]]).seed(SEEDS[c[0]]);
        let sat = find_saturation(cfg, SaturationOptions::default()).expect("search runs");
        let m = measure(cfg.offered_load(0.40), 800, 6_000).expect("sim runs");
        (sat.throughput, m.latency_clocks)
    });

    // Per design, the samples across seeds and their aggregate.
    let across_seeds = |metric: fn(&(f64, f64)) -> f64| {
        [0, 1].map(|k| {
            let across: Vec<f64> = (0..SEEDS.len())
                .map(|s| metric(samples.at(&[s, k])))
                .collect();
            Aggregate::from_samples(&across)
        })
    };
    let sat_agg = across_seeds(|&(sat, _)| sat);
    let lat_agg = across_seeds(|&(_, lat)| lat);

    report.meta("network", Json::from("64x64 Omega, blocking, uniform"));
    report.meta("slots_per_buffer", Json::from(4usize));
    report.meta(
        "seeds",
        Json::from(SEEDS.iter().map(|&s| Json::from(s)).collect::<Vec<_>>()),
    );
    // The committed cells list the buffer before the seed, while the grid
    // enumerates seeds outermost: label them by hand.
    for (c, &(sat, lat)) in samples.iter() {
        report.push_cell(Json::cell(
            [
                ("buffer", Json::from(KINDS[c[1]].name())),
                ("seed", Json::from(SEEDS[c[0]])),
            ],
            Json::obj([
                ("saturation_throughput", Json::from(sat)),
                ("latency_at_040_clocks", Json::from(lat)),
            ]),
        ));
    }
    for (k, kind) in KINDS.iter().enumerate() {
        report.push_cell(Json::cell(
            [
                ("buffer", Json::from(kind.name())),
                ("aggregate", Json::from(true)),
            ],
            aggregates_json(&[
                ("saturation_throughput", sat_agg[k]),
                ("latency_at_040_clocks", lat_agg[k]),
            ]),
        ));
    }

    let header = ["Metric", "FIFO", "DAMQ", "DAMQ/FIFO"];
    let [fifo, damq] = sat_agg;
    let saturation = vec![
        "saturation thr".into(),
        format!("{:.3} ± {:.3}", fifo.mean, fifo.stddev),
        format!("{:.3} ± {:.3}", damq.mean, damq.stddev),
        format!("{:.2}x", damq.mean / fifo.mean),
    ];
    let [fifo, damq] = lat_agg;
    let latency = vec![
        "latency @0.40".into(),
        format!("{:.1} ± {:.1}", fifo.mean, fifo.stddev),
        format!("{:.1} ± {:.1}", damq.mean, damq.stddev),
        format!("{:.2}x", fifo.mean / damq.mean),
    ];
    print!("{}", render_table(&header, &[saturation, latency]));
    println!();
    println!(
        "95% CI half-widths: saturation ±{:.3} (FIFO) / ±{:.3} (DAMQ);",
        sat_agg[0].ci95, sat_agg[1].ci95
    );
    println!(
        "latency ±{:.1} / ±{:.1} clocks. the paper's headline (DAMQ saturates",
        lat_agg[0].ci95, lat_agg[1].ci95
    );
    println!("~40% above FIFO) is far outside the seed noise; per-seed saturation");
    println!("varies by about the bisection resolution (0.01).");
    report.write_and_announce();
}
