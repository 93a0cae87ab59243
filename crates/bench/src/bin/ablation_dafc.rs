//! **Ablation** (beyond the paper): which of DAMQ's two mechanisms buys
//! the performance — dynamic storage allocation, or multi-queue service?
//!
//! The paper observes (§4.1) that SAFC barely beats SAMQ, i.e. adding read
//! bandwidth to *static* buffers is nearly worthless. This harness
//! completes the design matrix with DAFC (dynamic storage + fully
//! connected) on both evaluation vehicles:
//!
//! | | single read port | read port per output |
//! |---|---|---|
//! | static | SAMQ | SAFC |
//! | dynamic | DAMQ | DAFC |
//!
//! The Markov grid and the saturation searches are
//! [`damq_bench::grid`]s; simulation cells are seeded from their
//! coordinates. The run also writes `results/json/ablation_dafc.json`.

use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{discard_point_json, saturation_json, Json, Report};
use damq_bench::{cli, fmt_prob};
use damq_core::BufferKind;
use damq_markov::discard_probability;
use damq_net::NetworkConfig;
use damq_switch::FlowControl;

/// Static then dynamic allocation; within each, single then full read
/// connectivity.
const KINDS: [BufferKind; 4] = [
    BufferKind::Samq,
    BufferKind::Safc,
    BufferKind::Damq,
    BufferKind::Dafc,
];
const TRAFFICS: [f64; 4] = [0.50, 0.75, 0.90, 0.99];

fn main() {
    cli::parse(&[], &[]);
    println!("Ablation: allocation policy vs read connectivity");
    println!();

    let mut report = Report::new("ablation_dafc");
    let buffers = Axis::new("buffer", KINDS.map(BufferKind::name));
    let points = Grid::product([buffers.clone(), Axis::new("traffic", TRAFFICS)])
        .tag("vehicle", "markov")
        .run(|c| discard_probability(KINDS[c[0]], 4, TRAFFICS[c[1]]).expect("analysis runs"));

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking);
    let saturated = Grid::product([buffers])
        .tag("vehicle", "simulation")
        .saturate(|c| base.buffer_kind(KINDS[c[0]]));

    report.meta("markov_switch", Json::from("2x2 discarding, 4 slots"));
    report.meta("network", Json::from("64x64 Omega, blocking, 4 slots"));
    points.report(&mut report, discard_point_json);
    saturated.report(&mut report, saturation_json);

    println!("-- Markov discard probability, 2x2 discarding switch, 4 slots --");
    let mut header: Vec<String> = vec!["Buffer".into()];
    header.extend(TRAFFICS.iter().map(|t| format!("{:.0}%", t * 100.0)));
    let table = points.table(1, &header, |_, at_traffics| {
        let columns = at_traffics.iter().map(|p| fmt_prob(p.discard_probability));
        columns.collect()
    });
    print!("{table}");

    println!();
    println!("-- Omega 64x64 saturation throughput, blocking, 4 slots --");
    let table = saturated.table(1, &["Buffer", "sat. thr"], |_, sat| {
        vec![format!("{:.2}", sat[0].throughput)]
    });
    print!("{table}");

    println!();
    let [samq, safc, damq, dafc] = [0, 1, 2, 3].map(|k| saturated.at(&[k]).throughput);
    let (static_gain, dynamic_gain, allocation_gain) = (safc - samq, dafc - damq, damq - samq);
    println!("full connectivity adds {static_gain:+.2} on static buffers (SAMQ->SAFC)");
    println!("full connectivity adds {dynamic_gain:+.2} on dynamic buffers (DAMQ->DAFC)");
    println!("dynamic allocation alone adds {allocation_gain:+.2} (SAMQ->DAMQ)");
    println!();
    println!("conclusion: the allocation policy, not the read fabric, is what matters --");
    println!("which is why the paper's single-read-port DAMQ is the sweet spot in silicon.");
    report.write_and_announce();
}
