//! **Extension**: the paper's RP3 recommendation, quantified.
//!
//! Table 6 shows a 5% hot spot tree-saturating every buffer design at
//! ~0.24, and the paper concludes: "These results reinforce the decision
//! of the designers of the RP3 multiprocessor to use two separate
//! networks ... In a system such as this, the hot spot traffic would not
//! interfere with the uniform memory accesses, so significant performance
//! gains would be made by using the DAMQ buffer instead of the FIFO in the
//! general traffic network."
//!
//! This harness measures that claim: per-source sustainable load with one
//! combined network (hot + uniform together) versus a dual-network system
//! where the 5% hot traffic is diverted to a dedicated combining network
//! (modelled as simply *absent* from the general network, as in RP3 —
//! the combining network itself is out of scope here and in the paper).
//!
//! The (design, traffic) [`damq_bench::grid`] seeds each cell from its
//! coordinates. The run also writes `results/json/dual_network.json`.

use damq_bench::cli;
use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{saturation_json, Json, Report};
use damq_core::BufferKind;
use damq_net::{NetworkConfig, TrafficPattern};
use damq_switch::FlowControl;

fn main() {
    cli::parse(&[], &[]);
    println!("Single network with a hot spot vs RP3-style dual networks");
    println!("(64x64 Omega, blocking, smart arbitration, 4 slots per buffer)");
    println!();

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking);

    // Per design: the combined network (5% hot spot) and the dual system's
    // general network (uniform only — the hot 5% rides the combining net).
    let traffics = [
        ("combined_hot_spot", TrafficPattern::paper_hot_spot()),
        ("dual_general_uniform", TrafficPattern::Uniform),
    ];
    let mut report = Report::new("dual_network");
    let saturated = Grid::product([
        Axis::new("buffer", BufferKind::ALL.map(BufferKind::name)),
        Axis::new("traffic", traffics.map(|(label, _)| label)),
    ])
    .saturate(|c| {
        base.buffer_kind(BufferKind::ALL[c[0]])
            .traffic(traffics[c[1]].1)
    });

    report.meta("network", Json::from("64x64 Omega, blocking"));
    report.meta("slots_per_buffer", Json::from(4usize));
    saturated.report(&mut report, saturation_json);

    let header = [
        "Buffer",
        "combined sat",
        "dual: general sat",
        "dual total/src",
        "gain",
    ];
    let table = saturated.table(1, &header, |_, by_traffic| {
        let combined = by_traffic[0].throughput;
        // Dual networks: the general network sees only the 95% uniform
        // share, so a per-source total load L puts 0.95*L on it. It
        // saturates when 0.95*L = sat_uniform.
        let general = by_traffic[1].throughput;
        let dual_total = general / 0.95;
        vec![
            format!("{combined:.2}"),
            format!("{general:.2}"),
            format!("{dual_total:.2}"),
            format!("{:.1}x", dual_total / combined),
        ]
    });
    print!("{table}");
    println!();
    println!("with one network, the hot spot caps every design at ~0.24 and the buffer");
    println!("choice is irrelevant. divert the hot 5% to a combining network and the");
    println!("general network is uniform again -- where DAMQ's saturation advantage");
    println!("over FIFO returns in full, exactly the paper's closing argument.");
    report.write_and_announce();
}
