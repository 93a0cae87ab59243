//! Regenerates **Figure 3** of the paper: latency versus throughput for
//! FIFO and DAMQ buffers with four slots under uniform traffic.
//!
//! Prints the two curves as aligned series plus an ASCII plot: flat and
//! nearly identical at low loads, with FIFO turning vertical around 0.5 and
//! DAMQ around 0.7.
//!
//! The (design, load) [`damq_bench::grid`] seeds each cell from its
//! coordinates. The run also writes `results/json/figure3.json`.

use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{measurement_json, Json, Report};
use damq_bench::{cli, render_table};
use damq_core::BufferKind;
use damq_net::NetworkConfig;
use damq_switch::FlowControl;

const WARM_UP: u64 = 1_000;
const WINDOW: u64 = 8_000;
const KINDS: [BufferKind; 2] = [BufferKind::Fifo, BufferKind::Damq];

fn main() {
    cli::parse(&[], &[]);
    println!("Figure 3: FIFO and DAMQ buffers with four slots, uniform traffic");
    println!("(64x64 Omega, blocking, smart arbitration; latency in clock cycles)");
    println!();

    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking);

    let loads: Vec<f64> = (1..=14).map(|i| i as f64 * 0.05).collect();

    let measured = Grid::product([
        Axis::new("buffer", KINDS.map(BufferKind::name)),
        Axis::new("offered_load", loads.iter().copied()),
    ])
    .measure(WARM_UP, WINDOW, |c| {
        base.buffer_kind(KINDS[c[0]]).offered_load(loads[c[1]])
    });

    let mut report = Report::new("figure3");
    report.meta("network", Json::from("64x64 Omega, blocking, uniform"));
    report.meta("slots_per_buffer", Json::from(4usize));
    report.meta("warm_up_cycles", Json::from(WARM_UP));
    report.meta("window_cycles", Json::from(WINDOW));
    measured.report(&mut report, measurement_json);

    // One (delivered throughput, latency) curve per design.
    let curves: Vec<(BufferKind, Vec<(f64, f64)>)> = measured
        .rows(1)
        .into_iter()
        .map(|(k, at_loads)| {
            let curve = at_loads
                .iter()
                .map(|m| (m.delivered, m.network_latency_clocks));
            (KINDS[k[0]], curve.collect())
        })
        .collect();

    let mut rows = Vec::new();
    for (i, &load) in loads.iter().enumerate() {
        rows.push(vec![
            format!("{load:.2}"),
            format!("{:.3}", curves[0].1[i].0),
            format!("{:.1}", curves[0].1[i].1),
            format!("{:.3}", curves[1].1[i].0),
            format!("{:.1}", curves[1].1[i].1),
        ]);
    }
    print!(
        "{}",
        render_table(
            &["offered", "FIFO thr", "FIFO lat", "DAMQ thr", "DAMQ lat"],
            &rows,
        )
    );

    println!();
    println!("{}", ascii_plot(&curves, 60, 20));
    report.write_and_announce();
}

/// Renders latency-vs-throughput curves as a crude ASCII scatter plot.
fn ascii_plot(curves: &[(BufferKind, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    let max_lat = curves
        .iter()
        .flat_map(|(_, c)| c.iter().map(|&(_, l)| l))
        .fold(0.0_f64, f64::max)
        .max(1.0);
    let max_thr = 0.8;
    let mut grid = vec![vec![' '; width + 1]; height + 1];
    for (ki, (_, curve)) in curves.iter().enumerate() {
        let mark = if ki == 0 { 'F' } else { 'D' };
        for &(thr, lat) in curve {
            let x = ((thr / max_thr) * width as f64).round() as usize;
            let y = ((lat / max_lat) * height as f64).round() as usize;
            if x <= width && y <= height {
                grid[height - y][x] = mark;
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "latency (max {max_lat:.0} clk) vs delivered throughput (0..{max_thr}); F=FIFO D=DAMQ\n"
    ));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width + 1));
    out.push('\n');
    out
}
