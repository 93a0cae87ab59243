//! End-to-end simulator throughput: network cycles per second on the
//! paper's 64-terminal Omega of 4×4 switches, measured in steady state.
//!
//! This is the perf-trajectory benchmark behind `BENCH_throughput.json`
//! (committed at the workspace root). The headline cell is the hot-spot
//! DAMQ configuration — the workload every swept experiment in this repo
//! leans on — and the remaining cells put it in context: uniform traffic,
//! the FIFO baseline, and the two dispatch strategies for the same
//! simulation (`AnyBuffer` enum dispatch and fully monomorphized
//! `DamqBuffer`).
//!
//! Usage:
//!
//! ```text
//! cargo bench -p damq-bench --bench sim_throughput              # measure + update JSON
//! cargo bench -p damq-bench --bench sim_throughput -- --smoke   # quick CI smoke run
//! cargo bench -p damq-bench --bench sim_throughput -- --rebaseline
//! ```
//!
//! Without flags the run preserves the committed `baseline` section and
//! rewrites `current` plus the per-cell `speedup` ratios; `--rebaseline`
//! promotes the fresh numbers to the new baseline (see
//! `docs/PERFORMANCE.md` for when that is appropriate).

use std::hint::black_box;

use damq_bench::json::Json;
use damq_bench::record::BenchRecord;
use damq_bench::timing::{bench, Stats};
use damq_core::{BufferKind, DamqBuffer, SwitchBuffer};
use damq_net::{NetworkConfig, NetworkSim, TrafficPattern};
use damq_switch::FlowControl;

/// Cycles simulated before timing starts: enough for the hot-spot tree to
/// fill and backpressure to reach the sources (steady-state stepping).
const WARM_UP: u64 = 2_000;

/// The headline configuration: hot-spot traffic against DAMQ buffers at a
/// load well past the hot-spot saturation point, so every cycle exercises
/// backpressure probing, routing and arbitration.
fn hot_spot_config() -> NetworkConfig {
    NetworkConfig::new(64, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .traffic(TrafficPattern::paper_hot_spot())
        .flow_control(FlowControl::Blocking)
        .offered_load(0.5)
        .seed(0xBEEF)
}

fn uniform_config(kind: BufferKind) -> NetworkConfig {
    NetworkConfig::new(64, 4)
        .buffer_kind(kind)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.5)
        .seed(0xBEEF)
}

/// Benchmarks steady-state stepping of `sim`, returning cycles per second
/// (from the min-over-batches estimate, the least noisy one).
fn bench_steps<B, F>(label: &str, config: NetworkConfig, warm_up: u64, build: F) -> f64
where
    B: SwitchBuffer,
    F: FnOnce(NetworkConfig) -> NetworkSim<B>,
{
    let mut sim = build(config);
    sim.run(warm_up);
    let stats: Stats = bench(label, || {
        sim.step();
        black_box(sim.cycle())
    });
    1e9 / stats.min_ns
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let rebaseline = args.iter().any(|a| a == "--rebaseline");

    if smoke {
        // CI smoke: exercise every dispatch path for a handful of cycles
        // and verify they agree, without the multi-second calibration.
        let mut enum_sim = NetworkSim::new(hot_spot_config()).expect("valid config");
        let mut typed_sim =
            NetworkSim::<DamqBuffer>::typed(hot_spot_config()).expect("valid config");
        enum_sim.run(50);
        typed_sim.run(50);
        assert_eq!(
            enum_sim.metrics().delivered(),
            typed_sim.metrics().delivered()
        );
        assert!(enum_sim.metrics().delivered() > 0);
        println!("sim_throughput smoke: both dispatch paths agree after 50 cycles");
        return;
    }

    let record = BenchRecord::open();
    println!("sim_throughput: 64-terminal Omega of 4x4 switches, blocking, smart arbitration");
    println!("(cycles/sec derived from min ns/cycle over {WARM_UP}-cycle warmed sims)");
    println!();

    let mut cells: Vec<(&'static str, f64)> = Vec::new();
    let cps = bench_steps("hotspot_damq", hot_spot_config(), WARM_UP, |c| {
        NetworkSim::new(c).expect("valid config")
    });
    cells.push(("hotspot_damq", cps));
    let cps = bench_steps("hotspot_damq_noskip", hot_spot_config(), WARM_UP, |c| {
        NetworkSim::new(c)
            .expect("valid config")
            .with_idle_skip(false)
    });
    cells.push(("hotspot_damq_noskip", cps));
    let cps = bench_steps::<DamqBuffer, _>("hotspot_damq_typed", hot_spot_config(), WARM_UP, |c| {
        NetworkSim::typed(c).expect("valid config")
    });
    cells.push(("hotspot_damq_typed", cps));
    let cps = bench_steps("uniform_damq", uniform_config(BufferKind::Damq), 500, |c| {
        NetworkSim::new(c).expect("valid config")
    });
    cells.push(("uniform_damq", cps));
    let cps = bench_steps("uniform_fifo", uniform_config(BufferKind::Fifo), 500, |c| {
        NetworkSim::new(c).expect("valid config")
    });
    cells.push(("uniform_fifo", cps));

    println!();
    for (name, cps) in &cells {
        println!("{name:>20}: {cps:>12.0} cycles/sec");
    }

    write_report(record, &cells, rebaseline);
}

fn cells_json(cells: &[(&'static str, f64)]) -> Json {
    Json::obj(cells.iter().map(|&(name, cps)| {
        (
            name,
            Json::obj([
                ("cycles_per_sec", Json::from(cps)),
                ("ns_per_cycle", Json::from(1e9 / cps)),
            ]),
        )
    }))
}

/// Per-cell `current[cell] / reference[cell]` ratios, skipping cells the
/// reference does not carry.
fn speedup_vs(cells: &[(&'static str, f64)], reference: &Json) -> Json {
    Json::obj(cells.iter().filter_map(|&(name, cps)| {
        let base = reference
            .get(name)
            .and_then(|cell| cell.get("cycles_per_sec"))
            .and_then(Json::as_f64)?;
        (base > 0.0).then(|| (name, Json::from(cps / base)))
    }))
}

/// Rewrites this harness's sections of `BENCH_throughput.json`:
/// `current` always reflects this run; `baseline` is preserved from the
/// existing file unless `--rebaseline` (or no file exists yet). Per-cell
/// `speedup` is current/baseline.
fn write_report(mut record: BenchRecord, cells: &[(&'static str, f64)], rebaseline: bool) {
    let current = cells_json(cells);
    let baseline = if rebaseline {
        None
    } else {
        record.get("baseline").cloned()
    };
    let baseline = baseline.unwrap_or_else(|| current.clone());
    let speedup = speedup_vs(cells, &baseline);
    let own_sections: Vec<(&str, Json)> = vec![
        ("bench", Json::from("sim_throughput")),
        (
            "network",
            Json::from("64-terminal Omega of 4x4 switches, blocking, smart arbitration"),
        ),
        ("headline", Json::from("hotspot_damq")),
        ("warm_up_cycles", Json::from(WARM_UP)),
        ("baseline", baseline),
        ("current", current),
        ("speedup", speedup),
    ];
    for (key, value) in own_sections {
        record.set(key, value);
    }
    if let Err(problem) = record.save() {
        eprintln!("error: {problem}");
        std::process::exit(1);
    }

    let headline = record
        .get("speedup")
        .and_then(|s| s.get("hotspot_damq"))
        .and_then(Json::as_f64)
        .unwrap_or(1.0);
    println!();
    println!("headline speedup vs baseline (hotspot_damq): {headline:.2}x");
}
