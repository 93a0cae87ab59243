//! Renders a text dashboard from a telemetry JSONL trace.
//!
//! Usage:
//!
//! ```text
//! trace_report <trace.jsonl>       # render (generates the trace first if missing)
//! trace_report --generate <path>   # force regeneration, then render
//! ```
//!
//! When the trace file does not exist the harness produces the canonical
//! one: the paper's 64×64 Omega network under a 5% hot spot at offered
//! load 0.30, 500 cycles, once for each of the five buffer designs
//! (FIFO, SAMQ, SAFC, DAMQ, DAFC). Runs are concatenated in one JSONL
//! file, each introduced by its `run_meta` line.
//!
//! The dashboard shows, per design: packet conservation counters,
//! per-stage occupancy and link-utilisation sparklines, the HOL-blocking
//! and discard timelines, the source-backlog curve, the buffer-occupancy
//! histogram, and the per-hop latency breakdown (whose stage means sum to
//! the mean network latency — the tentpole's one-trace-tells-all check).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use damq_bench::sweep;
use damq_core::BufferKind;
use damq_net::{NetworkConfig, NetworkSim, TrafficPattern};
use damq_switch::FlowControl;
use damq_telemetry::{sparkline, Event, JsonlSink, TraceSummary};

const CYCLES: u64 = 500;
const LOAD: f64 = 0.30;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (path, force) = match args.as_slice() {
        [p] if *p != "--generate" => (PathBuf::from(p), false),
        ["--generate"] => (default_trace_path(), true),
        ["--generate", p] => (PathBuf::from(p), true),
        [] => (default_trace_path(), false),
        _ => {
            eprintln!("usage: trace_report [--generate] [trace.jsonl]");
            return ExitCode::FAILURE;
        }
    };

    if force || !path.exists() {
        eprintln!(
            "generating 64x64 hot-spot trace ({} designs x {CYCLES} cycles) -> {}",
            BufferKind::EXTENDED.len(),
            path.display()
        );
        if let Err(e) = generate(&path) {
            eprintln!("error: could not generate trace: {e}");
            return ExitCode::FAILURE;
        }
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: could not read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    // Tolerate a torn tail (a writer killed mid-append leaves one
    // malformed final line): render the intact prefix and warn. Mid-file
    // corruption is still a hard error.
    let events = match Event::parse_trace_tolerant(&text) {
        Ok((events, None)) => events,
        Ok((events, Some(torn))) => {
            eprintln!(
                "warning: {}: dropped torn trailing line ({torn})",
                path.display()
            );
            events
        }
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if events.is_empty() {
        eprintln!("error: {} holds no events", path.display());
        return ExitCode::FAILURE;
    }

    println!("trace report: {} ({} events)", path.display(), events.len());
    for run in split_runs(&events) {
        let mut summary = TraceSummary::new();
        for event in run {
            summary.feed(event);
        }
        summary.finish();
        render(&summary);
    }
    ExitCode::SUCCESS
}

/// `traces/hot_spot_64x64.jsonl` under the results directory.
fn default_trace_path() -> PathBuf {
    damq_bench::results_dir()
        .join("traces")
        .join("hot_spot_64x64.jsonl")
}

/// Runs the canonical hot-spot experiment once per buffer design,
/// streaming all five traces into one JSONL file.
fn generate(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut writer = BufWriter::new(File::create(path)?);
    for (i, &kind) in BufferKind::EXTENDED.iter().enumerate() {
        let config = NetworkConfig::new(64, 4)
            .buffer_kind(kind)
            .slots_per_buffer(4)
            .flow_control(FlowControl::Blocking)
            .traffic(TrafficPattern::paper_hot_spot())
            .offered_load(LOAD)
            .seed(sweep::cell_seed(sweep::BASE_SEED, &[i as u64]));
        let mut sim = NetworkSim::with_sink(config, JsonlSink::new(&mut writer))
            .expect("the paper's 64x64 Omega configuration is valid");
        sim.emit_run_meta("64x64 Omega, 5% hot spot, load 0.30, blocking");
        sim.run(CYCLES);
        sim.into_sink().into_inner()?;
    }
    writer.flush()
}

/// Splits a concatenated trace at its `run_meta` lines. Events before the
/// first `run_meta` (if any) form their own anonymous run.
fn split_runs(events: &[Event]) -> Vec<&[Event]> {
    let mut starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind.type_tag() == "run_meta")
        .map(|(i, _)| i)
        .collect();
    if starts.first() != Some(&0) {
        starts.insert(0, 0);
    }
    starts
        .iter()
        .zip(starts.iter().skip(1).chain(std::iter::once(&events.len())))
        .map(|(&from, &to)| &events[from..to])
        .collect()
}

/// Prints one design's dashboard section.
fn render(summary: &TraceSummary) {
    println!();
    match &summary.meta {
        Some(meta) => println!(
            "== {} ({} terminals, radix {}, {} stages, {} slots/buffer) — {} ==",
            meta.design, meta.terminals, meta.radix, meta.stages, meta.slots, meta.note
        ),
        None => println!("== (run without run_meta) =="),
    }
    println!(
        "  packets   generated {} / injected {} / delivered {} / discarded {} entry + {} network",
        summary.generated,
        summary.injected,
        summary.delivered,
        summary.entry_discards,
        summary.network_discards
    );

    println!(
        "  occupancy per stage (mean slots per switch; {} cycles)",
        summary.last_cycle
    );
    for (stage, series) in summary.stage_occupancy.iter().enumerate() {
        println!(
            "    stage {stage} |{}| peak {:.0}",
            sparkline(&series.means()),
            series.peak()
        );
    }
    println!("  link utilisation per stage (packets forwarded / cycle)");
    for (stage, series) in summary.stage_forwarded.iter().enumerate() {
        println!(
            "    stage {stage} |{}| peak {:.0}",
            sparkline(&series.means()),
            series.peak()
        );
    }

    println!(
        "  HOL blocked |{}| {} packet-cycles total",
        sparkline(&summary.hol_series.means()),
        summary.hol_blocked_cycles
    );
    println!(
        "  discards    |{}| {} packets total",
        sparkline(&summary.discard_series.means()),
        summary.entry_discards + summary.network_discards
    );
    println!(
        "  src backlog |{}| peak {:.0} packets",
        sparkline(&summary.backlog_series.means()),
        summary.backlog_series.peak()
    );

    let hist = &summary.buffer_occupancy;
    if hist.count() > 0 {
        // The fullest level any buffer reached stands in for "full".
        let full = hist.counts().iter().rposition(|&n| n > 0).unwrap_or(0) as u64;
        println!(
            "  buffer occupancy: mean {:.2} slots, full {:.1}% of buffer-cycles",
            hist.mean(),
            hist.fraction_at_or_above(full.max(1)) * 100.0
        );
    }

    let waits = summary.mean_hop_waits();
    if let Some(latency) = summary.mean_network_latency() {
        let breakdown: Vec<String> = waits
            .iter()
            .enumerate()
            .map(|(s, w)| format!("stage {s}: {w:.2}"))
            .collect();
        println!(
            "  latency (delivered packets): {} -> {:.2} cycles inject-to-deliver",
            breakdown.join(", "),
            latency
        );
    } else {
        println!("  latency: no packets delivered");
    }
}
