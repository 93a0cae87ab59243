//! Regenerates **Table 1** of the paper: "Virtual Cut Through in Four
//! Clock Cycles".
//!
//! A single packet is driven into an idle ComCoBB chip and the
//! cycle/phase event trace is printed. The headline check: the start bit
//! arrives at cycle 0 and the output port drives the downstream start bit
//! at cycle 4, phase 0 — a four-cycle turn-around, independent of packet
//! length.
//!
//! The trace is a single deterministic cell, but it still goes through
//! a one-cell [`damq_bench::grid`] so the run writes
//! `results/json/table1.json` like every other harness.

use damq_bench::cli;
use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{Json, Report};
use damq_microarch::{Chip, ChipConfig, ChipEvent, Phase, RouteEntry};

struct TraceResult {
    rendered: String,
    start_in_cycle: u64,
    start_out_cycle: u64,
    start_out_phase: Phase,
    forwarded_header: u8,
    forwarded_data: Vec<u8>,
}

fn drive_one_packet() -> TraceResult {
    let mut chip = Chip::new(ChipConfig::comcobb());
    chip.program_route(
        0,
        0x20,
        RouteEntry {
            output: 2,
            new_header: 0x21,
        },
    )
    .expect("valid route");

    // A 4-byte packet: start bit at cycle 0, header 0x20, length, data.
    chip.input_wire_mut(0)
        .drive_packet(0, 0x20, &[0xA, 0xB, 0xC, 0xD]);
    chip.run_to_quiescence(64);

    let start_in = chip
        .trace()
        .first(|e| matches!(e.event, ChipEvent::StartBitDetected))
        .expect("packet arrived");
    let start_out = chip
        .trace()
        .first(|e| matches!(e.event, ChipEvent::StartBitSent))
        .expect("packet forwarded");
    let forwarded = chip.output_log(2).packets();
    TraceResult {
        rendered: chip.trace().render(),
        start_in_cycle: start_in.cycle,
        start_out_cycle: start_out.cycle,
        start_out_phase: start_out.phase,
        forwarded_header: forwarded[0].1,
        forwarded_data: forwarded[0].2.clone(),
    }
}

fn main() {
    cli::parse(&[], &[]);
    let mut report = Report::new("table1");
    let traces = Grid::product([Axis::new("packet_bytes", [4usize])]).run(|_| drive_one_packet());
    let t = traces.at(&[0]);

    println!("Table 1: Virtual Cut Through in Four Clock Cycles");
    println!("(single packet, idle chip: input port 0 -> output port 2)");
    println!();
    println!("{}", t.rendered);

    assert_eq!(t.start_in_cycle, 0);
    assert_eq!((t.start_out_cycle, t.start_out_phase), (4, Phase::Zero));
    let turnaround = t.start_out_cycle - t.start_in_cycle;
    println!(
        "turn-around: start bit in at cycle {}, start bit out at cycle {} phase {} => {} cycles",
        t.start_in_cycle, t.start_out_cycle, t.start_out_phase, turnaround
    );
    println!(
        "forwarded packet: header {:#04x}, data {:?}",
        t.forwarded_header, t.forwarded_data
    );

    report.meta("chip", Json::from("ComCoBB"));
    report.meta("route", Json::from("input 0 -> output 2"));
    traces.report(&mut report, |t| {
        let header = format!("{:#04x}", t.forwarded_header);
        Json::obj([
            ("start_in_cycle", Json::from(t.start_in_cycle)),
            ("start_out_cycle", Json::from(t.start_out_cycle)),
            ("start_out_phase", Json::from(t.start_out_phase.to_string())),
            ("turnaround_cycles", Json::from(turnaround)),
            ("forwarded_header", Json::from(header)),
        ])
    });
    report.write_and_announce();
}
