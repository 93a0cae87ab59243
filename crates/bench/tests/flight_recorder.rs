//! Flight-recorder integration: a forced-panic sweep cell must leave a
//! readable crash dump behind.
//!
//! `sweep::run_isolated_recorded` hands every cell a fresh
//! [`SharedRecorder`] ring; when the cell panics or trips its watchdog,
//! the harness dumps the surviving ring to a JSONL sidecar, one per
//! failed cell. These tests drive a real `NetworkSim` with the recorder
//! attached as its telemetry sink and check the dump end to end: the
//! meta line parses, the event tail parses, and healthy cells leave no
//! dumps at all.

use std::path::PathBuf;

use damq_bench::json::Json;
use damq_bench::sweep::{self, CellOutcome};
use damq_core::BufferKind;
use damq_net::{NetworkConfig, NetworkSim};
use damq_telemetry::Event;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("damq_flight_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(seed: u64) -> NetworkConfig {
    NetworkConfig::new(16, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .offered_load(0.5)
        .seed(seed)
}

#[test]
fn forced_panic_cell_dumps_a_readable_flight_record() {
    let dir = temp_dir("panic");
    let cells: Vec<u64> = vec![1, 2, 3];
    let reports =
        sweep::run_isolated_recorded(&cells, 100_000, 64, &dir, |&seed, watchdog, recorder| {
            let mut sim = NetworkSim::with_sink(config(seed), recorder).expect("valid config");
            for cycle in 0..200u64 {
                watchdog.tick();
                sim.step();
                // Cell index 1 (seed 2) hits an injected fault mid-run,
                // after telemetry has filled the ring.
                assert!(!(seed == 2 && cycle == 150), "injected fault at cycle 150");
            }
            sim.metrics().delivered()
        });

    assert_eq!(reports.len(), 3);
    // Healthy cells: usable results, no dumps.
    for i in [0usize, 2] {
        assert_eq!(reports[i].report.outcome, CellOutcome::Ok);
        assert!(reports[i].report.result.is_some());
        assert!(reports[i].dump.is_none(), "healthy cell left a dump");
    }
    // The faulty cell panicked: its verdict is final, with one dump.
    match &reports[1].report.outcome {
        CellOutcome::Panicked { message } => {
            assert!(message.contains("injected fault at cycle 150"));
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let path = reports[1].dump.as_ref().expect("the failed cell dumped");
    assert_eq!(path, &dir.join("cell0001.jsonl"));
    let text = std::fs::read_to_string(path).expect("dump readable");
    let mut lines = text.lines();
    // Line 1: the meta record, parseable JSON with the verdict.
    let meta = Json::parse(lines.next().expect("meta line")).expect("meta parses");
    assert_eq!(meta.get("type"), Some(&Json::from("flight_recorder")));
    assert_eq!(meta.get("cell"), Some(&Json::Int(1)));
    assert_eq!(meta.get("attempt"), None);
    assert_eq!(meta.get("outcome"), Some(&Json::from("panicked")));
    let Some(Json::Str(message)) = meta.get("message") else {
        panic!("meta carries the panic message");
    };
    assert!(message.contains("injected fault"));
    assert_eq!(meta.get("retained"), Some(&Json::Int(64)));
    // The rest: the ring's event tail, valid JSONL telemetry.
    let tail: String = lines.map(|l| format!("{l}\n")).collect();
    let events = Event::parse_trace(&tail).expect("event tail parses");
    assert_eq!(events.len(), 64, "ring capacity of events retained");
    // The tail ends just before the crash cycle.
    let last_cycle = events.last().expect("nonempty").cycle;
    assert!((140..=151).contains(&last_cycle), "tail cycle {last_cycle}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_trip_dumps_once() {
    let dir = temp_dir("timeout");
    let reports =
        sweep::run_isolated_recorded(&[0u64], 50, 16, &dir, |&seed, watchdog, recorder| {
            let mut sim = NetworkSim::with_sink(config(seed + 7), recorder).expect("valid config");
            loop {
                watchdog.tick();
                sim.step();
            }
        });
    assert_eq!(reports[0].report.outcome, CellOutcome::TimedOut);
    let dump = reports[0].dump.as_ref().expect("the wedged cell dumped");
    assert_eq!(dump, &dir.join("cell0000.jsonl"));
    let text = std::fs::read_to_string(dump).expect("dump readable");
    let meta = Json::parse(text.lines().next().expect("meta line")).expect("meta parses");
    assert_eq!(meta.get("outcome"), Some(&Json::from("timed_out")));
    let Some(Json::Str(message)) = meta.get("message") else {
        panic!("meta carries the watchdog message");
    };
    assert!(message.contains("watchdog expired"));
    let _ = std::fs::remove_dir_all(&dir);
}
