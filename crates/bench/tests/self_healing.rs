//! Integration tests for the self-healing sweep harness and the
//! self-healing data path it measures.
//!
//! A grid with a deliberately panicking cell and a wedged
//! (watchdog-tripping) cell still completes, both incidents land in the
//! report's `robustness` section, and the harness's finish step then
//! fails, so the binary exits non-zero instead of committing a table with
//! holes in it. And `recovery_headline`'s design ordering, with every
//! design facing the same dead links and traffic, holds draw by draw at
//! CI size.

use std::path::PathBuf;

use damq_bench::grid::{Axis, Grid};
use damq_bench::json::{robustness_json, Json, Report};
use damq_bench::sweep::{self, run_isolated, CellOutcome};
use damq_core::{BufferKind, FaultPlan, FaultSpec};
use damq_net::{measure_with_faults, NetworkConfig, RecoveryConfig};
use damq_switch::FlowControl;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("damq_self_healing_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sweep_with_panicking_and_wedged_cells_completes_and_reports_both() {
    let cells: Vec<u64> = (0..8).collect();
    let reports = run_isolated(&cells, 1_000, |&c, watchdog| match c {
        // A cell whose simulation panics.
        3 => panic!("injected: buffer invariant violated in cell 3"),
        // A wedged cell: spins forever, making "progress" ticks only.
        5 => loop {
            watchdog.tick();
        },
        _ => c * 100,
    });

    // The sweep completed: every cell has a verdict, in grid order.
    assert_eq!(reports.len(), cells.len());
    let outcomes: Vec<CellOutcome> = reports.iter().map(|r| r.outcome.clone()).collect();
    assert!(matches!(&outcomes[3], CellOutcome::Panicked { message }
        if message.contains("cell 3")));
    assert_eq!(reports[3].result, None);
    assert_eq!(outcomes[5], CellOutcome::TimedOut);
    assert_eq!(reports[5].result, None);
    for i in [0usize, 1, 2, 4, 6, 7] {
        assert_eq!(outcomes[i], CellOutcome::Ok, "cell {i}");
        assert_eq!(reports[i].result, Some(i as u64 * 100));
    }

    // Both incident kinds surface in the report's robustness section.
    let mut report = Report::new("self_healing_test");
    for r in &reports {
        report.push_cell(r.result.map_or(Json::Null, Json::from));
    }
    report.set_robustness(robustness_json(&outcomes));
    let body = report.body().render();
    assert!(body.contains(r#""panicked":1"#));
    assert!(body.contains(r#""timed_out":1"#));
    assert!(body.contains(r#""ok":6"#));
    assert!(body.contains(r#""outcome":"panicked""#));
    assert!(body.contains(r#""outcome":"timed_out""#));
    assert!(body.contains("buffer invariant violated"));
}

#[test]
fn a_panicking_cell_fails_the_harness() {
    // `Report::finish` writes where the binaries do; no other test in
    // this file reads the results directory.
    let dir = temp_dir("finish");
    std::env::set_var("DAMQ_RESULTS_DIR", &dir);
    let grid = || Grid::product([Axis::new("cell", 0..4usize)]);

    // A clean sweep finishes: the report is written and the binary
    // exits 0.
    let (records, outcomes) = grid().run_isolated(1_000, |cell, _| Json::from(cell[0]));
    let mut report = Report::new("clean_sweep");
    records.report(&mut report, Json::clone);
    assert_eq!(report.finish(&outcomes, None), Ok(()));

    // The same grid with a seeded fault in cell 2: the cell's verdict is
    // final, its record is a placeholder, and the finish step fails
    // after writing the report.
    let (records, outcomes) = grid().run_isolated(1_000, |cell, _| {
        assert_ne!(cell[0], 2, "injected: seeded fault in cell 2");
        Json::from(cell[0])
    });
    assert!(matches!(&outcomes[2], CellOutcome::Panicked { message }
        if message.contains("seeded fault")));
    assert_eq!(records.at(&[2]), &Json::obj([("failed", Json::from(true))]));
    let mut report = Report::new("failed_sweep");
    records.report(&mut report, Json::clone);
    assert_eq!(
        report.finish(&outcomes, None),
        Err("1 of 4 cells failed".to_owned())
    );
    let written = std::fs::read_to_string(dir.join("json/failed_sweep.json")).unwrap();
    assert!(written.contains(r#""panicked": 1"#));
    assert!(written.contains(r#""failed": true"#));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Delivered fraction of `kind` with recovery on, on `recovery_headline`'s
/// fabric and seeding at CI-sized windows: `fraction` of the 192 links
/// die during warm-up for good, and the dead links and the traffic are
/// drawn from `[fraction_index, draw]` alone, so every design meets the
/// same damage.
fn healed_delivered_fraction(kind: BufferKind, fraction: (usize, f64), draw: usize) -> f64 {
    const LINKS: usize = 3 * 16 * 4;
    let (warm_up, window) = (100, 400);
    let point = [fraction.0 as u64, draw as u64];
    let spec = FaultSpec {
        link_flaps: (fraction.1 * LINKS as f64).round() as usize,
        flap_duration: warm_up + window + 1,
        ..FaultSpec::fault_free(3, 16, 4, 64, 4, warm_up / 2)
    };
    let faults = FaultPlan::generate(sweep::cell_seed(sweep::BASE_SEED ^ 0x4EA1, &point), &spec);
    let config = NetworkConfig::new(64, 4)
        .buffer_kind(kind)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Discarding)
        .recovery(RecoveryConfig::enabled())
        .offered_load(0.6)
        .seed(sweep::cell_seed(sweep::BASE_SEED, &point));
    let (m, _) = measure_with_faults(config, faults, warm_up, window, || {}).expect("valid");
    m.delivered / m.offered
}

/// With healing on, DAFC > DAMQ > SAFC > {FIFO, SAMQ} on every one of
/// `recovery_headline`'s eight committed draws at 20 % dead links; at
/// 10 % SAFC trails FIFO on one committed draw, so that one pair is left
/// out there. Each comparison is between designs on the same draw.
#[test]
fn healed_designs_keep_the_paper_ordering_on_every_paired_draw() {
    use BufferKind::{Dafc, Damq, Fifo, Safc, Samq};
    let kinds = [Fifo, Samq, Safc, Damq, Dafc];
    let points: Vec<((usize, f64), usize)> = [(0, 0.10), (1, 0.20)]
        .into_iter()
        .flat_map(|fraction| (0..8).map(move |draw| (fraction, draw)))
        .collect();
    let delivered = sweep::run_with_workers(&points, sweep::worker_count(), |&(fraction, draw)| {
        kinds.map(|kind| healed_delivered_fraction(kind, fraction, draw))
    });
    for (&((_, fraction), draw), [fifo, samq, safc, damq, dafc]) in points.iter().zip(delivered) {
        let at = format!("{:.0}% dead links, draw {draw}", fraction * 100.0);
        assert!(dafc > damq, "DAFC {dafc:.3} <= DAMQ {damq:.3} at {at}");
        assert!(damq > safc, "DAMQ {damq:.3} <= SAFC {safc:.3} at {at}");
        assert!(damq > fifo, "DAMQ {damq:.3} <= FIFO {fifo:.3} at {at}");
        assert!(safc > samq, "SAFC {safc:.3} <= SAMQ {samq:.3} at {at}");
        if fraction > 0.15 {
            assert!(safc > fifo, "SAFC {safc:.3} <= FIFO {fifo:.3} at {at}");
        }
    }
}
