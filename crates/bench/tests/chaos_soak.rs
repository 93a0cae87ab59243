//! Seeded-mutation test for the chaos soak pipeline: an injected
//! invariant violation must travel the whole emission path — soak,
//! minimization, panic, flight-recorder crash dump — and the reproducer
//! recovered from the dump must re-trigger the violation on replay.

use damq_bench::chaos::{self, EpochProbe, Reproducer, SoakPlan};
use damq_bench::json::Json;
use damq_bench::sweep::{self, CellOutcome};
use damq_core::{BufferKind, FaultSpec};
use damq_net::{NetworkConfig, RecoveryConfig};
use damq_switch::FlowControl;

fn config() -> NetworkConfig {
    NetworkConfig::new(16, 4)
        .slots_per_buffer(4)
        .buffer_kind(BufferKind::Damq)
        .flow_control(FlowControl::Discarding)
        .recovery(RecoveryConfig::enabled())
        .offered_load(0.5)
        .seed(59)
}

fn soak() -> SoakPlan {
    SoakPlan {
        seed: 0x50AC,
        epochs: 3,
        epoch_cycles: 150,
        storm: FaultSpec {
            dead_slot_fraction: 0.02,
            link_flaps: 2,
            flap_duration: 30,
            corrupt_packets: 1,
            misroutes: 1,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 150)
        },
    }
}

/// The seeded mutation: any killed slot is declared a violation.
fn mutation(probe: &EpochProbe) -> Result<(), String> {
    if probe.ledger.slots_killed > 0 {
        Err(format!(
            "mutation: {} slots killed",
            probe.ledger.slots_killed
        ))
    } else {
        Ok(())
    }
}

#[test]
fn mutated_soak_emits_a_working_reproducer_through_the_flight_recorder() {
    let dump_dir =
        std::env::temp_dir().join(format!("damq_chaos_dump_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);

    let cells = [()];
    let cycle_budget = soak().epochs * soak().epoch_cycles * 20;
    let recorded = sweep::run_isolated_recorded(
        &cells,
        cycle_budget,
        64,
        &dump_dir,
        |_cell, watchdog, recorder| {
            let outcome =
                chaos::run_soak(config(), &soak(), recorder, &mutation, || watchdog.tick())
                    .expect("config is valid");
            let violation = outcome.violation.expect("the seeded mutation fires");
            let rep = chaos::minimize(config(), &soak(), &violation, &mutation);
            // Same emission shape as the chaos_soak bin: the reproducer
            // rides the panic message into the crash-dump sidecar.
            panic!(
                "chaos invariant violated at epoch {} cycle {}: {} — reproducer {}",
                violation.epoch,
                violation.cycle,
                violation.message,
                rep.to_json().render()
            );
        },
    );

    assert_eq!(recorded.len(), 1);
    let cell = &recorded[0];
    assert!(
        matches!(cell.report.outcome, CellOutcome::Panicked { .. }),
        "the violating soak must surface as a panicked cell, got {:?}",
        cell.report.outcome
    );
    let dump_path = cell
        .dump
        .as_ref()
        .expect("one crash dump for the failed cell");
    assert_eq!(dump_path, &dump_dir.join("cell0000.jsonl"));

    // Recover the reproducer from the dump's meta line, exactly as a
    // post-mortem would: parse the first JSONL line, find the reproducer
    // object inside the panic message, parse it back.
    let dump = std::fs::read_to_string(dump_path).expect("dump file is readable");
    let meta_line = dump.lines().next().expect("dump has a meta line");
    let meta = Json::parse(meta_line).expect("meta line is JSON");
    let message = match meta.get("message") {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("meta message must be a string, got {other:?}"),
    };
    let marker = "reproducer ";
    let at = message.find(marker).expect("message embeds the reproducer");
    let rep_json = Json::parse(&message[at + marker.len()..]).expect("reproducer JSON parses");
    let rep = Reproducer::from_json(&rep_json).expect("reproducer fields are complete");

    assert!(
        !rep.plan.is_empty() && rep.plan.events().len() < soak().compose().events().len(),
        "the emitted plan is minimized ({} of {} events)",
        rep.plan.events().len(),
        soak().compose().events().len()
    );

    // The acceptance bar: the recovered reproducer re-triggers the
    // violation on a fresh simulation.
    let again = chaos::replay(config(), &rep, &mutation).expect("reproducer re-triggers");
    assert_eq!(again.message, rep.message);

    let _ = std::fs::remove_dir_all(&dump_dir);
}
