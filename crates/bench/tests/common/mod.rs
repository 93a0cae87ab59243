//! The seeded-mutation soak shared by the violation-dump tests: a small
//! healing fabric whose epoch check declares any killed slot a violation,
//! soaked, minimized and dumped exactly as the `chaos_soak` bin does.

use std::path::{Path, PathBuf};

use damq_bench::chaos::{self, EpochProbe, SoakOutcome, SoakPlan, Violation};
use damq_core::{BufferKind, FaultSpec};
use damq_net::{NetworkConfig, RecoveryConfig};
use damq_switch::FlowControl;
use damq_telemetry::FlightRecorder;

/// Events the mutated soak's flight recorder retains.
pub const RING_CAPACITY: usize = 64;

pub fn config() -> NetworkConfig {
    NetworkConfig::new(16, 4)
        .slots_per_buffer(4)
        .buffer_kind(BufferKind::Damq)
        .flow_control(FlowControl::Discarding)
        .recovery(RecoveryConfig::enabled())
        .offered_load(0.5)
        .seed(59)
}

pub fn soak() -> SoakPlan {
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
pub fn mutation(probe: &EpochProbe) -> Result<(), String> {
    if probe.ledger.slots_killed > 0 {
        Err(format!(
            "mutation: {} slots killed",
            probe.ledger.slots_killed
        ))
    } else {
        Ok(())
    }
}

/// A fresh, empty directory under the system temp dir.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("damq_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Soaks the mutated fabric as grid cell 0, minimizes the violation and
/// writes its dump into `dir`: the outcome, the violation and the dump's
/// path.
pub fn mutated_dump(dir: &Path) -> (SoakOutcome, Violation, PathBuf) {
    let recorder = FlightRecorder::new(RING_CAPACITY);
    let outcome = chaos::run_soak(config(), &soak(), recorder, &mutation).expect("config is valid");
    let violation = outcome
        .violation
        .clone()
        .expect("the seeded mutation fires");
    let reproducer = chaos::minimize(config(), &soak(), &violation, &mutation);
    let path = chaos::write_dump(dir, 0, &violation, &reproducer, &outcome.recorder)
        .expect("the dump is written");
    (outcome, violation, path)
}
