//! Seeded-mutation test for the chaos soak pipeline: an injected
//! invariant violation travels the whole emission path as a value —
//! soak, minimization, violation dump — and the reproducer read back
//! from the dump re-triggers the violation on replay. A clean smoke soak
//! through the real binary exits 0 and leaves no dump.

mod common;

use std::process::Command;

use damq_bench::chaos::{self, Reproducer};
use damq_bench::json::Json;

use common::{config, mutated_dump, mutation, soak, temp_dir};

#[test]
fn mutated_soak_leaves_a_dump_whose_reproducer_replays() {
    let dir = temp_dir("chaos_dump_test");
    let (_, violation, path) = mutated_dump(&dir);
    assert_eq!(path, dir.join("cell0000.jsonl"));

    // Read the reproducer back exactly as a post-mortem would: the meta
    // line's `reproducer` object, parsed field by field.
    let dump = std::fs::read_to_string(&path).expect("dump file is readable");
    let meta =
        Json::parse(dump.lines().next().expect("dump has a meta line")).expect("meta line is JSON");
    assert_eq!(meta.get("type"), Some(&Json::from("chaos_violation")));
    assert_eq!(meta.get("cell"), Some(&Json::Int(0)));
    let recorded = meta.get("violation").expect("meta carries the violation");
    assert_eq!(recorded, &violation.to_json());
    let rep = meta
        .get("reproducer")
        .and_then(Reproducer::from_json)
        .expect("the reproducer is a complete JSON object");

    let full = soak().compose().events().len();
    assert!(
        !rep.plan.is_empty() && rep.plan.events().len() < full,
        "the emitted plan is minimized ({} of {full} events)",
        rep.plan.events().len(),
    );

    // The acceptance bar: the recovered reproducer re-triggers the
    // violation on a fresh simulation.
    let again = chaos::replay(config(), &rep, &mutation).expect("reproducer re-triggers");
    assert_eq!(again.message, rep.message);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_clean_smoke_soak_exits_zero_and_leaves_no_dump() {
    let dir = temp_dir("chaos_clean_soak");
    let output = Command::new(env!("CARGO_BIN_EXE_chaos_soak"))
        .arg("--smoke")
        .env("DAMQ_RESULTS_DIR", &dir)
        .output()
        .expect("chaos_soak runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert!(dir.join("json/chaos_soak_smoke.json").is_file(), "{stderr}");
    assert!(
        !dir.join("chaos_dumps").exists(),
        "a clean soak dumps nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
