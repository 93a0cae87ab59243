//! The harness binaries validate what they are given: an undeclared
//! argument, a bad option value or an unparsable `DAMQ_SWEEP_THREADS` is
//! a usage error (exit status 2, nothing written), never a silent
//! fallback to the defaults.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("damq_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(exe: &str, args: &[&str], threads: Option<&str>, results: &Path) -> Output {
    let mut command = Command::new(exe);
    command.args(args).env("DAMQ_RESULTS_DIR", results);
    match threads {
        Some(value) => command.env("DAMQ_SWEEP_THREADS", value),
        None => command.env_remove("DAMQ_SWEEP_THREADS"),
    };
    command.output().expect("harness binary runs")
}

fn assert_usage_error(output: &Output, mentions: &str, results: &Path) {
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(mentions), "stderr: {stderr}");
    assert!(output.stdout.is_empty(), "nothing printed before the check");
    assert!(!results.join("json").exists(), "no report written");
}

#[test]
fn undeclared_arguments_are_usage_errors() {
    let dir = temp_dir("undeclared");
    let bogus = run(env!("CARGO_BIN_EXE_table4"), &["--bogus"], None, &dir);
    assert_usage_error(&bogus, "unknown argument '--bogus'", &dir);
    // The option's value is not accepted as a bare positional…
    let positional = run(
        env!("CARGO_BIN_EXE_table2"),
        &["departures-first"],
        None,
        &dir,
    );
    assert_usage_error(&positional, "unknown argument 'departures-first'", &dir);
    // …and a misspelt value does not silently mean the default order.
    let typo = ["--order", "departures-frist"];
    let typo = run(env!("CARGO_BIN_EXE_table2"), &typo, None, &dir);
    assert_usage_error(&typo, "got 'departures-frist'", &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unparsable_thread_count_is_an_error_naming_the_value() {
    let dir = temp_dir("threads");
    let output = run(env!("CARGO_BIN_EXE_table1"), &[], Some("two"), &dir);
    assert_usage_error(
        &output,
        "DAMQ_SWEEP_THREADS must be a thread count, got 'two'",
        &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_declared_option_value_reaches_the_experiment() {
    let dir = temp_dir("order");
    let order = ["--order", "departures-first"];
    let output = run(env!("CARGO_BIN_EXE_table1"), &[], Some("1"), &dir);
    assert!(output.status.success(), "{output:?}");
    let output = run(env!("CARGO_BIN_EXE_table2"), &order, Some("2"), &dir);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("order: DeparturesFirst"), "{stdout}");
    let report = std::fs::read_to_string(dir.join("json/table2.json")).unwrap();
    assert!(report.contains("\"order\": \"DeparturesFirst\""));
    let _ = std::fs::remove_dir_all(&dir);
}
