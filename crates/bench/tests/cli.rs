//! The harness binaries validate what they are given: an undeclared
//! argument, a bad option value or an unparsable `DAMQ_SWEEP_THREADS` is
//! a usage error (exit status 2, nothing written), never a silent
//! fallback to the defaults. A report they cannot write fails them too
//! (exit status 1, the path on stderr). What they write is the same file
//! whatever the worker count: the committed one.

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
    // A bare positional is not accepted…
    let positional = run(
        env!("CARGO_BIN_EXE_table2"),
        &["departures-first"],
        None,
        &dir,
    );
    assert_usage_error(&positional, "unknown argument 'departures-first'", &dir);
    // …and Table 2 has one cycle order, so no option chooses it.
    let order = ["--order", "departures-first"];
    let order = run(env!("CARGO_BIN_EXE_table2"), &order, None, &dir);
    assert_usage_error(&order, "unknown argument '--order'", &dir);
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
    let dir = temp_dir("out");
    let out = dir.join("x.json");
    let args = ["--out", out.to_str().unwrap()];
    let output = run(env!("CARGO_BIN_EXE_obs_report"), &args, Some("1"), &dir);
    assert!(output.status.success(), "{output:?}");
    let report = std::fs::read_to_string(&out).unwrap();
    assert!(report.contains("\"bench\": \"obs_report\""), "{report}");
    assert!(
        !dir.join("json").exists(),
        "not written to the default path"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_report_that_cannot_be_written_fails_the_harness_naming_its_path() {
    // A regular file where the results directory should be.
    let dir = temp_dir("unwritable");
    let blocker = dir.join("results");
    std::fs::write(&blocker, "not a directory").unwrap();
    let output = run(env!("CARGO_BIN_EXE_table1"), &[], Some("1"), &blocker);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let report = blocker.join("json").join("table1.json");
    assert!(
        stderr.contains(&report.display().to_string()),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_written_report_does_not_depend_on_the_worker_count() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let table = std::fs::read(committed.join("table2.txt")).unwrap();
    let report = std::fs::read(committed.join("json/table2.json")).unwrap();
    for threads in ["1", "2"] {
        let dir = temp_dir(&format!("workers{threads}"));
        let output = run(env!("CARGO_BIN_EXE_table2"), &[], Some(threads), &dir);
        assert!(output.status.success(), "{output:?}");
        assert!(output.stdout == table, "{threads} workers: stdout differs");
        let written = std::fs::read(dir.join("json/table2.json")).unwrap();
        assert!(written == report, "{threads} workers: report differs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
