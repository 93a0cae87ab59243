//! End-to-end tests of the `damq` command-line interface.

use std::process::Command;

fn damq(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_damq"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_lists_all_commands() {
    let out = damq(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["sim", "saturation", "sweep", "markov"] {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
    // Asking a command for help is the same request, not an option
    // missing its value (`--help`) or a stray positional (`-h`).
    let spellings: [&[&str]; 6] = [
        &["--help"],
        &["-h"],
        &["markov", "--help"],
        &["sim", "--help"],
        &["sweep", "-h"],
        &["markov", "--slots", "3", "--help"],
    ];
    for argv in spellings {
        let asked = damq(argv);
        assert_eq!(asked.status.code(), Some(0), "damq {argv:?}: {asked:?}");
        assert_eq!(asked.stdout, out.stdout, "damq {argv:?}");
    }
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = damq(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_is_a_clean_error() {
    let out = damq(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn markov_subcommand_reports_a_discard_probability() {
    let out = damq(&[
        "markov",
        "--buffer",
        "damq",
        "--slots",
        "2",
        "--traffic",
        "0.5",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DAMQ"));
    assert!(text.contains("discard"));
    assert!(text.contains("occupancy"));
}

#[test]
fn markov_rejects_bad_buffer_kind() {
    let out = damq(&["markov", "--buffer", "lifo"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown buffer kind"));
}

#[test]
fn markov_has_no_cycle_order_option() {
    // The Markov model has one cycle order: arrivals, then departures.
    let out = damq(&["markov", "--order", "arrivals-first"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(out.stdout.is_empty(), "printed {:?}", out.stdout);
    assert!(err.contains("unknown option --order"), "{err}");
}

#[test]
fn markov_rejects_an_oversized_fifo_instead_of_enumerating_it() {
    // 4^40 ordered states: this used to run until killed.
    let out = damq(&["markov", "--buffer", "fifo", "--slots", "40"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("at most 8 slots"), "{err}");
}

#[test]
fn sim_runs_a_small_network() {
    let out = damq(&[
        "sim", "--size", "16", "--radix", "4", "--buffer", "fifo", "--load", "0.2", "--cycles",
        "200", "--warmup", "50",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FIFO"));
    assert!(text.contains("latency"));
}

#[test]
fn clipped_tail_percentiles_are_marked_as_lower_bounds() {
    // The `hotspot_block_64` configuration: past saturation, packets wait
    // at their sources for far longer than the 4 096-cycle latency
    // histogram resolves, so both percentiles sit at the cap (× 12).
    let out = damq(&[
        "sim",
        "--hot-spot",
        "0.05",
        "--load",
        "0.5",
        "--warmup",
        "2000",
        "--cycles",
        "8000",
        "--seed",
        "48879",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(p95 >=49152, p99 >=49152)"), "got {text}");

    // Below saturation nothing is clipped and nothing is marked.
    let out = damq(&["sim", "--size", "16", "--load", "0.2", "--cycles", "300"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(p95 ") && !text.contains(">="), "got {text}");

    // `sweep` keeps its CSV and warns once, at the first clipped row.
    let out = damq(&[
        "sweep",
        "--size",
        "16",
        "--hot-spot",
        "0.5",
        "--from",
        "0.2",
        "--to",
        "1.0",
        "--step",
        "0.4",
        "--warmup",
        "0",
        "--cycles",
        "6000",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let rows = String::from_utf8_lossy(&out.stdout);
    assert!(
        rows.lines().all(|row| row.split(',').count() == 6),
        "{rows}"
    );
    assert_eq!(rows.matches(",49152.0,").count(), 2, "{rows}");
    let warnings = String::from_utf8_lossy(&out.stderr);
    assert_eq!(warnings.matches("warning:").count(), 1, "{warnings}");
    assert!(warnings.contains("at load 0.600"), "{warnings}");
}

#[test]
fn sweep_emits_csv() {
    let out = damq(&[
        "sweep", "--size", "16", "--buffer", "damq", "--from", "0.1", "--to", "0.2", "--step",
        "0.1", "--cycles", "150", "--warmup", "30",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    assert!(lines.next().unwrap().starts_with("buffer,offered"));
    let first = lines.next().unwrap();
    assert!(first.starts_with("DAMQ,0.100"), "got {first}");
    assert_eq!(first.split(',').count(), 6);
}

#[test]
fn options_without_values_are_rejected() {
    let out = damq(&["sim", "--load"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
}

#[test]
fn a_misspelled_network_option_is_rejected_not_defaulted() {
    let out = damq(&["sim", "--laod", "0.9", "--size", "16", "--cycles", "200"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(out.stdout.is_empty(), "printed {:?}", out.stdout);
    assert!(err.starts_with("error: unknown option --laod"), "{err}");
}

#[test]
fn an_option_of_another_command_is_rejected() {
    // `--cycles` belongs to the network commands; `markov` has no window.
    let out = damq(&["markov", "--cycles", "5"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(out.stdout.is_empty(), "printed {:?}", out.stdout);
    assert!(err.starts_with("error: unknown option --cycles"), "{err}");
}

#[test]
fn out_of_range_numbers_are_clean_errors_not_panics() {
    const NETWORK: [&str; 3] = ["sim", "saturation", "sweep"];
    // (commands, the options before the value, values)
    let rows: [(&[&str], &[&str], &[&str]); 9] = [
        (&NETWORK, &["--load"], &["nan", "-1", "2"]),
        (&NETWORK, &["--hot-spot"], &["1.5", "nan"]),
        (&NETWORK, &["--burst"], &["0", "0.5"]),
        (&NETWORK, &["--duty"], &["0", "nan", "1.5"]),
        (&["sweep"], &["--to"], &["1.5"]),
        (&["markov"], &["--traffic"], &["nan", "1.5"]),
        (&["markov"], &["--slots"], &["0"]),
        // A radix past the route tables' byte-wide ports.
        (&NETWORK, &["--size", "257", "--radix"], &["257"]),
        // Searching for the stage count must not overflow.
        (&NETWORK, &["--size"], &["18446744073709551615"]),
    ];
    for (commands, options, values) in rows {
        for command in commands {
            for value in values {
                let argv = [&[*command], options, &[*value]].concat();
                let out = damq(&argv);
                let err = String::from_utf8_lossy(&out.stderr);
                let case = format!("damq {}: {err}", argv.join(" "));
                assert_eq!(out.status.code(), Some(1), "{case}");
                assert!(err.starts_with("error:"), "{case}");
                assert!(!err.contains("panicked at"), "{case}");
            }
        }
    }
}

#[test]
fn a_design_the_configuration_does_not_fit_fails_before_any_output() {
    // Three slots do not divide among SAMQ's four queues; FIFO, first in
    // `--buffer all`, fits them, and must not have printed its rows.
    for command in ["sim", "saturation", "sweep"] {
        let out = damq(&[
            command, "--buffer", "all", "--slots", "3", "--size", "16", "--cycles", "50",
            "--warmup", "10",
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {err}");
        assert!(out.stdout.is_empty(), "{command} printed {:?}", out.stdout);
        assert!(err.starts_with("error: SAMQ: buffer:"), "{command}: {err}");
    }
}

#[test]
fn sweep_reaches_full_load() {
    // 0.9 + 0.05 + 0.05 overshoots 1.0 by an ulp; the last row is load 1.
    let out = damq(&[
        "sweep", "--size", "16", "--from", "0.9", "--to", "1.0", "--step", "0.05", "--cycles",
        "50", "--warmup", "10",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().last().unwrap().starts_with("DAMQ,1.000"));
}
