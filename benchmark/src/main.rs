//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! damq-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! damq-benchmark compare <set-a.json> <set-b.json>
//! damq-benchmark pin <first-seed> <last-seed>
//! damq-benchmark list
//! ```
//!
//! A run prints a table of its metrics on standard error and, as the last
//! line of standard output, one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`.

mod alloc;
mod clock;
mod compare;
mod declared;
mod pins;
mod probes;
mod reference;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use damq_bench::json::Json;

use declared::Declared;
use pins::Pins;
use run::{Args, Outcome};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: damq-benchmark [--workload <name|all>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke]\n       damq-benchmark compare <a.json> <b.json>\n       \
                     damq-benchmark pin <first-seed> <last-seed>\n       damq-benchmark list";

fn parse_run(argv: &[String], declared: &Declared) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: 0,
        seconds: declared.run_seconds,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The result object, with every declared metric of the run's kind and
/// nothing else; an error if what was measured and what is declared differ.
fn result_json(outcome: &Outcome, declared: &Declared, trace: bool) -> Result<Json, String> {
    let wanted = declared.metrics(trace);
    for (name, _) in &outcome.metrics {
        if !wanted.iter().any(|m| &m.name == name) {
            return Err(format!(
                "metric `{name}` is measured but not declared in BENCHMARK.json"
            ));
        }
    }
    let mut metrics = Vec::with_capacity(wanted.len());
    for m in wanted {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| name == &m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric `{}` is declared but was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite", m.name));
        }
        let entry = Json::obj([
            ("value", Json::from(value)),
            ("unit", Json::from(m.unit.as_str())),
        ]);
        metrics.push((m.name.clone(), entry));
    }
    Ok(Json::obj([
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

fn log(args: &Args, outcome: &Outcome, declared: &Declared) {
    eprintln!(
        "== {} seed {} {} ({} ops, {} failed){}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        if args.smoke { " [smoke]" } else { "" },
    );
    for line in &outcome.notes {
        eprintln!("{line}");
    }
    for (unit, digest) in &outcome.fingerprints {
        eprintln!("  fingerprint {unit} {digest:016x}");
    }
    for (name, value) in &outcome.metrics {
        let unit = declared.unit(name).unwrap_or("?");
        eprintln!("  {name:<36} {value:>18.6} {unit}");
    }
    if let Some(defect) = &outcome.defect {
        eprintln!("  FAILED: {defect}");
    }
}

fn run_one(args: &Args, declared: &Declared, pins: &Pins) -> Result<(Json, bool), String> {
    let outcome = run::run(args, pins)?;
    log(args, &outcome, declared);
    if let Some(trace) = &outcome.trace {
        let dir = std::path::Path::new("benchmark/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join("trace.json");
        std::fs::write(&path, trace.to_json(&args.workload, args.seed).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("  wrote {} ({} spans)", path.display(), trace.spans.len());
    }
    if outcome.metrics.is_empty() {
        return Err(outcome
            .defect
            .unwrap_or_else(|| "no unit completed".to_owned()));
    }
    Ok((
        result_json(&outcome, declared, args.trace)?,
        outcome.correct,
    ))
}

fn run_command(argv: &[String], declared: &Declared) -> Result<bool, String> {
    let args = parse_run(argv, declared)?;
    let pins = Pins::load();
    if args.workload != "all" {
        let (json, correct) = run_one(&args, declared, &pins)?;
        println!("{}", json.render());
        return Ok(correct);
    }
    // Every workload in turn, one line each; what `--smoke` and a person at
    // a terminal use.
    let mut all_correct = true;
    for name in workloads::NAMES {
        let args = Args {
            workload: name.to_owned(),
            ..args.clone()
        };
        let (json, correct) = run_one(&args, declared, &pins)?;
        all_correct &= correct;
        let line = Json::obj([
            ("workload", Json::from(name)),
            ("seed", Json::from(args.seed)),
            ("result", json),
        ]);
        println!("{}", line.render());
    }
    Ok(all_correct)
}

/// Prints the pin rows of seeds `first..=last` (full size) and of seed 0 at
/// smoke size, for `benchmark/pins.tsv`.
fn pin_command(argv: &[String]) -> Result<bool, String> {
    let [first, last] = argv else {
        return Err(USAGE.to_owned());
    };
    let first: u64 = first.parse().map_err(|e| format!("first seed: {e}"))?;
    let last: u64 = last.parse().map_err(|e| format!("last seed: {e}"))?;
    let none = Pins::default();
    println!("# size\tseed\tworkload\tunit\tfingerprint");
    let sizes = std::iter::once((true, 0)).chain((first..=last).map(|seed| (false, seed)));
    for (smoke, seed) in sizes {
        for name in workloads::NAMES {
            let args = Args {
                workload: name.to_owned(),
                seed,
                // One round, then the replay round that checks it repeats.
                seconds: 1e-3,
                trace: false,
                smoke,
            };
            let outcome = run::run(&args, &none)?;
            if !outcome.correct {
                return Err(format!("{name} seed {seed}: {:?}", outcome.defect));
            }
            for (unit, digest) in outcome.fingerprints {
                println!("{}", Pins::row(smoke, seed, name, unit, digest));
            }
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let declared = match Declared::load() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match argv.first().map(String::as_str) {
        Some("compare") => compare::command(&argv[1..], &declared),
        Some("pin") => pin_command(&argv[1..]),
        Some("list") => {
            workloads::NAMES.iter().for_each(|n| println!("{n}"));
            Ok(true)
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => run_command(&argv, &declared),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("damq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
