//! Workspace task driver: `cargo xtask lint`, `cargo xtask
//! unsafe-ledger`, `cargo xtask results-diff` and `cargo xtask loc`.
//!
//! The analysis itself lives in the [`analyze`] module — a hand-rolled
//! lexer, a brace tree, eleven structural lints and the generated
//! `docs/UNSAFE_LEDGER.md` inventory. The eleven lints (details in
//! `docs/VERIFICATION.md` § Static analysis; number 5 is retired):
//!
//! 1. **No panics in simulator library code** (`crates/core`,
//!    `crates/net`) — propagate `Result`; waivable.
//! 2. **No unseeded randomness outside `crates/rng`** — `from_entropy`,
//!    `thread_rng`, `rand::random` make experiments irreproducible.
//! 3. **Documentation is mandatory** — `#![deny(missing_docs)]` on every
//!    library crate root; `//!` overviews on every module of the
//!    network simulator (`crates/net`).
//! 4. **No stdout/stderr printing in library code** — binaries,
//!    benches and xtask are exempt.
//! 6. **Consuming builder methods carry `#[must_use]`** (`crates/core`,
//!    `crates/net`).
//! 7. **No dead intra-repo markdown links** (root `*.md` and `docs/`).
//! 8. **Unsafe audit** — every `unsafe` site carries `// SAFETY:`; every
//!    crate forbids unsafe at the root; the generated
//!    `docs/UNSAFE_LEDGER.md` is current.
//! 9. **Determinism** — no `HashMap`/`HashSet`, wall-clock time, or
//!    thread identity in the sim-path crates, and no threads, atomics,
//!    `Mutex` or `Condvar` in `crates/{core,switch,net}`; waivable.
//! 10. **Metric docs** — every metric name registered on the telemetry
//!     `MetricsRegistry` appears in the metrics reference table of
//!     `docs/OBSERVABILITY.md`; waivable.
//! 11. **Hot-path allocation** — the named cycle-kernel functions must
//!     not allocate or copy payloads; waivable.
//! 12. **Reject-reason coverage** — every `RejectReason` variant is
//!     matched on the delivery path (`crates/net/src`).
//!
//! `cargo xtask lint` runs all eleven plus the `cargo clippy` / `cargo
//! fmt --check` gates; `--no-cargo` skips the cargo gates (fast, no
//! compilation — the check.sh `analyze` gate budget is ~2s). Per-lint
//! wall-times are printed so scan-speed regressions are visible.
//!
//! `cargo xtask results-diff <committed.json> <regenerated.json>` is the
//! comparison behind `scripts/regen_results.sh --check`: two harness
//! reports are equal when they match outside the run-varying top-level
//! `run` and `telemetry` keys.
//!
//! `cargo xtask loc` prints the non-test, non-comment code lines of every
//! crate's `src/`, counted by the same lexer and `#[cfg(test)]` spans the
//! lints use — the one counter behind every "lines of code" figure in
//! `CHANGES.md` and `ROADMAP.md`.

#![forbid(unsafe_code)]

mod analyze;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use analyze::{ledger, lints, Workspace};
use damq_bench::json::Json;

/// Clippy invocation pinned here so CI and dev runs agree.
const CLIPPY_ARGS: [&str; 7] = [
    "clippy",
    "--workspace",
    "--all-targets",
    "--quiet",
    "--",
    "-D",
    "warnings",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(args.iter().any(|a| a == "--no-cargo")),
        Some("unsafe-ledger") => unsafe_ledger(),
        Some("loc") => loc(),
        Some("results-diff") if args.len() == 3 => results_diff(&args[1], &args[2]),
        Some("--help" | "-h") | None => {
            eprintln!("usage: {USAGE}");
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("unknown or malformed task '{other}' (usage: {USAGE})");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str =
    "cargo xtask <lint [--no-cargo] | unsafe-ledger | loc | results-diff <committed.json> <new.json>>";

/// Compares two harness reports outside their run-varying envelope:
/// succeeds when they are equal once the top-level `run` and `telemetry`
/// keys are dropped, otherwise names the first differing top-level key.
fn results_diff(committed: &str, regenerated: &str) -> ExitCode {
    let deterministic = |path: &str| -> Result<Vec<(String, Json)>, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        match Json::parse(&text).map_err(|e| format!("{path}: {e}"))? {
            Json::Obj(mut pairs) => {
                pairs.retain(|(key, _)| key != "run" && key != "telemetry");
                Ok(pairs)
            }
            _ => Err(format!("{path}: not a JSON object")),
        }
    };
    let problem = match (deterministic(committed), deterministic(regenerated)) {
        (Ok(old), Ok(new)) if old == new => return ExitCode::SUCCESS,
        (Ok(old), Ok(new)) => {
            let differing = old.iter().zip(&new).find(|(a, b)| a != b);
            let key = differing.map_or("the set of top-level keys", |((key, _), _)| key);
            format!("{regenerated} differs from {committed} in '{key}'")
        }
        (Err(e), _) | (_, Err(e)) => e,
    };
    eprintln!("error: {problem}");
    ExitCode::FAILURE
}

fn lint(no_cargo: bool) -> ExitCode {
    let root = workspace_root();
    let total_start = Instant::now();

    let parse_start = Instant::now();
    let ws = Workspace::load(&root);
    let parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "xtask lint: parsed {} files in {} crates {parse_ms:>24.1}ms",
        ws.files.len(),
        ws.crates.len()
    );

    let mut findings = Vec::new();
    for (name, run) in lints::ALL {
        let start = Instant::now();
        let before = findings.len();
        run(&ws, &mut findings);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let new = findings.len() - before;
        eprintln!("xtask lint: lint {name:<22} {new:>3} finding(s) {ms:>10.1}ms");
    }

    for finding in &findings {
        eprintln!("error: {finding}");
    }
    let mut failed = !findings.is_empty();
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "xtask lint: custom lints {} ({} finding(s), {total_ms:.1}ms total)",
        if failed { "FAILED" } else { "passed" },
        findings.len()
    );

    if !no_cargo {
        failed |= !run_cargo(&root, &CLIPPY_ARGS);
        failed |= !run_cargo(&root, &["fmt", "--all", "--check"]);
    }

    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("xtask lint: all checks passed");
        ExitCode::SUCCESS
    }
}

/// Regenerates `docs/UNSAFE_LEDGER.md` from the current tree.
fn unsafe_ledger() -> ExitCode {
    let root = workspace_root();
    let ws = Workspace::load(&root);
    let rendered = ledger::generate(&ws);
    let path = root.join(ledger::LEDGER_REL);
    match fs::write(&path, &rendered) {
        Ok(()) => {
            eprintln!("xtask unsafe-ledger: wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: failed to write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Prints non-test, non-comment code lines per crate (`src/` only) and
/// their total.
fn loc() -> ExitCode {
    let ws = Workspace::load(&workspace_root());
    let mut total = 0;
    for (dir, name) in &ws.crates {
        let src = if dir == "." {
            "src/".to_owned()
        } else {
            format!("{dir}/src/")
        };
        let lines: usize = ws.files_under(&src).map(|f| f.code_lines()).sum();
        println!("{lines:>7}  {name}");
        total += lines;
    }
    println!("{total:>7}  total (non-test, non-comment lines under src/)");
    ExitCode::SUCCESS
}

/// The workspace root, resolved relative to this crate's manifest so the
/// driver works from any working directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn run_cargo(root: &Path, args: &[&str]) -> bool {
    eprintln!("xtask lint: running cargo {}", args.join(" "));
    match Command::new("cargo").args(args).current_dir(root).status() {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("error: cargo {} exited with {status}", args.join(" "));
            false
        }
        Err(e) => {
            eprintln!("error: failed to spawn cargo: {e}");
            false
        }
    }
}
