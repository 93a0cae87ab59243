//! Workspace task driver: `cargo xtask lint` and `cargo xtask loc`.
//!
//! The analysis itself lives in the [`analyze`] module — a hand-rolled
//! lexer, a brace tree and eleven structural lints (details in
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
//! 8. **Unsafe forbidden** — the root `[workspace.lints.rust]` table
//!    forbids `unsafe_code` and every member manifest opts in with
//!    `[lints] workspace = true`, so the compiler rejects `unsafe` in
//!    every target.
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
//! `cargo xtask loc` prints the non-test, non-comment code lines of every
//! crate's `src/`, counted by the same lexer and `#[cfg(test)]` spans the
//! lints use — the one counter behind every "lines of code" figure in
//! `CHANGES.md` and `ROADMAP.md`.

mod analyze;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use analyze::{lints, Workspace};

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
        Some("loc") => loc(),
        Some("--help" | "-h") | None => {
            eprintln!("usage: {USAGE}");
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("unknown task '{other}' (usage: {USAGE})");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "cargo xtask <lint [--no-cargo] | loc>";

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
