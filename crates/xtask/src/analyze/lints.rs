//! The eleven workspace lints, implemented over the structural scanner.
//!
//! Lints 1–7 are the historical regex-era lints migrated onto token
//! sequences and the brace tree (same semantics, fewer loopholes).
//! Number 5 (`no-boxed-buffer`) is retired: the `Box<dyn SwitchBuffer>`
//! buffer impl it guarded against is gone, so the pattern no longer
//! type-checks; the other lints keep their numbers. Lints 8–12 are new:
//!
//! 8. **unsafe-audit** — every `unsafe` block/impl/fn/trait carries a
//!    `// SAFETY:` justification; every workspace crate declares
//!    `#![forbid(unsafe_code)]`; and the generated
//!    `docs/UNSAFE_LEDGER.md` inventory is current.
//! 9. **determinism** — the simulation-path crates (core, switch, net,
//!    telemetry) must not use `HashMap`/`HashSet` (iteration order is
//!    nondeterministic), `Instant`/`SystemTime` (wall-clock), or thread
//!    identity (`thread::current`, `ThreadId`); and the crates one
//!    simulation steps through (core, switch, net) must not use
//!    `std::thread`, `std::sync::atomic`, `Mutex` or `Condvar` — a
//!    simulation runs on one lane, parallelism lives across sweep cells;
//!    waivers carry `// lint: allow — why`.
//! 10. **metric-docs** — every metric name registered on the telemetry
//!     `MetricsRegistry` (a `.counter("…")` / `.histogram("…")` call
//!     with a literal name, outside test code) appears in the metrics
//!     reference table of `docs/OBSERVABILITY.md`, so the always-on
//!     registry's namespace stays documented as it grows.
//! 11. **hot-path-alloc** — the named kernel functions of the
//!     core/switch/net crates (`try_enqueue`, `transmit_cycle_with`,
//!     `merge_interior_stage`, …) and of the Markov crate (`explore`,
//!     `for_each_transition`, `restart_cycle`, …) must not allocate or
//!     copy payloads: `Box::new`, `with_capacity`, `.to_vec()`,
//!     `.clone()`, `mem::take(` (it discards a collection's capacity),
//!     `vec!`, `.collect()` and a hash map built in place are flagged
//!     inside their brace spans. Scratch
//!     belongs in the owning struct, hoisted to construction; waivers
//!     carry `// lint: allow — why`. Kernels are matched by *name*, so
//!     a listed name that no function carries any more is itself a
//!     finding — a rename must not silently unguard the hot path.
//! 12. **reject-reason-coverage** — every variant of `RejectReason`
//!     (declared in `crates/core/src/error.rs`) must appear as a
//!     `RejectReason::Variant` match-arm pattern in non-test code of
//!     `crates/net/src`, the delivery path. The enum is
//!     `#[non_exhaustive]`, so a new reject class compiles everywhere
//!     without complaint; this lint makes the delivery path the one
//!     place that *must* decide how to handle it (recoverable loss vs
//!     structural bug).
//!
//! Every lint takes the parsed [`Workspace`] and appends [`Finding`]s;
//! the driver times each entry of [`ALL`] so scan-speed regressions are
//! visible run to run.

use std::fs;
use std::path::PathBuf;

use super::ledger;
use super::lexer::{Token, TokenKind};
use super::tree;
use super::{Finding, SourceFile, Workspace};

/// The comment marker that waives a lint for one site.
pub const ALLOW_MARKER: &str = "lint: allow";

/// The comment marker lint 8 requires on every `unsafe` site.
pub const SAFETY_MARKER: &str = "SAFETY:";

/// Crates whose `src/` must be panic-free (the simulator data path).
const PANIC_FREE_CRATES: [&str; 2] = ["crates/core/src/", "crates/net/src/"];

/// Crates whose consuming-builder methods must carry `#[must_use]`.
const MUST_USE_CRATES: [&str; 2] = ["crates/core/src/", "crates/net/src/"];

/// Crates whose every `src/` module must open with a `//!` overview.
const MODULE_DOC_CRATES: [&str; 1] = ["crates/net/src/"];

/// The simulation-path crates lint 9 (determinism) guards: everything a
/// deterministic run's bytes flow through.
const SIM_PATH_CRATES: [&str; 4] = [
    "crates/core/src/",
    "crates/switch/src/",
    "crates/net/src/",
    "crates/telemetry/src/",
];

/// The crates one simulation steps through, on one lane: lint 9 also
/// bans threads and shared-memory synchronisation there.
const ONE_LANE_CRATES: [&str; 3] = ["crates/core/src/", "crates/switch/src/", "crates/net/src/"];

/// A lint pass: appends findings for one structural rule.
pub type LintFn = fn(&Workspace, &mut Vec<Finding>);

/// The eleven lints, in order, with their display names (number 5 is
/// retired and not reused). The driver times each entry individually.
pub const ALL: [(&str, LintFn); 11] = [
    ("1 no-panic", no_panic),
    ("2 no-unseeded-rng", no_unseeded_rng),
    ("3 docs-mandatory", docs_mandatory),
    ("4 no-print", no_print),
    ("6 must-use-builders", must_use_builders),
    ("7 doc-links", doc_links),
    ("8 unsafe-audit", unsafe_audit),
    ("9 determinism", determinism),
    ("10 metric-docs", metric_docs),
    ("11 hot-path-alloc", hot_path_alloc),
    ("12 reject-reason-coverage", reject_reason_coverage),
];

fn finding(file: &SourceFile, line: usize, message: String) -> Finding {
    Finding {
        path: file.path.clone(),
        line,
        message,
    }
}

/// Whether a site at `line` in non-test code lacks an allow waiver.
fn unwaived(file: &SourceFile, line: usize) -> bool {
    !file.in_test_code(line) && !file.comment_marker_at(line, ALLOW_MARKER)
}

/// Whether the tokens at `i` read `first::second`.
fn is_path(code: &[Token], i: usize, first: &str, second: &str) -> bool {
    code[i].is_ident(first)
        && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 3).is_some_and(|t| t.is_ident(second))
}

/// Lint 1: panic-family calls in non-test simulator library code —
/// `.unwrap(`, `.expect(`, and the `panic!`/`unreachable!`/`todo!`/
/// `unimplemented!` macros.
fn no_panic(ws: &Workspace, findings: &mut Vec<Finding>) {
    const MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    const METHODS: [&str; 2] = ["unwrap", "expect"];
    for prefix in PANIC_FREE_CRATES {
        for file in ws.files_under(prefix) {
            for (i, tok) in file.code.iter().enumerate() {
                let hit = if METHODS.iter().any(|m| tok.is_ident(m)) {
                    i > 0
                        && file.code[i - 1].is_punct('.')
                        && file.code.get(i + 1).is_some_and(|t| t.is_punct('('))
                } else if MACROS.iter().any(|m| tok.is_ident(m)) {
                    file.code.get(i + 1).is_some_and(|t| t.is_punct('!'))
                } else {
                    false
                };
                if hit && unwaived(file, tok.line) {
                    findings.push(finding(
                        file,
                        tok.line,
                        format!(
                            "'{}' in simulator library code — propagate a Result or \
                             justify with a '// {ALLOW_MARKER} — why' comment",
                            tok.text
                        ),
                    ));
                }
            }
        }
    }
}

/// Lint 2: unseeded entropy sources outside the RNG crate —
/// `from_entropy`, `thread_rng`, `rand::random`. Applies to test code
/// too: experiments and their tests must both be reproducible.
fn no_unseeded_rng(ws: &Workspace, findings: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.rel.starts_with("crates/rng/") {
            continue;
        }
        for (i, tok) in file.code.iter().enumerate() {
            let hit = tok.is_ident("from_entropy")
                || tok.is_ident("thread_rng")
                || is_path(&file.code, i, "rand", "random");
            if hit && !file.comment_marker_at(tok.line, ALLOW_MARKER) {
                findings.push(finding(
                    file,
                    tok.line,
                    format!(
                        "'{}' outside crates/rng — all randomness must be seeded \
                         for reproducible experiments",
                        tok.text
                    ),
                ));
            }
        }
    }
}

/// Whether `code` contains the inner attribute `#![name(arg)]`.
fn has_inner_attr(code: &[Token], name: &str, arg: &str) -> bool {
    code.windows(7).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(name)
            && w[4].is_punct('(')
            && w[5].is_ident(arg)
            && w[6].is_punct(')')
    })
}

/// Lint 3: every library crate root carries `#![deny(missing_docs)]`,
/// and every module of the network simulator opens with a `//!`
/// overview.
fn docs_mandatory(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (dir, _name) in &ws.crates {
        let rel = if dir == "." {
            "src/lib.rs".to_owned()
        } else {
            format!("{dir}/src/lib.rs")
        };
        let Some(file) = ws.file(&rel) else {
            continue; // binary-only crate (xtask)
        };
        if !has_inner_attr(&file.code, "deny", "missing_docs") {
            findings.push(finding(
                file,
                1,
                "crate root must carry #![deny(missing_docs)]".into(),
            ));
        }
    }
    for prefix in MODULE_DOC_CRATES {
        for file in ws.files_under(prefix) {
            if !file.tokens.iter().any(|t| t.is_inner_doc()) {
                findings.push(finding(
                    file,
                    1,
                    format!(
                        "modules under {prefix} must open with a //! overview \
                         (what the module is and how it fits the cycle loop)"
                    ),
                ));
            }
        }
    }
}

/// Lint 4: no `println!`/`eprintln!` in library code. Harness binaries
/// (`src/bin/`), `benches/`, `tests/` and `crates/xtask` own their
/// output and are exempt.
fn no_print(ws: &Workspace, findings: &mut Vec<Finding>) {
    for file in ws.files_under("crates/") {
        if file.rel.starts_with("crates/xtask/")
            || !file.rel.contains("/src/")
            || file.rel.contains("/bin/")
        {
            continue;
        }
        for (i, tok) in file.code.iter().enumerate() {
            let hit = (tok.is_ident("println") || tok.is_ident("eprintln"))
                && file.code.get(i + 1).is_some_and(|t| t.is_punct('!'));
            if hit && unwaived(file, tok.line) {
                findings.push(finding(
                    file,
                    tok.line,
                    format!(
                        "'{}!' in library code — return data or use the telemetry \
                         layer; binaries own stdout/stderr, or justify with a \
                         '// {ALLOW_MARKER} — why' comment",
                        tok.text
                    ),
                ));
            }
        }
    }
}

/// Lint 6: consuming-builder methods must be `#[must_use]`. Signatures
/// are extracted structurally (multi-line signatures, generics with
/// `Fn(..) -> ..` bounds, and `pub(crate)` visibility all parse).
fn must_use_builders(ws: &Workspace, findings: &mut Vec<Finding>) {
    for prefix in MUST_USE_CRATES {
        for file in ws.files_under(prefix) {
            for sig in tree::fn_signatures(&file.code) {
                if !(sig.consumes_self && sig.returns_self) {
                    continue;
                }
                if file.in_test_code(sig.line)
                    || file.comment_marker_at(sig.line, "#[must_use")
                    || file.comment_marker_at(sig.line, ALLOW_MARKER)
                {
                    continue;
                }
                findings.push(finding(
                    file,
                    sig.line,
                    format!(
                        "consuming builder method without #[must_use] — dropping the \
                         return value discards the configuration; add #[must_use] or \
                         justify with a '// {ALLOW_MARKER} — why' comment"
                    ),
                ));
            }
        }
    }
}

/// Lint 7: relative markdown links must resolve. Scans the root-level
/// `*.md` files and everything under `docs/`, skipping fenced code
/// blocks; a link target is the text between `](` and `)`, minus any
/// `#fragment` and quoted title, resolved against the file's directory.
fn doc_links(ws: &Workspace, findings: &mut Vec<Finding>) {
    for file in markdown_files(ws) {
        let Ok(source) = fs::read_to_string(&file) else {
            continue;
        };
        let dir = file.parent().unwrap_or(&ws.root).to_path_buf();
        let mut in_fence = false;
        for (idx, line) in source.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
                in_fence = !in_fence;
                continue;
            }
            if in_fence {
                continue;
            }
            for target in markdown_link_targets(line) {
                if target.starts_with("http://")
                    || target.starts_with("https://")
                    || target.starts_with("mailto:")
                    || target.starts_with('#')
                    || target.is_empty()
                {
                    continue;
                }
                let path_part = target.split('#').next().unwrap_or("");
                if path_part.is_empty() {
                    continue;
                }
                if !dir.join(path_part).exists() {
                    findings.push(Finding {
                        path: file.clone(),
                        line: idx + 1,
                        message: format!(
                            "dead relative link '{target}' — the target does not exist"
                        ),
                    });
                }
            }
        }
    }
}

/// The markdown files lint 7 covers: `*.md` at the workspace root plus
/// everything under `docs/`, recursively, in sorted order.
fn markdown_files(ws: &Workspace) -> Vec<PathBuf> {
    let mut files = Vec::new();
    if let Ok(entries) = fs::read_dir(&ws.root) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_file() && path.extension().is_some_and(|e| e == "md") {
                files.push(path);
            }
        }
    }
    let mut stack = vec![ws.root.join("docs")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "md") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Extracts inline-link targets from one markdown line: the text between
/// every `](` and its closing `)`, with any ` "title"` suffix dropped.
fn markdown_link_targets(line: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find("](") {
        let tail = &rest[open + 2..];
        let Some(close) = tail.find(')') else {
            break;
        };
        let target = tail[..close].trim();
        // Drop an optional quoted title: [text](path "title").
        let target = target.split_whitespace().next().unwrap_or("");
        targets.push(target.to_owned());
        rest = &tail[close + 1..];
    }
    targets
}

/// Lint 8: the unsafe audit.
///
/// * Every `unsafe` block / `unsafe impl` / `unsafe fn` / `unsafe trait`
///   anywhere in the workspace carries a `// SAFETY:` justification on
///   the same line or in the contiguous comment block directly above.
/// * Every workspace crate root declares `#![forbid(unsafe_code)]` —
///   the compiler, not the lint, then guarantees the inventory below
///   cannot silently grow in library or binary code.
/// * The committed `docs/UNSAFE_LEDGER.md` equals the freshly generated
///   inventory — run `cargo xtask unsafe-ledger` after any change.
fn unsafe_audit(ws: &Workspace, findings: &mut Vec<Finding>) {
    for file in &ws.files {
        for site in tree::unsafe_sites(&file.code) {
            if !file.comment_marker_at(site.line, SAFETY_MARKER) {
                findings.push(finding(
                    file,
                    site.line,
                    format!(
                        "{} without a '// {SAFETY_MARKER} …' justification on the \
                         same line or directly above (`{}`)",
                        site.kind.label(),
                        site.summary
                    ),
                ));
            }
        }
    }

    for (dir, name) in &ws.crates {
        let src = if dir == "." {
            "src".to_owned()
        } else {
            format!("{dir}/src")
        };
        let root_file = [format!("{src}/lib.rs"), format!("{src}/main.rs")]
            .into_iter()
            .find_map(|rel| ws.file(&rel));
        let Some(file) = root_file else {
            continue;
        };
        if !has_inner_attr(&file.code, "forbid", "unsafe_code") {
            findings.push(finding(
                file,
                1,
                format!("crate root of `{name}` must carry #![forbid(unsafe_code)]"),
            ));
        }
    }

    let expected = ledger::generate(ws);
    let ledger_path = ws.root.join(ledger::LEDGER_REL);
    match fs::read_to_string(&ledger_path) {
        Ok(actual) if actual == expected => {}
        Ok(_) => findings.push(Finding {
            path: ledger_path,
            line: 1,
            message: "stale unsafe ledger — regenerate with `cargo xtask unsafe-ledger`".into(),
        }),
        Err(_) => findings.push(Finding {
            path: ledger_path,
            line: 0,
            message: "missing unsafe ledger — generate with `cargo xtask unsafe-ledger`".into(),
        }),
    }
}

/// Lint 9: determinism on the simulation path. The same configuration
/// and seed must replay the same bytes, so the crates the simulation's
/// bytes flow through must not consult nondeterministic sources:
/// hash-order iteration (`HashMap`/`HashSet` — use `BTreeMap`/`BTreeSet`
/// or index vectors), wall-clock time (`Instant`/`SystemTime`), or
/// thread identity (`thread::current`, `ThreadId`). Under
/// [`ONE_LANE_CRATES`] threads and shared-memory synchronisation
/// (`std::thread`, `std::sync::atomic` and its `Atomic*` types, `Mutex`,
/// `Condvar`) are findings too: one simulation steps on one lane, and
/// parallelism lives across sweep cells (`docs/SCALING.md`). Justified
/// exceptions carry `// lint: allow — why` (e.g. the phase profiler,
/// which measures the harness, never simulation state).
fn determinism(ws: &Workspace, findings: &mut Vec<Finding>) {
    const BANNED_IDENTS: [(&str, &str); 5] = [
        (
            "HashMap",
            "hash iteration order is nondeterministic — use BTreeMap or an index vector",
        ),
        (
            "HashSet",
            "hash iteration order is nondeterministic — use BTreeSet or a sorted Vec",
        ),
        (
            "Instant",
            "wall-clock time must not influence simulation state",
        ),
        (
            "SystemTime",
            "wall-clock time must not influence simulation state",
        ),
        (
            "ThreadId",
            "thread identity must not influence simulation state",
        ),
    ];
    for prefix in SIM_PATH_CRATES {
        let one_lane = ONE_LANE_CRATES.contains(&prefix);
        for file in ws.files_under(prefix) {
            for (i, tok) in file.code.iter().enumerate() {
                let mut reason = BANNED_IDENTS
                    .into_iter()
                    .find(|(ident, _)| tok.is_ident(ident));
                if reason.is_none() && is_path(&file.code, i, "thread", "current") {
                    reason = Some((
                        "thread::current",
                        "thread identity must not influence simulation state",
                    ));
                }
                if reason.is_none() && one_lane {
                    let shared = if is_path(&file.code, i, "std", "thread") {
                        Some("std::thread")
                    } else if is_path(&file.code, i, "sync", "atomic") {
                        Some("sync::atomic")
                    } else if tok.kind == TokenKind::Ident
                        && (tok.text.starts_with("Atomic")
                            || tok.is_ident("Mutex")
                            || tok.is_ident("Condvar"))
                    {
                        Some(tok.text.as_str())
                    } else {
                        None
                    };
                    reason = shared.map(|what| {
                        (
                            what,
                            "one simulation steps on one lane; threads and shared-memory \
                             synchronisation live across sweep cells (docs/SCALING.md)",
                        )
                    });
                }
                if let Some((what, why)) = reason {
                    if unwaived(file, tok.line) {
                        findings.push(finding(
                            file,
                            tok.line,
                            format!(
                                "'{what}' in a simulation-path crate — {why}; or \
                                 justify with a '// {ALLOW_MARKER} — why' comment"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// The document lint 10 checks registered metric names against.
const METRICS_DOC_REL: &str = "docs/OBSERVABILITY.md";

/// The function whose body is the table of published counters: rows of
/// the shape `("name", value)`, registered by name and overwritten from
/// their owners once per cycle.
const METRIC_TABLE_FN: &str = "counter_rows";

/// Every statically registered metric name in `file`, as `(line, name)`:
/// call sites of the shape `.counter("…")` / `.histogram("…")` whose
/// first argument is a string literal, and the `("…", value)` rows in
/// the body of a function named [`METRIC_TABLE_FN`]. The lexer drops
/// literal text, so the name is read back from the literal's raw source
/// line (metric registrations are one-per-line in practice).
pub fn registered_metric_names(file: &SourceFile) -> Vec<(usize, String)> {
    let code = &file.code;
    let mut names = Vec::new();
    // Brace depth inside the table function's body; 0 outside it.
    let mut table_depth = 0usize;
    let mut table_pending = false;
    for (i, tok) in code.iter().enumerate() {
        let literal_at = |at: usize| code.get(at).is_some_and(|t| t.kind == TokenKind::Literal);
        if tok.is_ident(METRIC_TABLE_FN) && i > 0 && code[i - 1].is_ident("fn") {
            table_pending = true;
        } else if tok.is_punct('{') && (table_pending || table_depth > 0) {
            table_pending = false;
            table_depth += 1;
        } else if tok.is_punct('}') && table_depth > 0 {
            table_depth -= 1;
        }
        let call_site = (tok.is_ident("counter") || tok.is_ident("histogram"))
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
            && literal_at(i + 2);
        let table_row = table_depth > 0
            && tok.is_punct('(')
            && literal_at(i + 1)
            && code.get(i + 2).is_some_and(|t| t.is_punct(','));
        let literal = match (call_site, table_row) {
            (true, _) => &code[i + 2],
            (_, true) => &code[i + 1],
            _ => continue,
        };
        let Some(raw) = file.raw_lines.get(literal.line - 1) else {
            continue;
        };
        if let Some(name) = first_quoted(raw) {
            names.push((tok.line, name.to_owned()));
        }
    }
    names
}

/// The contents of the first double-quoted string on `line`, if any.
fn first_quoted(line: &str) -> Option<&str> {
    let open = line.find('"')?;
    let rest = &line[open + 1..];
    let close = rest.find('"')?;
    Some(&rest[..close])
}

/// Lint 10: metric documentation. Every metric name registered outside
/// test code must appear — in backticks — in the metrics reference table
/// of `docs/OBSERVABILITY.md`. The registry is always-on and its
/// snapshot is part of the committed goldens, so an undocumented name is
/// an undocumented public surface.
fn metric_docs(ws: &Workspace, findings: &mut Vec<Finding>) {
    let doc = fs::read_to_string(ws.root.join(METRICS_DOC_REL)).unwrap_or_default();
    for file in ws.files_under("crates/") {
        for (line, name) in registered_metric_names(file) {
            if unwaived(file, line) && !doc.contains(&format!("`{name}`")) {
                findings.push(finding(
                    file,
                    line,
                    format!(
                        "metric '{name}' is registered here but missing from the \
                         metrics reference in {METRICS_DOC_REL} — document it (or \
                         justify with a '// {ALLOW_MARKER} — why' comment)"
                    ),
                ));
            }
        }
    }
}

/// Crates whose kernel functions lint 11 keeps allocation-free: the
/// steady-state per-cycle data path, and the Markov layer's per-state
/// and per-iteration loops.
const HOT_PATH_CRATES: [&str; 4] = [
    "crates/core/src/",
    "crates/switch/src/",
    "crates/net/src/",
    "crates/markov/src/",
];

/// The kernel function names lint 11 guards: every function a
/// steady-state `NetworkSim::step` executes per cycle, and every function
/// `Chain::explore` runs per state or a steady-state solver per iteration.
/// Constructors and cold paths (audits, snapshots, telemetry emission,
/// solver set-up) are exempt — scratch is *supposed* to be allocated
/// there.
const KERNEL_FNS: [&str; 53] = [
    // core: the per-cycle buffer operations of every design.
    "try_enqueue",
    "enqueue",
    "dequeue",
    "front",
    "kill_slot",
    "queue_lens_into",
    "can_accept",
    // switch: the occupancy-aware arbitration kernel, everything its
    // walk calls per occupied buffer or per cycle, and its ingress.
    "transmit_cycle_with",
    "front_meta",
    "rank",
    "try_connect",
    "grant",
    "settle_input",
    "note_hol_blocked",
    "complete_cycle",
    "release_all",
    "receive",
    // net: the cycle loop, step by step …
    "step",
    "generate",
    "advance_stages",
    "arbitrate_stage",
    "merge_last_stage",
    "merge_interior_stage",
    "inject",
    // … the source queue's stream (`front` is listed under core) …
    "push_back",
    "pop_front",
    "push_record",
    "pop_record",
    "put_varint",
    "get_varint",
    // … the hop primitive and the recovery ladder the merges call …
    "hop",
    "rescue",
    "try_park",
    "service",
    // … and the packet-fate owner every step reports to.
    "generated",
    "injected",
    "forwarded",
    "delivered",
    "dropped",
    // markov: exploration (its loop body runs per state; its growable
    // arrays are amortised), the models' per-state enumeration …
    "explore",
    "for_each_transition",
    "departures",
    // (the 2×2 switch names every successor by its orbit's least image)
    "canonical",
    "images",
    "swap_inputs",
    "swap_outputs",
    "single_read_port_departures",
    "fully_connected_departures",
    "depart_greedy",
    // … and the solvers' per-iteration steps: the products, the GMRES
    // restart (basis, iterate and product buffer are allocated once per
    // solve, outside it) and the Gauss–Seidel sweep.
    "dot",
    "left_multiply_into",
    "restart_cycle",
    "gauss_seidel_sweep",
];

/// Where [`KERNEL_FNS`] lives, for findings about the list itself.
const KERNEL_LIST_FILE: &str = "crates/xtask/src/analyze/lints.rs";

/// Line spans of every kernel function in `code`, as
/// `(open_line, close_line, name)` — found by walking the brace tree for
/// nodes whose header reads `fn <kernel-name>`.
pub fn kernel_fn_spans(code: &[Token]) -> Vec<(usize, usize, &'static str)> {
    let t = tree::build(code);
    let mut spans = Vec::new();
    collect_kernel_spans(&t.roots, code, &mut spans);
    spans
}

fn collect_kernel_spans(
    nodes: &[tree::Node],
    code: &[Token],
    spans: &mut Vec<(usize, usize, &'static str)>,
) {
    for node in nodes {
        let header = &code[node.header.0..node.header.1];
        let named = header.windows(2).find_map(|w| {
            if !w[0].is_ident("fn") {
                return None;
            }
            KERNEL_FNS.iter().find(|k| w[1].is_ident(k)).copied()
        });
        if let Some(name) = named {
            spans.push((node.open_line, node.close_line, name));
            // A kernel's nested blocks are already inside the span.
            continue;
        }
        collect_kernel_spans(&node.children, code, spans);
    }
}

/// Lint 11: no allocation or payload copies inside the cycle kernels.
/// Steady-state stepping must be allocation-free (the scratch lives in
/// the owning struct, sized at construction), so inside the functions
/// named by [`KERNEL_FNS`] the tokens `Box::new`, `with_capacity(`,
/// `.to_vec()`, `.clone()`, `vec!`, `.collect()`, `mem::take(` and a hash
/// map built in place (`HashMap::new`, `FxHashMap::default`) are findings
/// — the last two because a collection taken or built per call regrows
/// from zero every time. Waivers carry `// lint: allow — why`.
///
/// The guard is by function name, so a [`KERNEL_FNS`] entry that matches
/// no non-test function under [`HOT_PATH_CRATES`] is a finding too: the
/// kernel was renamed, split or deleted, and the list must follow it.
fn hot_path_alloc(ws: &Workspace, findings: &mut Vec<Finding>) {
    let mut matched: Vec<&'static str> = Vec::new();
    for prefix in HOT_PATH_CRATES {
        for file in ws.files_under(prefix) {
            let spans = kernel_fn_spans(&file.code);
            if spans.is_empty() {
                continue;
            }
            matched.extend(
                spans
                    .iter()
                    .filter(|&&(open, _, _)| !file.in_test_code(open))
                    .map(|&(_, _, name)| name),
            );
            for (i, tok) in file.code.iter().enumerate() {
                let after_dot = i > 0 && file.code[i - 1].is_punct('.');
                let calls = file.code.get(i + 1).is_some_and(|t| t.is_punct('('));
                let path_from = |owner: &str| {
                    i >= 3
                        && file.code[i - 1].is_punct(':')
                        && file.code[i - 2].is_punct(':')
                        && file.code[i - 3].is_ident(owner)
                };
                let bang = file.code.get(i + 1).is_some_and(|t| t.is_punct('!'));
                let what = if tok.is_ident("new") && path_from("Box") {
                    Some("Box::new")
                } else if tok.is_ident("take") && path_from("mem") && calls {
                    Some("mem::take(…)")
                } else if (tok.is_ident("new") && path_from("HashMap"))
                    || (tok.is_ident("default") && path_from("FxHashMap"))
                {
                    Some("a hash map built per call")
                } else if tok.is_ident("with_capacity") && calls {
                    Some("with_capacity(…)")
                } else if tok.is_ident("vec") && bang {
                    Some("vec![…]")
                } else if tok.is_ident("collect") && after_dot {
                    Some(".collect()")
                } else if tok.is_ident("to_vec") && after_dot && calls {
                    Some(".to_vec()")
                } else if tok.is_ident("clone") && after_dot && calls {
                    Some(".clone()")
                } else {
                    None
                };
                let Some(what) = what else {
                    continue;
                };
                let Some(&(_, _, kernel)) = spans
                    .iter()
                    .find(|&&(lo, hi, _)| (lo..=hi).contains(&tok.line))
                else {
                    continue;
                };
                if unwaived(file, tok.line) {
                    findings.push(finding(
                        file,
                        tok.line,
                        format!(
                            "'{what}' inside the kernel `{kernel}` — per-cycle, per-state \
                             and per-iteration code must not allocate or copy payloads; \
                             hoist the buffer out (into the owning struct, sized at \
                             construction, or a scratch the caller reuses) or justify \
                             with a '// {ALLOW_MARKER} — why' comment"
                        ),
                    ));
                }
            }
        }
    }
    // Partial workspaces (unit tests of the rules above) cannot tell a
    // stale entry from a crate that simply is not loaded.
    let whole = HOT_PATH_CRATES
        .iter()
        .all(|prefix| ws.files_under(prefix).next().is_some());
    if !whole {
        return;
    }
    for kernel in KERNEL_FNS {
        if !matched.contains(&kernel) {
            findings.push(Finding {
                path: PathBuf::from(KERNEL_LIST_FILE),
                line: 0,
                message: format!(
                    "KERNEL_FNS lists `{kernel}` but no function of that name exists \
                     under {HOT_PATH_CRATES:?} — the kernel was renamed or removed and \
                     is no longer guarded; update the list"
                ),
            });
        }
    }
}

/// Where the reject-reason enum lint 12 audits is declared.
const REJECT_ENUM_FILE: &str = "crates/core/src/error.rs";

/// The crate whose non-test code must match every reject variant (the
/// network delivery path).
const REJECT_HANDLER_DIR: &str = "crates/net/src/";

/// The variants of `RejectReason`, read structurally from its enum
/// declaration: idents directly inside the enum's brace span (depth 1,
/// outside any parentheses) that open a variant — i.e. follow the `{`
/// or a `,`. Unit, tuple and struct variants all parse; only the
/// variant *names* are collected.
pub fn reject_reason_variants(file: &SourceFile) -> Vec<(usize, String)> {
    let mut variants = Vec::new();
    let code = &file.code;
    let Some(open) = code
        .windows(3)
        .position(|w| w[0].is_ident("enum") && w[1].is_ident("RejectReason") && w[2].is_punct('{'))
    else {
        return variants;
    };
    let mut brace_depth = 0i32;
    let mut paren_depth = 0i32;
    let mut at_variant_start = false;
    for tok in &code[open + 2..] {
        if tok.is_punct('{') {
            brace_depth += 1;
            at_variant_start = brace_depth == 1;
            continue;
        }
        if tok.is_punct('}') {
            brace_depth -= 1;
            if brace_depth == 0 {
                break;
            }
            continue;
        }
        if tok.is_punct('(') {
            paren_depth += 1;
        } else if tok.is_punct(')') {
            paren_depth -= 1;
        } else if tok.is_punct(',') {
            at_variant_start = brace_depth == 1 && paren_depth == 0;
            continue;
        } else if at_variant_start && tok.kind == TokenKind::Ident {
            variants.push((tok.line, tok.text.clone()));
        }
        at_variant_start = false;
    }
    variants
}

/// Lint 12: reject-reason coverage. `RejectReason` is
/// `#[non_exhaustive]`, so the delivery path's matches all carry a `_`
/// arm and a newly added reject class would silently fall through
/// everywhere. This lint closes the loop: every declared variant must
/// appear as a `RejectReason::Variant` match-arm pattern (followed by
/// `|` or `=>`) in non-test code under `crates/net/src`, so adding a
/// variant forces an explicit delivery-path decision — recoverable loss
/// (park/deflect/drop) or structural bug (debug assert).
fn reject_reason_coverage(ws: &Workspace, findings: &mut Vec<Finding>) {
    let Some(enum_file) = ws.file(REJECT_ENUM_FILE) else {
        return; // partial workspaces (unit tests) have nothing to check
    };
    let variants = reject_reason_variants(enum_file);
    if variants.is_empty() {
        findings.push(finding(
            enum_file,
            1,
            "lint 12 found no RejectReason variants — if the enum moved, \
             update REJECT_ENUM_FILE in the analyzer"
                .into(),
        ));
        return;
    }
    for (decl_line, variant) in variants {
        let handled = ws.files_under(REJECT_HANDLER_DIR).into_iter().any(|file| {
            file.code.iter().enumerate().any(|(i, tok)| {
                tok.is_ident("RejectReason")
                    && !file.in_test_code(tok.line)
                    && file.code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && file.code.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && file.code.get(i + 3).is_some_and(|t| t.is_ident(&variant))
                    // A match-arm pattern: the next token starts `|` (an
                    // or-pattern) or `=>` (the arm's arrow).
                    && file
                        .code
                        .get(i + 4)
                        .is_some_and(|t| t.is_punct('|') || t.is_punct('='))
            })
        });
        if !handled {
            findings.push(finding(
                enum_file,
                decl_line,
                format!(
                    "RejectReason::{variant} is never matched in the delivery path \
                     ({REJECT_HANDLER_DIR}) — the enum is #[non_exhaustive], so decide \
                     explicitly whether this reject class is recoverable loss or a \
                     structural bug"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws_with(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            root: PathBuf::from("/nonexistent-test-root"),
            files: files
                .into_iter()
                .map(|(rel, src)| SourceFile::from_source(PathBuf::from(rel), rel.to_owned(), src))
                .collect(),
            crates: vec![],
        }
    }

    fn run(lint: fn(&Workspace, &mut Vec<Finding>), ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        lint(ws, &mut findings);
        findings
    }

    #[test]
    fn no_panic_catches_and_waives() {
        let ws = ws_with(vec![(
            "crates/net/src/x.rs",
            "fn f() { x.unwrap(); }\n\
             // lint: allow — provably infallible\n\
             fn g() { y.unwrap(); }\n\
             #[cfg(test)]\nmod tests { fn t() { z.unwrap(); } }\n",
        )]);
        let findings = run(no_panic, &ws);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn no_panic_ignores_strings_and_comments() {
        let ws = ws_with(vec![(
            "crates/core/src/x.rs",
            "// .unwrap() in a comment\nfn f() { let s = \".unwrap()\"; }\n",
        )]);
        assert!(run(no_panic, &ws).is_empty());
    }

    #[test]
    fn rng_lint_spans_tests_too() {
        let ws = ws_with(vec![(
            "crates/bench/src/x.rs",
            "#[cfg(test)]\nmod tests { fn t() { let r = thread_rng(); } }\n",
        )]);
        assert_eq!(run(no_unseeded_rng, &ws).len(), 1);
    }

    #[test]
    fn must_use_accepts_attribute_and_flags_bare() {
        let ws = ws_with(vec![(
            "crates/core/src/x.rs",
            "#[must_use]\npub fn a(mut self) -> Self { self }\n\
             pub fn b(mut self) -> Self { self }\n\
             pub fn c(&self) -> usize { 0 }\n",
        )]);
        let findings = run(must_use_builders, &ws);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn unsafe_audit_requires_safety_comment() {
        let ws = ws_with(vec![(
            "crates/net/tests/x.rs",
            "// SAFETY: justified.\nunsafe impl Send for A {}\nunsafe impl Sync for A {}\n",
        )]);
        let mut findings = Vec::new();
        for file in &ws.files {
            for site in tree::unsafe_sites(&file.code) {
                if !file.comment_marker_at(site.line, SAFETY_MARKER) {
                    findings.push((site.line, site.summary));
                }
            }
        }
        assert_eq!(findings.len(), 1, "the Sync impl has no SAFETY above it");
        assert_eq!(findings[0].0, 3);
    }

    #[test]
    fn determinism_catches_hash_and_clock() {
        let ws = ws_with(vec![(
            "crates/telemetry/src/x.rs",
            "use std::collections::HashMap;\n\
             // lint: allow — membership only, never iterated\n\
             use std::collections::HashSet;\n\
             fn t() { let now = Instant::now(); }\n\
             fn id() { let me = std::thread::current(); }\n",
        )]);
        let findings = run(determinism, &ws);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 4, 5], "waived HashSet is skipped");
    }

    #[test]
    fn one_lane_crates_ban_threads_and_shared_memory_sync() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   struct Plan { queries: AtomicU64, lock: Mutex<u8>, cv: Condvar }\n\
                   fn spawn() { std::thread::scope(|s| {}); }\n\
                   // lint: allow — a fixture waiver.\n\
                   static N: AtomicUsize = AtomicUsize::new(0);\n\
                   fn cmp() { let o = std::cmp::Ordering::Less; }\n";
        let lines = |rel: &str| -> Vec<usize> {
            let findings = run(determinism, &ws_with(vec![(rel, src)]));
            findings.iter().map(|f| f.line).collect()
        };
        assert_eq!(
            lines("crates/net/src/x.rs"),
            vec![1, 1, 2, 2, 2, 3],
            "`sync::atomic` and each `Atomic*`, `Mutex`, `Condvar`, `std::thread`; \
             not the waived site, not `cmp::Ordering`"
        );
        assert!(
            lines("crates/telemetry/src/x.rs").is_empty(),
            "the shared flight recorder may lock"
        );
    }

    #[test]
    fn metric_docs_extracts_names_and_skips_tests() {
        let ws = ws_with(vec![(
            "crates/net/src/x.rs",
            "fn r(reg: &mut MetricsRegistry) {\n\
             let c = reg.counter(\"net.cycles\");\n\
             let h = reg.histogram(\"net.latency_cycles\");\n\
             let d = reg.counter(dynamic_name);\n\
             }\n\
             #[cfg(test)]\nmod tests { fn t(reg: &mut MetricsRegistry) { reg.counter(\"test.x\"); } }\n\
             fn counter_rows(life: &Counters) -> [(&'static str, u64); 2] {\n\
             [\n\
             (\"net.generated\", life.generated),\n\
             (\"net.fault.misrouted\", if life.on { 1 } else { 0 }),\n\
             ]\n\
             }\n\
             fn other() { let pair = (\"not.a.metric\", 3); }\n",
        )]);
        let names = registered_metric_names(&ws.files[0]);
        assert_eq!(
            names,
            vec![
                (2, "net.cycles".to_owned()),
                (3, "net.latency_cycles".to_owned()),
                (7, "test.x".to_owned()),
                (10, "net.generated".to_owned()),
                (11, "net.fault.misrouted".to_owned()),
            ],
            "literal names only; the dynamic-name site is skipped; table \
             rows count inside `counter_rows` and nowhere else"
        );
        // The workspace root points nowhere, so the reference doc reads
        // as empty and every non-test name is flagged; the test-code
        // registration is not.
        let findings = run(metric_docs, &ws);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 10, 11]);
    }

    #[test]
    fn hot_path_alloc_flags_kernels_only() {
        let ws = ws_with(vec![(
            "crates/switch/src/x.rs",
            "impl Switch {\n\
             pub fn new() -> Self {\n\
                 let scratch = Vec::with_capacity(16);\n\
                 Self { scratch }\n\
             }\n\
             pub fn transmit_cycle_with(&mut self) {\n\
                 let v = Vec::with_capacity(4);\n\
                 let b = Box::new(0u32);\n\
                 let c = self.lens.to_vec();\n\
                 let p = packet.clone();\n\
                 let ok = done.clone;\n\
             }\n\
             pub fn service(&mut self) {\n\
                 let entries = std::mem::take(&mut self.pending);\n\
                 let first = self.pending.iter().take(1);\n\
             }\n\
             pub fn snapshot(&mut self) {\n\
                 let times = std::mem::take(&mut self.times);\n\
             }\n\
             }\n",
        )]);
        let findings = run(hot_path_alloc, &ws);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![7, 8, 9, 10, 14],
            "constructor allocation is fine; the four kernel sites are \
             findings; `done.clone` without a call is not; `mem::take` in a \
             kernel throws a collection's capacity away, `Iterator::take` \
             and a cold-path `mem::take` do not"
        );
        assert!(findings[0].message.contains("transmit_cycle_with"));
        assert!(
            findings[4].message.contains("mem::take") && findings[4].message.contains("service")
        );
    }

    #[test]
    fn hot_path_alloc_covers_the_markov_kernels() {
        let ws = ws_with(vec![(
            "crates/markov/src/x.rs",
            "impl Model {\n\
             fn for_each_transition(&self, emit: impl FnMut(T)) {\n\
                 let options = vec![(None, 1.0 - p)];\n\
                 let moves: Vec<_> = grants.iter().collect::<Vec<_>>();\n\
                 let merged: FxHashMap<K, V> = FxHashMap::default();\n\
                 let seen = HashMap::new();\n\
                 // lint: allow — emission order is the map's growth order.\n\
                 let fresh: FxHashMap<K, V> = FxHashMap::default();\n\
                 let reward = Reward::default();\n\
                 let vec = [0u8; 4];\n\
             }\n\
             pub fn steady_state(&self) {\n\
                 let pi = vec![0.0; n];\n\
                 let self_loop: Vec<f64> = rows.map(f).collect();\n\
             }\n\
             fn restart_cycle(matrix: &CsrMatrix, basis: &mut [f64]) {\n\
                 let next = vec![0.0; n];\n\
             }\n\
             }\n",
        )]);
        let findings = run(hot_path_alloc, &ws);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![3, 4, 5, 6, 17],
            "`vec!`, `.collect()` and both map constructors are findings in a \
             per-state kernel and a per-restart step; the waived map, another \
             type's `default()`, a binding named `vec` and solver set-up are not"
        );
        assert!(
            findings[0].message.contains("vec![") && findings[1].message.contains(".collect()")
        );
        assert!(findings[2].message.contains("hash map"));
        assert!(findings[4].message.contains("restart_cycle"));
    }

    #[test]
    fn hot_path_alloc_covers_the_source_stream() {
        let src = "fn put_varint(record: &mut [u8]) {\n\
                       let bytes = vec![0u8; 10];\n\
                   }\n\
                   pub fn pop_front(&mut self) {\n\
                       let chunk: Vec<u8> = self.chunks.iter().flatten().collect();\n\
                       let stream = std::mem::take(&mut self.stream);\n\
                   }\n\
                   pub fn heap_bytes(&self) {\n\
                       let lens: Vec<usize> = self.chunks.iter().map(Vec::len).collect();\n\
                   }\n";
        let ws = ws_with(vec![("crates/net/src/network/source.rs", src)]);
        let lines: Vec<usize> = run(hot_path_alloc, &ws).iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 5, 6], "the cold accessor may collect");
    }

    #[test]
    fn hot_path_alloc_honours_waivers_and_test_code() {
        let ws = ws_with(vec![(
            "crates/core/src/x.rs",
            "pub fn dequeue(&mut self) {\n\
                 // lint: allow — cold fault path, measured free.\n\
                 let v = self.dead.to_vec();\n\
                 // lint: allow — drained once per run, never refilled.\n\
                 let log = std::mem::take(&mut self.log);\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 pub fn dequeue() { let b = Box::new(1); }\n\
             }\n",
        )]);
        assert!(run(hot_path_alloc, &ws).is_empty());
    }

    #[test]
    fn hot_path_alloc_flags_stale_kernel_names() {
        // Every listed kernel is defined once across the hot-path crates,
        // except `merge_interior_stage`, which only a test module still
        // defines.
        let defs = |skip: &str| -> String {
            KERNEL_FNS
                .iter()
                .filter(|k| **k != skip)
                .map(|k| format!("fn {k}() {{}}\n"))
                .collect()
        };
        let net = format!(
            "{}#[cfg(test)]\nmod tests {{\nfn merge_interior_stage() {{}}\n}}\n",
            defs("merge_interior_stage")
        );
        let ws = ws_with(vec![
            ("crates/core/src/x.rs", "fn helper() {}\n"),
            ("crates/switch/src/x.rs", "fn helper() {}\n"),
            ("crates/markov/src/x.rs", "fn helper() {}\n"),
            ("crates/net/src/x.rs", &net),
        ]);
        let findings = run(hot_path_alloc, &ws);
        assert_eq!(findings.len(), 1, "only the renamed kernel is stale");
        assert!(findings[0].message.contains("`merge_interior_stage`"));
        assert!(findings[0].path.ends_with("lints.rs"));

        let ws = ws_with(vec![
            ("crates/core/src/x.rs", "fn helper() {}\n"),
            ("crates/switch/src/x.rs", "fn helper() {}\n"),
            ("crates/markov/src/x.rs", "fn helper() {}\n"),
            ("crates/net/src/x.rs", &defs("")),
        ]);
        assert!(run(hot_path_alloc, &ws).is_empty(), "full list, no finding");
    }

    #[test]
    fn kernel_spans_cover_nested_blocks() {
        let src = "pub fn advance_stages(&mut self) {\n\
                   for s in 0..n {\n\
                   let x = 1;\n\
                   }\n\
                   }\n\
                   pub fn other() {\n\
                   let y = 2;\n\
                   }\n";
        let file = SourceFile::from_source(
            PathBuf::from("crates/net/src/x.rs"),
            "crates/net/src/x.rs".to_owned(),
            src,
        );
        let spans = kernel_fn_spans(&file.code);
        assert_eq!(spans.len(), 1);
        let (lo, hi, name) = spans[0];
        assert_eq!(name, "advance_stages");
        assert!(lo <= 1 && hi >= 5, "span {lo}..={hi} covers the loop");
    }

    const REJECT_ENUM_SRC: &str = "#[non_exhaustive]\n\
         pub enum RejectReason {\n\
         PacketTooLarge,\n\
         BufferFull,\n\
         Faulted,\n\
         }\n";

    #[test]
    fn reject_variants_parse_structurally() {
        let file = SourceFile::from_source(
            PathBuf::from(REJECT_ENUM_FILE),
            REJECT_ENUM_FILE.to_owned(),
            "pub enum Other { A, B }\n\
             pub enum RejectReason {\n\
             Unit,\n\
             Tuple(usize, String),\n\
             Struct { len: usize, cap: usize },\n\
             }\n",
        );
        let names: Vec<String> = reject_reason_variants(&file)
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        assert_eq!(
            names,
            vec!["Unit", "Tuple", "Struct"],
            "variant names only — no field idents, no other enums"
        );
    }

    #[test]
    fn reject_coverage_requires_every_variant_in_a_match() {
        let ws = ws_with(vec![
            (REJECT_ENUM_FILE, REJECT_ENUM_SRC),
            (
                "crates/net/src/network.rs",
                "fn deliver() {\n\
                 match r.reason {\n\
                 RejectReason::BufferFull | RejectReason::Faulted => {}\n\
                 _ => {}\n\
                 }\n\
                 let x = RejectReason::PacketTooLarge;\n\
                 }\n",
            ),
        ]);
        let findings = run(reject_reason_coverage, &ws);
        assert_eq!(
            findings.len(),
            1,
            "PacketTooLarge appears only as an expression, not an arm"
        );
        assert!(findings[0].message.contains("PacketTooLarge"));
    }

    #[test]
    fn reject_coverage_ignores_test_code_and_passes_when_complete() {
        let ws = ws_with(vec![
            (REJECT_ENUM_FILE, REJECT_ENUM_SRC),
            (
                "crates/net/src/network.rs",
                "fn deliver() {\n\
                 match r.reason {\n\
                 RejectReason::BufferFull | RejectReason::Faulted => {}\n\
                 RejectReason::PacketTooLarge => {}\n\
                 _ => {}\n\
                 }\n\
                 }\n",
            ),
        ]);
        assert!(run(reject_reason_coverage, &ws).is_empty());

        let ws = ws_with(vec![
            (REJECT_ENUM_FILE, REJECT_ENUM_SRC),
            (
                "crates/net/src/network.rs",
                "#[cfg(test)]\nmod tests {\n\
                 fn t() { match r { RejectReason::BufferFull => {} _ => {} } }\n\
                 }\n",
            ),
        ]);
        assert_eq!(
            run(reject_reason_coverage, &ws).len(),
            3,
            "matches inside test code do not count as delivery-path coverage"
        );
    }

    #[test]
    fn markdown_link_targets_extracts_paths() {
        assert_eq!(
            markdown_link_targets("see [a](docs/A.md) and [b](B.md#sec)"),
            vec!["docs/A.md".to_owned(), "B.md#sec".to_owned()]
        );
        assert_eq!(
            markdown_link_targets(r#"[t](path.md "a title")"#),
            vec!["path.md".to_owned()]
        );
        assert!(markdown_link_targets("no links here").is_empty());
    }
}
