//! The six workspace lints no compiler lint states, implemented over
//! the structural scanner. The numbers are historical; the retired ones
//! now live in rustc and clippy (`docs/VERIFICATION.md` § Static
//! analysis) or in the type system:
//!
//! 3. **module-docs** — every module of the network simulator
//!    (`crates/net/src`) opens with a `//!` overview.
//! 7. **doc-links** — relative markdown links in the root `*.md` files and
//!    `docs/` resolve.
//! 8. **workspace-lints** — the root manifest's `[workspace.lints]` tables
//!    set the workspace-wide rules (`unsafe_code = "forbid"`,
//!    `missing_docs = "deny"`, `return_self_not_must_use = "deny"`) and
//!    every member manifest opts in with `[lints] workspace = true`, so the
//!    compiler applies them to every target of every crate; the
//!    simulation-path crates carry one identical `clippy.toml`
//!    (determinism).
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
//! 13. **macro-panics** — no `panic!`, `unreachable!`, `todo!`,
//!     `unimplemented!`, `.unwrap()` or `.expect(` inside a
//!     `macro_rules!` body in the non-test code of the simulation-path
//!     crates. Clippy's no-panic lints judge the outermost macro call, so
//!     a panic written in a local macro's body reaches every expansion
//!     unseen; waivers carry `// lint: allow — why`.
//!
//! Every lint takes the parsed [`Workspace`] and appends [`Finding`]s;
//! the driver times each entry of [`ALL`] so scan-speed regressions are
//! visible run to run.

use std::fs;
use std::path::PathBuf;

use super::lexer::{Token, TokenKind};
use super::tree;
use super::{Finding, SourceFile, Workspace};

/// The comment marker that waives a lint for one site.
pub const ALLOW_MARKER: &str = "lint: allow";

/// Crates whose every `src/` module must open with a `//!` overview.
const MODULE_DOC_CRATES: [&str; 1] = ["crates/net/src/"];

/// The simulation-path crates: each carries the same `clippy.toml`, whose
/// `disallowed-types` / `disallowed-methods` keep a run's bytes free of
/// hash order, wall-clock and threads. Clippy reads the first
/// `clippy.toml` above a crate's manifest, so each crate needs its own.
const SIM_PATH_CRATES: [&str; 4] = [
    "crates/core",
    "crates/switch",
    "crates/net",
    "crates/telemetry",
];

/// The workspace-wide lint levels the root manifest sets, as
/// `(table, key, value)`.
const WORKSPACE_LINTS: [(&str, &str, &str); 3] = [
    ("workspace.lints.rust", "unsafe_code", "\"forbid\""),
    ("workspace.lints.rust", "missing_docs", "\"deny\""),
    (
        "workspace.lints.clippy",
        "return_self_not_must_use",
        "\"deny\"",
    ),
];

/// A lint pass: appends findings for one structural rule.
pub type LintFn = fn(&Workspace, &mut Vec<Finding>);

/// The six lints, in order, with their display names (retired numbers
/// are not reused). The driver times each entry individually.
pub const ALL: [(&str, LintFn); 6] = [
    ("3 module-docs", module_docs),
    ("7 doc-links", doc_links),
    ("8 workspace-lints", workspace_lints),
    ("10 metric-docs", metric_docs),
    ("11 hot-path-alloc", hot_path_alloc),
    ("13 macro-panics", macro_panics),
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

/// Lint 3: every module of the network simulator opens with a `//!`
/// overview. (The crate-root half is the workspace `missing_docs` lint.)
fn module_docs(ws: &Workspace, findings: &mut Vec<Finding>) {
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

/// Lint 8: the compiler's workspace-wide rules have one owner and reach
/// every crate. The root manifest's `[workspace.lints]` tables must set
/// [`WORKSPACE_LINTS`] — `unsafe` forbidden, `missing_docs` denied (a crate
/// doc on every crate, a doc on every public item of a library), consuming
/// builders `#[must_use]` — and every member manifest, the root `damq`
/// package included, must opt in with `[lints] workspace = true`. A
/// `[lints]` table applies to every target of its package (lib, bins,
/// tests, benches, examples), and no inner `allow` can lift a `forbid`.
/// The [`SIM_PATH_CRATES`] must each carry the same `clippy.toml`, so no
/// copy of the determinism rules drifts from the others.
fn workspace_lints(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (dir, name) in &ws.crates {
        let path = ws.root.join(dir).join("Cargo.toml");
        let text = fs::read_to_string(&path).unwrap_or_default();
        for message in manifest_problems(&text, dir == ".", name) {
            findings.push(Finding {
                path: path.clone(),
                line: 0,
                message,
            });
        }
    }
    let config = |dir: &str| fs::read_to_string(ws.root.join(dir).join("clippy.toml")).ok();
    let first = config(SIM_PATH_CRATES[0]);
    for dir in SIM_PATH_CRATES {
        if first.is_none() || config(dir) != first {
            findings.push(Finding {
                path: ws.root.join(dir).join("clippy.toml"),
                line: 0,
                message: format!(
                    "every simulation-path crate ({SIM_PATH_CRATES:?}) must carry the same \
                     clippy.toml: it holds the determinism rules"
                ),
            });
        }
    }
}

/// What lint 8 finds wrong with the manifest of package `name` (`root`:
/// the manifest also carries the `[workspace]` tables).
fn manifest_problems(text: &str, root: bool, name: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if toml_value(text, "lints", "workspace") != Some("true") {
        problems.push(format!(
            "`{name}` must opt into the workspace lints: `[lints]` with `workspace = true`"
        ));
    }
    for (table, key, value) in WORKSPACE_LINTS {
        if root && toml_value(text, table, key) != Some(value) {
            problems.push(format!(
                "the root manifest must set `{key} = {value}` in `[{table}]`"
            ));
        }
    }
    problems
}

/// The raw value of `key` in the TOML table `[table]`, comments
/// stripped — enough for this workspace's hand-written manifests.
fn toml_value<'a>(text: &'a str, table: &str, key: &str) -> Option<&'a str> {
    let mut current = "";
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = header.trim();
        } else if current == table {
            match line.split_once('=') {
                Some((k, v)) if k.trim() == key => return Some(v.trim()),
                _ => {}
            }
        }
    }
    None
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
const KERNEL_FNS: [&str; 68] = [
    // core: the per-cycle buffer operations of every design.
    "try_enqueue",
    "enqueue",
    "dequeue",
    "dequeue_if",
    "front",
    "kill_slot",
    "queue_lens_into",
    "can_accept",
    // switch: the occupancy-aware arbitration kernel, everything its
    // walk calls per occupied buffer or per cycle, and its ingress.
    "transmit_cycle_with",
    "front_meta",
    "rank",
    "grant",
    "settle_input",
    "note_hol_blocked",
    "complete_cycle",
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
    "put_long_varint",
    "get_long_varint",
    "get_wide_varint",
    "flagged_length",
    "dest_bits",
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
    // arrays are amortised) and the row merge it runs per branch, the
    // models' per-state enumeration …
    "explore",
    "merge_branch",
    "for_each_transition",
    // (the 2×2 switch enumerates each input's distinct arrival outcomes)
    "arrivals_at",
    "for_each_arrival",
    "departures",
    // (the 2×2 switch names every successor by its orbit's least image)
    "canonical",
    "images",
    "swap_inputs",
    "swap_outputs",
    "single_read_port_departures",
    "fully_connected_departures",
    // (a FIFO departure reveals each new head as two branches)
    "reveal",
    "depart_greedy",
    // … and the solvers' per-row and per-iteration steps: the
    // elimination's symbolic and numeric row reductions and the bit-set
    // walks they run on (pattern, reduced rows, pivots and the work row
    // are allocated once per solve, outside them), the products, the
    // GMRES restart (basis, iterate and product buffer likewise) and the
    // Gauss–Seidel sweep.
    "reduce_pattern",
    "reduce_row",
    "word",
    "words",
    "each_member",
    "highest",
    "count_below",
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

/// The macros whose call panics, as lint 13 names them.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Code-token index ranges `(open, close)` of every `macro_rules!` body in
/// `code`: from the delimiter after the macro's name to its match. The
/// body may be delimited by `{}`, `()` or `[]`; every bracket kind nests
/// inside it, so one depth counter finds the match.
pub fn macro_rules_bodies(code: &[Token]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    let mut i = 0;
    while i + 3 < code.len() {
        let opens = |t: &Token| t.is_punct('{') || t.is_punct('(') || t.is_punct('[');
        let defines = code[i].is_ident("macro_rules")
            && code[i + 1].is_punct('!')
            && code[i + 2].kind == TokenKind::Ident
            && opens(&code[i + 3]);
        if !defines {
            i += 1;
            continue;
        }
        let open = i + 3;
        let mut depth = 0usize;
        let mut close = code.len() - 1;
        for (j, tok) in code.iter().enumerate().skip(open) {
            if opens(tok) {
                depth += 1;
            } else if tok.is_punct('}') || tok.is_punct(')') || tok.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
        }
        bodies.push((open, close));
        i = close + 1;
    }
    bodies
}

/// Lint 13: no panic inside a `macro_rules!` body of the simulation-path
/// crates ([`SIM_PATH_CRATES`]) outside test code. The crate roots deny
/// clippy's `panic`, `unreachable`, `todo`, `unimplemented`, `unwrap_used`
/// and `expect_used`, but clippy judges a macro expansion by its
/// outermost call, so a panic in a local macro's body passes that gate
/// at every call site. Here the body's tokens are read directly: a
/// [`PANIC_MACROS`] name followed by `!`, and a `.unwrap()` or `.expect(`
/// call, are findings. A site that must panic calls a function that
/// does, under an `#[expect]` (as `strict_audit!` does), or carries
/// `// lint: allow — why`.
fn macro_panics(ws: &Workspace, findings: &mut Vec<Finding>) {
    for dir in SIM_PATH_CRATES {
        let prefix = format!("{dir}/src/");
        for file in ws.files_under(&prefix) {
            let code = &file.code;
            for (open, close) in macro_rules_bodies(code) {
                for i in open + 1..close {
                    let tok = &code[i];
                    let next_is = |ch: char| code.get(i + 1).is_some_and(|t| t.is_punct(ch));
                    let method = code[i - 1].is_punct('.') && next_is('(');
                    let what = if PANIC_MACROS.iter().any(|m| tok.is_ident(m)) && next_is('!') {
                        format!("{}!", tok.text)
                    } else if method && tok.is_ident("unwrap") {
                        ".unwrap()".to_owned()
                    } else if method && tok.is_ident("expect") {
                        ".expect(…)".to_owned()
                    } else {
                        continue;
                    };
                    if unwaived(file, tok.line) {
                        findings.push(finding(
                            file,
                            tok.line,
                            format!(
                                "'{what}' inside a macro_rules! body — clippy's no-panic \
                                 lints judge the outermost macro call and do not see it; \
                                 return an error, call a function that panics under an \
                                 #[expect], or justify with a '// {ALLOW_MARKER} — why' \
                                 comment"
                            ),
                        ));
                    }
                }
            }
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
    fn workspace_lints_require_the_opt_in_and_the_root_tables() {
        let member = "[package]\nname = \"m\"\n\n[lints]\nworkspace = true\n";
        assert!(manifest_problems(member, false, "m").is_empty());
        for bad in [
            "[package]\nname = \"m\"\n",
            "[lints]\nworkspace = false\n",
            "[dependencies]\nworkspace = true\n",
            "[lints]\n# workspace = true\n",
        ] {
            let problems = manifest_problems(bad, false, "m");
            assert_eq!(problems.len(), 1, "{bad:?}");
            assert!(problems[0].contains("`m` must opt into"));
        }

        let root = "[workspace]\nmembers = [\"crates/*\"]\n\n\
                    [workspace.lints.rust]\nunsafe_code = \"forbid\" # one owner\n\
                    missing_docs = \"deny\"\n\n\
                    [workspace.lints.clippy]\nreturn_self_not_must_use = \"deny\"\n\n\
                    [package]\nname = \"r\"\n\n[lints]\nworkspace = true\n";
        assert!(manifest_problems(root, true, "r").is_empty());
        for (line, key) in [
            ("unsafe_code = \"forbid\"", "unsafe_code"),
            ("missing_docs = \"deny\"", "missing_docs"),
            (
                "return_self_not_must_use = \"deny\"",
                "return_self_not_must_use",
            ),
        ] {
            for replacement in ["", "# off", &line.replace('"', "'")] {
                let bad = root.replace(line, replacement);
                let problems = manifest_problems(&bad, true, "r");
                assert_eq!(problems.len(), 1, "{bad:?}");
                assert!(problems[0].contains(key), "{}", problems[0]);
            }
        }
        let swapped = root
            .replace("[workspace.lints.rust]", "[workspace.lints.tmp]")
            .replace("[workspace.lints.clippy]", "[workspace.lints.rust]")
            .replace("[workspace.lints.tmp]", "[workspace.lints.clippy]");
        assert_eq!(manifest_problems(&swapped, true, "r").len(), 3);
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
             fn reveal(state: &S, inputs: &[usize], emit: &mut impl FnMut(S)) {\n\
                 let hidden: Vec<usize> = inputs.iter().copied().collect();\n\
             }\n\
             fn arrangements(&self, state: &S) -> usize {\n\
                 let lens = state.len.to_vec();\n\
             }\n\
             fn eliminate(matrix: &CsrMatrix) -> Option<Vec<f64>> {\n\
                 let work = vec![0.0; n];\n\
             }\n\
             fn reduce_row(k: usize, work: &mut [f64]) {\n\
                 let row: Vec<usize> = members(pattern, 0, k).collect();\n\
             }\n\
             }\n",
        )]);
        let findings = run(hot_path_alloc, &ws);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![3, 4, 5, 6, 17, 20, 29],
            "`vec!`, `.collect()` and both map constructors are findings in a \
             per-state kernel, a per-restart step, a FIFO reveal and a row \
             reduction; the waived map, another type's `default()`, a binding \
             named `vec`, solver set-up (GMRES's and the elimination's) and the \
             once-per-state count of arrangements are not"
        );
        assert!(
            findings[0].message.contains("vec![") && findings[1].message.contains(".collect()")
        );
        assert!(findings[2].message.contains("hash map"));
        assert!(findings[4].message.contains("restart_cycle"));
        assert!(findings[5].message.contains("`reveal`"));
        assert!(findings[6].message.contains("`reduce_row`"));
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

    #[test]
    fn macro_panics_flags_seeded_violations_in_macro_bodies_only() {
        let src = "macro_rules! brace {\n\
                   ($x:expr) => {\n\
                       if $x { panic!(\"boom\") }\n\
                       $x.unwrap();\n\
                   };\n\
                   }\n\
                   macro_rules! paren (\n\
                   () => { unreachable!() }\n\
                   );\n\
                   macro_rules! bracket [\n\
                   ($e:expr) => { { let v = $e.expect(\"v\"); todo!(); unimplemented!() } }\n\
                   ];\n\
                   macro_rules! fine {\n\
                   ($e:expr) => { $e.unwrap_or(0).max(1) + panic_count!() };\n\
                   }\n\
                   macro_rules! waived {\n\
                   () => {\n\
                       // lint: allow — the reader asked for a hard stop.\n\
                       panic!()\n\
                   };\n\
                   }\n\
                   fn outside() { panic!(\"clippy's to judge\"); x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   macro_rules! in_test { () => { panic!() }; }\n\
                   }\n";
        let ws = ws_with(vec![
            ("crates/core/src/x.rs", src),
            (
                "crates/telemetry/src/y.rs",
                "macro_rules! m { () => { todo!() }; }\n",
            ),
            (
                "crates/bench/src/z.rs",
                "macro_rules! m { () => { todo!() }; }\n",
            ),
            (
                "crates/core/tests/t.rs",
                "macro_rules! m { () => { todo!() }; }\n",
            ),
        ]);
        let findings = run(macro_panics, &ws);
        let sites: Vec<(&str, usize)> = findings
            .iter()
            .map(|f| (f.path.to_str().unwrap_or(""), f.line))
            .collect();
        assert_eq!(
            sites,
            vec![
                ("crates/core/src/x.rs", 3),
                ("crates/core/src/x.rs", 4),
                ("crates/core/src/x.rs", 8),
                ("crates/core/src/x.rs", 11),
                ("crates/core/src/x.rs", 11),
                ("crates/core/src/x.rs", 11),
                ("crates/telemetry/src/y.rs", 1),
            ],
            "all three delimiters and all six forms are findings; `unwrap_or`, a \
             macro named `panic_count`, the waived site, code outside a macro, \
             test code and crates outside the simulation path are not"
        );
        let kinds: Vec<&str> = findings
            .iter()
            .map(|f| f.message.split('\'').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(
            kinds,
            vec![
                "panic!",
                ".unwrap()",
                "unreachable!",
                ".expect(…)",
                "todo!",
                "unimplemented!",
                "todo!"
            ]
        );
    }

    #[test]
    fn macro_rules_bodies_match_their_delimiters() {
        let src = "macro_rules! a { (x) => { [1, 2] }; }\nfn f() {}\nmacro_rules! b ( () => {} );";
        let file = SourceFile::from_source(PathBuf::from("x.rs"), "x.rs".into(), src);
        let bodies = macro_rules_bodies(&file.code);
        assert_eq!(bodies.len(), 2);
        for (open, close) in bodies {
            let (o, c) = (&file.code[open], &file.code[close]);
            assert!(
                (o.is_punct('{') && c.is_punct('}')) || (o.is_punct('(') && c.is_punct(')')),
                "{:?} .. {:?}",
                o.text,
                c.text
            );
        }
        assert!(file.code[macro_rules_bodies(&file.code)[0].1 + 1].is_ident("fn"));
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
