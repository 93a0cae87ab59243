//! `damq-analyze` — the structural analysis subsystem behind
//! `cargo xtask lint`.
//!
//! The first six PRs grew the lint driver as regex-style line scans;
//! this module replaces that with a real (if small) pipeline:
//!
//! 1. [`lexer`] tokenizes every workspace source file — identifiers,
//!    punctuation, literals, and comments retained with their text;
//! 2. [`tree`] builds a brace tree over the code tokens and derives
//!    structural facts (`#[cfg(test)]` spans, `unsafe` sites, `pub fn`
//!    signatures);
//! 3. [`lints`] runs the eleven workspace lints over the parsed files;
//! 4. [`ledger`] renders the `unsafe`/atomics inventory as
//!    `docs/UNSAFE_LEDGER.md`, which lint 8 checks for staleness.
//!
//! Everything is hand-rolled and dependency-free, mirroring how
//! `damq-rng` replaced the unfetchable external `rand`: the container
//! builds offline, so the analysis engine has to live in-tree.

pub mod ledger;
pub mod lexer;
pub mod lints;
pub mod tree;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use lexer::Token;

/// One lint finding, printed `path:line: message`.
pub struct Finding {
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line (0 when the finding is about the whole file).
    pub line: usize,
    /// What is wrong and how to fix or waive it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.path.display(), self.line, self.message)
    }
}

/// One parsed source file: raw lines (for comment-marker checks that are
/// line-oriented), the full token stream, the comment-free code tokens,
/// and the `#[cfg(test)]` line spans derived from the brace tree.
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Path relative to the workspace root, with `/` separators (stable
    /// across hosts, used for scoping and the ledger).
    pub rel: String,
    /// The file's lines, verbatim.
    pub raw_lines: Vec<String>,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Code tokens only (comments filtered out).
    pub code: Vec<Token>,
    /// Line spans covered by `#[cfg(test)]` blocks.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Parses `source` as the contents of `path` (`rel` is the
    /// root-relative display path). Public so lint tests can build
    /// synthetic files without touching the filesystem.
    pub fn from_source(path: PathBuf, rel: String, source: &str) -> Self {
        let raw_lines = source.lines().map(str::to_owned).collect();
        let tokens = lexer::lex(source);
        let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
        let tree = tree::build(&code);
        let test_spans = tree.test_spans(&code);
        SourceFile {
            path,
            rel,
            raw_lines,
            tokens,
            code,
            test_spans,
        }
    }

    /// Whether `line` is inside a `#[cfg(test)]` block.
    pub fn in_test_code(&self, line: usize) -> bool {
        tree::line_in_spans(line, &self.test_spans)
    }

    /// Lines that carry code outside `#[cfg(test)]` blocks: a line counts
    /// when a non-comment token starts on it, so blank lines, comment
    /// lines and the test modules are all excluded (a test span opens at
    /// its `{`, so the `#[cfg(test)]` attribute line above it counts).
    pub fn code_lines(&self) -> usize {
        let mut lines: Vec<usize> = self
            .code
            .iter()
            .map(|t| t.line)
            .filter(|&line| !self.in_test_code(line))
            .collect();
        lines.dedup();
        lines.len()
    }

    /// Whether the contiguous comment block directly above `line`
    /// (1-based), or `line` itself, contains `marker`. This is how all
    /// comment-anchored annotations work: `// lint: allow — why`,
    /// `// SAFETY: …`. Doc comments (`///`, `//!`)
    /// count as comment lines, so a field's doc can carry the marker,
    /// and statement-continuation lines (an rustfmt-wrapped `let x =`
    /// above an `unsafe {` line) are walked through: the comment need
    /// only sit above the enclosing statement, mirroring clippy's
    /// `undocumented_unsafe_blocks`.
    pub fn comment_marker_at(&self, line: usize, marker: &str) -> bool {
        let idx = line.saturating_sub(1);
        if self.raw_lines.get(idx).is_some_and(|l| l.contains(marker)) {
            return true;
        }
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let trimmed = self.raw_lines[i].trim();
            if trimmed.starts_with("//") || trimmed.starts_with("#[") {
                if trimmed.contains(marker) {
                    return true;
                }
                continue;
            }
            // A statement boundary ends the walk; anything else is a
            // continuation of the statement the site lives in.
            if trimmed.is_empty() || trimmed.ends_with([';', '{', '}']) {
                return false;
            }
        }
        false
    }

    /// The text of the contiguous comment block directly above `line`
    /// after the first occurrence of `marker`, whitespace-collapsed —
    /// the justification string the ledger prints.
    pub fn comment_text_after(&self, line: usize, marker: &str) -> Option<String> {
        let idx = line.saturating_sub(1);
        // Find the block: walk up over comment lines (and statement
        // continuations, as in `comment_marker_at`), then read down.
        let mut start = idx;
        while start > 0 {
            let above = self.raw_lines[start - 1].trim();
            let continuation =
                !above.is_empty() && !above.starts_with("#[") && !above.ends_with([';', '{', '}']);
            if above.starts_with("//") || continuation {
                start -= 1;
            } else {
                break;
            }
        }
        let mut collected: Vec<&str> = Vec::new();
        let mut found = false;
        for l in &self.raw_lines[start..=idx.min(self.raw_lines.len().saturating_sub(1))] {
            let trimmed = l.trim_start();
            let body = trimmed
                .trim_start_matches('/')
                .trim_start_matches('!')
                .trim();
            if let Some(pos) = body.find(marker) {
                collected.clear();
                collected.push(body[pos + marker.len()..].trim());
                found = true;
            } else if found && trimmed.starts_with("//") {
                collected.push(body);
            } else if found {
                break;
            }
        }
        if !found {
            return None;
        }
        let joined = collected.join(" ");
        let mut text = joined.split_whitespace().collect::<Vec<_>>().join(" ");
        if text.len() > 140 {
            let mut cut = 140;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
            text.push('…');
        }
        Some(text)
    }
}

/// Every parsed source file of the workspace, plus the crate inventory.
pub struct Workspace {
    /// The workspace root directory.
    pub root: PathBuf,
    /// Parsed files in sorted path order (determinism of findings and
    /// ledger output).
    pub files: Vec<SourceFile>,
    /// Workspace crates as `(dir-relative-to-root, package name)`,
    /// sorted; includes the root `damq` package as `(".", "damq")`.
    pub crates: Vec<(String, String)>,
}

impl Workspace {
    /// Loads and parses every `.rs` file under `crates/*/{src,tests,benches}`,
    /// `src/`, `tests/` and `examples/`.
    pub fn load(root: &Path) -> Self {
        let mut paths: Vec<PathBuf> = Vec::new();
        if let Ok(entries) = fs::read_dir(root.join("crates")) {
            for entry in entries.flatten() {
                for sub in ["src", "tests", "benches"] {
                    collect_rust_files(&entry.path().join(sub), &mut paths);
                }
            }
        }
        for sub in ["src", "tests", "examples"] {
            collect_rust_files(&root.join(sub), &mut paths);
        }
        paths.sort();

        let files = paths
            .into_iter()
            .filter_map(|path| {
                let source = fs::read_to_string(&path).ok()?;
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                Some(SourceFile::from_source(path, rel, &source))
            })
            .collect();

        let mut crates = Vec::new();
        if let Ok(entries) = fs::read_dir(root.join("crates")) {
            for entry in entries.flatten() {
                let dir = entry.path();
                if let Some(name) = package_name(&dir.join("Cargo.toml")) {
                    let rel = format!(
                        "crates/{}",
                        dir.file_name().unwrap_or_default().to_string_lossy()
                    );
                    crates.push((rel, name));
                }
            }
        }
        if let Some(name) = package_name(&root.join("Cargo.toml")) {
            crates.push((".".to_owned(), name));
        }
        crates.sort();

        Workspace {
            root: root.to_path_buf(),
            files,
            crates,
        }
    }

    /// Files whose root-relative path starts with `prefix`.
    pub fn files_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        self.files.iter().filter(move |f| f.rel.starts_with(prefix))
    }

    /// The file at exactly this root-relative path, if loaded.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// The `name = "…"` of a Cargo manifest's `[package]` section (the first
/// `name =` line — good enough for this workspace's hand-written
/// manifests).
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                return Some(rest.trim().trim_matches('"').to_owned());
            }
        }
    }
    None
}

/// All `.rs` files under `dir`, recursively (unsorted; caller sorts).
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source(PathBuf::from("test.rs"), "test.rs".into(), src)
    }

    #[test]
    fn comment_marker_walks_contiguous_blocks() {
        let f = file("// lint: allow — reason\n// more context\nx.unwrap();\ny.unwrap();\n");
        assert!(f.comment_marker_at(3, "lint: allow"));
        assert!(
            !f.comment_marker_at(4, "lint: allow"),
            "block is broken by code"
        );
    }

    #[test]
    fn comment_marker_matches_same_line() {
        let f = file("x.unwrap(); // lint: allow — checked above\n");
        assert!(f.comment_marker_at(1, "lint: allow"));
    }

    #[test]
    fn comment_text_extraction() {
        let f = file("// SAFETY: the pointer is valid because\n// the barrier holds it alive.\nunsafe { x }\n");
        let text = f.comment_text_after(3, "SAFETY:").unwrap();
        assert_eq!(
            text,
            "the pointer is valid because the barrier holds it alive."
        );
    }

    #[test]
    fn code_lines_skip_comments_blanks_and_test_modules() {
        let f = file(
            "//! Docs.\n\nfn a() {\n    // why\n    let x = 1; let y = 2; /* two tokens, one line */\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        );
        assert_eq!(
            f.code_lines(),
            4,
            "`fn a() {{`, the `let` line, `}}`, and the attribute above the span"
        );
    }

    #[test]
    fn test_spans_flow_through() {
        let f = file("fn a() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\n");
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(1));
    }
}
