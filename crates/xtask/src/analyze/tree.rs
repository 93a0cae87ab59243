//! Brace tree over the token stream: nested `{ … }` blocks with their
//! item headers, plus the derived structural facts the lints consume —
//! `#[cfg(test)]` spans, `unsafe` sites and `pub fn` signatures.
//!
//! The tree is deliberately shallow in what it understands: every `{`
//! opens a node whose *header* is the code-token run since the previous
//! item boundary (`{`, `}`, or a `;` outside brackets — the one in
//! `-> [u8; 4]` ends nothing), every `}` closes one. That is enough
//! to answer the structural questions the lints ask ("is this line
//! inside a `#[cfg(test)] mod`?", "does this `unsafe impl` carry a
//! SAFETY comment?", "does this `pub fn` consume `self` and return
//! `Self`?") without a real parser.

use super::lexer::{Token, TokenKind};

/// One `{ … }` block: its header tokens (indices into the *code* token
/// list), the lines it spans, and its nested children.
#[derive(Debug)]
pub struct Node {
    /// Code-token index range of the header: everything between the
    /// previous item boundary and the opening brace. Attributes such as
    /// `#[cfg(test)]` are part of the header (they contain no braces).
    pub header: (usize, usize),
    /// 1-based line of the opening brace.
    pub open_line: usize,
    /// 1-based line of the closing brace (last source line if unclosed).
    pub close_line: usize,
    /// Nested blocks, in source order.
    pub children: Vec<Node>,
}

/// The brace tree of one source file, built over its code tokens
/// (comments filtered out, but index-mapped back to the full stream).
#[derive(Debug)]
pub struct Tree {
    /// Top-level blocks, in source order.
    pub roots: Vec<Node>,
}

/// Builds the brace tree from `code` (the comment-free token list).
pub fn build(code: &[Token]) -> Tree {
    let mut builder = Builder {
        code,
        pos: 0,
        item_start: 0,
    };
    let last_line = code.last().map_or(1, |t| t.line);
    let roots = builder.block_children(last_line);
    Tree { roots }
}

struct Builder<'a> {
    code: &'a [Token],
    pos: usize,
    item_start: usize,
}

impl Builder<'_> {
    /// Consumes tokens until the enclosing block's `}` (or end of input),
    /// returning the child nodes found. `fallback_close` is the line to
    /// report when the block never closes (malformed input).
    fn block_children(&mut self, fallback_close: usize) -> Vec<Node> {
        let mut children = Vec::new();
        // Open `(` / `[` in this block: a `;` inside them is an array
        // length or a nested statement, not the end of an item.
        let mut brackets = 0usize;
        while self.pos < self.code.len() {
            let tok = &self.code[self.pos];
            if tok.is_punct('{') {
                let header = (self.item_start, self.pos);
                let open_line = tok.line;
                self.pos += 1;
                self.item_start = self.pos;
                let inner = self.block_children(fallback_close);
                let close_line = self
                    .code
                    .get(self.pos.saturating_sub(1))
                    .map_or(fallback_close, |t| t.line);
                children.push(Node {
                    header,
                    open_line,
                    close_line,
                    children: inner,
                });
                self.item_start = self.pos;
            } else if tok.is_punct('}') {
                self.pos += 1;
                return children;
            } else {
                if tok.is_punct('(') || tok.is_punct('[') {
                    brackets += 1;
                } else if tok.is_punct(')') || tok.is_punct(']') {
                    brackets = brackets.saturating_sub(1);
                } else if tok.is_punct(';') && brackets == 0 {
                    self.item_start = self.pos + 1;
                }
                self.pos += 1;
            }
        }
        children
    }
}

impl Tree {
    /// Line spans (inclusive) of every `#[cfg(test)]`-gated block — test
    /// modules and test functions. Lints on library code skip findings
    /// inside these spans.
    pub fn test_spans(&self, code: &[Token]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        collect_test_spans(&self.roots, code, &mut spans);
        spans
    }
}

fn collect_test_spans(nodes: &[Node], code: &[Token], spans: &mut Vec<(usize, usize)>) {
    for node in nodes {
        if header_has_cfg_test(&code[node.header.0..node.header.1]) {
            spans.push((node.open_line, node.close_line));
            // No need to recurse: the whole span is excluded.
            continue;
        }
        collect_test_spans(&node.children, code, spans);
    }
}

/// Whether a header token run contains the attribute shape
/// `# [ cfg ( test` (covering `#[cfg(test)]` and `#[cfg(all(test, …))]`
/// for the common orderings used in this workspace).
fn header_has_cfg_test(header: &[Token]) -> bool {
    header.windows(4).any(|w| {
        w[0].is_punct('#') && w[1].is_punct('[') && w[2].is_ident("cfg") && w[3].is_punct('(')
    }) && header.iter().any(|t| t.is_ident("test"))
}

/// Whether `line` falls in any of `spans` (inclusive bounds).
pub fn line_in_spans(line: usize, spans: &[(usize, usize)]) -> bool {
    spans.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
}

/// The kind of an `unsafe` occurrence, classified by its following token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { … }` — an unsafe block.
    Block,
    /// `unsafe impl Trait for Type` — an unsafe trait implementation.
    Impl,
    /// `unsafe fn name(...)` — an unsafe function.
    Fn,
    /// `unsafe trait Name` — an unsafe trait declaration.
    Trait,
    /// Anything else (`unsafe` in an unexpected position).
    Other,
}

impl UnsafeKind {
    /// Human-readable label used in findings and the generated ledger.
    pub fn label(self) -> &'static str {
        match self {
            UnsafeKind::Block => "unsafe block",
            UnsafeKind::Impl => "unsafe impl",
            UnsafeKind::Fn => "unsafe fn",
            UnsafeKind::Trait => "unsafe trait",
            UnsafeKind::Other => "unsafe",
        }
    }
}

/// One `unsafe` site found in a file's code tokens.
#[derive(Debug)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// Classification by the following token.
    pub kind: UnsafeKind,
    /// A short rendering of the site's header (for the ledger), e.g.
    /// `unsafe impl Send for Job`.
    pub summary: String,
}

/// Finds every `unsafe` keyword in `code` and classifies it.
pub fn unsafe_sites(code: &[Token]) -> Vec<UnsafeSite> {
    let mut sites = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let kind = match code.get(i + 1) {
            Some(t) if t.is_punct('{') => UnsafeKind::Block,
            Some(t) if t.is_ident("impl") => UnsafeKind::Impl,
            Some(t) if t.is_ident("fn") => UnsafeKind::Fn,
            Some(t) if t.is_ident("trait") => UnsafeKind::Trait,
            _ => UnsafeKind::Other,
        };
        let mut summary = String::from("unsafe");
        for t in code.iter().skip(i + 1).take(8) {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.kind == TokenKind::Ident || t.kind == TokenKind::Lifetime {
                summary.push(' ');
                summary.push_str(&t.text);
            } else if t.kind == TokenKind::Punct && !t.is_punct(',') {
                summary.push_str(&t.text);
            }
        }
        sites.push(UnsafeSite {
            line: tok.line,
            kind,
            summary,
        });
    }
    sites
}

/// A `pub fn` signature, extracted structurally for the `#[must_use]`
/// builder lint.
#[derive(Debug)]
pub struct FnSig {
    /// 1-based line of the `pub` keyword.
    pub line: usize,
    /// Whether the receiver is `self` / `mut self` by value.
    pub consumes_self: bool,
    /// Whether the declared return type starts with `Self`.
    pub returns_self: bool,
}

/// Extracts every `pub fn` / `pub const fn` signature from `code`
/// (including trait-method declarations that end in `;`). Generic
/// parameter lists are skipped with angle-bracket depth tracking; `->`
/// inside bounds (e.g. `F: Fn(u32) -> u32`) does not close a depth.
pub fn fn_signatures(code: &[Token]) -> Vec<FnSig> {
    let mut sigs = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("pub") {
            i += 1;
            continue;
        }
        let line = code[i].line;
        let mut j = i + 1;
        // Visibility scope `pub(crate)` etc.: skip a balanced paren run.
        if code.get(j).is_some_and(|t| t.is_punct('(')) {
            let mut depth = 0i32;
            while let Some(t) = code.get(j) {
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if code.get(j).is_some_and(|t| t.is_ident("const")) {
            j += 1;
        }
        if !code.get(j).is_some_and(|t| t.is_ident("fn")) {
            i += 1;
            continue;
        }
        j += 1; // fn
        j += 1; // the function name
                // Generic parameters: skip to the matching `>`.
        if code.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while let Some(t) = code.get(j) {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    // `->` inside bounds: the `>` of an arrow is not a
                    // generic closer.
                    let arrow = j > 0 && code[j - 1].is_punct('-');
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                }
                j += 1;
            }
        }
        // Parameter list.
        let Some(open) = code.get(j).filter(|t| t.is_punct('(')) else {
            i = j;
            continue;
        };
        let _ = open;
        let params_start = j + 1;
        let mut depth = 0i32;
        while let Some(t) = code.get(j) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let params_end = j; // index of the closing paren
        let consumes_self = {
            let first = code.get(params_start);
            let second = code.get(params_start + 1);
            match first {
                Some(t) if t.is_ident("self") => true,
                Some(t) if t.is_ident("mut") => second.is_some_and(|t| t.is_ident("self")),
                _ => false,
            }
        };
        // Return type: `-> Self …` directly after the params.
        let returns_self = code.get(params_end + 1).is_some_and(|t| t.is_punct('-'))
            && code.get(params_end + 2).is_some_and(|t| t.is_punct('>'))
            && code.get(params_end + 3).is_some_and(|t| t.is_ident("Self"));
        sigs.push(FnSig {
            line,
            consumes_self,
            returns_self,
        });
        i = params_end + 1;
    }
    sigs
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn code(src: &str) -> Vec<Token> {
        lex(src).into_iter().filter(|t| !t.is_comment()).collect()
    }

    #[test]
    fn tree_nests_blocks() {
        let toks = code("mod a { fn f() { if x { } } } struct S { x: u32 }");
        let tree = build(&toks);
        assert_eq!(tree.roots.len(), 2);
        assert_eq!(tree.roots[0].children.len(), 1, "fn f inside mod a");
        assert_eq!(tree.roots[0].children[0].children.len(), 1, "if inside f");
    }

    #[test]
    fn array_lengths_do_not_end_a_header() {
        let toks = code("const N: usize = 4; fn f(x: [u8; 2]) -> [u8; N] { x }");
        let tree = build(&toks);
        let (lo, hi) = tree.roots[0].header;
        assert!(toks[lo].is_ident("fn"), "header starts at `fn`");
        assert!(toks[hi - 1].is_punct(']'), "header runs to the brace");
    }

    #[test]
    fn cfg_test_mod_spans_are_found() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n";
        let toks = code(src);
        let tree = build(&toks);
        let spans = tree.test_spans(&toks);
        assert_eq!(spans.len(), 1);
        assert!(line_in_spans(4, &spans), "unwrap line is inside the span");
        assert!(!line_in_spans(1, &spans), "real code is outside");
    }

    #[test]
    fn cfg_test_fn_is_also_skipped() {
        let src = "#[cfg(test)]\nfn helper() { x.unwrap(); }\nfn real() {}\n";
        let toks = code(src);
        let spans = build(&toks).test_spans(&toks);
        assert!(line_in_spans(2, &spans));
        assert!(!line_in_spans(3, &spans));
    }

    #[test]
    fn unsafe_sites_classify() {
        let src = "unsafe impl Send for Job {}\nfn f() { unsafe { g() } }\npub unsafe fn h() {}\n";
        let toks = code(src);
        let sites = unsafe_sites(&toks);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].kind, UnsafeKind::Impl);
        assert_eq!(sites[0].summary, "unsafe impl Send for Job");
        assert_eq!(sites[1].kind, UnsafeKind::Block);
        assert_eq!(sites[2].kind, UnsafeKind::Fn);
    }

    #[test]
    fn fn_signatures_detect_consuming_builders() {
        let src = "\
pub fn seed(mut self, s: u64) -> Self { self }
pub const fn with_x(self) -> Self { self }
pub fn len(&self) -> usize { 0 }
pub fn set(&mut self, x: u64) -> Self { Self }
pub fn build(self) -> Result<B, E> { }
pub fn generic<F: Fn(u32) -> u32>(self, f: F) -> Self { self }
pub(crate) fn internal(self) -> Self { self }
";
        let toks = code(src);
        let sigs = fn_signatures(&toks);
        let builders: Vec<usize> = sigs
            .iter()
            .filter(|s| s.consumes_self && s.returns_self)
            .map(|s| s.line)
            .collect();
        assert_eq!(builders, vec![1, 2, 6, 7]);
    }

    #[test]
    fn multiline_signatures_are_one_sig() {
        let src = "pub fn long(\n    mut self,\n    x: u64,\n) -> Self {\n    self\n}\n";
        let toks = code(src);
        let sigs = fn_signatures(&toks);
        assert_eq!(sigs.len(), 1);
        assert!(sigs[0].consumes_self && sigs[0].returns_self);
        assert_eq!(sigs[0].line, 1);
    }
}
