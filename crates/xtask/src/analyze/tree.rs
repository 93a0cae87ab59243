//! Brace tree over the token stream: nested `{ … }` blocks with their
//! item headers, plus the structural fact the lints and the line counter
//! consume — `#[cfg(test)]` spans.
//!
//! The tree is deliberately shallow in what it understands: every `{`
//! opens a node whose *header* is the code-token run since the previous
//! item boundary (`{`, `}`, or a `;` outside brackets — the one in
//! `-> [u8; 4]` ends nothing), every `}` closes one. That is enough
//! to answer the structural questions the lints ask ("is this line
//! inside a `#[cfg(test)] mod`?", "which function's braces hold this
//! token?") without a real parser.

use super::lexer::Token;

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
}
