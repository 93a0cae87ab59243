//! A small hand-rolled Rust lexer for the structural lints.
//!
//! The lint driver used to scan source *lines* with comments and strings
//! blanked out, which made every lint a substring match and every
//! whitespace variation a loophole (`Box < dyn SwitchBuffer >`). This
//! lexer produces a token stream — identifiers, punctuation, literals,
//! *and comments, retained with their text* — so lints can match real
//! token sequences and read `// lint: allow` markers from
//! the same stream. It is deliberately not a full Rust lexer: it only
//! distinguishes the shapes the lints care about, mirroring how
//! `damq-rng` replaced the external `rand` with the subset the
//! simulators need.
//!
//! Fidelity notes (all deliberate):
//!
//! * numeric literals are lexed greedily (`1e-9` becomes `1e`, `-`, `9`);
//!   no lint inspects numeric values, only that they are not identifiers;
//! * multi-character operators arrive as single-character punctuation
//!   (`::` is `:`, `:`), so sequence matchers compare adjacent tokens;
//! * raw strings (`r#"…"#`), byte strings and nested block comments are
//!   handled, because real sources in this workspace contain them.

/// What a [`Token`] is. Comments are first-class: the structural lints
/// read safety justifications and waivers out of the token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `fn`, `HashMap`, …).
    Ident,
    /// A lifetime (without the leading tick): `'a` lexes as `a`.
    Lifetime,
    /// One punctuation character (`.`, `!`, `<`, `{`, …).
    Punct,
    /// A string, raw-string, char or byte literal (text dropped).
    Literal,
    /// A numeric literal (text dropped; lexed greedily).
    Number,
    /// A `//` comment, including doc (`///`) and inner-doc (`//!`)
    /// comments; `text` keeps the full comment including the slashes.
    LineComment,
    /// A `/* … */` comment (possibly nested / multi-line); `text` keeps
    /// the full comment body including the delimiters.
    BlockComment,
}

/// One lexed token: kind, source text (for idents, lifetimes, puncts and
/// comments) and the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's classification.
    pub kind: TokenKind,
    /// The token's text (empty for string/char/numeric literals, whose
    /// contents no lint inspects).
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: usize,
}

impl Token {
    /// Whether this token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Whether this token is this single punctuation character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct
            && self.text.len() == ch.len_utf8()
            && self.text.starts_with(ch)
    }

    /// Whether this token is a comment (line or block, doc or plain).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// Whether this token is an *inner* doc comment (`//!` or `/*!`) —
    /// the module-overview shape lint 3 requires.
    pub fn is_inner_doc(&self) -> bool {
        self.is_comment() && (self.text.starts_with("//!") || self.text.starts_with("/*!"))
    }
}

/// Lexes `source` into a token stream. Whitespace is dropped; everything
/// else — including comments — becomes a [`Token`]. The lexer never
/// fails: malformed input degrades to punctuation tokens rather than
/// aborting, because a lint driver must report on every file it is
/// handed, not only the well-formed ones.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    tokens: Vec<Token>,
}

impl Lexer {
    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'r' if matches!(self.peek(1), Some('"' | '#')) && self.raw_string_ahead(1) => {
                    self.raw_string(1)
                }
                'b' if self.peek(1) == Some('"') => self.string_at(1),
                'b' if self.peek(1) == Some('\'') => {
                    self.pos += 1; // the `b` prefix; the tick logic does the rest
                    self.tick();
                }
                'b' if self.peek(1) == Some('r') && self.raw_string_ahead(2) => self.raw_string(2),
                '\'' => self.tick(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                _ => {
                    self.push(TokenKind::Punct, c.to_string(), self.line);
                    self.pos += 1;
                }
            }
        }
        self.tokens
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize) {
        self.tokens.push(Token { kind, text, line });
    }

    /// Whether `r`/`br` at `self.pos` actually opens a raw string: some
    /// run of `#` followed by `"`. (`r#enum` is a raw identifier, not a
    /// raw string.)
    fn raw_string_ahead(&self, after_prefix: usize) -> bool {
        let mut i = self.pos + after_prefix;
        while self.chars.get(i) == Some(&'#') {
            i += 1;
        }
        self.chars.get(i) == Some(&'"')
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::LineComment, text, line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        let mut depth = 0u32;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.pos += 2;
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.pos += 2;
                if depth == 0 {
                    break;
                }
            } else {
                if c == '\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::BlockComment, text, line);
    }

    fn string(&mut self) {
        self.string_at(0);
    }

    /// Lexes a `"…"` literal whose opening quote is `prefix` chars ahead
    /// (1 for byte strings `b"…"`).
    fn string_at(&mut self, prefix: usize) {
        let line = self.line;
        self.pos += prefix + 1; // past the opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    // A `\<newline>` continuation escapes the newline
                    // itself; it is still a new source line, so count it
                    // or every later token's line number drifts.
                    if self.peek(1) == Some('\n') {
                        self.line += 1;
                    }
                    self.pos += 2; // escape: skip the escaped char
                }
                '"' => {
                    self.pos += 1;
                    break;
                }
                _ => {
                    if c == '\n' {
                        self.line += 1;
                    }
                    self.pos += 1;
                }
            }
        }
        self.push(TokenKind::Literal, String::new(), line);
    }

    /// Lexes `r#"…"#` (or `br##"…"##`, …) whose first `#`-or-quote is
    /// `prefix` chars ahead.
    fn raw_string(&mut self, prefix: usize) {
        let line = self.line;
        self.pos += prefix;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // the opening quote
        while let Some(c) = self.peek(0) {
            if c == '"' && (1..=hashes).all(|k| self.peek(k) == Some('#')) {
                self.pos += 1 + hashes;
                break;
            }
            if c == '\n' {
                self.line += 1;
            }
            self.pos += 1;
        }
        self.push(TokenKind::Literal, String::new(), line);
    }

    /// A tick starts either a lifetime (`'a`) or a char literal (`'x'`,
    /// `'\n'`). A lifetime is a tick followed by an identifier *not*
    /// closed by another tick.
    fn tick(&mut self) {
        let line = self.line;
        let first = self.peek(1);
        if first == Some('\\') {
            // Escaped char literal: skip to the closing tick.
            self.pos += 2; // tick + backslash
            self.pos += 1; // the escaped character
            while self.peek(0).is_some_and(|c| c != '\'') {
                self.pos += 1; // \u{…} spans several chars
            }
            self.pos += 1;
            self.push(TokenKind::Literal, String::new(), line);
            return;
        }
        if first.is_some_and(|c| c.is_alphabetic() || c == '_') && self.peek(2) != Some('\'') {
            // Lifetime: consume the identifier after the tick.
            self.pos += 1;
            let start = self.pos;
            while self
                .peek(0)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                self.pos += 1;
            }
            let text: String = self.chars[start..self.pos].iter().collect();
            self.push(TokenKind::Lifetime, text, line);
            return;
        }
        // Plain char literal: 'x'.
        self.pos += 3;
        self.push(TokenKind::Literal, String::new(), line);
    }

    fn number(&mut self) {
        let line = self.line;
        while self
            .peek(0)
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            self.pos += 1;
        }
        // A fractional part: `.` only counts if a digit follows (so `0..n`
        // stays two range dots).
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                self.pos += 1;
            }
        }
        self.push(TokenKind::Number, String::new(), line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(tokens: &[Token]) -> Vec<&str> {
        tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn comments_are_tokens_with_text() {
        let tokens = lex("// SAFETY: fine\nlet x = 1; /* block */");
        assert_eq!(tokens[0].kind, TokenKind::LineComment);
        assert_eq!(tokens[0].text, "// SAFETY: fine");
        assert_eq!(tokens[0].line, 1);
        let block = tokens.iter().find(|t| t.kind == TokenKind::BlockComment);
        assert_eq!(block.map(|t| t.text.as_str()), Some("/* block */"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let tokens = lex("let s = \".unwrap() panic!(\"; f();");
        assert!(!idents(&tokens).contains(&"unwrap"));
        assert!(idents(&tokens).contains(&"f"));
    }

    #[test]
    fn raw_strings_and_byte_strings_lex() {
        let tokens = lex(r###"let a = r#"quote " inside"#; let b = b"bytes"; let c = br#"x"#;"###);
        let lits = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 3);
        assert_eq!(idents(&tokens), vec!["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let tokens = lex("let r#enum = 1;");
        assert!(idents(&tokens).contains(&"enum"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let tokens = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<&str> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(
            tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            1,
            "'x' is a char literal"
        );
    }

    #[test]
    fn escaped_char_literals_lex() {
        let tokens = lex(r"let t = '\n'; let u = '\u{1F600}'; let q = '\'';");
        assert_eq!(
            tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            3
        );
        assert!(idents(&tokens).contains(&"q"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let tokens = lex("/* outer /* inner */ still out */ fn f() {}");
        assert_eq!(tokens[0].kind, TokenKind::BlockComment);
        assert!(idents(&tokens).contains(&"fn"));
    }

    #[test]
    fn range_dots_do_not_join_numbers() {
        let tokens = lex("for i in 0..10 { let f = 1.5; }");
        let dots = tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "0..10 keeps both range dots");
        assert_eq!(
            tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Number)
                .count(),
            3,
            "0, 10 and 1.5"
        );
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let tokens = lex("/* a\nb\nc */\nfn f() {}");
        let f = tokens.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 4);
    }

    #[test]
    fn string_continuation_escapes_still_count_their_newline() {
        let tokens = lex("let s = \"a \\\n   b \\\n   c\";\nfn f() {}");
        let f = tokens.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 4, "two \\<newline> continuations span two lines");
    }

    #[test]
    fn inner_doc_comments_are_recognised() {
        let tokens = lex("//! module overview\n/// item doc\nfn f() {}");
        assert!(tokens[0].is_inner_doc());
        assert!(!tokens[1].is_inner_doc());
    }
}
