//! The workspace's one JSON codec: a value type, its parser and its
//! writer (std-only — the crates registry is unreachable from CI, so no
//! serde).
//!
//! Everything the reproduction writes or reads as JSON goes through
//! here: the harness reports under `results/json/` (built by
//! `damq_bench::json`, which re-exports this type), the registry
//! snapshot ([`MetricsRegistry::snapshot_json`](crate::MetricsRegistry::snapshot_json)),
//! the JSONL event decoder ([`Event::parse_jsonl`](crate::Event::parse_jsonl))
//! and violation-dump reproducers.
//!
//! Serialization is deterministic: object keys keep insertion order,
//! integers render exactly (every `i64` and every `u64`), and floats
//! render through Rust's shortest-roundtrip `Display`.
//!
//! # Examples
//!
//! ```
//! use damq_telemetry::json::Json;
//!
//! let cell = Json::obj([
//!     ("buffer", Json::from("DAMQ")),
//!     ("load", Json::from(0.5)),
//!     ("delivered", Json::from(0.497)),
//! ]);
//! assert_eq!(
//!     cell.render(),
//!     r#"{"buffer":"DAMQ","load":0.5,"delivered":0.497}"#
//! );
//! ```

use std::fmt;

/// A JSON value with deterministic, insertion-ordered serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, wide enough to hold every `i64` and every `u64`
    /// exactly (serialized without a decimal point).
    Int(i128),
    /// A double. Non-finite values serialize as `null` (JSON has no NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys serialize in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v.into())
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v.into())
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Error from [`Json::parse`]: byte offset and a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses a JSON document (the inverse of [`Json::render`] /
    /// [`Json::render_pretty`]); object key order is preserved.
    ///
    /// Numbers without a fraction or exponent that fit an `i64` or a
    /// `u64` parse as [`Json::Int`]; everything else numeric parses as
    /// [`Json::Num`] — matching what the writer emits, so
    /// `parse(render(v)) == v` for integers and non-integral finite
    /// floats.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] on malformed input or trailing garbage.
    ///
    /// # Examples
    ///
    /// ```
    /// use damq_telemetry::json::Json;
    ///
    /// let v = Json::parse(r#"{"a":[1,2.5,"x"],"b":null}"#).unwrap();
    /// assert_eq!(v.render(), r#"{"a":[1,2.5,"x"],"b":null}"#);
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (`None` for non-objects or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of an [`Json::Int`] or [`Json::Num`], widened to
    /// `f64` (`None` otherwise).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of an [`Json::Int`] in `u64` range, exactly (`None` for
    /// negative integers, floats and non-numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Builds a sweep cell: grid `coords` first, then the fields of
    /// `record` flattened in (a non-object `record` lands under
    /// `"value"`).
    ///
    /// # Examples
    ///
    /// ```
    /// use damq_telemetry::json::Json;
    ///
    /// let cell = Json::cell(
    ///     [("buffer", Json::from("FIFO"))],
    ///     Json::obj([("delivered", Json::from(0.25))]),
    /// );
    /// assert_eq!(cell.render(), r#"{"buffer":"FIFO","delivered":0.25}"#);
    /// ```
    pub fn cell<K: Into<String>>(
        coords: impl IntoIterator<Item = (K, Json)>,
        record: Json,
    ) -> Json {
        let mut pairs: Vec<(String, Json)> =
            coords.into_iter().map(|(k, v)| (k.into(), v)).collect();
        match record {
            Json::Obj(fields) => pairs.extend(fields),
            other => pairs.push(("value".to_owned(), other)),
        }
        Json::Obj(pairs)
    }

    /// Serializes compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Serializes with two-space indentation — the format of the
    /// checked-in `results/json/` files (readable diffs).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(v) => write_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            _ => self.write_into(out),
        }
    }
}

/// Recursive-descent parser over the raw bytes (JSON structure is ASCII;
/// string contents pass through as UTF-8).
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates (emitted only for astral chars,
                            // which the writer never escapes) map to the
                            // replacement character rather than failing.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one piece: both are ASCII, so the run ends on a
                    // char boundary of the (valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            let exact = text
                .parse::<i64>()
                .map(i128::from)
                .or_else(|_| text.parse::<u64>().map(i128::from));
            if let Ok(i) = exact {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's Display for f64 is shortest-roundtrip and never emits an
        // exponent, so the output is always a valid JSON number.
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string — the codec's one escaper, shared
/// with the streaming JSONL writer ([`Event::to_jsonl`](crate::Event::to_jsonl)).
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(-3i64).render(), "-3");
        assert_eq!(Json::from(0.25).render(), "0.25");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_control_characters() {
        assert_eq!(
            Json::from("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let o = Json::obj([("z", Json::from(1i64)), ("a", Json::from(2i64))]);
        assert_eq!(o.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let o = Json::obj([
            ("name", Json::from("x")),
            ("cells", Json::Arr(vec![Json::from(1i64), Json::from(2i64)])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            o.render_pretty(),
            "{\n  \"name\": \"x\",\n  \"cells\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn large_u64_survives() {
        assert_eq!(Json::from(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::from(42u64).render(), "42");
    }

    #[test]
    fn full_width_integers_round_trip_exactly() {
        for v in [(1u64 << 53) + 1, i64::MAX as u64 + 1, u64::MAX] {
            let parsed = Json::parse(&Json::from(v).render()).unwrap();
            assert_eq!(parsed.as_u64(), Some(v));
        }
        let min = Json::parse(&Json::from(i64::MIN).render()).unwrap();
        assert_eq!(min, Json::from(i64::MIN));
        assert_eq!(min.as_u64(), None, "negative");
        // Past u64::MAX the text is a float, as it was before.
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(18446744073709551616.0)
        );
        assert_eq!(Json::Num(3.0).as_u64(), None, "floats are not integers");
    }

    #[test]
    fn parse_round_trips_render() {
        let doc = Json::obj([
            ("name", Json::from("sim_throughput")),
            ("ok", Json::from(true)),
            ("n", Json::from(42i64)),
            ("rate", Json::from(1234.5)),
            (
                "cells",
                Json::Arr(vec![
                    Json::Null,
                    Json::from(-7i64),
                    Json::from("x\"y"),
                    Json::from("naïve — 2×2"),
                ]),
            ),
            ("empty_obj", Json::obj::<&str>([])),
            ("empty_arr", Json::Arr(Vec::new())),
        ]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
    }

    #[test]
    fn parse_reports_errors_with_offsets() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let e = Json::parse("nul").unwrap_err();
        assert_eq!(e.offset, 0);
    }

    #[test]
    fn parse_handles_escapes_and_exponents() {
        let v = Json::parse(r#"{"s":"a\nA\\","e":2.5e3,"neg":-0.125}"#).unwrap();
        assert_eq!(v.get("s"), Some(&Json::Str("a\nA\\".to_owned())));
        assert_eq!(v.get("e").and_then(Json::as_f64), Some(2500.0));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-0.125));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn get_and_as_f64_cover_non_matching_shapes() {
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::from("s").as_f64(), None);
        assert_eq!(Json::from(3i64).as_f64(), Some(3.0));
    }
}
