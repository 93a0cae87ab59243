//! A hand-rolled JSON value type and report writer (std-only — the crates
//! registry is unreachable from CI, so no serde).
//!
//! Every regeneration harness emits, alongside its fixed-width text table,
//! a machine-readable record of the sweep at `results/json/<name>.json`:
//! the grid coordinates of every cell, the raw [`Measurement`] fields,
//! multi-seed aggregates where the harness runs them, and provenance
//! metadata (worker count, wall-clock, cell count). Downstream tooling —
//! plots, regression diffs, the perf trajectory the ROADMAP asks for —
//! consumes these files instead of scraping the text tables.
//!
//! Serialization is deterministic: object keys keep insertion order,
//! floats render through Rust's shortest-roundtrip `Display`, and no
//! timestamps enter the [`Report::body`] (wall-clock lives in the
//! non-deterministic envelope that [`Report::write`] adds) — which is what
//! lets the determinism test compare 1-worker and N-worker runs byte for
//! byte.
//!
//! # Examples
//!
//! ```
//! use damq_bench::json::Json;
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

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use damq_markov::DiscardPoint;
use damq_net::{Measurement, SaturationResult};
use damq_telemetry::Profiler;

use crate::sweep::{Aggregate, CellOutcome, SweepProfile};

/// A JSON value with deterministic, insertion-ordered serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
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
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        i64::try_from(v).map_or(Json::Num(v as f64), Json::Int)
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

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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
    /// Numbers without a fraction or exponent that fit an `i64` parse as
    /// [`Json::Int`]; everything else numeric parses as [`Json::Num`] —
    /// matching what the writer emits, so `parse(render(v)) == v` for
    /// finite values.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] on malformed input or trailing garbage.
    ///
    /// # Examples
    ///
    /// ```
    /// use damq_bench::json::Json;
    ///
    /// let v = Json::parse(r#"{"a":[1,2.5,"x"],"b":null}"#).unwrap();
    /// assert_eq!(v.render(), r#"{"a":[1,2.5,"x"],"b":null}"#);
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
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

    /// Builds a sweep cell: grid `coords` first, then the fields of
    /// `record` flattened in (a non-object `record` lands under
    /// `"value"`).
    ///
    /// # Examples
    ///
    /// ```
    /// use damq_bench::json::Json;
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
                    // Copy the full UTF-8 character starting here.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("empty string tail"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
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
            if let Ok(i) = text.parse::<i64>() {
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

fn write_escaped(s: &str, out: &mut String) {
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

/// One [`Measurement`] as a JSON object, fields in
/// [`Measurement::FIELD_NAMES`] order.
pub fn measurement_json(m: &Measurement) -> Json {
    Json::obj(m.fields().map(|(name, value)| (name, Json::from(value))))
}

/// One Markov-analysis [`DiscardPoint`] as a JSON object.
pub fn discard_point_json(p: &DiscardPoint) -> Json {
    Json::obj([
        ("discard_probability", Json::from(p.discard_probability)),
        ("throughput", Json::from(p.throughput)),
        ("mean_occupancy", Json::from(p.mean_occupancy)),
        ("mean_wait_cycles", Json::from(p.mean_wait_cycles)),
        ("states", Json::from(p.states)),
        ("iterations", Json::from(p.iterations)),
    ])
}

/// One [`SaturationResult`] as a JSON object (the full measurement taken
/// just above the saturation point is nested under `at_saturation`).
pub fn saturation_json(s: &SaturationResult) -> Json {
    Json::obj([
        ("throughput", Json::from(s.throughput)),
        (
            "saturated_latency_clocks",
            Json::from(s.saturated_latency_clocks),
        ),
        ("probes", Json::from(s.probes)),
        ("at_saturation", measurement_json(&s.at_saturation)),
    ])
}

/// A set of per-metric [`Aggregate`]s (as produced by
/// [`crate::sweep::aggregate_measurements`]) as a JSON object:
/// `{"metric": {"n": .., "mean": .., "stddev": .., "ci95": ..}, ...}`.
pub fn aggregates_json(aggs: &[(&'static str, Aggregate)]) -> Json {
    Json::obj(aggs.iter().map(|&(name, a)| {
        (
            name,
            Json::obj([
                ("n", Json::from(a.n)),
                ("mean", Json::from(a.mean)),
                ("stddev", Json::from(a.stddev)),
                ("ci95", Json::from(a.ci95)),
            ]),
        )
    }))
}

/// Summarises a batch of [`CellOutcome`]s into the `robustness` report
/// section: outcome counts plus one `incidents` entry per non-`ok` cell
/// (index into the batch, outcome tag, panic message / attempt count).
///
/// The section is deterministic — outcomes derive from seeded simulation
/// work, not wall-clock — so [`Report::body`] includes it when attached
/// via [`Report::set_robustness`].
///
/// # Examples
///
/// ```
/// use damq_bench::json::robustness_json;
/// use damq_bench::sweep::CellOutcome;
///
/// let section = robustness_json(&[
///     CellOutcome::Ok,
///     CellOutcome::TimedOut,
/// ]);
/// assert!(section.render().contains(r#""timed_out":1"#));
/// ```
pub fn robustness_json(outcomes: &[CellOutcome]) -> Json {
    let count = |label: &str| -> usize { outcomes.iter().filter(|o| o.label() == label).count() };
    let incidents: Vec<Json> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| *o != &CellOutcome::Ok)
        .map(|(i, o)| {
            let mut fields = vec![
                ("index".to_owned(), Json::from(i)),
                ("outcome".to_owned(), Json::from(o.label())),
            ];
            match o {
                CellOutcome::Retried { attempts } => {
                    fields.push(("attempts".to_owned(), Json::from(u64::from(*attempts))));
                }
                CellOutcome::Panicked { message } => {
                    fields.push(("message".to_owned(), Json::from(message.as_str())));
                }
                CellOutcome::Ok | CellOutcome::TimedOut => {}
            }
            Json::Obj(fields)
        })
        .collect();
    Json::obj([
        ("cells", Json::from(outcomes.len())),
        ("ok", Json::from(count("ok"))),
        ("retried", Json::from(count("retried"))),
        ("panicked", Json::from(count("panicked"))),
        ("timed_out", Json::from(count("timed_out"))),
        ("incidents", Json::Arr(incidents)),
    ])
}

/// Accumulates one harness run and writes `results/json/<name>.json`.
///
/// The deterministic part of the record (experiment name, schema version,
/// metadata, cells) is available as [`Report::body`]; [`Report::write`]
/// wraps it in a provenance envelope (worker count, wall-clock seconds)
/// that is *expected* to vary between runs and is therefore excluded from
/// determinism comparisons.
///
/// # Examples
///
/// ```
/// use damq_bench::json::{Json, Report};
///
/// let mut report = Report::new("doc_example");
/// report.meta("traffic", Json::from("uniform"));
/// report.push_cell(Json::obj([
///     ("load", Json::from(0.5)),
///     ("delivered", Json::from(0.497)),
/// ]));
/// let body = report.body().render();
/// assert!(body.contains(r#""experiment":"doc_example""#));
/// assert!(body.contains(r#""cells":"#));
/// ```
#[derive(Debug)]
pub struct Report {
    name: String,
    meta: Vec<(String, Json)>,
    cells: Vec<Json>,
    robustness: Option<Json>,
    telemetry: Option<Json>,
    started: Instant,
}

/// Schema version stamped into every JSON report; bump on breaking layout
/// changes so downstream consumers can dispatch.
pub const SCHEMA_VERSION: u32 = 1;

impl Report {
    /// Starts an empty report for experiment `name`. The wall clock starts
    /// now, so construct the report **before** launching the sweep if the
    /// `run.wall_clock_secs` provenance should cover the experiment itself.
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_owned(),
            meta: Vec::new(),
            cells: Vec::new(),
            robustness: None,
            telemetry: None,
            started: Instant::now(),
        }
    }

    /// Records an experiment-level metadata entry (topology, window
    /// lengths, …).
    pub fn meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_owned(), value));
    }

    /// Appends one grid cell (coordinates + measured fields).
    pub fn push_cell(&mut self, cell: Json) {
        self.cells.push(cell);
    }

    /// Number of cells recorded so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Attaches a `robustness` section (see [`robustness_json`]) recording
    /// how the sweep's cells fared under the self-healing harness.
    ///
    /// Cell outcomes are deterministic (panics and cycle-budget timeouts
    /// reproduce from the seeds), so the section lives in the
    /// deterministic [`Report::body`], unlike the timing telemetry.
    pub fn set_robustness(&mut self, robustness: Json) {
        self.robustness = Some(robustness);
    }

    /// Attaches a profiling `telemetry` section to the report.
    ///
    /// Timings vary run to run, so the section is emitted by
    /// [`Report::write`] next to the `run` envelope and stays out of the
    /// deterministic [`Report::body`].
    pub fn set_telemetry(&mut self, telemetry: Json) {
        self.telemetry = Some(telemetry);
    }

    /// Builds the `telemetry` section from a sweep's wall-clock profile
    /// and an optional phase [`Profiler`], then attaches it with
    /// [`Report::set_telemetry`].
    ///
    /// The section records where the time went: worker count, sweep wall
    /// time, summed per-cell time and the implied parallel speed-up, the
    /// slowest cell, the full per-cell timing vector (cell order — the
    /// same order as `cells` in the body), and per-phase seconds from the
    /// profiler.
    pub fn telemetry_from_profile(&mut self, profile: &SweepProfile, profiler: &Profiler) {
        let slowest = profile.slowest_cell().map_or(Json::Null, |(i, secs)| {
            Json::obj([("index", Json::from(i)), ("secs", Json::from(secs))])
        });
        let mut section = vec![
            ("workers".to_owned(), Json::from(profile.workers)),
            ("sweep_secs".to_owned(), Json::from(profile.total_secs)),
            (
                "cell_secs_sum".to_owned(),
                Json::from(profile.cell_secs_sum()),
            ),
            ("speedup".to_owned(), Json::from(profile.speedup())),
            ("slowest_cell".to_owned(), slowest),
            (
                "per_cell_secs".to_owned(),
                Json::Arr(
                    profile
                        .per_cell_secs
                        .iter()
                        .map(|&s| Json::from(s))
                        .collect(),
                ),
            ),
        ];
        if !profile.per_cell_cycles.is_empty() {
            section.push((
                "cycles_per_sec".to_owned(),
                Json::from(profile.cycles_per_sec()),
            ));
            section.push((
                "per_cell_cycles_per_sec".to_owned(),
                Json::Arr(
                    profile
                        .per_cell_cycles_per_sec()
                        .into_iter()
                        .map(Json::from)
                        .collect(),
                ),
            ));
        }
        if !profiler.phases().is_empty() {
            section.push((
                "phases".to_owned(),
                Json::obj(
                    profiler
                        .phases()
                        .iter()
                        .map(|(name, d)| (*name, Json::from(d.as_secs_f64()))),
                ),
            ));
        }
        self.set_telemetry(Json::Obj(section));
    }

    /// The deterministic record: experiment name, schema version,
    /// metadata and cells — everything except the run-varying provenance
    /// envelope.
    pub fn body(&self) -> Json {
        let mut pairs = vec![
            ("experiment".to_owned(), Json::from(self.name.as_str())),
            (
                "schema_version".to_owned(),
                Json::from(u64::from(SCHEMA_VERSION)),
            ),
            ("meta".to_owned(), Json::Obj(self.meta.clone())),
            ("cell_count".to_owned(), Json::from(self.cells.len())),
            ("cells".to_owned(), Json::Arr(self.cells.clone())),
        ];
        if let Some(robustness) = &self.robustness {
            pairs.push(("robustness".to_owned(), robustness.clone()));
        }
        Json::Obj(pairs)
    }

    /// Writes the report to `<results dir>/json/<name>.json` and returns
    /// the path.
    ///
    /// The results directory is `results` relative to the working
    /// directory, or `$DAMQ_RESULTS_DIR` if set. The file is the
    /// [`Report::body`] plus a `run` object carrying worker count and
    /// wall-clock seconds.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the file write.
    pub fn write(&self) -> io::Result<PathBuf> {
        let mut doc = match self.body() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("body is always an object"),
        };
        doc.push((
            "run".to_owned(),
            Json::obj([
                ("workers", Json::from(crate::sweep::worker_count())),
                (
                    "wall_clock_secs",
                    Json::from(self.started.elapsed().as_secs_f64()),
                ),
            ]),
        ));
        if let Some(telemetry) = &self.telemetry {
            doc.push(("telemetry".to_owned(), telemetry.clone()));
        }
        let dir = crate::results_dir().join("json");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, Json::Obj(doc).render_pretty())?;
        Ok(path)
    }

    /// [`Report::write`], reporting the destination (or the error) on
    /// stderr so stdout stays a clean table for `> results/<name>.txt`
    /// redirection.
    pub fn write_and_announce(&self) {
        match self.write() {
            Ok(path) => eprintln!("wrote {}", path.display()), // lint: allow — harness status channel
            Err(e) => eprintln!("warning: could not write JSON report: {e}"), // lint: allow — harness status channel
        }
    }
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
        assert_eq!(
            Json::from(u64::MAX).render(),
            format!("{}", u64::MAX as f64)
        );
        assert_eq!(Json::from(42u64).render(), "42");
    }

    #[test]
    fn report_body_has_no_wall_clock() {
        let mut r = Report::new("t");
        r.push_cell(Json::from(1i64));
        let body = r.body().render();
        assert!(!body.contains("wall_clock"));
        assert!(body.contains(r#""cell_count":1"#));
    }

    #[test]
    fn telemetry_section_stays_out_of_the_body() {
        let mut r = Report::new("t");
        let profile = SweepProfile {
            per_cell_secs: vec![0.25, 1.5],
            per_cell_cycles: Vec::new(),
            total_secs: 1.75,
            workers: 2,
        }
        .with_cycles(vec![1_000, 12_000]);
        let mut profiler = Profiler::new();
        profiler.add("sweep", std::time::Duration::from_millis(1750));
        r.telemetry_from_profile(&profile, &profiler);
        // Deterministic body is untouched...
        assert!(!r.body().render().contains("telemetry"));
        // ...but the section itself records the profile faithfully.
        let section = r.telemetry.as_ref().expect("telemetry attached").render();
        assert!(section.contains(r#""workers":2"#));
        assert!(section.contains(r#""sweep_secs":1.75"#));
        assert!(section.contains(r#""cell_secs_sum":1.75"#));
        assert!(section.contains(r#""slowest_cell":{"index":1,"secs":1.5}"#));
        assert!(section.contains(r#""per_cell_secs":[0.25,1.5]"#));
        // 13k cycles over 1.75 summed seconds; 1k/0.25 and 12k/1.5 per cell.
        assert!(section.contains(r#""cycles_per_sec":7428.5714"#));
        assert!(section.contains(r#""per_cell_cycles_per_sec":[4000,8000]"#));
        assert!(section.contains(r#""phases":{"sweep":1.75}"#));
    }

    #[test]
    fn robustness_section_lands_in_the_deterministic_body() {
        let mut r = Report::new("t");
        r.push_cell(Json::from(1i64));
        let outcomes = [
            CellOutcome::Ok,
            CellOutcome::Retried { attempts: 3 },
            CellOutcome::Panicked {
                message: "boom".to_owned(),
            },
            CellOutcome::TimedOut,
        ];
        r.set_robustness(robustness_json(&outcomes));
        let body = r.body().render();
        assert!(body
            .contains(r#""robustness":{"cells":4,"ok":1,"retried":1,"panicked":1,"timed_out":1"#));
        assert!(body.contains(r#"{"index":1,"outcome":"retried","attempts":3}"#));
        assert!(body.contains(r#"{"index":2,"outcome":"panicked","message":"boom"}"#));
        assert!(body.contains(r#"{"index":3,"outcome":"timed_out"}"#));
    }

    #[test]
    fn all_ok_robustness_has_no_incidents() {
        let section = robustness_json(&[CellOutcome::Ok, CellOutcome::Ok]);
        assert_eq!(
            section.render(),
            r#"{"cells":2,"ok":2,"retried":0,"panicked":0,"timed_out":0,"incidents":[]}"#
        );
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
                Json::Arr(vec![Json::Null, Json::from(-7i64), Json::from("x\"y")]),
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

    #[test]
    fn empty_profile_yields_null_slowest_cell() {
        let mut r = Report::new("t");
        let profile = SweepProfile {
            per_cell_secs: Vec::new(),
            per_cell_cycles: Vec::new(),
            total_secs: 0.0,
            workers: 1,
        };
        r.telemetry_from_profile(&profile, &Profiler::new());
        let section = r.telemetry.as_ref().expect("telemetry attached").render();
        assert!(section.contains(r#""slowest_cell":null"#));
        assert!(!section.contains("phases"));
        // No cycle counts declared: the throughput keys stay out entirely.
        assert!(!section.contains("cycles_per_sec"));
    }
}
