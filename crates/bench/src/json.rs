//! The harness reports: every regeneration harness emits, alongside its
//! fixed-width text table, a machine-readable record of the sweep at
//! `results/json/<name>.json`: the grid coordinates of every cell, the
//! raw [`Measurement`] fields, multi-seed aggregates where the harness
//! runs them, and the cell count. Downstream tooling — plots, regression
//! diffs, the perf trajectory the ROADMAP asks for — consumes these files
//! instead of scraping the text tables.
//!
//! The JSON codec itself — [`Json`], its parser and its writer — lives in
//! `damq_telemetry::json`, the workspace's one codec, and is re-exported
//! here.
//!
//! Serialization is deterministic: object keys keep insertion order,
//! floats render through Rust's shortest-roundtrip `Display`, and no
//! timestamp or worker count enters a report: the written file is
//! [`Report::body`] and nothing else, so a 1-worker and an N-worker run
//! write the same bytes, and a regenerated report is checked against the
//! committed one with `cmp`.
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

use std::path::PathBuf;

use damq_markov::DiscardPoint;
use damq_net::{Measurement, SaturationResult};

use crate::sweep::Aggregate;

// Kept under this path for the frozen `benchmark/` crate, which imports
// `damq_bench::json::Json` and cannot be edited.
pub use damq_telemetry::json::{Json, JsonParseError};

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

/// Accumulates one harness run and writes `results/json/<name>.json`.
///
/// The record (experiment name, schema version, metadata, cells) is
/// [`Report::body`], and [`Report::write`] writes exactly that: nothing in
/// a report varies from run to run.
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
}

/// Schema version stamped into every JSON report; bump on breaking layout
/// changes so downstream consumers can dispatch.
pub const SCHEMA_VERSION: u32 = 1;

impl Report {
    /// Starts an empty report for experiment `name`.
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_owned(),
            meta: Vec::new(),
            cells: Vec::new(),
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

    /// The deterministic record: experiment name, schema version,
    /// metadata and cells.
    pub fn body(&self) -> Json {
        Json::obj([
            ("experiment", Json::from(self.name.as_str())),
            ("schema_version", Json::from(u64::from(SCHEMA_VERSION))),
            ("meta", Json::Obj(self.meta.clone())),
            ("cell_count", Json::from(self.cells.len())),
            ("cells", Json::Arr(self.cells.clone())),
        ])
    }

    /// Writes the report to `<results dir>/json/<name>.json` and returns
    /// the path.
    ///
    /// The results directory is `results` relative to the working
    /// directory, or `$DAMQ_RESULTS_DIR` if set. The file is the
    /// [`Report::body`], pretty-printed.
    ///
    /// # Errors
    ///
    /// An I/O error from directory creation or the file write, with the
    /// report's path.
    pub fn write(&self) -> Result<PathBuf, String> {
        let dir = crate::results_dir().join("json");
        let path = dir.join(format!("{}.json", self.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.body().render_pretty()))
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// [`Report::write`], reporting the destination on stderr so stdout
    /// stays a clean table for `> results/<name>.txt` redirection. A
    /// report that cannot be written fails the harness: the error names
    /// the path and the process exits 1, so a regeneration never leaves a
    /// stale report behind while reporting success.
    #[expect(clippy::print_stderr, reason = "the harness status channel")]
    pub fn write_and_announce(&self) {
        match self.write() {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(problem) => {
                eprintln!("error: {problem}");
                std::process::exit(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_body_has_no_wall_clock() {
        let mut r = Report::new("t");
        r.push_cell(Json::from(1i64));
        let body = r.body().render();
        assert!(!body.contains("wall_clock"));
        assert!(body.contains(r#""cell_count":1"#));
    }
}
