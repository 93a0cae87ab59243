//! The harness reports: every regeneration harness emits, alongside its
//! fixed-width text table, a machine-readable record of the sweep at
//! `results/json/<name>.json`: the grid coordinates of every cell, the
//! raw [`Measurement`] fields, multi-seed aggregates where the harness
//! runs them, and provenance metadata (worker count, wall-clock, cell
//! count). Downstream tooling — plots, regression diffs, the perf
//! trajectory the ROADMAP asks for — consumes these files instead of
//! scraping the text tables.
//!
//! The JSON codec itself — [`Json`], its parser and its writer — lives in
//! `damq_telemetry::json`, the workspace's one codec, and is re-exported
//! here.
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

use std::path::PathBuf;
use std::time::Instant;

use damq_markov::DiscardPoint;
use damq_net::{Measurement, SaturationResult};
use damq_telemetry::Profiler;

use crate::sweep::{Aggregate, SweepProfile};

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
    /// [`Report::body`] plus a `run` object carrying worker count and
    /// wall-clock seconds.
    ///
    /// # Errors
    ///
    /// An I/O error from directory creation or the file write, with the
    /// report's path.
    pub fn write(&self) -> Result<PathBuf, String> {
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
        let path = dir.join(format!("{}.json", self.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, Json::Obj(doc).render_pretty()))
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// [`Report::write`], reporting the destination on stderr so stdout
    /// stays a clean table for `> results/<name>.txt` redirection. A
    /// report that cannot be written fails the harness: the error names
    /// the path and the process exits 1, so a regeneration never leaves a
    /// stale report behind while reporting success.
    pub fn write_and_announce(&self) {
        match self.write() {
            Ok(path) => eprintln!("wrote {}", path.display()), // lint: allow — harness status channel
            Err(problem) => {
                eprintln!("error: {problem}"); // lint: allow — harness status channel
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
