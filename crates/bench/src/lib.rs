//! Shared infrastructure for the table/figure regeneration harnesses.
//!
//! Each binary in `src/bin/` reproduces one table or figure from the
//! paper (or one extension experiment); this library holds everything
//! they share:
//!
//! - [`grid`] — experiments as tables: labelled axes enumerated
//!   row-major, seeded from their coordinates, fanned out through
//!   [`sweep`], and emitted as report cells and coordinate-indexed table
//!   values. A harness binary is its axes, its column formatters and its
//!   prose.
//! - [`sweep`] — the parallel experiment-sweep engine underneath: cells
//!   fanned out across cores with deterministic, thread-count-
//!   independent results, plus multi-seed aggregation (mean / stddev /
//!   95% CI). A cell that panics is a bug: the panic reaches the harness,
//!   which exits non-zero.
//! - [`cli`] — the one argument parser: undeclared flags and bad values
//!   are usage errors (exit 2), never silently ignored.
//! - [`json`] — the report writer on the workspace's one JSON codec
//!   (`damq_telemetry::json`, re-exported here); every harness emits
//!   `results/json/<experiment>.json` alongside its text table.
//! - [`record`] — the one read-modify-write of `BENCH_throughput.json`.
//! - [`chaos`] — the chaos soak engine: composed per-epoch fault storms,
//!   per-epoch invariant audits, reproducer minimization and the
//!   violation dump for the `chaos_soak` binary.
//! - [`timing`] — a std-only micro-benchmark harness for the `benches/`
//!   targets.
//! - Paper-style number formatting ([`fmt_prob`]) and fixed-width table
//!   rendering ([`render_table`]).
//!
//! See `docs/EXPERIMENTS_GUIDE.md` for the map from binaries to paper
//! tables, their grids, their JSON schemas, and regeneration commands.

#![deny(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod grid;
pub mod json;
pub mod record;
pub mod sweep;
pub mod timing;

/// The directory results are written under: `$DAMQ_RESULTS_DIR` if set,
/// otherwise `results` relative to the working directory. Reports go to
/// its `json/` subdirectory, traces to `traces/`, chaos violation dumps
/// to `chaos_dumps/`.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("DAMQ_RESULTS_DIR").map_or_else(|| "results".into(), Into::into)
}

/// Formats a probability the way the paper's Table 2 does: `0+` for
/// positive-but-negligible values (rounds to zero at three decimals),
/// otherwise three decimals.
///
/// The accepted domain is `0.0..=1.0` (a probability). Negative inputs
/// are a caller bug: they trip a debug assertion, and in release builds
/// they clamp to `"0"` rather than formatting nonsense like `"0+"` or
/// `"-0.100"`.
///
/// # Panics
///
/// Debug builds panic on a negative input.
///
/// # Examples
///
/// ```
/// use damq_bench::fmt_prob;
///
/// assert_eq!(fmt_prob(0.0), "0");
/// assert_eq!(fmt_prob(0.0001), "0+");
/// assert_eq!(fmt_prob(0.074), "0.074");
/// ```
pub fn fmt_prob(p: f64) -> String {
    debug_assert!(p >= 0.0, "fmt_prob takes a probability, got {p}");
    if p <= 0.0 {
        "0".to_owned()
    } else if p < 0.0005 {
        "0+".to_owned()
    } else {
        format!("{p:.3}")
    }
}

/// Renders rows as a fixed-width text table with a header row and a rule.
///
/// An empty `header` renders as an empty string (there are no columns to
/// lay out — and no rows can exist, since every row must match the header
/// width).
///
/// # Panics
///
/// Panics if rows have differing lengths.
///
/// # Examples
///
/// ```
/// use damq_bench::render_table;
///
/// let t = render_table(
///     &["buffer", "rate"],
///     &[vec!["FIFO".into(), "0.074".into()]],
/// );
/// assert!(t.contains("FIFO"));
/// assert_eq!(render_table(&[], &[]), "");
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    for row in rows {
        assert_eq!(row.len(), cols, "all rows must match the header width");
    }
    if cols == 0 {
        return String::new();
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>w$}"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// The traffic levels of the paper's Table 2, as fractions of link capacity.
pub const TABLE2_TRAFFIC: [f64; 8] = [0.25, 0.50, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_prob_thresholds() {
        assert_eq!(fmt_prob(0.0), "0");
        assert_eq!(fmt_prob(0.0004), "0+");
        assert_eq!(fmt_prob(0.0005), "0.001");
        assert_eq!(fmt_prob(0.242), "0.242");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "probability"))]
    fn fmt_prob_rejects_negatives_in_debug_and_clamps_in_release() {
        // Debug: the assertion fires. Release: negative clamps to "0", not
        // the old nonsense "0+".
        assert_eq!(fmt_prob(-0.1), "0");
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["a", "bb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["longer".into(), "z".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn empty_header_renders_empty() {
        // Regression: this used to underflow `2 * (cols - 1)` and panic.
        assert_eq!(render_table(&[], &[]), "");
    }

    #[test]
    fn single_column_has_no_separator_padding() {
        let t = render_table(&["only"], &[vec!["x".into()]]);
        assert_eq!(t, "only\n----\n   x\n");
    }

    #[test]
    #[should_panic(expected = "match the header")]
    fn ragged_rows_panic() {
        let _ = render_table(&["a"], &[vec!["x".into(), "y".into()]]);
    }

    #[test]
    #[should_panic(expected = "match the header")]
    fn empty_header_with_nonempty_rows_panics() {
        let _ = render_table(&[], &[vec!["x".into()]]);
    }
}
