//! A minimal std-only micro-benchmark harness (the registry is
//! unreachable offline, so no criterion).
//!
//! The `benches/` targets use this to report nanoseconds per operation.
//! Methodology: calibrate a batch size that runs for roughly
//! [`TARGET_BATCH`], run several batches, and report the minimum and
//! median per-op time — the minimum is the least noisy estimator on a
//! busy machine, the median shows whether the minimum is representative.
//! A gate on the ratio of two such times uses [`bench_pair`], which
//! alternates the two closures' batches so both see the same host.
//!
//! # Examples
//!
//! ```
//! use damq_bench::timing::bench;
//!
//! let mut acc = 0u64;
//! let stats = bench("wrapping_add", || {
//!     acc = acc.wrapping_add(1);
//!     acc
//! });
//! assert!(stats.min_ns > 0.0);
//! assert!(stats.median_ns >= stats.min_ns);
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target duration of one calibrated measurement batch.
pub const TARGET_BATCH: Duration = Duration::from_millis(20);

/// Number of measured batches per benchmark.
pub const BATCHES: usize = 9;

/// Per-op timing estimates from one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Fastest observed batch, in nanoseconds per operation.
    pub min_ns: f64,
    /// Median batch, in nanoseconds per operation.
    pub median_ns: f64,
    /// Operations per measured batch after calibration.
    pub batch_ops: u64,
}

/// Times `f`, prints one aligned report line to stdout, and returns the
/// estimates.
pub fn bench<T>(label: &str, mut f: impl FnMut() -> T) -> Stats {
    let batch_ops = calibrate(TARGET_BATCH, &mut f);
    let per_op = (0..BATCHES).map(|_| batch(batch_ops, &mut f)).collect();
    report(label, per_op, batch_ops)
}

/// Times `a` against `b` for a ratio between the two: one calibration
/// sizes a batch for both, then their batches alternate (a, b, a, b, …),
/// so a burst of load from the rest of a shared host lands on both sides
/// alike instead of on whichever one happened to be running. Prints a
/// report line per closure and returns their estimates in order.
///
/// # Examples
///
/// ```
/// use damq_bench::timing::bench_pair;
///
/// let (mut x, mut y) = (0u64, 0u64);
/// let (a, b) = bench_pair(
///     ["add one", "add two"],
///     || {
///         x = x.wrapping_add(1);
///         x
///     },
///     || {
///         y = y.wrapping_add(2);
///         y
///     },
/// );
/// assert_eq!(a.batch_ops, b.batch_ops);
/// ```
pub fn bench_pair<T, U>(
    labels: [&str; 2],
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> (Stats, Stats) {
    // Sized so that each side's batch, not the pair's, takes the target.
    let batch_ops = calibrate(2 * TARGET_BATCH, &mut || (a(), b()));
    let (mut per_a, mut per_b) = (Vec::with_capacity(BATCHES), Vec::with_capacity(BATCHES));
    for _ in 0..BATCHES {
        per_a.push(batch(batch_ops, &mut a));
        per_b.push(batch(batch_ops, &mut b));
    }
    (
        report(labels[0], per_a, batch_ops),
        report(labels[1], per_b, batch_ops),
    )
}

/// Warms `f` up and returns a batch size that runs for about `target`:
/// the batch doubles until it takes long enough to swamp timer
/// resolution.
fn calibrate<T>(target: Duration, f: &mut impl FnMut() -> T) -> u64 {
    let mut batch_ops = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch_ops {
            black_box(f());
        }
        let took = start.elapsed();
        if took >= target || batch_ops >= 1 << 30 {
            return batch_ops;
        }
        // Jump close to the target once we have a usable estimate.
        batch_ops = if took < Duration::from_micros(50) {
            batch_ops * 8
        } else {
            let scale = target.as_secs_f64() / took.as_secs_f64();
            ((batch_ops as f64 * scale * 1.1) as u64).max(batch_ops + 1)
        };
    }
}

/// Runs one batch of `batch_ops` calls and returns nanoseconds per call.
fn batch<T>(batch_ops: u64, f: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..batch_ops {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / batch_ops as f64
}

/// The estimates from one closure's batches, printed as one aligned line.
// The aligned report line IS this harness's output.
#[expect(clippy::print_stdout, reason = "a harness's own output")]
fn report(label: &str, mut per_op: Vec<f64>, batch_ops: u64) -> Stats {
    per_op.sort_by(f64::total_cmp);
    let stats = Stats {
        min_ns: per_op[0],
        median_ns: per_op[per_op.len() / 2],
        batch_ops,
    };
    println!(
        "{label:<40} {:>12.1} ns/op min {:>12.1} ns/op median ({} ops/batch)",
        stats.min_ns, stats.median_ns, stats.batch_ops
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_stats() {
        let mut x = 1u64;
        let s = bench("spin", || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert!(s.min_ns > 0.0);
        assert!(s.median_ns >= s.min_ns);
        assert!(s.batch_ops >= 1);
    }

    /// The two closures of a pair run the same number of batches of the
    /// same size, in turn.
    #[test]
    fn bench_pair_alternates_equal_batches() {
        // Runs of consecutive calls to one side, as (side, calls). A call
        // takes about a microsecond, so a batch is thousands, not
        // millions, of calls.
        let runs = std::cell::RefCell::new(Vec::<(u8, u64)>::new());
        let call = |side: u8| {
            let mut acc = 0u64;
            for i in 0..1_000u64 {
                acc = black_box(acc.wrapping_add(i));
            }
            let mut runs = runs.borrow_mut();
            match runs.last_mut() {
                Some((s, n)) if *s == side => *n += 1,
                _ => runs.push((side, 1)),
            }
            acc
        };
        let (a, b) = bench_pair(["a", "b"], || call(b'a'), || call(b'b'));
        assert_eq!(a.batch_ops, b.batch_ops);
        let runs = runs.into_inner();
        let measured = &runs[runs.len() - 2 * BATCHES..];
        for (i, &(side, calls)) in measured.iter().enumerate() {
            assert_eq!(side, [b'a', b'b'][i % 2], "batch {i} out of turn");
            assert_eq!(calls, a.batch_ops, "batch {i} ran another size");
        }
    }
}
