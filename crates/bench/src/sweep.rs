//! The parallel experiment-sweep engine.
//!
//! Every harness binary in `src/bin/` evaluates a *grid* of independent
//! cells — buffer kind × buffer size × offered load × topology × seed —
//! and every cell is a self-contained computation (a simulation run, a
//! saturation search, a Markov solve). [`crate::grid`] declares those
//! grids; this module fans their cells out across cores with
//! [`std::thread::scope`] while keeping the results in **deterministic
//! cell order**, so a run with 8 workers is byte-identical to a run
//! with 1.
//!
//! Three guarantees make parallel regeneration safe:
//!
//! 1. **Per-cell isolation** — a cell receives its inputs by reference,
//!    owns all of its mutable state (each simulation seeds its own RNG
//!    from its config), and returns an owned result.
//! 2. **Deterministic seeding** — [`cell_seed`] derives a cell's RNG seed
//!    from the experiment's base seed and the cell's grid coordinates, so
//!    a cell's stream never depends on scheduling order or on how many
//!    workers ran before it.
//! 3. **Ordered collection** — results are written into a slot per cell
//!    and returned in grid order, regardless of completion order.
//!
//! There is no per-cell panic boundary. A cell is a deterministic
//! function of its seed, so a panic is a bug that would recur on every
//! rerun: [`run_with_workers`] propagates it to the caller, and the
//! harness process fails.
//!
//! The worker count defaults to the machine's available parallelism and
//! can be pinned with the `DAMQ_SWEEP_THREADS` environment variable
//! (`DAMQ_SWEEP_THREADS=1` forces the serial schedule — useful for
//! determinism checks and debugging).
//!
//! # Examples
//!
//! Sweep a small grid of (load, seed) cells and aggregate per-load:
//!
//! ```
//! use damq_bench::sweep;
//!
//! let loads = [0.25, 0.50];
//! let cells: Vec<(f64, u64)> = loads
//!     .iter()
//!     .flat_map(|&l| (0..4u64).map(move |s| (l, s)))
//!     .collect();
//! // Any Fn(&C) -> R + Sync closure works; here a toy "measurement".
//! let results = sweep::run_with_workers(&cells, sweep::worker_count(), |&(load, seed)| {
//!     load * (seed + 1) as f64
//! });
//! assert_eq!(results.len(), cells.len());
//! // Results arrive in grid order, whatever the worker count.
//! assert_eq!(results[0], 0.25);
//! assert_eq!(results[5], 0.50 * 2.0);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use damq_net::Measurement;

/// The base seed shared by the regeneration harnesses (the historical
/// default seed of [`damq_net::NetworkConfig`]).
pub const BASE_SEED: u64 = 0xDA3B;

/// Returns the worker count: `DAMQ_SWEEP_THREADS` if set (minimum 1),
/// otherwise [`std::thread::available_parallelism`].
///
/// A value that is set but is not a number is a usage error, not "unset":
/// it is reported by name and the process exits with status 2 (see
/// [`crate::cli::fail`]) instead of silently using every core.
pub fn worker_count() -> usize {
    let Some(value) = std::env::var_os("DAMQ_SWEEP_THREADS") else {
        return std::thread::available_parallelism().map_or(1, |n| n.get());
    };
    let parsed = value.to_str().and_then(|v| v.trim().parse::<usize>().ok());
    parsed.map_or_else(
        || {
            let value = value.to_string_lossy();
            crate::cli::fail(&format!(
                "DAMQ_SWEEP_THREADS must be a thread count, got '{value}'"
            ))
        },
        |n| n.max(1),
    )
}

/// Runs `f` over every cell on `workers` threads, at most one per cell.
/// One worker maps the cells in order on the calling thread and spawns
/// nothing.
///
/// More workers take cells from a shared atomic cursor (dynamic
/// scheduling: long cells don't convoy short ones behind a fixed
/// partition), and each result lands in the slot of its cell index, so
/// the returned `Vec` is in cell order for **any** worker count. `f` must be a pure function of its
/// cell for the parallel/serial equivalence to hold — the engine enforces
/// ordering, the cell function supplies purity.
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated, not swallowed).
pub fn run_with_workers<C, R, F>(cells: &[C], workers: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let workers = workers.max(1).min(cells.len().max(1));
    if workers == 1 {
        // A panic in `f` unwinds straight to the caller, as a worker's
        // would be resumed there.
        return cells.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let result = f(cell);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            }));
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell produced a result")
        })
        .collect()
}

/// Derives a deterministic per-cell RNG seed from an experiment's base
/// seed and the cell's grid coordinates.
///
/// The derivation is a SplitMix64-style mix over the coordinate sequence:
/// stable across platforms and runs, sensitive to every coordinate, and
/// independent of scheduling — the property that makes a parallel sweep
/// reproduce a serial one exactly. Distinct coordinate vectors (including
/// vectors of different lengths) map to distinct streams with
/// overwhelming probability.
///
/// # Examples
///
/// ```
/// use damq_bench::sweep::cell_seed;
///
/// let a = cell_seed(0xDA3B, &[0, 2, 1]);
/// assert_eq!(a, cell_seed(0xDA3B, &[0, 2, 1])); // stable
/// assert_ne!(a, cell_seed(0xDA3B, &[1, 2, 0])); // order matters
/// assert_ne!(a, cell_seed(0xDA3B, &[0, 2]));    // length matters
/// ```
pub fn cell_seed(base: u64, coords: &[u64]) -> u64 {
    let mut state = base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(coords.len() as u64 + 1);
    let mut mix = |v: u64| {
        state = state.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        state = z ^ (z >> 31);
    };
    for &c in coords {
        mix(c);
    }
    mix(0x5EED);
    state
}

/// Mean, spread and confidence interval of one metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Number of samples aggregated.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (`n - 1` denominator; 0 for a single
    /// sample).
    pub stddev: f64,
    /// Half-width of the two-sided 95% confidence interval on the mean
    /// (Student's t for small `n`); 0 for a single sample.
    pub ci95: f64,
}

/// Two-sided 95% t-quantiles for `n - 1` degrees of freedom (index 1..=30;
/// larger samples use the normal 1.96).
const T95: [f64; 31] = [
    f64::NAN,
    12.706,
    4.303,
    3.182,
    2.776,
    2.571,
    2.447,
    2.365,
    2.306,
    2.262,
    2.228,
    2.201,
    2.179,
    2.160,
    2.145,
    2.131,
    2.120,
    2.110,
    2.101,
    2.093,
    2.086,
    2.080,
    2.074,
    2.069,
    2.064,
    2.060,
    2.056,
    2.052,
    2.048,
    2.045,
    2.042,
];

impl Aggregate {
    /// Aggregates a non-empty sample set.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    ///
    /// # Examples
    ///
    /// ```
    /// use damq_bench::sweep::Aggregate;
    ///
    /// let a = Aggregate::from_samples(&[2.0, 4.0, 6.0]);
    /// assert_eq!(a.n, 3);
    /// assert!((a.mean - 4.0).abs() < 1e-12);
    /// assert!((a.stddev - 2.0).abs() < 1e-12);
    /// // 95% CI half-width = t(2 df) * s / sqrt(n) = 4.303 * 2 / sqrt(3)
    /// assert!((a.ci95 - 4.303 * 2.0 / 3.0f64.sqrt()).abs() < 1e-9);
    /// ```
    pub fn from_samples(samples: &[f64]) -> Aggregate {
        assert!(!samples.is_empty(), "cannot aggregate zero samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Aggregate {
                n,
                mean,
                stddev: 0.0,
                ci95: 0.0,
            };
        }
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let stddev = var.sqrt();
        let t = if n - 1 <= 30 { T95[n - 1] } else { 1.96 };
        Aggregate {
            n,
            mean,
            stddev,
            ci95: t * stddev / (n as f64).sqrt(),
        }
    }
}

/// Aggregates every [`Measurement`] metric across a multi-seed cell:
/// one [`Aggregate`] per field, in [`Measurement::FIELD_NAMES`] order.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn aggregate_measurements(samples: &[Measurement]) -> Vec<(&'static str, Aggregate)> {
    assert!(!samples.is_empty(), "cannot aggregate zero measurements");
    let per_sample: Vec<_> = samples.iter().map(Measurement::fields).collect();
    Measurement::FIELD_NAMES
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let column: Vec<f64> = per_sample.iter().map(|fields| fields[i].1).collect();
            (name, Aggregate::from_samples(&column))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_cell_order_for_any_worker_count() {
        let cells: Vec<usize> = (0..37).collect();
        let serial = run_with_workers(&cells, 1, |&c| c * c);
        for workers in [2, 3, 8, 64] {
            assert_eq!(run_with_workers(&cells, workers, |&c| c * c), serial);
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u32> = run_with_workers(&[] as &[u32], 4, |&c| c);
        assert!(out.is_empty());
    }

    #[test]
    fn cell_seed_is_stable_and_coordinate_sensitive() {
        let s = cell_seed(BASE_SEED, &[3, 1, 4]);
        assert_eq!(s, cell_seed(BASE_SEED, &[3, 1, 4]));
        assert_ne!(s, cell_seed(BASE_SEED, &[4, 1, 3]));
        assert_ne!(s, cell_seed(BASE_SEED + 1, &[3, 1, 4]));
        assert_ne!(s, cell_seed(BASE_SEED, &[3, 1]));
        assert_ne!(cell_seed(0, &[]), 0);
    }

    #[test]
    fn aggregate_single_sample_has_no_spread() {
        let a = Aggregate::from_samples(&[7.5]);
        assert_eq!((a.n, a.mean, a.stddev, a.ci95), (1, 7.5, 0.0, 0.0));
    }

    #[test]
    fn aggregate_known_samples() {
        // Five known samples: mean 10, stddev sqrt(2.5), t(4 df) = 2.776.
        let a = Aggregate::from_samples(&[8.0, 9.0, 10.0, 11.0, 12.0]);
        assert_eq!(a.n, 5);
        assert!((a.mean - 10.0).abs() < 1e-12);
        assert!((a.stddev - 2.5f64.sqrt()).abs() < 1e-12);
        assert!((a.ci95 - 2.776 * 2.5f64.sqrt() / 5f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn worker_panics_propagate() {
        // Two workers on their own threads, and one on the caller's.
        for workers in [2, 1] {
            let result = std::panic::catch_unwind(|| {
                let cells = [1u32, 2, 3];
                let _ = run_with_workers(&cells, workers, |&c| {
                    assert!(c != 2, "boom");
                    c
                });
            });
            let payload = result.expect_err("the panic propagates");
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            assert_eq!(message.as_deref(), Some("boom"), "{workers} workers");
        }
    }
}
