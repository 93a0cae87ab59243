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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use damq_net::Measurement;
use damq_telemetry::{JsonlRecord, SharedRecorder};

use crate::json::Json;

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

/// Runs `f` over every cell on exactly `workers` OS threads.
///
/// Work is handed out through a shared atomic cursor (dynamic scheduling:
/// long cells don't convoy short ones behind a fixed partition), and each
/// result lands in the slot of its cell index, so the returned `Vec` is in
/// cell order for **any** worker count. `f` must be a pure function of its
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

/// Wall-clock profile of one sweep: where the time went, cell by cell.
///
/// Produced by [`run_profiled`]; rendered into the JSON report's
/// `telemetry` section by
/// [`Report::telemetry_from_profile`](crate::json::Report::telemetry_from_profile).
/// Timings are observational (they vary run to run) and are therefore
/// kept out of the deterministic report body.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProfile {
    /// Wall-clock seconds each cell took, in cell order.
    pub per_cell_secs: Vec<f64>,
    /// Network cycles each cell simulated, in cell order. Empty when the
    /// harness did not declare its cycle counts (see
    /// [`SweepProfile::with_cycles`]).
    pub per_cell_cycles: Vec<u64>,
    /// Wall-clock seconds for the whole sweep (parallel, so typically far
    /// less than the sum of the per-cell times).
    pub total_secs: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl SweepProfile {
    /// Sum of per-cell wall-clock seconds (total CPU-ish time).
    pub fn cell_secs_sum(&self) -> f64 {
        self.per_cell_secs.iter().sum()
    }

    /// Attaches the number of simulated cycles behind each cell (cell
    /// order, same length as the grid), enabling the cycles-per-second
    /// telemetry. The engine cannot observe this itself — cells are
    /// opaque closures — so harnesses that know their warm-up + window
    /// budget declare it.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match `per_cell_secs`.
    pub fn with_cycles(mut self, per_cell_cycles: Vec<u64>) -> Self {
        assert_eq!(
            per_cell_cycles.len(),
            self.per_cell_secs.len(),
            "one cycle count per cell"
        );
        self.per_cell_cycles = per_cell_cycles;
        self
    }

    /// Simulation throughput of each cell in network cycles per
    /// wall-clock second (cell order). Empty unless cycle counts were
    /// attached with [`SweepProfile::with_cycles`]; instantaneous cells
    /// report 0.
    pub fn per_cell_cycles_per_sec(&self) -> Vec<f64> {
        self.per_cell_cycles
            .iter()
            .zip(&self.per_cell_secs)
            .map(|(&cycles, &secs)| {
                if secs > 0.0 {
                    cycles as f64 / secs
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Aggregate simulation throughput: total cycles simulated across all
    /// cells over the summed per-cell wall time. 0 when cycle counts are
    /// absent or no time was observed.
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.cell_secs_sum();
        if self.per_cell_cycles.is_empty() || secs <= 0.0 {
            0.0
        } else {
            self.per_cell_cycles.iter().sum::<u64>() as f64 / secs
        }
    }

    /// Index and duration of the slowest cell, if any cells ran.
    pub fn slowest_cell(&self) -> Option<(usize, f64)> {
        self.per_cell_secs
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Parallel speed-up achieved: summed cell time over sweep wall time
    /// (0 when the sweep was instantaneous).
    pub fn speedup(&self) -> f64 {
        if self.total_secs <= 0.0 {
            0.0
        } else {
            self.cell_secs_sum() / self.total_secs
        }
    }
}

/// [`run_with_workers`] on [`worker_count`] workers, also timing every
/// cell: returns the results together with a [`SweepProfile`].
///
/// Results are identical to the untimed run's (the timing wrapper does
/// not touch the cell function); only the profile is
/// scheduling-dependent.
pub fn run_profiled<C, R, F>(cells: &[C], f: F) -> (Vec<R>, SweepProfile)
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let workers = worker_count();
    let start = Instant::now();
    let timed = run_with_workers(cells, workers, |cell| {
        let cell_start = Instant::now();
        let result = f(cell);
        (result, cell_start.elapsed().as_secs_f64())
    });
    let total_secs = start.elapsed().as_secs_f64();
    let mut results = Vec::with_capacity(timed.len());
    let mut per_cell_secs = Vec::with_capacity(timed.len());
    for (result, secs) in timed {
        results.push(result);
        per_cell_secs.push(secs);
    }
    (
        results,
        SweepProfile {
            per_cell_secs,
            per_cell_cycles: Vec::new(),
            total_secs,
            workers,
        },
    )
}

// ----------------------------------------------------------------------
// Self-healing isolation: panic containment, cycle-budget watchdogs and
// bounded retry, so one bad cell degrades one report entry instead of
// losing the whole sweep.

/// Sentinel panic payload thrown by [`Watchdog::tick`]; [`run_isolated`]
/// recognises it and reports the cell as [`CellOutcome::TimedOut`] instead
/// of panicked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogExpired;

/// A deterministic cycle-budget watchdog handed to every isolated cell.
///
/// Cells call [`Watchdog::tick`] once per unit of forward progress
/// (typically one simulated network cycle). A cell that exceeds its budget
/// is unwound and reported as timed out — the budget counts *work*, not
/// wall-clock time, so the verdict is identical on a fast and a loaded
/// machine.
#[derive(Debug)]
pub struct Watchdog {
    budget: u64,
    ticks: AtomicU64,
}

impl Watchdog {
    /// A watchdog with `spent` ticks already charged against `budget` —
    /// how [`run_isolated`] levies the deterministic retry backoff: a
    /// retried attempt starts with [`retry_backoff`] ticks gone, so
    /// repeated failures cost a geometrically growing share of the cell's
    /// cycle budget instead of wall-clock sleeps (which would break
    /// determinism and slow healthy sweeps).
    fn precharged(budget: u64, spent: u64) -> Watchdog {
        Watchdog {
            budget,
            ticks: AtomicU64::new(spent.min(budget)),
        }
    }

    /// Records one unit of progress.
    ///
    /// # Panics
    ///
    /// Unwinds with [`WatchdogExpired`] once the budget is exhausted;
    /// [`run_isolated`] catches it and marks the cell
    /// [`CellOutcome::TimedOut`].
    pub fn tick(&self) {
        let ticks = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if ticks > self.budget {
            std::panic::panic_any(WatchdogExpired);
        }
    }

    /// Progress recorded so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// The deterministic backoff levied on retry attempt `attempt`
/// (0-based), in [`Watchdog::tick`] units pre-charged against the
/// cell's `cycle_budget`.
///
/// Attempt 0 is free; each retry doubles from `cycle_budget / 8`,
/// capped at `cycle_budget / 2` — scaled to the budget, so the same
/// schedule applies to a smoke-sized and a soak-sized sweep, and pinned
/// by `attempt_schedule_is_pinned` so harness tuning cannot silently
/// change which flaky cells survive.
///
/// # Examples
///
/// ```
/// use damq_bench::sweep::retry_backoff;
///
/// assert_eq!(retry_backoff(8_000, 0), 0);
/// assert_eq!(retry_backoff(8_000, 1), 1_000);
/// assert_eq!(retry_backoff(8_000, 2), 2_000);
/// assert_eq!(retry_backoff(8_000, 3), 4_000);
/// assert_eq!(retry_backoff(8_000, 4), 4_000); // capped at budget / 2
/// ```
pub fn retry_backoff(cycle_budget: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        return 0;
    }
    let base = cycle_budget / 8;
    let shifted = base.saturating_mul(1u64 << (attempt - 1).min(32));
    shifted.min(cycle_budget / 2)
}

/// What happened to one isolated cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell completed on its first attempt.
    Ok,
    /// The cell panicked and then completed on a retry (`attempts` counts
    /// every attempt, including the successful one).
    Retried {
        /// Total attempts made, including the one that succeeded.
        attempts: u32,
    },
    /// The cell panicked on every attempt; the last panic message is kept.
    Panicked {
        /// Rendered payload of the final panic.
        message: String,
    },
    /// The cell exhausted its cycle budget. Timeouts are deterministic
    /// (the budget counts simulated work), so they are not retried.
    TimedOut,
}

impl CellOutcome {
    /// Short machine-readable tag (`ok`, `retried`, `panicked`,
    /// `timed_out`) used by the JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::Retried { .. } => "retried",
            CellOutcome::Panicked { .. } => "panicked",
            CellOutcome::TimedOut => "timed_out",
        }
    }

    /// Whether the cell produced a usable result.
    pub fn is_usable(&self) -> bool {
        matches!(self, CellOutcome::Ok | CellOutcome::Retried { .. })
    }
}

/// One isolated cell's verdict and (if usable) its result.
#[derive(Debug, Clone)]
pub struct CellReport<R> {
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// The result, present exactly when `outcome.is_usable()`.
    pub result: Option<R>,
}

/// Tuning for [`run_isolated`].
#[derive(Debug, Clone, Copy)]
pub struct IsolationOptions {
    /// Watchdog budget per attempt, in [`Watchdog::tick`] units.
    pub cycle_budget: u64,
    /// Panicking cells are re-run up to this many extra times (each
    /// attempt sees its attempt index, so it can reseed). Timeouts are
    /// never retried.
    pub max_retries: u32,
}

impl Default for IsolationOptions {
    fn default() -> IsolationOptions {
        IsolationOptions {
            cycle_budget: 10_000_000,
            max_retries: 2,
        }
    }
}

/// Runs every cell on [`worker_count`] workers inside a panic boundary
/// with a cycle-budget watchdog and bounded retry: the sweep always
/// completes and every cell reports a [`CellOutcome`] instead of taking
/// the process down.
///
/// `f` receives the cell, a fresh [`Watchdog`] per attempt, and the
/// 0-based attempt index (fold it into the cell's seed so retries explore
/// a different stream). Results come back in cell order.
///
/// Panic payloads are contained per attempt; the default panic hook still
/// prints them to stderr, which doubles as the incident log.
pub fn run_isolated<C, R, F>(cells: &[C], opts: IsolationOptions, f: F) -> Vec<CellReport<R>>
where
    C: Sync,
    R: Send,
    F: Fn(&C, &Watchdog, u32) -> R + Sync,
{
    let contained = contain(
        cells,
        opts,
        || (),
        |cell, watchdog, attempt, ()| f(cell, watchdog, attempt),
        |_, _, _, _, ()| None,
    );
    contained.into_iter().map(|cell| cell.report).collect()
}

/// One isolated cell's verdict plus the crash-dump sidecars its failing
/// attempts produced (empty when every attempt succeeded cleanly).
#[derive(Debug, Clone)]
pub struct RecordedCell<R> {
    /// The cell's outcome and (if usable) result, exactly as
    /// [`run_isolated`] would report them.
    pub report: CellReport<R>,
    /// Flight-recorder dump files written for this cell, one per failed
    /// attempt, in attempt order.
    pub dumps: Vec<PathBuf>,
}

/// Like [`run_isolated`], but every attempt records telemetry into a
/// fresh fixed-capacity [`SharedRecorder`] ring, and any attempt that
/// panics, trips the [`Watchdog`], or exhausts its retries dumps the
/// ring to a JSONL sidecar in `dump_dir` — turning a "panicked isolated"
/// verdict into a post-mortem.
///
/// `f` receives the cell, the attempt's watchdog, the 0-based attempt
/// index, and a [`SharedRecorder`] handle to attach as the simulation's
/// telemetry sink (clone it freely; the harness keeps its own handle
/// outside the panic boundary). Each dump file is named
/// `cell{index:04}_attempt{n}.jsonl` and starts with one
/// `flight_recorder` meta line (cell, attempt, outcome, panic message,
/// ring occupancy) followed by the ring's events, oldest first.
///
/// Dump-file I/O errors are swallowed — a failing disk must not turn a
/// contained cell panic into a sweep abort — so a dump path is only
/// returned for files that were actually written.
pub fn run_isolated_recorded<C, R, E, F>(
    cells: &[C],
    opts: IsolationOptions,
    capacity: usize,
    dump_dir: &Path,
    f: F,
) -> Vec<RecordedCell<R>>
where
    C: Sync,
    R: Send,
    E: JsonlRecord,
    F: Fn(&C, &Watchdog, u32, SharedRecorder<E>) -> R + Sync,
{
    contain(
        cells,
        opts,
        || SharedRecorder::new(capacity.max(1)),
        |cell, watchdog, attempt, recorder| f(cell, watchdog, attempt, recorder.clone()),
        |cell, attempt, outcome, message, recorder| {
            write_flight_dump(dump_dir, cell, attempt, outcome, message, recorder)
        },
    )
}

/// The one contain / watchdog / retry loop behind [`run_isolated`] and
/// [`run_isolated_recorded`].
///
/// Every attempt gets a watchdog pre-charged with its [`retry_backoff`]
/// and a fresh `begin()` state built *outside* the panic boundary (the
/// recorder ring, or nothing), runs `f` inside it, and on failure hands
/// `post_mortem` the cell index, attempt, outcome label, failure message
/// and that state; it may leave a dump file behind. Timeouts are final;
/// panics retry up to `opts.max_retries` times.
fn contain<C, R, S>(
    cells: &[C],
    opts: IsolationOptions,
    begin: impl Fn() -> S + Sync,
    f: impl Fn(&C, &Watchdog, u32, &S) -> R + Sync,
    post_mortem: impl Fn(usize, u32, &str, &str, &S) -> Option<PathBuf> + Sync,
) -> Vec<RecordedCell<R>>
where
    C: Sync,
    R: Send,
{
    let indexed: Vec<(usize, &C)> = cells.iter().enumerate().collect();
    run_with_workers(&indexed, worker_count(), |&(index, cell)| {
        let mut dumps = Vec::new();
        let mut attempt = 0;
        let (outcome, result) = loop {
            // Retries start with a backoff pre-charged against the
            // budget: deterministic (no wall clock) and budget-scaled.
            let watchdog =
                Watchdog::precharged(opts.cycle_budget, retry_backoff(opts.cycle_budget, attempt));
            let state = begin();
            let attempted = catch_unwind(AssertUnwindSafe(|| f(cell, &watchdog, attempt, &state)));
            let payload = match attempted {
                Ok(result) if attempt == 0 => break (CellOutcome::Ok, Some(result)),
                Ok(result) => {
                    let attempts = attempt + 1;
                    break (CellOutcome::Retried { attempts }, Some(result));
                }
                Err(payload) => payload,
            };
            let timed_out = payload.downcast_ref::<WatchdogExpired>().is_some();
            let (outcome, message) = if timed_out {
                let ticks = watchdog.ticks();
                let message = format!("watchdog expired after {ticks} ticks");
                (CellOutcome::TimedOut, message)
            } else {
                let message = panic_message(payload.as_ref());
                let outcome = CellOutcome::Panicked {
                    message: message.clone(),
                };
                (outcome, message)
            };
            dumps.extend(post_mortem(
                index,
                attempt,
                outcome.label(),
                &message,
                &state,
            ));
            if timed_out || attempt >= opts.max_retries {
                break (outcome, None);
            }
            attempt += 1;
        };
        RecordedCell {
            report: CellReport { outcome, result },
            dumps,
        }
    })
}

/// Writes one flight-recorder sidecar: a meta line describing the failed
/// attempt, then the ring's retained events as JSONL. Returns `None` on
/// any I/O failure (dumping is best-effort by design).
fn write_flight_dump<E: JsonlRecord>(
    dir: &Path,
    cell: usize,
    attempt: u32,
    outcome: &str,
    message: &str,
    recorder: &SharedRecorder<E>,
) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("cell{cell:04}_attempt{attempt}.jsonl"));
    let meta = Json::obj([
        ("type", Json::from("flight_recorder")),
        ("cell", Json::from(cell)),
        ("attempt", Json::from(u64::from(attempt))),
        ("outcome", Json::from(outcome)),
        ("message", Json::from(message)),
        ("retained", Json::from(recorder.len())),
        ("seen", Json::from(recorder.seen())),
    ]);
    let body = format!("{}\n{}", meta.render(), recorder.dump_jsonl());
    std::fs::write(&path, body).ok()?;
    Some(path)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
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
    fn attempt_schedule_is_pinned() {
        // The deterministic retry-backoff table, pinned so harness
        // tuning cannot silently change which flaky cells survive.
        for (attempt, expect) in [
            (0u32, 0u64),
            (1, 125),
            (2, 250),
            (3, 500),
            (4, 500),
            (9, 500),
        ] {
            assert_eq!(retry_backoff(1_000, attempt), expect, "attempt {attempt}");
        }
        assert_eq!(retry_backoff(0, 5), 0, "degenerate budget");
        assert_eq!(retry_backoff(u64::MAX, 63), u64::MAX / 2);

        // A retried cell actually starts each attempt with the backoff
        // pre-charged against its watchdog budget.
        use std::sync::Mutex;
        let observed = Mutex::new(Vec::new());
        let reports = run_isolated(
            &[0u64],
            IsolationOptions {
                cycle_budget: 1_000,
                max_retries: 3,
            },
            |_, watchdog, attempt| {
                observed.lock().unwrap().push(watchdog.ticks());
                if attempt < 2 {
                    panic!("injected: force a retry");
                }
                attempt
            },
        );
        assert_eq!(reports[0].outcome, CellOutcome::Retried { attempts: 3 });
        assert_eq!(
            *observed.lock().unwrap(),
            vec![0, 125, 250],
            "per-attempt pre-charged ticks follow the pinned schedule"
        );

        // The pre-charge shrinks the work a retry may do: a cell that
        // ticks more than budget − backoff on its retry times out.
        let reports = run_isolated(
            &[0u64],
            IsolationOptions {
                cycle_budget: 1_000,
                max_retries: 3,
            },
            |_, watchdog, attempt| {
                if attempt == 0 {
                    panic!("injected: force a retry");
                }
                for _ in 0..900 {
                    watchdog.tick(); // 125 + 900 > 1_000
                }
            },
        );
        assert_eq!(reports[0].outcome, CellOutcome::TimedOut);
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
    fn run_profiled_matches_the_untimed_run_and_times_every_cell() {
        let cells: Vec<u64> = (0..9).collect();
        let plain = run_with_workers(&cells, 1, |&c| c + 1);
        let (results, profile) = run_profiled(&cells, |&c| c + 1);
        assert_eq!(results, plain);
        assert_eq!(profile.per_cell_secs.len(), cells.len());
        assert!(profile.per_cell_secs.iter().all(|&s| s >= 0.0));
        assert!(profile.total_secs >= 0.0);
        assert!(profile.workers >= 1);
        assert!(profile.slowest_cell().is_some());
        assert!(profile.cell_secs_sum() >= 0.0);
    }

    #[test]
    fn cycle_counts_turn_the_profile_into_throughput() {
        let (_, profile) = run_profiled(&[1u32, 2, 3], |&c| {
            // Busy the cell long enough for a nonzero timer reading.
            (0..50_000u64).fold(c as u64, |a, b| a.wrapping_add(b))
        });
        assert!(profile.per_cell_cycles_per_sec().is_empty());
        assert_eq!(profile.cycles_per_sec(), 0.0);
        let profile = profile.with_cycles(vec![1_000, 2_000, 3_000]);
        let per_cell = profile.per_cell_cycles_per_sec();
        assert_eq!(per_cell.len(), 3);
        assert!(per_cell.iter().all(|&cps| cps >= 0.0));
        if profile.cell_secs_sum() > 0.0 {
            assert!(profile.cycles_per_sec() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "one cycle count per cell")]
    fn mismatched_cycle_counts_rejected() {
        let (_, profile) = run_profiled(&[1u32, 2], |&c| c);
        let _ = profile.with_cycles(vec![10]);
    }

    #[test]
    fn empty_profile_has_no_slowest_cell() {
        let (results, profile) = run_profiled(&[] as &[u32], |&c| c);
        assert!(results.is_empty());
        assert_eq!(profile.slowest_cell(), None);
        assert_eq!(profile.cell_secs_sum(), 0.0);
    }

    #[test]
    fn isolated_cells_contain_panics_timeouts_and_retries() {
        let cells: Vec<u32> = (0..6).collect();
        let opts = IsolationOptions {
            cycle_budget: 500,
            max_retries: 2,
        };
        let reports = run_isolated(&cells, opts, |&c, watchdog, attempt| match c {
            2 => panic!("injected fault in cell 2"),
            3 => loop {
                watchdog.tick();
            },
            4 if attempt == 0 => panic!("flaky once"),
            _ => c * 10,
        });
        assert_eq!(reports.len(), 6);
        for i in [0usize, 1, 5] {
            assert_eq!(reports[i].outcome, CellOutcome::Ok);
            assert_eq!(reports[i].result, Some(i as u32 * 10));
        }
        match &reports[2].outcome {
            CellOutcome::Panicked { message } => {
                assert!(message.contains("injected fault in cell 2"));
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(reports[2].result, None);
        assert_eq!(reports[3].outcome, CellOutcome::TimedOut);
        assert_eq!(reports[3].result, None);
        assert_eq!(reports[4].outcome, CellOutcome::Retried { attempts: 2 });
        assert_eq!(reports[4].result, Some(40));
    }

    #[test]
    fn outcome_labels_and_usability() {
        assert_eq!(CellOutcome::Ok.label(), "ok");
        assert_eq!(CellOutcome::Retried { attempts: 2 }.label(), "retried");
        assert!(CellOutcome::Retried { attempts: 2 }.is_usable());
        assert!(!CellOutcome::TimedOut.is_usable());
        assert!(!CellOutcome::Panicked {
            message: String::new()
        }
        .is_usable());
    }

    #[test]
    fn watchdog_budget_is_deterministic_progress_not_wall_clock() {
        let reports = run_isolated(
            &[100u64, 99],
            IsolationOptions {
                cycle_budget: 99,
                max_retries: 0,
            },
            |&n, watchdog, _| {
                for _ in 0..n {
                    watchdog.tick();
                }
                n
            },
        );
        // 100 ticks over a 99-tick budget: out. Exactly 99: fine.
        assert_eq!(reports[0].outcome, CellOutcome::TimedOut);
        assert_eq!(reports[1].outcome, CellOutcome::Ok);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let cells = [1u32, 2, 3];
            let _ = run_with_workers(&cells, 2, |&c| {
                assert!(c != 2, "boom");
                c
            });
        });
        assert!(result.is_err());
    }
}
