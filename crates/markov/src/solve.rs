//! Steady-state solvers for discrete-time Markov chains.

use std::error::Error;
use std::fmt;

use crate::sparse::{Columns, CsrMatrix};

/// Convergence controls for [`steady_state`] and
/// [`steady_state_gauss_seidel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Stop when the L1 residual `‖πP − π‖₁` ([`steady_state`]) or the L1
    /// change over a sweep ([`steady_state_gauss_seidel`]) falls to this.
    pub tolerance: f64,
    /// Give up after this many iterations: matrix–vector products for
    /// [`steady_state`], sweeps for [`steady_state_gauss_seidel`].
    pub max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tolerance: 1e-13,
            max_iterations: 2_000_000,
        }
    }
}

/// The stationary distribution of a chain, with solver diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    /// Stationary probability of each state.
    pub pi: Vec<f64>,
    /// Iterations performed: matrix–vector products for [`steady_state`]
    /// (1 on a chain it eliminates: the product that checks the residual),
    /// sweeps for [`steady_state_gauss_seidel`].
    pub iterations: usize,
    /// Final L1 residual `‖πP − π‖₁`.
    pub residual: f64,
}

/// Failure of the steady-state solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// A row of the transition matrix does not sum to 1.
    NotStochastic {
        /// The offending row.
        row: usize,
        /// Its sum.
        sum: f64,
    },
    /// The solver did not reach the tolerance within its budget.
    NotConverged {
        /// Residual when the iteration limit was hit.
        residual: f64,
        /// The iteration limit.
        iterations: usize,
    },
    /// The [`SolveOptions`] admit no meaningful run: a NaN tolerance (it
    /// can never pass the convergence test) or a zero iteration budget.
    InvalidOptions(&'static str),
    /// The matrix is not square, so it is no transition matrix.
    NotSquare {
        /// Its row count.
        rows: usize,
        /// Its column count.
        cols: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotStochastic { row, sum } => {
                write!(f, "transition matrix row {row} sums to {sum}, not 1")
            }
            SolveError::NotConverged {
                residual,
                iterations,
            } => write!(
                f,
                "not converged: residual {residual:e} after {iterations} iterations"
            ),
            SolveError::InvalidOptions(why) => write!(f, "invalid solver options: {why}"),
            SolveError::NotSquare { rows, cols } => {
                write!(f, "transition matrix is {rows}x{cols}, not square")
            }
        }
    }
}

impl Error for SolveError {}

/// Rejects options no run can satisfy, then matrices that are not square,
/// then matrices that are not row-stochastic.
fn check(matrix: &CsrMatrix, options: SolveOptions) -> Result<(), SolveError> {
    // A negative tolerance is legal (it forces the budget to bind).
    if options.tolerance.is_nan() {
        return Err(SolveError::InvalidOptions("tolerance is NaN"));
    }
    if options.max_iterations == 0 {
        return Err(SolveError::InvalidOptions("max_iterations is zero"));
    }
    let (rows, cols) = (matrix.rows(), matrix.cols());
    if rows != cols {
        return Err(SolveError::NotSquare { rows, cols });
    }
    // Row by row, each summed over its stored values, without collecting.
    let mut sums = (0..rows).map(|row| (row, matrix.row(row).map(|(_, v)| v).sum::<f64>()));
    match sums.find(|&(_, sum)| (sum - 1.0).abs() > 1e-9) {
        Some((row, sum)) => Err(SolveError::NotStochastic { row, sum }),
        None => Ok(()),
    }
}

/// The L1 residual `‖πP − π‖₁`.
fn residual(columns: &Columns, pi: &[f64]) -> f64 {
    (0..pi.len())
        .map(|j| (columns.dot(j, pi) - pi[j]).abs())
        .sum()
}

/// Krylov vectors per restart of [`steady_state`]. With the iterate and
/// the product buffer a restarted solve holds `RESTART + 3` vectors,
/// which kept the largest Table 2 chain's solve below what exploring it
/// peaked at when GMRES solved it; a longer basis saves a few products
/// and raises the peak.
const RESTART: usize = 12;

/// `Σ a_j·b_j` over four interleaved partial sums (a fixed order, so the
/// result repeats exactly; one running sum would serialise on the adds).
fn inner(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0; 4];
    let (mut a4, mut b4) = (a.chunks_exact(4), b.chunks_exact(4));
    for (a, b) in a4.by_ref().zip(b4.by_ref()) {
        for lane in 0..4 {
            acc[lane] += a[lane] * b[lane];
        }
    }
    let tail: f64 = (a4.remainder().iter().zip(b4.remainder()))
        .map(|(a, b)| a * b)
        .sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `y ← y + a·x`.
fn add_scaled(y: &mut [f64], a: f64, x: &[f64]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

/// The L1 and L2 norms of `moved − pi`, where `moved` is `πP`.
fn residual_norms(pi: &[f64], moved: &[f64]) -> (f64, f64) {
    let (mut l1, mut squares) = (0.0, 0.0);
    for (&p, &m) in pi.iter().zip(moved) {
        let r = m - p;
        l1 += r.abs();
        squares += r * r;
    }
    (l1, squares.sqrt())
}

/// One restart of [`steady_state`] from `pi`, whose product `moved = πP`
/// the caller has just taken and whose residual `r = moved − pi` has L2
/// norm `beta > 0`, within a budget of `spare` products; returns the
/// products taken.
///
/// GMRES on `(I − Pᵀ)x = 0`: up to [`RESTART`] Arnoldi steps (modified
/// Gram–Schmidt) grow an orthonormal basis of the Krylov space of `r`,
/// Givens rotations keep the small least-squares problem triangular as it
/// grows, and `pi` moves to the point of `pi + span(basis)` with the
/// smallest L2 residual. `I − Pᵀ` and `Pᵀ` span the same Krylov spaces,
/// so the basis is built from plain products `v·P` and only the
/// Hessenberg column is shifted. The rotated residual estimate ends the
/// restart early at `target`; it never declares convergence.
///
/// Then the negative entries (rounding, on states of negligible mass) are
/// clamped to zero and the restart ends on one plain step `π ← πP`,
/// rescaled to sum to 1: it leaves strictly positive mass on every state
/// a positive state leads to, and it is what keeps restarts from
/// stagnating on chains whose mass spans many orders of magnitude (a
/// birth–death chain with drift stalls for good without it).
fn restart_cycle(
    matrix: &CsrMatrix,
    pi: &mut [f64],
    moved: &mut [f64],
    basis: &mut [f64],
    beta: f64,
    target: f64,
    spare: usize,
) -> usize {
    if spare == 0 {
        return 0;
    }
    let n = pi.len();
    for ((v, &m), &p) in basis[..n].iter_mut().zip(moved.iter()).zip(pi.iter()) {
        *v = (m - p) / beta;
    }
    // Column k of the rotated Hessenberg matrix is `upper[k][..=k]`.
    let mut upper = [[0.0; RESTART + 1]; RESTART];
    let (mut cos, mut sin) = ([0.0; RESTART], [0.0; RESTART]);
    let mut rhs = [0.0; RESTART + 1];
    rhs[0] = beta;
    let mut products = 0;
    let mut columns = 0;
    while products < RESTART.min(spare - 1) {
        let k = columns;
        let (built, rest) = basis.split_at_mut((k + 1) * n);
        matrix.left_multiply_into(&built[k * n..], moved);
        products += 1;
        let column = &mut upper[k];
        for (i, v) in built.chunks_exact(n).enumerate() {
            let along = inner(moved, v);
            add_scaled(moved, -along, v);
            column[i] = -along;
        }
        column[k] += 1.0;
        let norm = inner(moved, moved).sqrt();
        column[k + 1] = -norm;
        for i in 0..k {
            let (a, b) = (column[i], column[i + 1]);
            column[i] = cos[i] * a + sin[i] * b;
            column[i + 1] = cos[i] * b - sin[i] * a;
        }
        // Never zero: the Krylov space of a residual lies in the range of
        // `I − Pᵀ`, which meets its null space only at the origin.
        let radius = column[k].hypot(column[k + 1]);
        (cos[k], sin[k]) = (column[k] / radius, column[k + 1] / radius);
        column[k] = radius;
        rhs[k + 1] = -sin[k] * rhs[k];
        rhs[k] *= cos[k];
        columns += 1;
        // `norm == 0` is the happy breakdown: the space is invariant and
        // the estimate is exactly zero.
        if norm == 0.0 || rhs[k + 1].abs() <= target {
            break;
        }
        for (v, &m) in rest[..n].iter_mut().zip(moved.iter()) {
            *v = m / norm;
        }
    }
    // Back-substitute for the combination, then step along the basis.
    let mut weights = [0.0; RESTART];
    for i in (0..columns).rev() {
        let known: f64 = (i + 1..columns).map(|j| upper[j][i] * weights[j]).sum();
        weights[i] = (rhs[i] - known) / upper[i][i];
    }
    for (v, &weight) in basis.chunks_exact(n).zip(&weights[..columns]) {
        add_scaled(pi, weight, v);
    }
    for p in pi.iter_mut() {
        *p = p.max(0.0);
    }
    matrix.left_multiply_into(pi, moved);
    let mass: f64 = moved.iter().sum();
    for (p, &m) in pi.iter_mut().zip(moved.iter()) {
        *p = m / mass;
    }
    products + 1
}

/// Largest chain [`steady_state`] solves by elimination. Its cost grows
/// with the fill, which breadth-first numbering keeps small on the sparse
/// 2×2 chains: DAMQ-6 (124 states, the largest Table 2 chain) takes
/// 13 180 multiply-adds, ~60 µs against GMRES's ~150 µs, and the two
/// break even between 347 and 791 states (DAMQ-8 to DAMQ-10). The 4×4
/// chains fill in densely: at 672 and 758 states elimination costs 40–110
/// times a GMRES solve, at 3 283 and 3 628 states 170–520 times. 512 keeps
/// every 2×2 chain the results use inside and every large 4×4 chain out
/// (`docs/PERFORMANCE.md` §9, "Exact elimination").
const ELIMINATION_MAX_STATES: usize = 512;

/// Word `w` of the bit set `set`, keeping only its members in `lo..hi`.
fn word(set: &[u64], w: usize, lo: usize, hi: usize) -> u64 {
    let mut bits = set[w];
    if w == lo / 64 {
        bits &= u64::MAX << (lo % 64);
    }
    if w == hi / 64 {
        bits &= (1 << (hi % 64)) - 1;
    }
    bits
}

/// The words of a bit set that hold its members in `lo..hi`.
fn words(lo: usize, hi: usize) -> std::ops::Range<usize> {
    if lo < hi {
        lo / 64..hi.div_ceil(64)
    } else {
        0..0
    }
}

/// Calls `f` with each member of `set` in `lo..hi`, ascending.
fn each_member(set: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    for w in words(lo, hi) {
        let mut bits = word(set, w, lo, hi);
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The number of members of `set` below `hi`.
fn count_below(set: &[u64], hi: usize) -> usize {
    (words(0, hi).map(|w| word(set, w, 0, hi).count_ones() as usize)).sum()
}

/// The largest member of `set` in `lo..hi`.
fn highest(set: &[u64], lo: usize, hi: usize) -> Option<usize> {
    words(lo, hi).rev().find_map(|w| {
        let bits = word(set, w, lo, hi);
        (bits != 0).then(|| w * 64 + 63 - bits.leading_zeros() as usize)
    })
}

/// GTH state reduction's reduced rows, stored by structure.
///
/// Eliminating the states from the last down turns row `k` into the
/// chain censored on states `0..=k`: the original row plus, for each
/// higher state `m` it reaches, in descending order, `a · R̂_m`, where `a`
/// is the row's entry in column `m` at that point (its *multiplier*) and
/// `R̂_m` is `m`'s reduced row. What remains below the diagonal, divided by
/// its sum `s_k` (the pivot: the probability of leaving `k` downwards),
/// is `R̂_k`. Every operation adds or multiplies non-negative numbers, so
/// nothing cancels and each entry is accurate to its last few bits.
///
/// `pattern` holds one bit set of `words` words per row: the columns row
/// `k` ever touches, below the diagonal (`R̂_k`'s columns) and above it
/// (the states whose multipliers it takes). `R̂_k`'s values are
/// `reduced[offsets[k]..offsets[k + 1]]`, in column order. Multipliers
/// are not stored: back-substitution reduces each row again to read them.
struct Reduction {
    words: usize,
    pattern: Vec<u64>,
    offsets: Vec<usize>,
    reduced: Vec<f64>,
    pivots: Vec<f64>,
}

/// The symbolic pass over row `k` of `matrix`: its columns, then every
/// reduced row above the diagonal it reaches, highest first, merged in
/// (a merge can reach further rows, always lower ones). `row` is `k`'s bit
/// set and `above` the bit sets of rows `k + 1..`, already complete.
fn reduce_pattern(matrix: &CsrMatrix, k: usize, words: usize, row: &mut [u64], above: &[u64]) {
    for (col, _) in matrix.row(k) {
        row[col / 64] |= 1 << (col % 64);
    }
    let mut limit = matrix.rows();
    while let Some(m) = highest(row, k + 1, limit) {
        let merged = &above[(m - k - 1) * words..][..words];
        for (w, bits) in row.iter_mut().enumerate().take(m / 64 + 1) {
            *bits |= word(merged, w, 0, m);
        }
        limit = m;
    }
}

/// The numeric pass over row `k`: scatters the row into `work` and applies
/// each higher reduced row it reaches, highest first, handing every
/// multiplier to `multiplier` as it is reached. Only columns `lo..` of
/// `work` are kept up to date (back-substitution reads nothing below the
/// row); the caller clears the row's columns from `work` afterwards.
fn reduce_row(
    matrix: &CsrMatrix,
    k: usize,
    elim: &Reduction,
    lo: usize,
    work: &mut [f64],
    mut multiplier: impl FnMut(usize, f64),
) {
    let width = elim.words;
    for (col, p) in matrix.row(k) {
        work[col] = p;
    }
    let row = &elim.pattern[k * width..][..width];
    // The row's members above `k`, descending, word by word: the pattern
    // is complete, so applying a row adds no member to walk.
    for high in words(k + 1, matrix.rows()).rev() {
        let mut above = word(row, high, k + 1, matrix.rows());
        while above != 0 {
            let bit = 63 - above.leading_zeros() as usize;
            above &= !(1 << bit);
            let m = high * 64 + bit;
            let a = work[m];
            multiplier(m, a);
            let below = &elim.pattern[m * width..][..width];
            // `R̂_m`'s values from column `lo` on: skip one per column below.
            let skipped = count_below(below, lo.min(m));
            let mut values = elim.reduced[elim.offsets[m] + skipped..elim.offsets[m + 1]].iter();
            each_member(below, lo, m, |j| {
                work[j] += a * values.next().expect("one value per member");
            });
        }
    }
}

/// The stationary distribution of `matrix` by GTH state reduction
/// (Grassmann, Taksar & Heyman, *Operations Research* 33(5), 1985), or
/// `None` where it does not apply: a pivot that is not positive — some
/// state does not reach state 0, so the chain may have several closed
/// classes — a chain above [`ELIMINATION_MAX_STATES`], or mass beyond
/// `f64::MAX` before normalising (a stationary vector whose entries span
/// more than the exponent range).
///
/// A symbolic pass sizes the reduced rows exactly, the numeric pass fills
/// them from the last state down, and back-substitution runs from
/// `π₀ = 1` upwards: `π_m = Σ_{i<m} π_i · a_im / s_m`, each row's
/// multipliers `a_im` recomputed by reducing it again (storing them would
/// cost more memory than the chain). Everything is allocated here, once.
fn eliminate(matrix: &CsrMatrix) -> Option<Vec<f64>> {
    let n = matrix.rows();
    if n == 0 || n > ELIMINATION_MAX_STATES {
        return None;
    }
    let words = n.div_ceil(64);
    let mut pattern = vec![0u64; n * words];
    let mut offsets = vec![0; n + 1];
    for k in (0..n).rev() {
        let (through, above) = pattern.split_at_mut((k + 1) * words);
        let row = &mut through[k * words..];
        reduce_pattern(matrix, k, words, row, above);
        offsets[k + 1] = count_below(row, k);
    }
    for k in 0..n {
        offsets[k + 1] += offsets[k];
    }
    let mut elim = Reduction {
        words,
        reduced: vec![0.0; offsets[n]],
        pattern,
        offsets,
        pivots: vec![0.0; n],
    };
    let mut work = vec![0.0; n];
    for k in (1..n).rev() {
        reduce_row(matrix, k, &elim, 0, &mut work, |_, _| {});
        let row = &elim.pattern[k * words..][..words];
        let mut pivot = 0.0;
        each_member(row, 0, k, |j| pivot += work[j]);
        if pivot.is_nan() || pivot <= 0.0 {
            return None;
        }
        let mut reduced = elim.reduced[elim.offsets[k]..elim.offsets[k + 1]].iter_mut();
        each_member(row, 0, k, |j| {
            *reduced.next().expect("one value per member") = work[j] / pivot;
        });
        elim.pivots[k] = pivot;
        each_member(row, 0, n, |j| work[j] = 0.0);
    }
    // `pi[m]` gathers `Σ π_i · a_im` from rows `i < m` until row `m` is
    // reached and divides it by its pivot.
    let mut pi = vec![0.0; n];
    pi[0] = 1.0;
    for i in 0..n {
        if i > 0 {
            pi[i] /= elim.pivots[i];
        }
        let (done, ahead) = pi.split_at_mut(i + 1);
        let weight = done[i];
        reduce_row(matrix, i, &elim, i + 1, &mut work, |m, a| {
            ahead[m - i - 1] += weight * a;
        });
        each_member(&elim.pattern[i * words..][..words], 0, n, |j| work[j] = 0.0);
    }
    let mass: f64 = pi.iter().sum();
    if !mass.is_finite() {
        return None;
    }
    for p in &mut pi {
        *p /= mass;
    }
    Some(pi)
}

/// Computes the stationary distribution `π = πP` of a row-stochastic
/// matrix: directly by GTH state reduction where that applies, then
/// checked — or refined — by restarted GMRES on `(I − Pᵀ)x = 0`.
///
/// **The start.** A chain of at most 512 states whose every state reaches
/// state 0 — so it has exactly one stationary distribution — is solved by
/// Gaussian elimination in the form of Grassmann, Taksar and Heyman:
/// states are eliminated from the last down, each pivot is the sum of the
/// eliminated state's remaining exit probabilities rather than `1 − p_kk`,
/// so nothing is ever subtracted and every entry of `π` is accurate to its
/// last few bits, however small. The elimination declines (a pivot of
/// zero) on chains where some state does not reach state 0 and where the
/// entries of `π` span more than the exponent range, and is not tried
/// above 512 states, where its fill makes it slower than GMRES; those
/// start from the uniform vector. [`Chain::explore`](crate::Chain)
/// numbers states breadth-first, which keeps the fill small.
///
/// **The loop.** Each pass measures the true residual `‖πP − π‖₁` of the
/// iterate with one product over the CSR rows
/// ([`CsrMatrix::left_multiply_into`]) and, while it exceeds the
/// tolerance, runs one restart: at most 12 Arnoldi steps, then one plain
/// step `π ← πP` that leaves a non-negative vector of sum 1. Convergence
/// is declared on a measured residual only, and `residual` is the
/// measurement of the vector returned. `iterations` and `max_iterations`
/// count every product: an eliminated start normally passes the first
/// measurement, so it reports one. The basis is allocated on the first
/// restart, the iterate and the product buffer once; nothing is allocated
/// per product.
///
/// A chain with several closed classes has many stationary vectors; the
/// one returned is the limit of `uniform · Pᵗ` (the Cesàro limit if the
/// chain is periodic), as a power iteration's would be. With one closed
/// class that limit is the one stationary vector, which is what the
/// elimination computes.
///
/// # Errors
///
/// Returns [`SolveError::InvalidOptions`] for options no run can satisfy,
/// [`SolveError::NotSquare`] for a matrix that is not square,
/// [`SolveError::NotStochastic`] if a row sum deviates from 1 by more than
/// 1e-9, or [`SolveError::NotConverged`] if the tolerance is not met within
/// the iteration budget.
///
/// # Examples
///
/// ```
/// use damq_markov::{steady_state, CsrMatrix, SolveOptions};
///
/// // Two-state chain: stay with 0.9 / 0.6, switch otherwise.
/// let p = CsrMatrix::from_triplets(
///     2,
///     2,
///     &[(0, 0, 0.9), (0, 1, 0.1), (1, 0, 0.4), (1, 1, 0.6)],
/// );
/// let ss = steady_state(&p, SolveOptions::default())?;
/// assert!((ss.pi[0] - 0.8).abs() < 1e-9);
/// assert!((ss.pi[1] - 0.2).abs() < 1e-9);
/// # Ok::<(), damq_markov::SolveError>(())
/// ```
pub fn steady_state(matrix: &CsrMatrix, options: SolveOptions) -> Result<SteadyState, SolveError> {
    check(matrix, options)?;
    let n = matrix.rows();
    let start = eliminate(matrix).unwrap_or_else(|| vec![1.0 / n as f64; n]);
    gmres_from(matrix, options, start)
}

/// [`steady_state`]'s measure-then-restart loop from the start `pi`, on a
/// matrix [`check`] has passed.
pub(crate) fn gmres_from(
    matrix: &CsrMatrix,
    options: SolveOptions,
    mut pi: Vec<f64>,
) -> Result<SteadyState, SolveError> {
    let n = matrix.rows();
    let mut moved = vec![0.0; n];
    let mut basis = Vec::new();
    let mut products = 0;
    loop {
        matrix.left_multiply_into(&pi, &mut moved);
        products += 1;
        let (residual, beta) = residual_norms(&pi, &moved);
        if residual <= options.tolerance {
            return Ok(SteadyState {
                pi,
                iterations: products,
                residual,
            });
        }
        if products == options.max_iterations {
            return Err(SolveError::NotConverged {
                residual,
                iterations: products,
            });
        }
        if beta > 0.0 {
            if basis.is_empty() {
                basis = vec![0.0; (RESTART + 1) * n];
            }
            // Aim at half the tolerance, in the L2 norm the estimate is
            // in: a restart then at least halves the residual, so a near
            // miss cannot decay into one-step restarts that stall. One
            // product is kept back for the next measurement.
            products += restart_cycle(
                matrix,
                &mut pi,
                &mut moved,
                &mut basis,
                beta,
                0.5 * options.tolerance * beta / residual,
                options.max_iterations - products - 1,
            );
        }
    }
}

/// One in-place Gauss–Seidel sweep over every state; returns the L1
/// change.
fn gauss_seidel_sweep(columns: &Columns, self_loop: &[f64], pi: &mut [f64]) -> f64 {
    let mut diff = 0.0;
    for (j, &stay) in self_loop.iter().enumerate() {
        let (rows, values) = columns.column(j);
        let incoming: f64 = rows
            .iter()
            .zip(values)
            .filter(|&(&i, _)| i as usize != j)
            .map(|(&i, &v)| pi[i as usize] * v)
            .sum();
        let denom = 1.0 - stay;
        let updated = if denom > 1e-15 {
            incoming / denom
        } else {
            pi[j]
        };
        diff += (updated - pi[j]).abs();
        pi[j] = updated;
    }
    diff
}

/// Computes the stationary distribution by **Gauss–Seidel** sweeps on
/// `π = πP`: each sweep updates `π_j ← Σ_i π_i P_ij / (1 − P_jj)` in
/// place, using already-updated values — typically converging in far
/// fewer iterations than power iteration on slowly-mixing chains.
///
/// # Errors
///
/// Same contract as [`steady_state`].
///
/// # Examples
///
/// ```
/// use damq_markov::{steady_state, steady_state_gauss_seidel, CsrMatrix, SolveOptions};
///
/// let p = CsrMatrix::from_triplets(
///     2,
///     2,
///     &[(0, 0, 0.9), (0, 1, 0.1), (1, 0, 0.4), (1, 1, 0.6)],
/// );
/// let gs = steady_state_gauss_seidel(&p, SolveOptions::default())?;
/// let pi = steady_state(&p, SolveOptions::default())?;
/// assert!((gs.pi[0] - pi.pi[0]).abs() < 1e-9);
/// # Ok::<(), damq_markov::SolveError>(())
/// ```
pub fn steady_state_gauss_seidel(
    matrix: &CsrMatrix,
    options: SolveOptions,
) -> Result<SteadyState, SolveError> {
    check(matrix, options)?;
    let columns = matrix.columns();
    let n = matrix.rows();
    // Self-loop probability per state, for the (1 - P_jj) denominator.
    let self_loop: Vec<f64> = (0..n)
        .map(|j| {
            let (rows, values) = columns.column(j);
            let at = rows.iter().position(|&i| i as usize == j);
            at.map_or(0.0, |k| values[k])
        })
        .collect();

    let mut pi = vec![1.0 / n as f64; n];
    for iteration in 1..=options.max_iterations {
        let diff = gauss_seidel_sweep(&columns, &self_loop, &mut pi);
        let norm: f64 = pi.iter().sum();
        if norm > 0.0 {
            for v in &mut pi {
                *v /= norm;
            }
        }
        if diff <= options.tolerance * norm.max(1.0) {
            return Ok(SteadyState {
                residual: residual(&columns, &pi),
                pi,
                iterations: iteration,
            });
        }
    }
    Err(SolveError::NotConverged {
        residual: residual(&columns, &pi),
        iterations: options.max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Birth–death chain on `n` states with reflecting ends.
    fn birth_death(n: usize, up: f64, down: f64) -> CsrMatrix {
        let mut t = Vec::new();
        for s in 0..n {
            t.push((s, if s + 1 < n { s + 1 } else { s }, up));
            t.push((s, if s > 0 { s - 1 } else { s }, down));
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    /// The doc-example chain, whose answer is [0.8, 0.2].
    fn two_state() -> CsrMatrix {
        CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.9), (0, 1, 0.1), (1, 0, 0.4), (1, 1, 0.6)])
    }

    /// `‖πP − π‖₁`, recomputed from the rows.
    fn recomputed_residual(p: &CsrMatrix, pi: &[f64]) -> f64 {
        let moved = p.left_multiply(pi);
        moved.iter().zip(pi).map(|(m, p)| (m - p).abs()).sum()
    }

    /// The GMRES loop alone, from the uniform vector — what
    /// [`steady_state`] runs where elimination declines — so that these
    /// tests keep exercising the restarts on chains it would eliminate.
    fn gmres(p: &CsrMatrix, options: SolveOptions) -> Result<SteadyState, SolveError> {
        check(p, options)?;
        let n = p.rows();
        gmres_from(p, options, vec![1.0 / n as f64; n])
    }

    #[test]
    fn gauss_seidel_matches_the_default_solver() {
        // A 4-state chain with uneven structure.
        let p = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 0.5),
                (0, 1, 0.5),
                (1, 2, 0.7),
                (1, 0, 0.3),
                (2, 3, 1.0),
                (3, 0, 0.2),
                (3, 3, 0.8),
            ],
        );
        let gs = steady_state_gauss_seidel(&p, SolveOptions::default()).unwrap();
        let ss = steady_state(&p, SolveOptions::default()).unwrap();
        for (a, b) in gs.pi.iter().zip(&ss.pi) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert!(gs.residual < 1e-9);
        assert_eq!(ss.residual, recomputed_residual(&p, &ss.pi));
    }

    #[test]
    fn krylov_steps_undercut_gauss_seidel_sweeps_on_a_slow_chain() {
        // Slowly-mixing birth-death chain: Gauss–Seidel takes hundreds of
        // sweeps.
        let p = birth_death(30, 0.49, 0.51);
        let gs = steady_state_gauss_seidel(&p, SolveOptions::default()).unwrap();
        let ss = gmres(&p, SolveOptions::default()).unwrap();
        assert!(
            ss.iterations < gs.iterations,
            "{} products vs {} sweeps",
            ss.iterations,
            gs.iterations
        );
        for (a, b) in gs.pi.iter().zip(&ss.pi) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn gauss_seidel_rejects_non_stochastic() {
        let p = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.9), (1, 1, 1.0)]);
        assert!(matches!(
            steady_state_gauss_seidel(&p, SolveOptions::default()),
            Err(SolveError::NotStochastic { row: 0, .. })
        ));
    }

    #[test]
    fn identity_chain_is_uniform_start() {
        // Three closed classes: elimination declines (state 1 never
        // reaches state 0) and the uniform start is already stationary.
        let p = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        assert_eq!(eliminate(&p), None);
        let ss = steady_state(&p, SolveOptions::default()).unwrap();
        for v in ss.pi {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn periodic_chain_needs_no_damping() {
        // 0 → 1, 1 → {0, 2}, 2 → 1 has period 2 and a non-uniform answer;
        // a plain power iteration oscillates on it for ever. Elimination
        // solves it outright; the restarts get there too.
        let p =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 1.0)]);
        let direct = steady_state(&p, SolveOptions::default()).unwrap();
        assert_eq!(
            (direct.pi.as_slice(), direct.iterations),
            (&[0.25, 0.5, 0.25][..], 1)
        );
        let ss = gmres(&p, SolveOptions::default()).unwrap();
        for (got, want) in ss.pi.iter().zip([0.25, 0.5, 0.25]) {
            assert!((got - want).abs() < 1e-12, "{:?}", ss.pi);
        }
        assert!(ss.residual <= 1e-13);
    }

    #[test]
    fn elimination_is_accurate_entry_by_entry() {
        // 200 states, up 0.45 / down 0.55: geometric with ratio 9/11, the
        // mass spanning 17 orders of magnitude. Detailed balance fixes
        // every ratio `π_{k+1} / π_k`; no entry may lose digits, however
        // small — an additive solver's tolerance would swamp the tail.
        let (up, down) = (0.45, 0.55);
        let p = birth_death(200, up, down);
        let ss = steady_state(&p, SolveOptions::default()).unwrap();
        assert_eq!(ss.iterations, 1);
        assert_eq!(ss.residual, recomputed_residual(&p, &ss.pi));
        assert!(ss.pi[199] < 1e-17, "{:e}", ss.pi[199]);
        for (k, w) in ss.pi.windows(2).enumerate() {
            let ratio = w[1] / w[0];
            assert!(
                (ratio / (up / down) - 1.0).abs() < 1e-13,
                "state {k}: {ratio}"
            );
        }
        // The restarts meet the same tolerance in 1 247 products (the
        // drift-stall chain of `restart_cycle`) and agree to 1.4e-12 —
        // absolutely: their tail entries are off by up to 0.15 %.
        let restarted = gmres(&p, SolveOptions::default()).unwrap();
        assert_eq!(restarted.iterations, 1247);
        for (a, b) in ss.pi.iter().zip(&restarted.pi) {
            assert!((a - b).abs() < 1e-11, "{a:e} vs {b:e}");
        }
    }

    #[test]
    fn elimination_declines_outside_its_domain() {
        // Reducible: state 2 is absorbing, so it never reaches state 0.
        let absorbing =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5), (2, 2, 1.0)]);
        assert_eq!(eliminate(&absorbing), None);
        // Above the state bound, even on a chain it would solve: a cycle
        // that falls back to state 0 with probability ½ at every step.
        let cycle = |n: usize| {
            let t: Vec<_> = (0..n)
                .flat_map(|s| [(s, (s + 1) % n, 0.5), (s, 0, 0.5)])
                .collect();
            CsrMatrix::from_triplets(n, n, &t)
        };
        let n = ELIMINATION_MAX_STATES;
        assert!(eliminate(&cycle(n)).is_some());
        assert_eq!(eliminate(&cycle(n + 1)), None);
        // Where `π₀ = 1` leaves the back-substitution past `f64::MAX`:
        // `π_k / π₀ = 99^k` overflows at k = 155.
        assert_eq!(eliminate(&birth_death(200, 0.99, 0.01)), None);
        // Declining leaves exactly the loop from the uniform vector.
        for p in [absorbing, cycle(n + 1)] {
            let options = SolveOptions::default();
            assert_eq!(steady_state(&p, options), gmres(&p, options));
        }
    }

    #[test]
    fn non_square_matrices_are_typed_errors() {
        let wide = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 1.0)]);
        let tall = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 1.0), (2, 0, 1.0)]);
        for solver in [steady_state, steady_state_gauss_seidel] {
            for (p, rows, cols) in [(&wide, 2, 3), (&tall, 3, 2)] {
                let verdict = solver(p, SolveOptions::default());
                assert_eq!(verdict, Err(SolveError::NotSquare { rows, cols }));
            }
        }
        assert_eq!(
            SolveError::NotSquare { rows: 2, cols: 3 }.to_string(),
            "transition matrix is 2x3, not square"
        );
    }

    #[test]
    fn birth_death_chain_matches_closed_form() {
        // States 0..3, up with 0.3, down with 0.7 (reflecting ends).
        let (up, down) = (0.3, 0.7);
        let ss = steady_state(&birth_death(4, up, down), SolveOptions::default()).unwrap();
        // Geometric with ratio up/down.
        let r: f64 = up / down;
        let z: f64 = (0..4).map(|k| r.powi(k)).sum();
        for k in 0..4 {
            assert!((ss.pi[k] - r.powi(k as i32) / z).abs() < 1e-9, "state {k}");
        }
    }

    #[test]
    fn non_stochastic_matrix_is_rejected() {
        let p = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.9), (1, 1, 1.0)]);
        match steady_state(&p, SolveOptions::default()) {
            Err(SolveError::NotStochastic { row: 0, .. }) => {}
            other => panic!("expected NotStochastic, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_options_are_rejected_before_any_iteration() {
        // A NaN tolerance can never pass the convergence test and used to
        // burn the whole budget; both solvers refuse it, and a zero
        // budget, before they look at the matrix.
        let ok = SolveOptions::default();
        let bad = [
            SolveOptions {
                tolerance: f64::NAN,
                ..ok
            },
            SolveOptions {
                max_iterations: 0,
                ..ok
            },
        ];
        let not_stochastic = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.9), (1, 1, 1.0)]);
        for options in bad {
            for solver in [steady_state, steady_state_gauss_seidel] {
                for p in [two_state(), not_stochastic.clone()] {
                    let verdict = solver(&p, options);
                    assert!(
                        matches!(verdict, Err(SolveError::InvalidOptions(_))),
                        "{options:?}: {verdict:?}"
                    );
                }
            }
        }
        // The edge of the legal range still solves: an infinite tolerance
        // accepts the start on its first measurement — the uniform vector
        // for the loop alone, the eliminated one for the solver.
        let loose = SolveOptions {
            tolerance: f64::INFINITY,
            ..ok
        };
        let ss = gmres(&two_state(), loose).unwrap();
        assert_eq!((ss.pi, ss.iterations), (vec![0.5, 0.5], 1));
        let ss = steady_state(&two_state(), loose).unwrap();
        assert_eq!(
            (ss.pi, ss.iterations),
            (eliminate(&two_state()).unwrap(), 1)
        );
    }

    #[test]
    fn degenerate_inputs_are_typed_errors_and_never_nan() {
        let ok = SolveOptions::default();
        let budget = |max_iterations| SolveOptions {
            // Unreachable tolerance forces the budget to bind.
            tolerance: -1.0,
            max_iterations,
        };
        let identity = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let swap = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        // Equal rows: `P` sends the first Krylov vector to exactly zero,
        // so the first Arnoldi step finds an invariant space (`norm == 0`).
        let rank_one = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 0.75), (0, 1, 0.25), (1, 0, 0.75), (1, 1, 0.25)],
        );
        let slow = birth_death(30, 0.49, 0.51);

        // (chain, options, Ok(pi, products) or Err(products)).
        type Expected = Result<(Vec<f64>, usize), usize>;
        let cases: [(&str, &CsrMatrix, SolveOptions, Expected); 9] = [
            (
                "one state",
                &CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]),
                ok,
                Ok((vec![1.0], 1)),
            ),
            // Zero residual at the start: nothing to normalise a basis by.
            (
                "stationary start",
                &identity,
                ok,
                Ok((vec![1.0 / 3.0; 3], 1)),
            ),
            (
                "stationary start, periodic",
                &swap,
                ok,
                Ok((vec![0.5; 2], 1)),
            ),
            (
                "stationary start, budget binds",
                &identity,
                budget(7),
                Err(7),
            ),
            ("happy breakdown", &rank_one, ok, Ok((vec![0.75, 0.25], 4))),
            ("budget binds", &slow, budget(40), Err(40)),
            ("budget inside the first restart", &slow, budget(5), Err(5)),
            ("budget of two", &slow, budget(2), Err(2)),
            ("budget of one", &slow, budget(1), Err(1)),
        ];
        for (name, p, options, expected) in cases {
            match (gmres(p, options), expected) {
                (Ok(ss), Ok((pi, products))) => {
                    assert_eq!(
                        (ss.pi.as_slice(), ss.iterations),
                        (pi.as_slice(), products),
                        "{name}"
                    );
                    assert_eq!(ss.residual, recomputed_residual(p, &ss.pi), "{name}");
                }
                (
                    Err(SolveError::NotConverged {
                        residual,
                        iterations,
                    }),
                    Err(products),
                ) => {
                    assert_eq!(iterations, products, "{name}");
                    assert!(
                        residual.is_finite() && residual >= 0.0,
                        "{name}: {residual}"
                    );
                }
                (got, expected) => panic!("{name}: {got:?}, expected {expected:?}"),
            }
        }
        // A budget that binds after the answer is reached still reports
        // the true residual of where it stopped.
        match gmres(&slow, budget(1000)) {
            Err(SolveError::NotConverged {
                residual,
                iterations: 1000,
            }) => {
                assert!(residual < 1e-12, "{residual}");
            }
            other => panic!("{other:?}"),
        }
    }
}
