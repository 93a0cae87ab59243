//! Steady-state solvers for discrete-time Markov chains.

use std::error::Error;
use std::fmt;

use crate::sparse::{Columns, CsrMatrix};

/// Convergence controls for [`steady_state`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Stop when the L1 change between iterates falls below this.
    pub tolerance: f64,
    /// Give up after this many iterations.
    pub max_iterations: usize,
    /// Damping factor `d`: the iterate is `d·πP + (1-d)·π`. Values below 1
    /// break the oscillation of periodic chains; 0.75 is a good default.
    pub damping: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tolerance: 1e-13,
            max_iterations: 2_000_000,
            damping: 0.75,
        }
    }
}

/// The stationary distribution of a chain, with solver diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    /// Stationary probability of each state.
    pub pi: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final L1 residual `‖πP − π‖₁`.
    pub residual: f64,
}

impl SteadyState {
    /// Expected value of a per-state quantity under the stationary
    /// distribution.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != pi.len()`.
    pub fn expectation(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.pi.len(), "value vector length");
        self.pi.iter().zip(values).map(|(p, v)| p * v).sum()
    }
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
    /// The power iteration did not reach the tolerance.
    NotConverged {
        /// Residual when the iteration limit was hit.
        residual: f64,
        /// The iteration limit.
        iterations: usize,
    },
    /// The [`SolveOptions`] admit no meaningful run: a damping factor
    /// outside `(0, 1]`, a NaN tolerance (neither can ever pass the
    /// convergence test) or a zero iteration budget.
    InvalidOptions(&'static str),
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
                "power iteration residual {residual:e} after {iterations} iterations"
            ),
            SolveError::InvalidOptions(why) => write!(f, "invalid solver options: {why}"),
        }
    }
}

impl Error for SolveError {}

/// Rejects options no run can satisfy, then matrices that are not
/// row-stochastic; on success returns the column view both solvers run on.
fn prepare(matrix: &CsrMatrix, options: SolveOptions) -> Result<Columns, SolveError> {
    // A zero or NaN damping makes `diff / d` NaN and a negative one makes
    // it pass any tolerance after one iteration; a negative tolerance is
    // legal (it forces the budget to bind).
    if !(options.damping > 0.0 && options.damping <= 1.0) {
        return Err(SolveError::InvalidOptions("damping must lie in (0, 1]"));
    }
    if options.tolerance.is_nan() {
        return Err(SolveError::InvalidOptions("tolerance is NaN"));
    }
    if options.max_iterations == 0 {
        return Err(SolveError::InvalidOptions("max_iterations is zero"));
    }
    assert_eq!(matrix.rows(), matrix.cols(), "transition matrix is square");
    for (row, sum) in matrix.row_sums().into_iter().enumerate() {
        if (sum - 1.0).abs() > 1e-9 {
            return Err(SolveError::NotStochastic { row, sum });
        }
    }
    Ok(matrix.columns())
}

/// The L1 residual `‖πP − π‖₁`.
fn residual(columns: &Columns, pi: &[f64]) -> f64 {
    (0..pi.len())
        .map(|j| (columns.dot(j, pi) - pi[j]).abs())
        .sum()
}

/// One damped power step: `next ← d·πP + (1−d)·π`, unnormalised. Returns
/// the L1 change and the sum of `next`.
fn power_sweep(columns: &Columns, d: f64, pi: &[f64], next: &mut [f64]) -> (f64, f64) {
    let (mut diff, mut norm) = (0.0, 0.0);
    for (j, (out, &old)) in next.iter_mut().zip(pi).enumerate() {
        let blended = d * columns.dot(j, pi) + (1.0 - d) * old;
        diff += (blended - old).abs();
        norm += blended;
        *out = blended;
    }
    (diff, norm)
}

/// Computes the stationary distribution `π = πP` of a row-stochastic matrix
/// by damped power iteration.
///
/// Each step gathers `πP` column by column — every entry the same sum, in
/// the same order, as [`CsrMatrix::left_multiply`] would scatter — fused
/// with the blend and the norms, over two buffers reused for the whole run.
///
/// # Errors
///
/// Returns [`SolveError::InvalidOptions`] for options no run can satisfy,
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
    let columns = prepare(matrix, options)?;
    let n = matrix.rows();
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    let d = options.damping;
    for iteration in 1..=options.max_iterations {
        let (diff, norm) = power_sweep(&columns, d, &pi, &mut next);
        // Renormalise to counter floating-point drift.
        for v in &mut next {
            *v /= norm;
        }
        std::mem::swap(&mut pi, &mut next);
        // `diff` is scaled by the damping factor; compare like with like.
        if diff / d <= options.tolerance {
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
    let columns = prepare(matrix, options)?;
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

    #[test]
    fn gauss_seidel_matches_power_iteration() {
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
        let pw = steady_state(&p, SolveOptions::default()).unwrap();
        for (a, b) in gs.pi.iter().zip(&pw.pi) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert!(gs.residual < 1e-9);
    }

    #[test]
    fn gauss_seidel_converges_in_fewer_iterations() {
        // Slowly-mixing birth-death chain.
        let mut t = Vec::new();
        let up = 0.49;
        let down = 0.51;
        let n = 30usize;
        for s in 0..n {
            if s + 1 < n {
                t.push((s, s + 1, up));
            } else {
                t.push((s, s, up));
            }
            if s > 0 {
                t.push((s, s - 1, down));
            } else {
                t.push((s, s, down));
            }
        }
        let p = CsrMatrix::from_triplets(n, n, &t);
        let gs = steady_state_gauss_seidel(&p, SolveOptions::default()).unwrap();
        let pw = steady_state(&p, SolveOptions::default()).unwrap();
        assert!(
            gs.iterations < pw.iterations,
            "GS {} vs power {}",
            gs.iterations,
            pw.iterations
        );
        for (a, b) in gs.pi.iter().zip(&pw.pi) {
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
        let p = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let ss = steady_state(&p, SolveOptions::default()).unwrap();
        for v in ss.pi {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn periodic_chain_converges_thanks_to_damping() {
        // Pure swap has period 2; undamped power iteration oscillates.
        let p = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let ss = steady_state(&p, SolveOptions::default()).unwrap();
        assert!((ss.pi[0] - 0.5).abs() < 1e-9);
        assert!(ss.residual < 1e-9);
    }

    #[test]
    fn birth_death_chain_matches_closed_form() {
        // States 0..3, up with 0.3, down with 0.7 (reflecting ends).
        let mut t = Vec::new();
        let up = 0.3;
        let down = 0.7;
        for s in 0..4usize {
            if s < 3 {
                t.push((s, s + 1, up));
            } else {
                t.push((s, s, up));
            }
            if s > 0 {
                t.push((s, s - 1, down));
            } else {
                t.push((s, s, down));
            }
        }
        let p = CsrMatrix::from_triplets(4, 4, &t);
        let ss = steady_state(&p, SolveOptions::default()).unwrap();
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
    fn iteration_budget_is_respected() {
        let p = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let err = steady_state(
            &p,
            SolveOptions {
                // Unreachable tolerance forces the budget to bind.
                tolerance: -1.0,
                max_iterations: 3,
                damping: 0.75,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SolveError::NotConverged { iterations: 3, .. }
        ));
    }

    #[test]
    fn degenerate_options_are_rejected_before_any_iteration() {
        // The doc-example chain, whose answer is [0.8, 0.2]. Each of these
        // used to burn the whole budget on a NaN convergence test or — the
        // negative damping — return Ok([0.425, 0.575]) after one step.
        let p =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.9), (0, 1, 0.1), (1, 0, 0.4), (1, 1, 0.6)]);
        let ok = SolveOptions::default();
        let bad = [
            SolveOptions { damping: 0.0, ..ok },
            SolveOptions {
                damping: -0.5,
                ..ok
            },
            SolveOptions { damping: 1.5, ..ok },
            SolveOptions {
                damping: f64::NAN,
                ..ok
            },
            SolveOptions {
                damping: f64::INFINITY,
                ..ok
            },
            SolveOptions {
                tolerance: f64::NAN,
                ..ok
            },
            SolveOptions {
                max_iterations: 0,
                ..ok
            },
        ];
        for options in bad {
            for solver in [steady_state, steady_state_gauss_seidel] {
                let verdict = solver(&p, options);
                assert!(
                    matches!(verdict, Err(SolveError::InvalidOptions(_))),
                    "{options:?}: {verdict:?}"
                );
            }
        }
        // The edges of the legal range still solve; options are checked
        // before the matrix.
        let undamped = SolveOptions { damping: 1.0, ..ok };
        let loose = SolveOptions {
            tolerance: f64::INFINITY,
            ..ok
        };
        for options in [undamped, loose] {
            let ss = steady_state(&p, options).unwrap();
            assert!((ss.pi[0] - 0.8).abs() < 0.2, "{options:?}: {:?}", ss.pi);
        }
        let not_stochastic = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.9), (1, 1, 1.0)]);
        assert!(matches!(
            steady_state(&not_stochastic, bad[0]),
            Err(SolveError::InvalidOptions(_))
        ));
    }

    #[test]
    fn expectation_weights_by_pi() {
        let ss = SteadyState {
            pi: vec![0.25, 0.75],
            iterations: 1,
            residual: 0.0,
        };
        assert!((ss.expectation(&[4.0, 0.0]) - 1.0).abs() < 1e-15);
    }
}
