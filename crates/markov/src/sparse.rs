//! Compressed sparse row matrices for transition probabilities.

use std::fmt;

/// A sparse matrix in compressed-sparse-row form.
///
/// Used to hold row-stochastic transition matrices: entry `(i, j)` is the
/// probability of moving from state `i` to state `j` in one step.
///
/// # Examples
///
/// ```
/// use damq_markov::CsrMatrix;
///
/// // A 2-state chain that flips state with probability 1.
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
/// let out = m.left_multiply(&[0.25, 0.75]);
/// assert_eq!(out, vec![0.75, 0.25]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate positions are summed. Triplets need not be sorted.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `cols` exceeds `u32::MAX`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        Self::from_triplet_vec(rows, cols, triplets.to_vec())
    }

    /// Like [`CsrMatrix::from_triplets`] but takes ownership, avoiding a
    /// copy of what can be tens of millions of entries for large chains.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `cols` exceeds `u32::MAX`.
    pub fn from_triplet_vec(
        rows: usize,
        cols: usize,
        mut sorted: Vec<(usize, usize, f64)>,
    ) -> Self {
        assert!(u32::try_from(cols).is_ok(), "too many columns");
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        row_ptr.push(0);
        let mut current_row = 0;
        for (r, c, v) in sorted {
            assert!(r < rows, "row index {r} out of range");
            assert!(c < cols, "column index {c} out of range");
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            if col_idx.len() > row_ptr[current_row] && *col_idx.last().unwrap() == c as u32 {
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c as u32);
                values.push(v);
            }
        }
        while current_row < rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the stored entries of row `i` as `(col, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// A square matrix from its CSR arrays, rows already in index order,
    /// each sorted by column and free of duplicates: row `i` is
    /// `col_idx[row_ptr[i]..row_ptr[i + 1]]` / `values[..]` likewise.
    pub(crate) fn from_csr(row_ptr: Vec<usize>, col_idx: Vec<u32>, values: Vec<f64>) -> Self {
        let n = row_ptr.len() - 1;
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The matrix by columns, in flat compressed-sparse-column form. This
    /// is the access pattern Gauss–Seidel needs (`π_j` depends on all
    /// incoming transitions).
    pub fn columns(&self) -> Columns {
        let mut col_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            col_ptr[c as usize + 1] += 1;
        }
        for j in 0..self.cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut row_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        // Rows are visited in ascending order, so each column fills in
        // ascending row order.
        let mut cursor = col_ptr[..self.cols].to_vec();
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                row_idx[cursor[j]] = i as u32;
                values[cursor[j]] = v;
                cursor[j] += 1;
            }
        }
        Columns {
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Computes the row-vector product `x · M`.
    ///
    /// This is one step of a Markov chain: if `x` is a distribution over
    /// states, the result is the distribution after one transition.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn left_multiply(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.left_multiply_into(x, &mut out);
        out
    }

    /// [`CsrMatrix::left_multiply`] into a buffer the caller keeps: `out`
    /// is overwritten with `x · M`, row by row in ascending order, and
    /// nothing is allocated — the product an iterative solver takes once
    /// per step.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn left_multiply_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "vector length must equal row count");
        assert_eq!(
            out.len(),
            self.cols,
            "output length must equal column count"
        );
        out.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                out[c as usize] += xi * v;
            }
        }
    }
}

/// A column-major copy of a [`CsrMatrix`] (see [`CsrMatrix::columns`]):
/// three flat arrays, the rows of each column ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct Columns {
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Columns {
    /// The stored entries of column `j` as parallel `(rows, values)`
    /// slices, rows ascending.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn column(&self, j: usize) -> (&[u32], &[f64]) {
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[span.clone()], &self.values[span])
    }

    /// Entry `j` of the row-vector product `x · M`: the terms
    /// `x[i] · M[i][j]` added in ascending row order, which is the order
    /// [`CsrMatrix::left_multiply`] accumulates them in — the two agree
    /// bit for bit (the `+0.0` terms that one skips are exact).
    ///
    /// # Panics
    ///
    /// Panics if `j` or a stored row index is out of range for `x`.
    pub fn dot(&self, j: usize, x: &[f64]) -> f64 {
        let (rows, values) = self.column(j);
        let mut sum = 0.0;
        // Four terms per trip, still added one after another in row order:
        // a quarter of the loop branches for the same sum (short columns
        // make this loop sensitive to where the linker happens to put it).
        let (mut rows4, mut values4) = (rows.chunks_exact(4), values.chunks_exact(4));
        for (r, v) in rows4.by_ref().zip(values4.by_ref()) {
            sum += x[r[0] as usize] * v[0];
            sum += x[r[1] as usize] * v[1];
            sum += x[r[2] as usize] * v[2];
            sum += x[r[3] as usize] * v[3];
        }
        for (&i, &v) in rows4.remainder().iter().zip(values4.remainder()) {
            sum += x[i as usize] * v;
        }
        sum
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} sparse matrix, {} nonzeros",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_unsorted_triplets() {
        let m = CsrMatrix::from_triplets(3, 3, &[(2, 0, 0.5), (0, 1, 1.0), (2, 2, 0.5)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(1, 1.0)]);
        assert!(m.row(1).next().is_none());
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 0.5), (2, 0.5)]);
    }

    #[test]
    fn duplicate_entries_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 0.25), (0, 1, 0.25), (0, 0, 0.5)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 0.5), (1, 0.5)]);
    }

    #[test]
    fn left_multiply_matches_hand_computation() {
        // P = [[0.9, 0.1], [0.4, 0.6]]
        let m =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.9), (0, 1, 0.1), (1, 0, 0.4), (1, 1, 0.6)]);
        let out = m.left_multiply(&[0.5, 0.5]);
        assert!((out[0] - 0.65).abs() < 1e-15);
        assert!((out[1] - 0.35).abs() < 1e-15);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(4, 4, &[(0, 0, 1.0)]);
        let rows: Vec<Vec<(usize, f64)>> = (0..4).map(|i| m.row(i).collect()).collect();
        assert_eq!(rows, [vec![(0, 1.0)], vec![], vec![], vec![]]);
    }

    #[test]
    fn columns_transpose_correctly() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 0.5), (0, 2, 0.5), (1, 0, 1.0)]);
        let cols = m.columns();
        assert_eq!(cols.column(0), (&[0, 1][..], &[0.5, 1.0][..]));
        assert_eq!(cols.column(1), (&[][..], &[][..]));
        assert_eq!(cols.column(2), (&[0][..], &[0.5][..]));
    }

    #[test]
    fn column_dot_is_left_multiply_entry_by_entry() {
        // Includes a zero in `x` (the term `left_multiply` skips).
        let m = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 0.1),
                (0, 2, 0.9),
                (1, 0, 0.3),
                (1, 1, 0.7),
                (2, 0, 1.0),
            ],
        );
        let x = [0.3, 0.0, 0.7];
        let cols = m.columns();
        let gathered: Vec<f64> = (0..3).map(|j| cols.dot(j, &x)).collect();
        assert_eq!(gathered, m.left_multiply(&x));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }
}
