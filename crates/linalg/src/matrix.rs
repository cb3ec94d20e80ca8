use std::fmt;
use std::ops::{Index, IndexMut};

use crate::scalar::Scalar;

/// A dense, row-major matrix, generic over the element precision `S`
/// (default `f64`, so `Matrix` in type position keeps its historical
/// meaning).
///
/// Rows are stored contiguously, so [`Matrix::row`] is a cheap slice view and
/// row-wise kernels (the dominant access pattern in kernel machines, where a
/// row is a data point) are cache friendly. An f32 matrix occupies half the
/// memory of its f64 counterpart — which is exactly the lever the paper's
/// resource model `S_G` measures (see `ep2_device`).
///
/// # Example
///
/// ```
/// use ep2_linalg::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
///
/// // Same code, single precision:
/// let m32: Matrix<f32> = m.cast();
/// assert_eq!(m32[(1, 2)], 5.0_f32);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<S: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::ZERO; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: S) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::ONE;
        }
        m
    }

    /// Creates a matrix from a closure `f(i, j)` evaluated at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[S]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix that takes ownership of a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[S]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Converts every entry to another precision (via `f64`, which is
    /// lossless for widening and correctly rounded for narrowing).
    pub fn cast<T: Scalar>(&self) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| T::from_f64(v.to_f64())).collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[S] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [S] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<S> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Writes `values` into column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()` or `values.len() != self.rows()`.
    pub fn set_col(&mut self, j: usize, values: &[S]) {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        assert_eq!(values.len(), self.rows);
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// The full row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// The full row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix<S> {
        let mut t = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Returns a new matrix containing the rows selected by `indices`
    /// (duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix<S> {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Returns the `rows x cols` sub-matrix starting at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    pub fn submatrix(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix<S> {
        assert!(row0 + rows <= self.rows && col0 + cols <= self.cols);
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            out.row_mut(i)
                .copy_from_slice(&self.row(row0 + i)[col0..col0 + cols]);
        }
        out
    }

    /// Reshapes the matrix to `rows x cols` in place, zero-filling every
    /// entry. The backing buffer is reused whenever its capacity suffices,
    /// so steady-state consumers that cycle through varying shapes (the
    /// serve path's per-batch kernel tiles) stop allocating once they have
    /// seen their largest shape.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, S::ZERO);
    }

    /// The main diagonal as a vector.
    pub fn diag(&self) -> Vec<S> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Trace (sum of diagonal entries).
    pub fn trace(&self) -> S {
        self.diag().iter().copied().sum()
    }

    /// Frobenius norm, computed with a scaled accumulation to avoid overflow.
    pub fn frobenius_norm(&self) -> S {
        crate::ops::norm2(&self.data)
    }

    /// Maximum absolute entry (`max |a_ij|`), or 0 for an empty matrix.
    pub fn max_abs(&self) -> S {
        self.data.iter().fold(S::ZERO, |m, &v| m.max(v.abs()))
    }

    /// Entry-wise scaling in place: `A <- s * A`.
    pub fn scale(&mut self, s: S) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Symmetrises the matrix in place: `A <- (A + A^T) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        let half = S::from_f64(0.5);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = half * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Maximum asymmetry `max |a_ij - a_ji|`; 0 for a symmetric matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn asymmetry(&self) -> S {
        assert!(self.is_square());
        let mut worst = S::ZERO;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<S: Scalar> fmt::Debug for Matrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix<{}> {}x{} [", S::NAME, self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:9.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ... ({} more rows)", self.rows - show_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m: Matrix = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diag() {
        let m: Matrix = Matrix::identity(4);
        assert_eq!(m.trace(), 4.0);
        assert_eq!(m.diag(), vec![1.0; 4]);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn from_fn_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(37, 53, |i, j| (i * 53 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (53, 37));
        assert_eq!(t.transpose(), m);
        assert_eq!(t[(5, 7)], m[(7, 5)]);
    }

    #[test]
    fn select_rows_duplicates() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f64);
        let s = m.select_rows(&[3, 3, 0]);
        assert_eq!(s.col(0), vec![3.0, 3.0, 0.0]);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let b = m.submatrix(1, 2, 2, 3);
        assert_eq!(b.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(b.row(1), &[12.0, 13.0, 14.0]);
    }

    #[test]
    fn symmetrize_and_asymmetry() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        assert_eq!(m.asymmetry(), 2.0);
        m.symmetrize();
        assert_eq!(m.asymmetry(), 0.0);
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    fn col_set_col() {
        let mut m: Matrix = Matrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0; 3]);
    }

    #[test]
    fn frobenius_norm_simple() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn f32_matrix_round_trip() {
        let m64 = Matrix::from_fn(7, 5, |i, j| (i as f64 - j as f64) * 0.25);
        let m32: Matrix<f32> = m64.cast();
        assert_eq!(m32.shape(), (7, 5));
        // Quarter-steps are exactly representable in f32.
        assert_eq!(m32.cast::<f64>(), m64);
        assert_eq!(m32.transpose()[(3, 2)], m32[(2, 3)]);
    }

    #[test]
    #[should_panic(expected = "row index")]
    fn row_out_of_bounds_panics() {
        let m: Matrix = Matrix::zeros(2, 2);
        let _ = m.row(2);
    }

    #[test]
    fn debug_is_nonempty() {
        let m: Matrix = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
        let m32: Matrix<f32> = Matrix::zeros(1, 1);
        assert!(format!("{m32:?}").contains("f32"));
    }
}
