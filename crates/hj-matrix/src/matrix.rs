use crate::{ColumnPair, MatrixError, PackedSymmetric, Result};

/// A dense, column-major `rows × cols` matrix of `f64`.
///
/// Element `(r, c)` lives at `data[c * rows + r]`, so each column is a
/// contiguous slice. The Hestenes-Jacobi algorithm rotates pairs of columns,
/// and the paper's preprocessor streams columns through multiplier arrays;
/// column-major storage makes both access patterns unit-stride.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build a matrix from a column-major data buffer.
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::ShapeMismatch { rows, cols, len: data.len() });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build a matrix from a row-major data buffer (transposing into the
    /// internal column-major layout).
    pub fn from_row_major(rows: usize, cols: usize, data: &[f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::ShapeMismatch { rows, cols, len: data.len() });
        }
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, data[r * cols + c]);
            }
        }
        Ok(m)
    }

    /// Build a matrix from row slices. Panics if the rows are ragged.
    ///
    /// Intended for tests and examples where the shape is statically known.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut m = Matrix::zeros(nrows, ncols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "ragged row {r}: expected {ncols} entries");
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Build a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Number of rows (`m` in the paper's notation).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`n` in the paper's notation).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Read element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r]
    }

    /// Write element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r] = v;
    }

    /// Contiguous slice of column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        debug_assert!(c < self.cols);
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutable contiguous slice of column `c`.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        debug_assert!(c < self.cols);
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Copy of row `r` (rows are strided in column-major storage).
    pub fn row(&self, r: usize) -> Vec<f64> {
        debug_assert!(r < self.rows);
        (0..self.cols).map(|c| self.get(r, c)).collect()
    }

    /// Borrow two *distinct* columns mutably as a [`ColumnPair`].
    ///
    /// Returns [`MatrixError::DegeneratePair`] when `i == j` and
    /// [`MatrixError::IndexOutOfBounds`] when either index is out of range.
    pub fn column_pair(&mut self, i: usize, j: usize) -> Result<ColumnPair<'_>> {
        if i == j {
            return Err(MatrixError::DegeneratePair(i));
        }
        let bound = self.cols;
        if i >= bound || j >= bound {
            return Err(MatrixError::IndexOutOfBounds { index: i.max(j), bound });
        }
        let rows = self.rows;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.split_at_mut(hi * rows);
        let lo_slice = &mut head[lo * rows..(lo + 1) * rows];
        let hi_slice = &mut tail[..rows];
        let (ci, cj) = if i < j { (lo_slice, hi_slice) } else { (hi_slice, lo_slice) };
        Ok(ColumnPair::new(i, j, ci, cj))
    }

    /// The full backing buffer in column-major order.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the backing buffer in column-major order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its column-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// The transpose `Aᵀ` as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for c in 0..self.cols {
            let col = self.col(c);
            for (r, &v) in col.iter().enumerate() {
                t.set(c, r, v);
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// A straightforward cache-aware triple loop (k-outer over rhs columns,
    /// axpy over contiguous lhs columns). This is the reference product used
    /// by tests and reconstruction checks, not a performance kernel.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for c in 0..rhs.cols {
            let rhs_col = rhs.col(c);
            let out_col = out.col_mut(c);
            for (k, &w) in rhs_col.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let lhs_col = self.col(k);
                for (r, &v) in lhs_col.iter().enumerate() {
                    out_col[r] += v * w;
                }
            }
        }
        Ok(out)
    }

    /// The Gram (covariance) matrix `D = AᵀA` in packed symmetric storage.
    ///
    /// This is exactly the matrix the paper's Hestenes preprocessor computes
    /// in the first sweep: diagonal entries are squared column 2-norms,
    /// off-diagonals are covariances between column pairs. Built by
    /// [`crate::ops::gram_packed`] on the calling thread, reading each
    /// 512-row panel once per group of tile pairs; every entry is
    /// bit-identical to `ops::dot` of its two columns. hj-core's
    /// `GramState::from_matrix` builds the same bits split over a thread
    /// pool.
    pub fn gram(&self) -> PackedSymmetric {
        let mut d = PackedSymmetric::zeros(self.cols);
        crate::ops::gram_packed(&self.data, self.rows, self.cols, d.as_mut_slice(), 1);
        d
    }

    /// Elementwise `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Elementwise `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Scale every element by `s`, in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// A new matrix equal to `s · self`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_in_place(s);
        out
    }

    /// Extract the `rows × k` submatrix consisting of the first `k` columns.
    pub fn leading_columns(&self, k: usize) -> Matrix {
        assert!(k <= self.cols, "cannot take {k} leading columns of a {}-column matrix", self.cols);
        let data = self.data[..k * self.rows].to_vec();
        Matrix { rows: self.rows, cols: k, data }
    }

    /// Swap columns `i` and `j` in place.
    pub fn swap_columns(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let rows = self.rows;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.split_at_mut(hi * rows);
        head[lo * rows..(lo + 1) * rows].swap_with_slice(&mut tail[..rows]);
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for r in 0..show_rows {
            write!(f, "  ")?;
            for c in 0..show_cols {
                write!(f, "{:>12.5e} ", self.get(r, c))?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.shape(), (3, 2));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn col_major_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        // column-major: [col0; col1]
        assert_eq!(m.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(m.col(0), &[1.0, 3.0]);
        assert_eq!(m.col(1), &[2.0, 4.0]);
        assert_eq!(m.row(1), vec![3.0, 4.0]);
    }

    #[test]
    fn from_col_major_checks_shape() {
        assert!(Matrix::from_col_major(2, 2, vec![0.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_col_major(2, 2, vec![0.0; 5]),
            Err(MatrixError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn from_row_major_matches_from_rows() {
        let a = Matrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
        let i2 = Matrix::identity(2);
        assert_eq!(i2.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(MatrixError::DimensionMismatch { .. })));
    }

    #[test]
    fn gram_is_ata() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let d = a.gram();
        let ata = a.transpose().matmul(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((d.get(i, j) - ata.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn column_pair_borrows_disjoint() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        {
            let pair = m.column_pair(0, 2).unwrap();
            assert_eq!(pair.left(), &[1.0, 4.0]);
            assert_eq!(pair.right(), &[3.0, 6.0]);
        }
        {
            // reversed order must hand back the same columns, swapped roles
            let pair = m.column_pair(2, 0).unwrap();
            assert_eq!(pair.left(), &[3.0, 6.0]);
            assert_eq!(pair.right(), &[1.0, 4.0]);
        }
    }

    #[test]
    fn column_pair_rejects_degenerate_and_oob() {
        let mut m = Matrix::zeros(2, 3);
        assert!(matches!(m.column_pair(1, 1), Err(MatrixError::DegeneratePair(1))));
        assert!(matches!(m.column_pair(0, 3), Err(MatrixError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn swap_columns_works_both_orders() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.swap_columns(0, 1);
        assert_eq!(m.col(0), &[2.0, 4.0]);
        m.swap_columns(1, 0);
        assert_eq!(m.col(0), &[1.0, 3.0]);
        m.swap_columns(1, 1); // no-op
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap(), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a).unwrap(), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.scaled(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn leading_columns_truncates() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let l = m.leading_columns(2);
        assert_eq!(l, Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 5.0]]));
    }

    #[test]
    fn from_diag_places_entries() {
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        assert!(s.lines().count() < 15, "debug output must truncate large matrices");
    }
}
