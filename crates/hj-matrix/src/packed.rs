use crate::Matrix;

/// Upper triangle of a symmetric `n × n` matrix in packed storage.
///
/// This is the covariance matrix `D` of the paper's Algorithm 1: `D[i][i]`
/// holds the squared 2-norm of column `i` and `D[i][j]` (`i < j`) holds the
/// covariance `aᵢᵀaⱼ`. The paper stores the whole of `D` in on-chip BRAM for
/// `n ≤ 256`; packed storage (n(n+1)/2 doubles instead of n²) is what makes
/// that budget work out, so we mirror it exactly.
///
/// Layout: row-within-triangle order. Row `i` of the triangle holds entries
/// `(i, i), (i, i+1), …, (i, n-1)` contiguously, starting at offset
/// `i·n − i·(i−1)/2`. Accessors accept `(i, j)` in either order.
#[derive(Clone, Default, PartialEq)]
pub struct PackedSymmetric {
    n: usize,
    data: Vec<f64>,
}

impl PackedSymmetric {
    /// Create an `n × n` packed symmetric matrix of zeros.
    pub fn zeros(n: usize) -> Self {
        PackedSymmetric { n, data: vec![0.0; n * (n + 1) / 2] }
    }

    /// Dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries, `n(n+1)/2`.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when `n == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Offset of `(i, j)` with `i ≤ j` in the packed buffer.
    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.n);
        self.row_offset(i) + (j - i)
    }

    /// Offset of triangle row `i`'s first entry — the diagonal `(i, i)` — in
    /// the raw packed buffer ([`PackedSymmetric::as_slice`]). Row `i` then
    /// holds `(i, i), (i, i+1), …, (i, n−1)` contiguously (`n − i` entries).
    ///
    /// This is the layout contract hj-core's vectorized rotation kernels
    /// build on: entries `(k, c)` with `k ≥ c` of a logical column `c` are
    /// the contiguous slice starting at `row_offset(c)`, while entries with
    /// `k < c` sit at `row_offset(k) + (c − k)`, i.e. a walk with a
    /// decreasing stride of `n − k − 1` between consecutive `k`.
    #[inline]
    pub fn row_offset(&self, i: usize) -> usize {
        debug_assert!(i <= self.n);
        crate::ops::packed_row_start(self.n, i)
    }

    /// Read entry `(i, j)`; symmetric, so argument order is irrelevant.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        self.data[self.offset(i, j)]
    }

    /// Write entry `(i, j)` (and by symmetry `(j, i)`).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        let o = self.offset(i, j);
        self.data[o] = v;
    }

    /// Add `v` to entry `(i, j)`.
    #[inline]
    pub fn add_assign(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        let o = self.offset(i, j);
        self.data[o] += v;
    }

    /// The diagonal as a vector (squared column 2-norms for a Gram matrix).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// Sum of absolute values of strictly-off-diagonal entries, counting each
    /// symmetric pair once. This is the "covariance mass" whose decay the
    /// paper's Figs. 10–11 track.
    pub fn off_diagonal_abs_sum(&self) -> f64 {
        self.off_diagonal_summary().abs_sum
    }

    /// One fused pass over the strictly-off-diagonal entries, walking the
    /// packed rows as contiguous slices (no per-element offset arithmetic).
    ///
    /// Computes all three convergence metrics the per-sweep record needs —
    /// Σ|dᵢⱼ|, Σdᵢⱼ², max|dᵢⱼ| — in a single traversal, in the same
    /// element order as the individual metric methods, so each accumulator
    /// is bit-identical to its standalone counterpart while the triangle is
    /// read once instead of three times.
    pub fn off_diagonal_summary(&self) -> OffDiagonalSummary {
        let mut sum = OffDiagonalSummary { abs_sum: 0.0, sum_sq: 0.0, max_abs: 0.0 };
        let mut start = 0usize;
        for i in 0..self.n {
            // Row i holds (i, i)..(i, n-1); skip the leading diagonal entry.
            for &v in &self.data[start + 1..start + (self.n - i)] {
                let a = v.abs();
                sum.abs_sum += a;
                sum.sum_sq += v * v;
                sum.max_abs = sum.max_abs.max(a);
            }
            start += self.n - i;
        }
        sum
    }

    /// Mean absolute deviation from zero of the off-diagonal covariances —
    /// the exact metric plotted in the paper's convergence figures.
    ///
    /// Returns 0 for matrices with no off-diagonal entries (`n < 2`).
    pub fn off_diagonal_mean_abs(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let pairs = (self.n * (self.n - 1) / 2) as f64;
        self.off_diagonal_abs_sum() / pairs
    }

    /// Largest absolute off-diagonal entry.
    pub fn off_diagonal_max_abs(&self) -> f64 {
        self.off_diagonal_summary().max_abs
    }

    /// Trace (sum of diagonal entries). For a Gram matrix this equals
    /// `‖A‖_F²` and is invariant under the Hestenes rotations — a key
    /// correctness property the tests pin down.
    pub fn trace(&self) -> f64 {
        (0..self.n).map(|i| self.get(i, i)).sum()
    }

    /// Expand to a full dense symmetric [`Matrix`] (tests/diagnostics only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in i..self.n {
                let v = self.get(i, j);
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        m
    }

    /// Raw packed buffer (row-within-triangle order).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw packed buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// The three off-diagonal reductions of one
/// [`PackedSymmetric::off_diagonal_summary`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffDiagonalSummary {
    /// `Σ_{i<j} |D[i][j]|` — each symmetric pair counted once.
    pub abs_sum: f64,
    /// `Σ_{i<j} D[i][j]²` (single-triangle; `off(D)² = 2·sum_sq`).
    pub sum_sq: f64,
    /// `max_{i<j} |D[i][j]|`.
    pub max_abs: f64,
}

impl std::fmt::Debug for PackedSymmetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "PackedSymmetric {}x{} [", self.n, self.n)?;
        let show = self.n.min(8);
        for i in 0..show {
            write!(f, "  ")?;
            for j in 0..show {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        if show < self.n {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_size() {
        assert_eq!(PackedSymmetric::zeros(0).len(), 0);
        assert_eq!(PackedSymmetric::zeros(1).len(), 1);
        assert_eq!(PackedSymmetric::zeros(4).len(), 10);
        assert_eq!(PackedSymmetric::zeros(256).len(), 256 * 257 / 2);
    }

    #[test]
    fn symmetric_access() {
        let mut d = PackedSymmetric::zeros(3);
        d.set(0, 2, 5.0);
        assert_eq!(d.get(0, 2), 5.0);
        assert_eq!(d.get(2, 0), 5.0);
        d.set(2, 1, -1.0);
        assert_eq!(d.get(1, 2), -1.0);
    }

    #[test]
    fn offsets_cover_triangle_without_overlap() {
        let n = 7;
        let mut d = PackedSymmetric::zeros(n);
        let mut counter = 0.0;
        for i in 0..n {
            for j in i..n {
                d.set(i, j, counter);
                counter += 1.0;
            }
        }
        // Every packed slot must hold a distinct counter value.
        let mut seen: Vec<f64> = d.as_slice().to_vec();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (k, v) in seen.iter().enumerate() {
            assert_eq!(*v, k as f64);
        }
    }

    #[test]
    fn add_assign_accumulates() {
        let mut d = PackedSymmetric::zeros(2);
        d.add_assign(0, 1, 2.0);
        d.add_assign(1, 0, 3.0);
        assert_eq!(d.get(0, 1), 5.0);
    }

    #[test]
    fn off_diagonal_metrics() {
        let mut d = PackedSymmetric::zeros(3);
        d.set(0, 0, 1.0);
        d.set(1, 1, 2.0);
        d.set(2, 2, 3.0);
        d.set(0, 1, 1.0);
        d.set(0, 2, -2.0);
        d.set(1, 2, 2.0);
        assert_eq!(d.off_diagonal_abs_sum(), 5.0);
        assert!((d.off_diagonal_mean_abs() - 5.0 / 3.0).abs() < 1e-15);
        assert_eq!(d.off_diagonal_summary().sum_sq, 1.0 + 4.0 + 4.0);
        assert_eq!(d.off_diagonal_max_abs(), 2.0);
        assert_eq!(d.trace(), 6.0);
    }

    #[test]
    fn degenerate_dims() {
        let d = PackedSymmetric::zeros(0);
        assert!(d.is_empty());
        assert_eq!(d.off_diagonal_mean_abs(), 0.0);
        let d1 = PackedSymmetric::zeros(1);
        assert_eq!(d1.off_diagonal_mean_abs(), 0.0);
        assert_eq!(d1.off_diagonal_summary().sum_sq, 0.0);
    }

    #[test]
    fn to_dense_round_trips() {
        let mut d = PackedSymmetric::zeros(3);
        d.set(0, 1, 4.0);
        d.set(1, 1, 9.0);
        let m = d.to_dense();
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.get(1, 1), 9.0);
    }

    #[test]
    fn diagonal_vector() {
        let mut d = PackedSymmetric::zeros(3);
        d.set(0, 0, 1.0);
        d.set(1, 1, 4.0);
        d.set(2, 2, 9.0);
        assert_eq!(d.diagonal(), vec![1.0, 4.0, 9.0]);
    }
}
