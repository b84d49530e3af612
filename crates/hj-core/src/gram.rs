//! The maintained covariance matrix `D` — the paper's key optimization.
//!
//! A naive Hestenes sweep recomputes `‖aᵢ‖²`, `‖aⱼ‖²`, and `aᵢᵀaⱼ` from the
//! full `m`-long columns for every pair, every sweep (`O(m·n²)` per sweep;
//! this is the "repeated calculations" the paper criticizes in the earlier
//! FPGA design \[12\]). The modified algorithm computes `D = AᵀA` **once** and
//! thereafter updates it in place after each rotation in `O(n)`:
//! when columns `i`, `j` are rotated, only row/column `i` and `j` of `D`
//! change, by the same plane rotation (Algorithm 1 lines 15–26).
//!
//! [`GramState`] owns that matrix and implements the update — with the
//! temporaries that the paper's pseudocode forgets (see DESIGN.md).

use crate::rotation::Rotation;
use hj_matrix::ops::{self, GramScan};
use hj_matrix::{Matrix, OffDiagonalSummary, PackedSymmetric};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::AtomicBool;

/// Work `m·n²` above which a Gram build is split over the pool. Two parts
/// won at every measured shape above it, and results were mixed at it:
/// 2048×32 and 512×64 won, 128×128 tied (EXPERIMENTS.md, "Gram build on
/// both cores"). So square inputs up to 128×128 stay on one thread.
const SPLIT_WORK: usize = 1 << 21;

/// Most parts one build is split into (the part list lives on the stack).
const MAX_PARTS: usize = 16;

/// One part of a split build: packed rows `rows` of `D`, their run of the
/// triangle, and what the part's scan saw.
#[derive(Default)]
struct Part<'a> {
    rows: Range<usize>,
    out: &'a mut [f64],
    max_abs: Option<f64>,
}

/// The even row where part `p` of `parts` starts: the first whose
/// preceding rows hold `p/parts` of the triangle's entries. Even bounds
/// keep the 2×2 register blocks whole at the seams.
fn part_start(n: usize, p: usize, parts: usize) -> usize {
    let target = ops::packed_row_start(n, n) * p / parts;
    (0..n).step_by(2).find(|&r| ops::packed_row_start(n, r) >= target).unwrap_or(n)
}

/// Fill `d` with the Gram triangle of `a`, on every pool thread once
/// `m·n²` passes [`SPLIT_WORK`]. Each part owns a contiguous run of
/// packed rows and writes only there, and every entry is summed exactly as
/// on one thread, so `d` is the same bits at any part count. Returns what
/// [`ops::gram_packed_rows`] returns, merged over the parts: `None` if the
/// scan stopped any part, else the largest magnitude in `a`.
fn build(a: &Matrix, d: &mut PackedSymmetric, scan: Option<&GramScan<'_>>) -> Option<f64> {
    let (m, n) = a.shape();
    let data = a.as_slice();
    let split = m.saturating_mul(n).saturating_mul(n) > SPLIT_WORK;
    let parts = if split { rayon::current_num_threads().min(MAX_PARTS).min(n / 2) } else { 1 };
    if parts <= 1 {
        return ops::gram_packed_rows(data, m, n, 0..n, d.as_mut_slice(), 1, scan);
    }
    let mut slots: [Part<'_>; MAX_PARTS] = Default::default();
    let mut rest = d.as_mut_slice();
    for (p, slot) in slots[..parts].iter_mut().enumerate() {
        let rows = part_start(n, p, parts)..part_start(n, p + 1, parts);
        let len = ops::packed_row_start(n, rows.end) - ops::packed_row_start(n, rows.start);
        let (out, tail) = std::mem::take(&mut rest).split_at_mut(len);
        *slot = Part { rows, out, max_abs: None };
        rest = tail;
    }
    slots[..parts].par_iter_mut().for_each(|part| {
        part.max_abs = ops::gram_packed_rows(data, m, n, part.rows.clone(), part.out, 1, scan);
    });
    slots[..parts].iter().try_fold(0.0f64, |max, part| Some(max.max(part.max_abs?)))
}

/// The covariance matrix `D` of Algorithm 1, plus rotation bookkeeping.
///
/// ```
/// use hj_core::{GramState, rotation::textbook_params};
/// use hj_matrix::gen;
///
/// let a = gen::uniform(100, 8, 7);
/// let mut d = GramState::from_matrix(&a);          // O(m·n²), once
/// let rot = textbook_params(d.norm_sq(0), d.norm_sq(3), d.covariance(0, 3));
/// d.rotate(0, 3, &rot);                            // O(n), per rotation
/// assert_eq!(d.covariance(0, 3), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct GramState {
    d: PackedSymmetric,
}

impl GramState {
    /// Build `D = AᵀA` from a matrix — the work of the paper's Hestenes
    /// preprocessor in the first sweep, done by the register-blocked kernel
    /// [`hj_matrix::ops::gram_packed_rows`] (each entry bit-identical to one
    /// `ops::dot`, so `D` is [`Matrix::gram`] to the bit). Once `m·n²`
    /// passes a measured size the build is split by packed rows over
    /// every thread of the rayon pool.
    pub fn from_matrix(a: &Matrix) -> Self {
        let mut d = PackedSymmetric::zeros(a.cols());
        build(a, &mut d, None).expect("a build without a scan runs to the end");
        GramState { d }
    }

    /// [`Self::from_matrix`] with the input scan in the same pass, so `A`
    /// is read once: `Some((D, max |a|))` when every entry is finite and
    /// the running max stayed inside `window`, `None` when the scan
    /// stopped the build early (a NaN or ±∞, or a max outside `window`).
    pub(crate) fn scanned(a: &Matrix, window: fn(f64) -> bool) -> Option<(Self, f64)> {
        let stop = AtomicBool::new(false);
        let mut d = PackedSymmetric::zeros(a.cols());
        let max_abs = build(a, &mut d, Some(&GramScan { window, stop: &stop }))?;
        Some((GramState { d }, max_abs))
    }

    /// Wrap an existing packed symmetric matrix (must be a Gram matrix, i.e.
    /// positive semidefinite, for the algorithm's invariants to hold).
    pub fn from_packed(d: PackedSymmetric) -> Self {
        GramState { d }
    }

    /// Dimension `n` (number of columns of the original matrix).
    #[inline]
    pub fn dim(&self) -> usize {
        self.d.dim()
    }

    /// Squared 2-norm of column `i` (diagonal entry `D_ii`).
    #[inline]
    pub fn norm_sq(&self, i: usize) -> f64 {
        self.d.get(i, i)
    }

    /// Covariance between columns `i` and `j`.
    #[inline]
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        self.d.get(i, j)
    }

    /// Borrow the underlying packed matrix.
    #[inline]
    pub fn packed(&self) -> &PackedSymmetric {
        &self.d
    }

    /// Apply the plane rotation `rot` of column pair `(i, j)` to `D`
    /// (Algorithm 1 lines 15–26, with the required temporaries).
    ///
    /// Cost: `O(n)` — this is the work the paper's Update operator performs
    /// for the covariances, `n − 2` element-pair rotations plus the O(1)
    /// diagonal update. Runs on [`crate::kernel::rotate_packed`], the
    /// three-region slice kernel that is bit-identical to the scalar
    /// `get`/`set` traversal of "all k ≠ i, j".
    pub fn rotate(&mut self, i: usize, j: usize, rot: &Rotation) {
        crate::kernel::rotate_packed(&mut self.d, i, j, rot);
    }

    /// Mean absolute off-diagonal covariance — the paper's convergence metric
    /// (Figs. 10–11).
    pub fn mean_abs_covariance(&self) -> f64 {
        self.d.off_diagonal_mean_abs()
    }

    /// Largest absolute off-diagonal covariance.
    pub fn max_abs_covariance(&self) -> f64 {
        self.d.off_diagonal_max_abs()
    }

    /// All three off-diagonal convergence reductions in one fused pass over
    /// the packed triangle (see [`PackedSymmetric::off_diagonal_summary`]);
    /// each field is bit-identical to the corresponding standalone metric.
    /// The per-sweep record uses this so instrumentation reads `D` once per
    /// sweep instead of three times.
    pub fn off_summary(&self) -> OffDiagonalSummary {
        self.d.off_diagonal_summary()
    }

    /// Trace of `D` (= `‖A‖_F²`), invariant under rotations.
    pub fn trace(&self) -> f64 {
        self.d.trace()
    }

    /// Singular values implied by the current diagonal: `σᵢ = √D_ii`,
    /// unsorted (Algorithm 1 lines 28–29). Negative diagonal dust from
    /// roundoff is clamped to zero.
    pub fn singular_values_unsorted(&self) -> Vec<f64> {
        (0..self.d.dim()).map(|i| self.d.get(i, i).max(0.0).sqrt()).collect()
    }

    /// One allocation-free `O(n)` pass over the diagonal of `D`, summarizing
    /// what the per-sweep health check needs: finiteness, the smallest entry
    /// (and where), and the largest magnitude. Unlike
    /// [`PackedSymmetric::diagonal`], this copies nothing — it is safe to
    /// call every sweep without breaking the engines' steady-state
    /// zero-allocation invariant.
    pub fn diagonal_scan(&self) -> DiagonalScan {
        let mut scan = DiagonalScan { finite: true, min: f64::INFINITY, argmin: 0, max_abs: 0.0 };
        for i in 0..self.d.dim() {
            let d = self.d.get(i, i);
            if !d.is_finite() {
                scan.finite = false;
                return scan;
            }
            scan.max_abs = scan.max_abs.max(d.abs());
            if d < scan.min {
                scan.min = d;
                scan.argmin = i;
            }
        }
        scan
    }
}

/// Summary of one pass over the diagonal of `D` — what
/// [`crate::HealthCheck`] reads. The scalar driver takes it from
/// [`GramState::diagonal_scan`]; an SoA lane builds it from its own metric
/// scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagonalScan {
    /// All diagonal entries are finite (when `false` the other fields stop
    /// at the first non-finite entry and are not meaningful).
    pub finite: bool,
    /// Smallest diagonal entry (`+∞` for an empty matrix).
    pub min: f64,
    /// Index of the smallest diagonal entry.
    pub argmin: usize,
    /// Largest absolute diagonal entry (0 for an empty matrix).
    pub max_abs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation::textbook_params;
    use hj_matrix::gen;

    /// Reference: rotate the actual matrix columns, recompute the Gram matrix
    /// from scratch, and compare against the in-place O(n) update.
    #[test]
    fn gram_update_matches_recomputation() {
        let mut a = gen::uniform(17, 6, 123);
        let mut g = GramState::from_matrix(&a);
        // Rotate a few pairs in a fixed order.
        for &(i, j) in &[(0usize, 3usize), (1, 2), (4, 5), (0, 1), (2, 5)] {
            let rot = textbook_params(g.norm_sq(i), g.norm_sq(j), g.covariance(i, j));
            g.rotate(i, j, &rot);
            a.column_pair(i, j).unwrap().rotate(rot.cos, rot.sin);
            let fresh = GramState::from_matrix(&a);
            for p in 0..6 {
                for q in p..6 {
                    let got = g.covariance(p, q);
                    let want = fresh.covariance(p, q);
                    assert!(
                        (got - want).abs() < 1e-16 * g.trace() + 1e-12,
                        "D[{p}][{q}] diverged after rotating ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn rotate_zeroes_target_covariance() {
        let a = gen::uniform(10, 4, 7);
        let mut g = GramState::from_matrix(&a);
        let rot = textbook_params(g.norm_sq(1), g.norm_sq(3), g.covariance(1, 3));
        g.rotate(1, 3, &rot);
        assert_eq!(g.covariance(1, 3), 0.0);
    }

    #[test]
    fn rotate_preserves_trace() {
        let a = gen::uniform(20, 8, 99);
        let mut g = GramState::from_matrix(&a);
        let before = g.trace();
        for &(i, j) in &[(0usize, 7usize), (2, 3), (1, 6)] {
            let rot = textbook_params(g.norm_sq(i), g.norm_sq(j), g.covariance(i, j));
            g.rotate(i, j, &rot);
        }
        assert!((g.trace() - before).abs() < 1e-12 * before);
    }

    #[test]
    fn rotate_reduces_off_mass() {
        // A single Jacobi rotation removes exactly 2·cov² from off(D)²; the
        // off-diagonal sum of squares must strictly decrease when cov ≠ 0.
        let a = gen::uniform(12, 5, 55);
        let mut g = GramState::from_matrix(&a);
        let before = g.off_summary().sum_sq;
        let rot = textbook_params(g.norm_sq(0), g.norm_sq(4), g.covariance(0, 4));
        assert!(g.covariance(0, 4) != 0.0);
        g.rotate(0, 4, &rot);
        assert!(g.off_summary().sum_sq < before);
    }

    #[test]
    fn identity_rotation_only_zeroes_cov_when_cov_zero() {
        // Applying IDENTITY must leave D unchanged except D_ij (set to 0,
        // correct only if cov was already 0 — which is the only case callers
        // use it for).
        let mut d = PackedSymmetric::zeros(3);
        d.set(0, 0, 1.0);
        d.set(1, 1, 2.0);
        d.set(2, 2, 3.0);
        d.set(1, 2, 0.0);
        d.set(0, 1, 0.5);
        let mut g = GramState::from_packed(d);
        g.rotate(1, 2, &Rotation::IDENTITY);
        assert_eq!(g.covariance(0, 1), 0.5, "unrelated covariances untouched");
        assert_eq!(g.norm_sq(1), 2.0);
    }

    #[test]
    fn singular_values_clamp_negative_dust() {
        let mut d = PackedSymmetric::zeros(2);
        d.set(0, 0, 4.0);
        d.set(1, 1, -1e-18); // roundoff dust
        let g = GramState::from_packed(d);
        assert_eq!(g.singular_values_unsorted(), vec![2.0, 0.0]);
    }

    #[test]
    fn diagonal_scan_summarizes_without_allocating() {
        let mut d = PackedSymmetric::zeros(4);
        d.set(0, 0, 4.0);
        d.set(1, 1, -2.0);
        d.set(2, 2, 0.5);
        d.set(3, 3, 1.0);
        let scan = GramState::from_packed(d.clone()).diagonal_scan();
        assert!(scan.finite);
        assert_eq!(scan.min, -2.0);
        assert_eq!(scan.argmin, 1);
        assert_eq!(scan.max_abs, 4.0);

        d.set(2, 2, f64::NAN);
        assert!(!GramState::from_packed(d).diagonal_scan().finite);
    }

    #[test]
    fn accessors() {
        let a = gen::uniform(5, 3, 1);
        let g = GramState::from_matrix(&a);
        assert_eq!(g.dim(), 3);
        assert_eq!(g.packed().dim(), 3);
    }
}
