//! Naive Hestenes-Jacobi: recompute everything, every pair, every sweep.
//!
//! This models the earlier FPGA design the paper criticizes (its ref. \[12\]):
//! an "iterative design with duplicated computations" that re-reads the full
//! `m`-long columns to obtain `‖aᵢ‖²`, `‖aⱼ‖²`, and `aᵢᵀaⱼ` for **every**
//! pair visit — `O(m·n²)` arithmetic per sweep against the modified
//! algorithm's `O(n²)`-per-sweep covariance updates (after the one-off
//! `O(m·n²)` Gram build). Ablation A1 measures exactly this gap.
//!
//! Numerically the naive method is the gold standard (no accumulated update
//! error in the covariances), which makes it a useful cross-check oracle for
//! the maintained-Gram implementation as well as an ablation baseline.

use crate::SvdFactors;
use hj_core::engine::PAIR_TOL;
use hj_core::ordering::round_robin;
use hj_core::rotation::{pair_converged, textbook_params};
use hj_matrix::{ops, Matrix};

/// Outcome of the naive driver, with the work counters the ablation reports.
#[derive(Debug, Clone)]
pub struct NaiveOutcome {
    /// The factorization.
    pub factors: SvdFactors,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Total column dot products evaluated (each costs `m`
    /// multiply-accumulates). The modified algorithm's equivalent counter is
    /// `n(n+1)/2` — one Gram build — regardless of sweep count.
    pub dot_products: usize,
}

/// Full SVD by naive one-sided Jacobi (recomputed dot products).
///
/// `max_sweeps` caps the iteration; convergence is declared when a sweep
/// applies no rotations.
pub fn svd(a: &Matrix, max_sweeps: usize) -> NaiveOutcome {
    let (m, n) = a.shape();
    assert!(!a.is_empty(), "naive driver requires a non-empty matrix");
    let mut b = a.clone();
    let mut v = Matrix::identity(n);
    let order = round_robin(n);
    let mut dot_products = 0usize;
    let mut sweeps = 0usize;

    for _ in 0..max_sweeps {
        sweeps += 1;
        let mut applied = 0usize;
        for (i, j) in order.pairs() {
            // The "duplicated computation": three m-length dot products per
            // pair visit, where the modified algorithm reads three scalars.
            let ni = ops::norm_sq(b.col(i));
            let nj = ops::norm_sq(b.col(j));
            let cov = ops::dot(b.col(i), b.col(j));
            dot_products += 3;
            if pair_converged(ni, nj, cov, PAIR_TOL) {
                continue;
            }
            let rot = textbook_params(ni, nj, cov);
            b.column_pair(i, j).expect("valid pair").rotate(rot.cos, rot.sin);
            v.column_pair(i, j).expect("valid pair").rotate(rot.cos, rot.sin);
            applied += 1;
        }
        if applied == 0 {
            break;
        }
    }

    // Extract factors exactly as the core driver does.
    let k = m.min(n);
    let col_norms: Vec<f64> = (0..n).map(|c| ops::norm(b.col(c))).collect();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&x, &y| col_norms[y].partial_cmp(&col_norms[x]).expect("finite"));
    let smax = col_norms[idx[0]];
    let cutoff = smax * f64::EPSILON * m.max(n) as f64;

    let mut u = Matrix::zeros(m, k);
    let mut sigma = Vec::with_capacity(k);
    let mut v_sorted = Matrix::zeros(n, k);
    for (t, &c) in idx.iter().take(k).enumerate() {
        let s = col_norms[c];
        sigma.push(s);
        if s > cutoff && s > 0.0 {
            let inv = 1.0 / s;
            for (out, &x) in u.col_mut(t).iter_mut().zip(b.col(c)) {
                *out = x * inv;
            }
        }
        v_sorted.col_mut(t).copy_from_slice(v.col(c));
    }
    NaiveOutcome { factors: SvdFactors { u, sigma, v: v_sorted }, sweeps, dot_products }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hj_core::{HestenesSvd, SvdOptions};
    use hj_matrix::{gen, norms};

    #[test]
    fn naive_svd_is_correct() {
        let a = gen::uniform(30, 9, 14);
        let out = svd(&a, 30);
        let f = &out.factors;
        let err = norms::reconstruction_error(&a, &f.u, &f.sigma, &f.v);
        assert!(err < 1e-12, "err = {err}");
        assert!(norms::orthonormality_error(&f.u) < 1e-12);
        assert!(norms::orthonormality_error(&f.v) < 1e-12);
    }

    #[test]
    fn naive_matches_modified_spectrum() {
        // The ablation's correctness premise: both algorithms compute the
        // same spectrum; they differ only in work.
        let a = gen::uniform(40, 12, 77);
        let naive = svd(&a, 30);
        let modified = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        let d = norms::spectrum_disagreement(&naive.factors.sigma, &modified.singular_values);
        assert!(d < 1e-10, "spectra disagree by {d}");
    }

    #[test]
    fn dot_product_count_scales_with_sweeps() {
        let a = gen::uniform(20, 8, 3);
        let one = svd(&a, 1);
        let pairs = 8 * 7 / 2;
        assert_eq!(one.dot_products, 3 * pairs);
        let many = svd(&a, 30);
        assert_eq!(many.dot_products, 3 * pairs * many.sweeps);
        assert!(many.sweeps > 1);
    }

    #[test]
    fn converges_and_stops_early() {
        let q = gen::random_orthonormal(16, 6, 4);
        let out = svd(&q, 30);
        // Orthonormal input: first sweep applies nothing, loop exits.
        assert_eq!(out.sweeps, 1);
    }
}
