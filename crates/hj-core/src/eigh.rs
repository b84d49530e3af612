//! Symmetric eigendecomposition by cyclic Jacobi — a direct byproduct of
//! the SVD machinery.
//!
//! For a symmetric matrix, the two-sided Jacobi rotation is the same
//! congruence `D ← JᵀDJ` that [`crate::GramState`] already implements for
//! the maintained covariance matrix, so a full eigensolver costs this crate
//! almost nothing extra — and gives the workspace a second view of the SVD
//! (`A = UΣVᵀ ⇔ AᵀA = VΣ²Vᵀ`) that the tests exploit for cross-checking.
//! Works for indefinite symmetric matrices too (eigenvalues may be
//! negative; nothing here assumes positive semidefiniteness).
//!
//! Like the SVD drivers, [`eigh`] prescales by an exact power of two, but
//! only at the top of the range: an input whose largest entry is close
//! enough to `f64::MAX` that a sweep could overflow is solved scaled down,
//! and its eigenvalues are scaled back.

use crate::convergence::{Convergence, SweepRecord, MAX_SWEEP_CAP};
use crate::engine::{PairGuard, RotationTarget, Sequential, SolveDriver, SolveMonitor, SweepState};
use crate::gram::GramState;
use crate::ordering::{Ordering, Sweep, SweepSchedule};
use crate::recovery::{Fault, HealthCheck};
use crate::stats::SolveStats;
use crate::svd::{max_exponent, unscale_values};
use crate::SvdError;
use hj_matrix::{ops, Matrix, PackedSymmetric};

/// A symmetric eigendecomposition `S = V Λ Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, sorted descending (may be negative).
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, matching `eigenvalues`.
    pub eigenvectors: Matrix,
    /// Sweeps used.
    pub sweeps: usize,
    /// Per-sweep convergence measurements (same records as the SVD drivers).
    pub history: Vec<SweepRecord>,
    /// Solve-level observability (timings, rotation counts).
    pub stats: SolveStats,
}

/// Largest binary exponent of an entry that [`eigh`] leaves unscaled in an
/// `n × n` input. At or below it `|λ| ≤ ‖S‖_F < 2^1022`, so every entry of
/// `D`, every metric of a sweep record and every rotation parameter stays
/// finite. Above it a sweep could overflow: the rotation's `2·D_ij` and
/// `D_jj − D_ii` turn into silently wrong angles, and the record's sum of
/// `|D_ij|` and `off(D)` read a finite `D` as non-finite.
fn top_exponent(n: usize) -> i32 {
    1021 - 2 * n.next_power_of_two().trailing_zeros() as i32
}

/// Eigendecompose a symmetric matrix given in packed form, visiting pairs
/// in `ordering` (either cyclic order converges on indefinite matrices too).
///
/// `tol` is the relative off-diagonal threshold: pairs with
/// `|off-diagonal| ≤ tol · max|diagonal|` are skipped, and iteration stops
/// on the first sweep that applies no rotation (use `1e-14` for
/// machine-precision eigenvalues). Runs on the unified
/// [`SolveDriver`] with the [`Sequential`] engine, a
/// [`PairGuard::DiagonalScale`] guard (valid for indefinite matrices), and
/// the sweep budget capped at [`MAX_SWEEP_CAP`] like the SVD drivers.
///
/// An input whose largest entry has a binary exponent `e` above
/// `1021 − 2⌈log₂ n⌉` is solved scaled by `2^-(e − that bound)`, exactly,
/// and [`SolveStats::prescale_exp`] records the exponent. A spectrum that
/// does not fit in f64 once scaled back aborts with a
/// [`Fault::NonFiniteGram`] fault.
///
/// ```
/// use hj_core::eigh::eigh;
/// use hj_core::Ordering;
/// use hj_matrix::PackedSymmetric;
///
/// let mut s = PackedSymmetric::zeros(2);
/// s.set(0, 0, 2.0);
/// s.set(1, 1, 2.0);
/// s.set(0, 1, 1.0);
/// let e = eigh(&s, 1e-14, Ordering::RoundRobin).unwrap();
/// assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
/// ```
pub fn eigh(s: &PackedSymmetric, tol: f64, ordering: Ordering) -> Result<SymmetricEigen, SvdError> {
    let n = s.dim();
    if n == 0 {
        return Err(SvdError::EmptyInput);
    }
    let max_abs = ops::finite_max_abs(s.as_slice()).ok_or(SvdError::NonFiniteInput)?;
    let exp = (top_exponent(n) - max_exponent(max_abs)).min(0);
    let mut d = s.clone();
    if exp != 0 {
        let scale = 2f64.powi(exp);
        d.as_mut_slice().iter_mut().for_each(|v| *v *= scale);
    }
    let mut g = GramState::from_packed(d);
    let mut v = Matrix::identity(n);
    let mut plan = Sweep::new();
    let mut schedule = SweepSchedule { strategy: ordering, plan: &mut plan, threshold: None };
    let driver = SolveDriver { convergence: Convergence::NoRotations, max_sweeps: MAX_SWEEP_CAP };
    let mut state = SweepState {
        gram: &mut g,
        target: RotationTarget::accumulate(&mut v),
        guard: PairGuard::DiagonalScale { tol },
    };
    // Monitored run with the indefinite-safe health profile: negative
    // diagonals are legitimate eigenvalues here, but non-finite state and
    // stalls still abort with a structured error instead of returning a
    // silently corrupted spectrum.
    let mut monitor = SolveMonitor::new(Default::default(), HealthCheck::indefinite());
    let run = driver.run_monitored(&mut Sequential, &mut state, &mut schedule, &mut monitor);
    if let Some(fault) = run.fault {
        return Err(SvdError::SolveFault { fault, sweeps_completed: run.stats.sweeps });
    }
    let history = run.history;
    let stats = SolveStats { prescale_exp: exp, ..run.stats };
    let sweeps = history.len();
    // Extract, sort descending by eigenvalue.
    let diag = g.packed().diagonal();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| diag[b].partial_cmp(&diag[a]).expect("finite"));
    let mut eigenvalues = Vec::with_capacity(n);
    let mut eigenvectors = Matrix::zeros(n, n);
    for (t, &i) in idx.iter().enumerate() {
        eigenvalues.push(diag[i]);
        eigenvectors.col_mut(t).copy_from_slice(v.col(i));
    }
    unscale_values(&mut eigenvalues, exp);
    if eigenvalues.iter().any(|l| !l.is_finite()) {
        let fault = Fault::NonFiniteGram { sweep: sweeps };
        return Err(SvdError::SolveFault { fault, sweeps_completed: sweeps });
    }
    Ok(SymmetricEigen { eigenvalues, eigenvectors, sweeps, history, stats })
}

/// Eigendecompose a dense symmetric matrix (symmetry is enforced by
/// averaging `(S + Sᵀ)/2` into the packed form), like [`eigh`].
///
/// The diagonal is copied as is. Off the diagonal, `0.5·(s_ij + s_ji)` is
/// taken as `0.5·s_ij + 0.5·s_ji` where the plain sum overflows, so every
/// finite `S` packs to a finite matrix.
pub fn eigh_dense(s: &Matrix, tol: f64, ordering: Ordering) -> Result<SymmetricEigen, SvdError> {
    let (rows, n) = s.shape();
    if rows != n {
        return Err(SvdError::NotSquare { rows, cols: n });
    }
    let mut p = PackedSymmetric::zeros(n);
    for i in 0..n {
        p.set(i, i, s.get(i, i));
        for j in i + 1..n {
            let (x, y) = (s.get(i, j), s.get(j, i));
            let sum = x + y;
            p.set(i, j, if sum.is_finite() { 0.5 * sum } else { 0.5 * x + 0.5 * y });
        }
    }
    eigh(&p, tol, ordering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hj_matrix::{gen, norms, ops};

    fn check_decomposition(s: &PackedSymmetric, e: &SymmetricEigen, tol: f64) {
        let n = s.dim();
        assert!(norms::orthonormality_error(&e.eigenvectors) < tol);
        assert!(e.eigenvalues.windows(2).all(|w| w[0] >= w[1]));
        // S·v_t = λ_t·v_t for every pair.
        let dense = s.to_dense();
        for t in 0..n {
            let vt = e.eigenvectors.col(t);
            for r in 0..n {
                let sv: f64 = (0..n).map(|c| dense.get(r, c) * vt[c]).sum();
                let want = e.eigenvalues[t] * vt[r];
                assert!(
                    (sv - want).abs() < tol * e.eigenvalues[0].abs().max(1.0),
                    "eigenpair {t} violated at row {r}: {sv} vs {want}"
                );
            }
        }
    }

    #[test]
    fn psd_gram_matrix() {
        let a = gen::uniform(20, 6, 1);
        let s = a.gram();
        let e = eigh(&s, 1e-14, Ordering::RoundRobin).unwrap();
        check_decomposition(&s, &e, 1e-9);
        assert!(e.eigenvalues.iter().all(|&l| l >= -1e-10), "Gram eigenvalues are ≥ 0");
    }

    #[test]
    fn eigenvalues_are_squared_singular_values() {
        let a = gen::uniform(25, 7, 2);
        let e = eigh(&a.gram(), 1e-14, Ordering::RoundRobin).unwrap();
        let sv = crate::HestenesSvd::new(crate::SvdOptions::default()).singular_values(&a).unwrap();
        for (l, s) in e.eigenvalues.iter().zip(&sv.values) {
            assert!((l - s * s).abs() < 1e-9 * (s * s).max(1.0), "λ {l} vs σ² {}", s * s);
        }
    }

    #[test]
    fn indefinite_matrix() {
        // Symmetric but not PSD: eigenvalues of both signs.
        let mut s = PackedSymmetric::zeros(3);
        s.set(0, 0, 2.0);
        s.set(1, 1, -3.0);
        s.set(2, 2, 0.5);
        s.set(0, 1, 1.0);
        s.set(0, 2, -0.5);
        s.set(1, 2, 0.25);
        let e = eigh(&s, 1e-14, Ordering::RoundRobin).unwrap();
        check_decomposition(&s, &e, 1e-10);
        assert!(e.eigenvalues[0] > 0.0 && e.eigenvalues[2] < 0.0);
        // Trace is preserved.
        let tr: f64 = e.eigenvalues.iter().sum();
        assert!((tr - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_immediate() {
        let mut s = PackedSymmetric::zeros(4);
        for (i, &d) in [3.0, -1.0, 7.0, 0.0].iter().enumerate() {
            s.set(i, i, d);
        }
        let e = eigh(&s, 1e-14, Ordering::RoundRobin).unwrap();
        assert_eq!(e.sweeps, 1);
        assert_eq!(e.eigenvalues, vec![7.0, 3.0, 0.0, -1.0]);
    }

    #[test]
    fn history_and_stats_are_populated() {
        let a = gen::uniform(18, 5, 6);
        let e = eigh(&a.gram(), 1e-14, Ordering::RoundRobin).unwrap();
        assert_eq!(e.history.len(), e.sweeps);
        assert_eq!(e.stats.sweeps, e.sweeps);
        assert_eq!(e.stats.sweep_seconds.len(), e.sweeps);
        assert_eq!(e.stats.engine, "sequential");
        assert_eq!(
            e.stats.rotations_applied,
            e.history.iter().map(|r| r.rotations_applied).sum::<usize>()
        );
        assert_eq!(e.history.last().unwrap().rotations_applied, 0, "stops on a clean sweep");
        assert!(e
            .history
            .windows(2)
            .all(|w| w[1].off_frobenius <= w[0].off_frobenius * (1.0 + 1e-12)));
    }

    #[test]
    fn known_spectrum_via_conjugation() {
        // S = Q Λ Qᵀ with known Λ.
        let lambda = [5.0, 2.0, -1.0, -4.0];
        let q = gen::random_orthonormal(4, 4, 9);
        let mut s = PackedSymmetric::zeros(4);
        for i in 0..4 {
            for j in i..4 {
                let v: f64 = (0..4).map(|t| lambda[t] * q.get(i, t) * q.get(j, t)).sum();
                s.set(i, j, v);
            }
        }
        let e = eigh(&s, 1e-14, Ordering::RoundRobin).unwrap();
        for (got, want) in e.eigenvalues.iter().zip(&lambda) {
            assert!((got - want).abs() < 1e-11, "{got} vs {want}");
        }
        // Eigenvectors match up to sign.
        for t in 0..4 {
            let d = ops::dot(e.eigenvectors.col(t), q.col(t)).abs();
            assert!(d > 1.0 - 1e-10, "eigenvector {t}: |dot| = {d}");
        }
    }

    #[test]
    fn eigh_dense_symmetrizes() {
        // Slightly asymmetric input is averaged.
        let s = Matrix::from_rows(&[&[1.0, 0.5 + 1e-13], &[0.5 - 1e-13, 2.0]]);
        let e = eigh_dense(&s, 1e-14, Ordering::RoundRobin).unwrap();
        assert_eq!(e.eigenvalues.len(), 2);
        assert!((e.eigenvalues[0] + e.eigenvalues[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn errors() {
        assert!(matches!(
            eigh(&PackedSymmetric::zeros(0), 1e-14, Ordering::RoundRobin),
            Err(SvdError::EmptyInput)
        ));
        let mut s = PackedSymmetric::zeros(2);
        s.set(0, 1, f64::NAN);
        assert!(matches!(eigh(&s, 1e-14, Ordering::RoundRobin), Err(SvdError::NonFiniteInput)));
        assert_eq!(
            eigh_dense(&Matrix::zeros(2, 3), 1e-14, Ordering::RoundRobin).unwrap_err(),
            SvdError::NotSquare { rows: 2, cols: 3 }
        );
    }

    #[test]
    fn every_ordering_solves_and_the_spectra_agree() {
        let a = gen::uniform(12, 5, 11);
        let reference = eigh(&a.gram(), 1e-14, Ordering::RoundRobin).unwrap();
        for ordering in Ordering::ALL {
            let e = eigh(&a.gram(), 1e-14, ordering).unwrap();
            check_decomposition(&a.gram(), &e, 1e-9);
            for (got, want) in e.eigenvalues.iter().zip(&reference.eigenvalues) {
                assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
            }
            assert_eq!(e.stats.ordering, ordering.name());
        }
    }

    #[test]
    fn one_by_one() {
        let mut s = PackedSymmetric::zeros(1);
        s.set(0, 0, -2.5);
        let e = eigh(&s, 1e-14, Ordering::RoundRobin).unwrap();
        assert_eq!(e.eigenvalues, vec![-2.5]);
        assert_eq!(e.eigenvectors.get(0, 0), 1.0);
    }
}
