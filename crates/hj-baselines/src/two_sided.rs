//! Classic two-sided Jacobi SVD (Kogbetliantz / Brent-Luk) — the systolic
//! array algorithm of the paper's §II-B and refs. \[9\], \[19\]–\[21\].
//!
//! Each step diagonalizes one 2×2 submatrix with a *pair* of rotations (left
//! and right, the paper's eq. (2)–(5)), instead of the Hestenes method's
//! single right-side rotation. The method is restricted to **square**
//! matrices — exactly the scalability/shape limitation the paper cites as
//! motivation for going one-sided — and we enforce that restriction in the
//! API so the benchmark harness can demonstrate it.
//!
//! The 2×2 kernel is implemented as symmetrize-then-rotate: a left rotation
//! `R(φ)` makes the submatrix symmetric (`tan φ = (a_qp − a_pq)/(a_pp + a_qq)`),
//! then a symmetric Jacobi rotation `G(θ)` finishes the diagonalization —
//! an algebraically equivalent, individually-testable form of eq. (5)'s
//! angle-sum/angle-difference formulas.

// Index loops below mirror the paper's mathematical notation across
// several coupled arrays; iterator rewrites would obscure the algebra.
#![allow(clippy::needless_range_loop)]

use crate::SvdFactors;
use hj_core::ordering::round_robin;
use hj_matrix::Matrix;

/// Errors from the two-sided driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoSidedError {
    /// The two-sided Jacobi method requires a square input (the paper's
    /// stated limitation of this algorithm family).
    NotSquare {
        /// Offending shape.
        rows: usize,
        /// Offending shape.
        cols: usize,
    },
    /// Input has a zero dimension.
    EmptyInput,
}

impl std::fmt::Display for TwoSidedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TwoSidedError::NotSquare { rows, cols } => {
                write!(f, "two-sided Jacobi requires a square matrix, got {rows}x{cols}")
            }
            TwoSidedError::EmptyInput => write!(f, "input matrix has a zero dimension"),
        }
    }
}

impl std::error::Error for TwoSidedError {}

/// One 2×2 two-sided rotation pair: `diag = L · M · R` where
/// `M = [[a, b], [c, d]]`, `L`/`R` orthogonal.
///
/// Returns `(L, R)` as `(cos, sin)` pairs, both in the rotation form
/// `[[cos, sin], [−sin, cos]]` (the same convention as
/// [`hj_matrix::ColumnPair::rotate`]).
pub fn two_by_two_rotations(a: f64, b: f64, c: f64, d: f64) -> ((f64, f64), (f64, f64)) {
    // Step 1: left rotation R(φ) symmetrizing M.
    // R(φ) = [[cos φ, sin φ], [−sin φ, cos φ]]; (R·M) symmetric ⇔
    // cos φ·(b − c) + sin φ·(a + d) = 0.
    let (cph, sph) = {
        let denom = a + d;
        let numer = c - b;
        if numer == 0.0 && denom == 0.0 {
            (1.0, 0.0)
        } else {
            let phi = numer.atan2(denom);
            (phi.cos(), phi.sin())
        }
    };
    // S = R(φ)·M, symmetric by construction.
    let s00 = cph * a + sph * c;
    let s01 = cph * b + sph * d;
    let s11 = -sph * b + cph * d;
    // Step 2: symmetric Jacobi rotation G with GᵀSG diagonal, where
    // G = [[cθ, sθ], [−sθ, cθ]]: requires cθsθ(s00 − s11) + (cθ² − sθ²)·s01 = 0,
    // i.e. t² + 2ζt − 1 = 0 with ζ = (s11 − s00)/(2·s01) — the same root
    // selection as the one-sided kernel.
    let (cth, sth) = if s01 == 0.0 {
        (1.0, 0.0)
    } else {
        let zeta = (s11 - s00) / (2.0 * s01);
        let sign = if zeta >= 0.0 { 1.0 } else { -1.0 };
        let t = sign / (zeta.abs() + f64::hypot(1.0, zeta));
        let cth = 1.0 / f64::hypot(1.0, t);
        (cth, cth * t)
    };
    // diag = Gᵀ·S·G = (Gᵀ·R(φ))·M·G, so L = Gᵀ·R(φ) and R = G.
    // Gᵀ = R(−θ) and R(x)·R(y) = R(x+y), hence L = R(φ − θ):
    let cl = cth * cph + sth * sph;
    let sl = sph * cth - cph * sth;
    ((cl, sl), (cth, sth))
}

/// Full SVD of a square matrix by two-sided Jacobi sweeps.
///
/// `max_sweeps` caps the iteration; each sweep visits every index pair in
/// round-robin order. Convergence: largest |off-diagonal| below
/// `1e-14 · ‖A‖_F / n`.
pub fn svd(a: &Matrix, max_sweeps: usize) -> Result<SvdFactors, TwoSidedError> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(TwoSidedError::EmptyInput);
    }
    if m != n {
        return Err(TwoSidedError::NotSquare { rows: m, cols: n });
    }
    let mut w = a.clone();
    let mut u = Matrix::identity(n); // accumulates Lᵀ products
    let mut v = Matrix::identity(n); // accumulates R products
    let order = round_robin(n);
    let fro = hj_matrix::norms::frobenius(&w);
    let tol = 1e-14 * fro / n as f64;

    for _ in 0..max_sweeps {
        let mut max_off = 0.0f64;
        for (p, q) in order.pairs() {
            let (app, apq, aqp, aqq) = (w.get(p, p), w.get(p, q), w.get(q, p), w.get(q, q));
            max_off = max_off.max(apq.abs()).max(aqp.abs());
            if apq.abs() <= tol && aqp.abs() <= tol {
                continue;
            }
            let ((cl, sl), (cr, sr)) = two_by_two_rotations(app, apq, aqp, aqq);
            // Left rotation on rows p, q:  row_p ← cl·row_p + sl·row_q, etc.
            for k in 0..n {
                let xp = w.get(p, k);
                let xq = w.get(q, k);
                w.set(p, k, cl * xp + sl * xq);
                w.set(q, k, -sl * xp + cl * xq);
            }
            // Right rotation on columns p, q with R = [[cr, sr], [−sr, cr]]:
            // col_p ← cr·col_p − sr·col_q ; col_q ← sr·col_p + cr·col_q.
            for k in 0..n {
                let xp = w.get(k, p);
                let xq = w.get(k, q);
                w.set(k, p, cr * xp - sr * xq);
                w.set(k, q, sr * xp + cr * xq);
            }
            // Accumulate U ← U·Lᵀ (columns p, q) and V ← V·R.
            for k in 0..n {
                let xp = u.get(k, p);
                let xq = u.get(k, q);
                u.set(k, p, cl * xp + sl * xq);
                u.set(k, q, -sl * xp + cl * xq);
            }
            for k in 0..n {
                let xp = v.get(k, p);
                let xq = v.get(k, q);
                v.set(k, p, cr * xp - sr * xq);
                v.set(k, q, sr * xp + cr * xq);
            }
        }
        if max_off <= tol {
            break;
        }
    }

    // Diagonal → singular values: fix signs, sort descending.
    let mut sigma: Vec<f64> = (0..n).map(|i| w.get(i, i)).collect();
    for i in 0..n {
        if sigma[i] < 0.0 {
            sigma[i] = -sigma[i];
            for r in 0..n {
                let val = -u.get(r, i);
                u.set(r, i, val);
            }
        }
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&x, &y| sigma[y].partial_cmp(&sigma[x]).expect("finite"));
    let mut u_s = Matrix::zeros(n, n);
    let mut v_s = Matrix::zeros(n, n);
    let mut s_s = Vec::with_capacity(n);
    for (t, &i) in idx.iter().enumerate() {
        s_s.push(sigma[i]);
        u_s.col_mut(t).copy_from_slice(u.col(i));
        v_s.col_mut(t).copy_from_slice(v.col(i));
    }
    Ok(SvdFactors { u: u_s, sigma: s_s, v: v_s })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hj_matrix::{gen, norms};

    #[test]
    fn two_by_two_kernel_diagonalizes() {
        for &(a, b, c, d) in &[
            (1.0, 2.0, 3.0, 4.0),
            (0.0, 1.0, -1.0, 0.0),
            (5.0, 0.0, 0.0, 2.0),
            (1.0, 1e-8, 1e8, 1.0),
            (-3.0, 2.0, 2.0, -3.0),
        ] {
            let ((cl, sl), (cr, sr)) = two_by_two_rotations(a, b, c, d);
            // L·M·R with L = [[cl, sl], [−sl, cl]], R = [[cr, sr], [−sr, cr]]
            let l = [[cl, sl], [-sl, cl]];
            let m = [[a, b], [c, d]];
            let r = [[cr, sr], [-sr, cr]];
            let mut lm = [[0.0; 2]; 2];
            for i in 0..2 {
                for j in 0..2 {
                    for k in 0..2 {
                        lm[i][j] += l[i][k] * m[k][j];
                    }
                }
            }
            let mut out = [[0.0; 2]; 2];
            for i in 0..2 {
                for j in 0..2 {
                    for k in 0..2 {
                        out[i][j] += lm[i][k] * r[k][j];
                    }
                }
            }
            let scale = a.abs().max(b.abs()).max(c.abs()).max(d.abs()).max(1.0);
            assert!(
                out[0][1].abs() < 1e-12 * scale && out[1][0].abs() < 1e-12 * scale,
                "({a},{b},{c},{d}) → off-diagonals {} {}",
                out[0][1],
                out[1][0]
            );
            // Rotations must be orthonormal.
            assert!((cl * cl + sl * sl - 1.0).abs() < 1e-14);
            assert!((cr * cr + sr * sr - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn square_svd_is_correct() {
        let a = gen::uniform(12, 12, 6);
        let f = svd(&a, 30).unwrap();
        let err = norms::reconstruction_error(&a, &f.u, &f.sigma, &f.v);
        assert!(err < 1e-12, "err = {err}");
        assert!(norms::orthonormality_error(&f.u) < 1e-12);
        assert!(norms::orthonormality_error(&f.v) < 1e-12);
        assert!(f.sigma.windows(2).all(|w| w[0] >= w[1]));
        assert!(f.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn matches_known_spectrum() {
        let sigma = [7.0, 3.0, 1.0, 0.5, 0.1];
        let a = gen::with_singular_values(5, 5, &sigma, 19);
        let f = svd(&a, 30).unwrap();
        for (got, want) in f.sigma.iter().zip(&sigma) {
            assert!((got - want).abs() < 1e-12 * want.max(1.0), "{got} vs {want}");
        }
    }

    #[test]
    fn rejects_rectangular() {
        let a = gen::uniform(4, 6, 0);
        assert!(matches!(svd(&a, 10), Err(TwoSidedError::NotSquare { rows: 4, cols: 6 })));
        assert!(matches!(svd(&Matrix::zeros(0, 0), 10), Err(TwoSidedError::EmptyInput)));
    }

    #[test]
    fn agrees_with_hestenes() {
        let a = gen::uniform(10, 10, 44);
        let two = svd(&a, 30).unwrap();
        let one = hj_core::HestenesSvd::new(hj_core::SvdOptions::default()).decompose(&a).unwrap();
        let d = norms::spectrum_disagreement(&two.sigma, &one.singular_values);
        assert!(d < 1e-10, "spectra disagree by {d}");
    }
}
