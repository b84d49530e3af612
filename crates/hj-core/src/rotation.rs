//! Jacobi rotation parameter kernels — the arithmetic heart of the paper's
//! "Jacobi rotation component" (§V-B).
//!
//! Given the squared 2-norms of two columns and the covariance between them,
//! these kernels produce the `(cos, sin, t)` of the plane rotation that
//! orthogonalizes the pair. Two algebraically-equivalent formulations are
//! provided:
//!
//! * [`textbook_params`] — the `ρ → t → cos → sin` chain of the paper's
//!   Algorithm 1 (lines 8–14), which is the classical stable formulation
//!   (Rutishauser / Golub & Van Loan).
//! * [`hardware_params`] — the flattened dataflow of the paper's
//!   eqs. (8)–(10), which trades the data-dependent chain for independent
//!   subexpressions so that the FPGA's adders/multipliers/divider/sqrt can
//!   run concurrently (see the paper's Fig. 4).
//!
//! A property test (`tests::hw_matches_textbook`) pins the two to agree to
//! ~1 ulp across twelve orders of magnitude.
//!
//! ## Sign convention (documented deviation from the paper)
//!
//! The update equations (11)–(12) rotate columns as
//! `aᵢ' = aᵢ·cos − aⱼ·sin`, `aⱼ' = aᵢ·sin + aⱼ·cos`. Requiring the rotated
//! covariance `aᵢ'ᵀaⱼ' = 0` forces
//!
//! ```text
//! t² + 2ζt − 1 = 0,   ζ = (‖aⱼ‖² − ‖aᵢ‖²) / (2·aᵢᵀaⱼ)
//! ```
//!
//! whose smaller root is `t = sign(ζ) / (|ζ| + √(1+ζ²))`. The paper's
//! Algorithm 1 line 11 defines `ρ = (D_ii − D_jj)/(2·cov) = −ζ` yet keeps the
//! `+sign(ρ)` root — a sign slip that would *increase* the covariance if
//! taken literally together with eqs. (11)–(12). We implement the
//! self-consistent convention and verify it by construction in the tests:
//! after applying the returned rotation, the pair's covariance is ~0.

/// Plane rotation parameters for one column pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotation {
    /// Cosine of the rotation angle; always non-negative in this convention.
    pub cos: f64,
    /// Sine of the rotation angle; carries the sign of `t`.
    pub sin: f64,
    /// Tangent `t = sin/cos`; the quantity used for the O(1) norm updates
    /// `‖aᵢ‖²' = ‖aᵢ‖² − t·cov`, `‖aⱼ‖²' = ‖aⱼ‖² + t·cov`.
    pub t: f64,
}

impl Rotation {
    /// The identity rotation (used when a pair is already orthogonal).
    pub const IDENTITY: Rotation = Rotation { cos: 1.0, sin: 0.0, t: 0.0 };

    /// True if this rotation is exactly the identity.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.sin == 0.0 && self.cos == 1.0
    }

    /// The rotation angle in radians, `atan2(sin, cos)`.
    pub fn angle(&self) -> f64 {
        self.sin.atan2(self.cos)
    }
}

/// Classical formulation (paper's Algorithm 1 lines 8–14, sign-corrected).
///
/// `norm_i`, `norm_j` are squared 2-norms (`D_ii`, `D_jj`); `cov` is `D_ij`.
/// Returns [`Rotation::IDENTITY`] when `cov == 0` (nothing to annihilate).
///
/// ```
/// use hj_core::rotation::textbook_params;
///
/// let rot = textbook_params(1.0, 2.0, 0.5);
/// // The rotation annihilates the pair's covariance:
/// let rotated_cov = rot.cos * rot.sin * (1.0 - 2.0)
///     + (rot.cos * rot.cos - rot.sin * rot.sin) * 0.5;
/// assert!(rotated_cov.abs() < 1e-15);
/// ```
#[inline]
pub fn textbook_params(norm_i: f64, norm_j: f64, cov: f64) -> Rotation {
    if cov == 0.0 {
        return Rotation::IDENTITY;
    }
    let zeta = (norm_j - norm_i) / (2.0 * cov);
    // sign(0) must be +1 so that equal norms give the full 45° rotation.
    let sign = if zeta >= 0.0 { 1.0 } else { -1.0 };
    // hypot is overflow-safe for |ζ| near f64::MAX.
    let t = sign / (zeta.abs() + f64::hypot(1.0, zeta));
    let cos = 1.0 / f64::hypot(1.0, t);
    let sin = cos * t;
    Rotation { cos, sin, t }
}

/// Hardware dataflow formulation (paper's eqs. (8)–(10)).
///
/// All three outputs are computed from the shared subexpressions
/// `Δ = norm_j − norm_i`, `4·cov²`, and `r = √(Δ² + 4·cov²)`, exactly as the
/// paper's Fig. 4 schedules them onto one divider and one square-root unit.
/// The `(sign)` factor of eq. (10) is the sign of `t`, i.e.
/// `sign(ζ) = sign(Δ)·sign(cov)` with `sign(0) = +1`.
#[inline]
pub fn hardware_params(norm_i: f64, norm_j: f64, cov: f64) -> Rotation {
    if cov == 0.0 {
        return Rotation::IDENTITY;
    }
    let delta = norm_j - norm_i;
    // sign(ζ) with sign(±0) = +1, matching textbook_params (where ζ = ±0.0
    // both take the >= 0 branch). For Δ = 0 any 45° rotation annihilates the
    // covariance; +1 is the shared convention.
    let sign = if delta == 0.0 || (delta >= 0.0) == (cov >= 0.0) { 1.0 } else { -1.0 };
    // r = √(Δ² + 4c²), computed overflow-safely (the paper's FP cores work on
    // normalized doubles and do not hit this; hypot costs us nothing here).
    let r = f64::hypot(delta, 2.0 * cov);
    // eq. (8): |t| = 2|c| / (|Δ| + r)
    let t = sign * (2.0 * cov.abs()) / (delta.abs() + r);
    // eq. (9)/(10) share the denominator Δ² + 4c² + |Δ|·r = r² + |Δ|·r = r(r + |Δ|).
    let denom = r * (r + delta.abs());
    // eq. (9): cos² = (Δ² + 2c² + |Δ|·r) / denom
    let cos = ((delta * delta + 2.0 * cov * cov + delta.abs() * r) / denom).sqrt();
    // eq. (10): sin² = 2c² / denom
    let sin = sign * (2.0 * cov * cov / denom).sqrt();
    Rotation { cos, sin, t }
}

/// Apply the O(1) Gram-diagonal update of Algorithm 1 lines 15–17:
/// returns the rotated `(norm_i', norm_j', cov')` where `cov'` is exactly 0.
#[inline]
pub fn rotate_norms(norm_i: f64, norm_j: f64, cov: f64, rot: &Rotation) -> (f64, f64, f64) {
    (norm_i - rot.t * cov, norm_j + rot.t * cov, 0.0)
}

/// Decide whether a pair needs rotating at all.
///
/// This is the classical Jacobi small-covariance guard (Drmač '97, the
/// paper's ref. \[15\]): a pair is numerically orthogonal when
/// `|cov| ≤ tol·√(norm_i·norm_j)`. Skipping such pairs is both a performance
/// win and a stability requirement — rotating on roundoff noise stalls
/// convergence detection.
#[inline]
pub fn pair_converged(norm_i: f64, norm_j: f64, cov: f64, tol: f64) -> bool {
    // norms are squared 2-norms, so the bound is tol²·nᵢ·nⱼ vs cov².
    cov * cov <= tol * tol * norm_i * norm_j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_orthogonalizes(norm_i: f64, norm_j: f64, cov: f64, rot: &Rotation) {
        // Rotated covariance: cs·(nᵢ − nⱼ)... derive from the quadratic:
        // cov' = cos·sin·(nᵢ − nⱼ) + (cos² − sin²)·cov  must vanish.
        let cov_new =
            rot.cos * rot.sin * (norm_i - norm_j) + (rot.cos * rot.cos - rot.sin * rot.sin) * cov;
        let scale = norm_i.abs().max(norm_j.abs()).max(cov.abs()).max(1.0);
        assert!(
            cov_new.abs() <= 1e-14 * scale,
            "rotation failed to annihilate covariance: nᵢ={norm_i} nⱼ={norm_j} c={cov} → cov'={cov_new}"
        );
    }

    #[test]
    fn zero_covariance_is_identity() {
        assert!(textbook_params(3.0, 5.0, 0.0).is_identity());
        assert!(hardware_params(3.0, 5.0, 0.0).is_identity());
    }

    #[test]
    fn textbook_annihilates_covariance() {
        for &(a, b, c) in &[
            (1.0, 2.0, 0.5),
            (2.0, 1.0, 0.5),
            (1.0, 2.0, -0.5),
            (5.0, 5.0, 1.0),
            (5.0, 5.0, -1.0),
            (1e-8, 1e8, 3.0),
            (1e8, 1e-8, -3.0),
        ] {
            let rot = textbook_params(a, b, c);
            check_orthogonalizes(a, b, c, &rot);
        }
    }

    #[test]
    fn hardware_annihilates_covariance() {
        for &(a, b, c) in &[
            (1.0, 2.0, 0.5),
            (2.0, 1.0, 0.5),
            (1.0, 2.0, -0.5),
            (5.0, 5.0, 1.0),
            (5.0, 5.0, -1.0),
            (1e-8, 1e8, 3.0),
        ] {
            let rot = hardware_params(a, b, c);
            check_orthogonalizes(a, b, c, &rot);
        }
    }

    #[test]
    fn rotation_is_orthonormal() {
        let rot = textbook_params(1.0, 4.0, 0.7);
        assert!((rot.cos * rot.cos + rot.sin * rot.sin - 1.0).abs() < 1e-15);
        let rot = hardware_params(1.0, 4.0, 0.7);
        assert!((rot.cos * rot.cos + rot.sin * rot.sin - 1.0).abs() < 1e-15);
    }

    #[test]
    fn equal_norms_give_45_degrees() {
        let rot = textbook_params(2.0, 2.0, 1.0);
        assert!((rot.t.abs() - 1.0).abs() < 1e-15, "t = {}", rot.t);
        assert!((rot.angle().abs() - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
    }

    #[test]
    fn t_is_small_root() {
        // |t| ≤ 1 always: Jacobi picks the inner rotation, which is what
        // guarantees sweep convergence.
        for &(a, b, c) in &[(1.0, 100.0, 5.0), (100.0, 1.0, 5.0), (3.0, 3.0, -2.0)] {
            assert!(textbook_params(a, b, c).t.abs() <= 1.0 + 1e-15);
            assert!(hardware_params(a, b, c).t.abs() <= 1.0 + 1e-15);
        }
    }

    #[test]
    fn rotate_norms_preserves_trace_and_zeroes_cov() {
        let (a, b, c) = (3.0, 7.0, 1.5);
        let rot = textbook_params(a, b, c);
        let (a2, b2, c2) = rotate_norms(a, b, c, &rot);
        assert_eq!(c2, 0.0);
        assert!((a2 + b2 - (a + b)).abs() < 1e-14);
        // The rotated norms must equal the directly-computed rotated norms.
        let a_direct = rot.cos * rot.cos * a - 2.0 * rot.cos * rot.sin * c + rot.sin * rot.sin * b;
        assert!((a2 - a_direct).abs() < 1e-13 * a.max(b));
    }

    #[test]
    fn norms_stay_nonnegative_for_psd_inputs() {
        // For a genuine Gram pair, cov² ≤ nᵢ·nⱼ (Cauchy-Schwarz); rotated
        // norms are eigenvalues of a PSD 2×2 and must stay ≥ 0.
        for &(a, b, c) in &[(1.0, 1.0, 1.0 - 1e-12), (4.0, 1.0, 1.9), (1e-6, 1e6, 0.9)] {
            assert!(c * c <= a * b, "test case must satisfy Cauchy-Schwarz");
            let rot = textbook_params(a, b, c);
            let (a2, b2, _) = rotate_norms(a, b, c, &rot);
            assert!(a2 >= -1e-12 && b2 >= -1e-12, "a2={a2} b2={b2}");
        }
    }

    #[test]
    fn hw_matches_textbook_on_grid() {
        for &a in &[1e-10, 0.5, 1.0, 3.0, 1e10] {
            for &b in &[1e-10, 0.5, 1.0, 3.0, 1e10] {
                for &c in &[-1e5, -1.0, -1e-7, 1e-7, 1.0, 1e5] {
                    let tx = textbook_params(a, b, c);
                    let hw = hardware_params(a, b, c);
                    assert!(
                        (tx.cos - hw.cos).abs() < 1e-12 && (tx.sin - hw.sin).abs() < 1e-12,
                        "mismatch at ({a},{b},{c}): tx={tx:?} hw={hw:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_converged_threshold() {
        assert!(pair_converged(1.0, 1.0, 0.0, 1e-15));
        assert!(pair_converged(1.0, 1.0, 9e-16, 1e-15));
        assert!(!pair_converged(1.0, 1.0, 2e-15, 1e-15));
        // Scales with the norms:
        assert!(pair_converged(1e8, 1e8, 50.0, 1e-6));
        assert!(!pair_converged(1e-8, 1e-8, 50.0, 1e-6));
    }
}
