//! Convergence criteria and per-sweep instrumentation.
//!
//! The paper runs a fixed 6 sweeps ("believed sufficient for achieving
//! convergence with certain thresholds", §VI-A) and separately *measures*
//! convergence as the mean absolute deviation of the covariances from zero
//! (Figs. 10–11). We expose both: fixed-sweep operation for
//! architecture-faithful timing, and threshold-based stopping for library
//! use, with the full per-sweep history available either way.

/// When to stop sweeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Convergence {
    /// Run exactly this many sweeps — the paper's mode (it uses 6).
    FixedSweeps(usize),
    /// Stop when the largest |covariance| drops below
    /// `tol · (trace(D)/n)`, i.e. relative to the average squared column
    /// norm. Scale-invariant: multiplying `A` by a constant does not change
    /// the sweep count.
    MaxCovariance {
        /// Relative tolerance (e.g. `1e-14` for near-machine precision).
        tol: f64,
    },
    /// Stop when a full sweep applied no rotations (every pair already
    /// satisfied the per-pair orthogonality guard). The classical Jacobi
    /// termination rule; strongest guarantee, potentially more sweeps.
    NoRotations,
}

impl Default for Convergence {
    /// Library default: scale-invariant threshold at near machine precision.
    fn default() -> Self {
        Convergence::MaxCovariance { tol: 1e-14 }
    }
}

/// Measurements recorded after each sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRecord {
    /// 1-based sweep number.
    pub sweep: usize,
    /// Mean absolute off-diagonal covariance (the paper's Fig. 10/11 metric).
    pub mean_abs_cov: f64,
    /// Frobenius norm of the off-diagonal part of `D`.
    pub off_frobenius: f64,
    /// Largest absolute off-diagonal covariance.
    pub max_abs_cov: f64,
    /// Rotations actually applied during the sweep.
    pub rotations_applied: usize,
    /// Pairs skipped by the per-pair orthogonality guard.
    pub rotations_skipped: usize,
}

/// Decide whether the iteration should stop after the given record.
///
/// `trace` and `n` supply the scale reference for [`Convergence::MaxCovariance`].
pub fn is_converged(criterion: &Convergence, record: &SweepRecord, trace: f64, n: usize) -> bool {
    match *criterion {
        Convergence::FixedSweeps(k) => record.sweep >= k,
        Convergence::MaxCovariance { tol } => {
            let scale = if n == 0 { 1.0 } else { trace / n as f64 };
            record.max_abs_cov <= tol * scale.max(f64::MIN_POSITIVE)
        }
        Convergence::NoRotations => record.rotations_applied == 0,
    }
}

/// `off(D) = √(2·Σ_{i<j} D_ij²)` for a sweep record, from one pass's plain
/// sum of squares `sum_sq` and largest `|D_ij|` `max_abs`.
///
/// The squares overflow once `|D_ij|` nears `2^511/n`, while every entry of
/// `D` is still finite. When the plain norm is not finite but `max_abs` is,
/// the sum is taken again over the `D_ij` that the lazy `off_diagonal`
/// yields, each scaled by `2^-e` for `e` the binary exponent of `max_abs`,
/// and the root is scaled back. Nothing is allocated. A NaN or ±∞ in `D`
/// still gives a non-finite norm: a NaN poisons the scaled sum too, and an
/// ∞ makes `max_abs` infinite, which skips the second pass.
pub(crate) fn off_frobenius(
    sum_sq: f64,
    max_abs: f64,
    off_diagonal: impl Iterator<Item = f64>,
) -> f64 {
    let plain = (2.0 * sum_sq).sqrt();
    if plain.is_finite() || !max_abs.is_finite() || max_abs == 0.0 {
        return plain;
    }
    scaled_off_frobenius(max_abs, off_diagonal)
}

/// The second pass of [`off_frobenius`], out of line and cold so that it
/// adds nothing to the hot code of the sweep loops that call it.
#[cold]
#[inline(never)]
fn scaled_off_frobenius(max_abs: f64, off_diagonal: impl Iterator<Item = f64>) -> f64 {
    // Clamped so that both factors stay normal.
    let e = (max_abs.log2().floor() as i32).clamp(-1022, 1022);
    let down = 2f64.powi(-e);
    let scaled: f64 = off_diagonal.map(|v| (v * down) * (v * down)).sum();
    (2.0 * scaled).sqrt() * 2f64.powi(e)
}

/// Hard cap applied on top of any criterion, preventing unbounded iteration
/// on pathological inputs. One-sided Jacobi on well-posed data converges in
/// `O(log n)` sweeps; 60 is far beyond anything a finite-precision run needs.
pub const MAX_SWEEP_CAP: usize = 60;

#[cfg(test)]
mod tests {
    use super::*;

    fn record(sweep: usize, max_abs: f64, applied: usize) -> SweepRecord {
        SweepRecord {
            sweep,
            mean_abs_cov: max_abs / 2.0,
            off_frobenius: max_abs * 2.0,
            max_abs_cov: max_abs,
            rotations_applied: applied,
            rotations_skipped: 0,
        }
    }

    #[test]
    fn fixed_sweeps_counts() {
        let c = Convergence::FixedSweeps(6);
        assert!(!is_converged(&c, &record(5, 1.0, 10), 100.0, 4));
        assert!(is_converged(&c, &record(6, 1.0, 10), 100.0, 4));
        assert!(is_converged(&c, &record(7, 1.0, 10), 100.0, 4));
    }

    #[test]
    fn max_covariance_is_scale_relative() {
        let c = Convergence::MaxCovariance { tol: 1e-10 };
        // trace/n = 25 → threshold 2.5e-9
        assert!(is_converged(&c, &record(1, 1e-9, 5), 100.0, 4));
        assert!(!is_converged(&c, &record(1, 1e-8, 5), 100.0, 4));
        // Same matrix scaled by 1e6 in norm → thresholds scale too.
        assert!(is_converged(&c, &record(1, 1e-9 * 1e6, 5), 100.0 * 1e6, 4));
    }

    #[test]
    fn no_rotations_rule() {
        let c = Convergence::NoRotations;
        assert!(!is_converged(&c, &record(1, 0.0, 1), 1.0, 2));
        assert!(is_converged(&c, &record(1, 5.0, 0), 1.0, 2));
    }

    /// `off_frobenius` over `entries`, with the plain pass's sums.
    fn off_of(entries: &[f64]) -> f64 {
        let sum_sq = entries.iter().map(|v| v * v).sum();
        let max_abs = entries.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        off_frobenius(sum_sq, max_abs, entries.iter().copied())
    }

    #[test]
    fn off_frobenius_survives_overflowing_squares_of_finite_entries() {
        // Ordinary entries take the plain pass, bit for bit.
        let small = [3.0, -4.0, 0.5];
        assert_eq!(off_of(&small), (2.0f64 * (9.0 + 16.0 + 0.25)).sqrt());
        // 2^600 squares to ∞; the scaled pass gives √(2·(9 + 16))·2^600.
        let big = 2f64.powi(600);
        let off = off_of(&[3.0 * big, -4.0 * big, 1.0]);
        assert_eq!(off, 50f64.sqrt() * big);
        // A NaN or ±∞ among the entries never turns the norm finite.
        assert!(off_of(&[3.0 * big, f64::NAN]).is_nan());
        assert!(off_of(&[f64::NAN, 1.0]).is_nan());
        assert_eq!(off_of(&[3.0 * big, f64::INFINITY]), f64::INFINITY);
        assert_eq!(off_of(&[f64::NEG_INFINITY]), f64::INFINITY);
    }

    #[test]
    fn zero_dim_does_not_divide_by_zero() {
        let c = Convergence::MaxCovariance { tol: 1e-10 };
        assert!(is_converged(&c, &record(1, 0.0, 0), 0.0, 0));
    }

    #[test]
    fn default_is_relative_threshold() {
        assert!(matches!(Convergence::default(), Convergence::MaxCovariance { .. }));
    }
}
