use crate::recovery::Fault;
use std::fmt;

/// Errors from the SVD drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvdError {
    /// Input matrix has a zero dimension.
    EmptyInput,
    /// The symmetric eigensolver was given a non-square matrix.
    NotSquare {
        /// Rows of the input.
        rows: usize,
        /// Columns of the input.
        cols: usize,
    },
    /// Input contains NaN or ±∞; the rotation kernels require finite data.
    NonFiniteInput,
    /// `max_sweeps` was 0; at least one sweep is required.
    ZeroSweepBudget,
    /// Values-only mode on a wide matrix (`m < n`) truncates the Gram
    /// spectrum from `n` to `m` entries; the discarded tail must be
    /// numerically zero (rank(A) ≤ m guarantees this once converged). A
    /// non-negligible tail means the iteration had not converged enough for
    /// the truncation to be sound, so the driver refuses to return silently
    /// wrong values. Raise the sweep budget or loosen the stopping rule.
    TruncatedTailNotNegligible,
    /// A mid-solve fault was detected by the health check or solve budget
    /// within one sweep, and the solve aborted. The solver never returns a
    /// silently corrupted factorization, and it never retries: the solve is
    /// deterministic, so a second run could only repeat the fault.
    SolveFault {
        /// The fault that ended the solve.
        fault: Fault,
        /// Sweeps the solve executed, the one that faulted included (0 for
        /// a budget fault before the first sweep).
        sweeps_completed: usize,
    },
}

impl fmt::Display for SvdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvdError::EmptyInput => write!(f, "input matrix has a zero dimension"),
            SvdError::NotSquare { rows, cols } => {
                write!(f, "input matrix must be square, got {rows}x{cols}")
            }
            SvdError::NonFiniteInput => write!(f, "input matrix contains NaN or infinite entries"),
            SvdError::ZeroSweepBudget => write!(f, "max_sweeps must be at least 1"),
            SvdError::TruncatedTailNotNegligible => write!(
                f,
                "wide-matrix truncation would discard non-negligible spectrum mass \
                 (iteration not converged; increase the sweep budget)"
            ),
            SvdError::SolveFault { fault, sweeps_completed } => write!(
                f,
                "solve aborted on fault [{}]: {fault} (sweeps completed: {sweeps_completed})",
                fault.kind()
            ),
        }
    }
}

impl std::error::Error for SvdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(SvdError::EmptyInput.to_string().contains("zero dimension"));
        assert!(SvdError::NotSquare { rows: 2, cols: 3 }.to_string().contains("square, got 2x3"));
        assert!(SvdError::NonFiniteInput.to_string().contains("NaN"));
        assert!(SvdError::ZeroSweepBudget.to_string().contains("at least 1"));
        assert!(SvdError::TruncatedTailNotNegligible.to_string().contains("non-negligible"));
        let fault =
            SvdError::SolveFault { fault: Fault::NonFiniteGram { sweep: 3 }, sweeps_completed: 3 };
        let msg = fault.to_string();
        assert!(msg.contains("[non-finite-gram]"));
        assert!(msg.ends_with("(sweeps completed: 3)"), "{msg}");
    }
}
