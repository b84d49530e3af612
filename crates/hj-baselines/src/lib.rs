//! # hj-baselines — comparator SVD implementations
//!
//! Every algorithm the paper's evaluation compares against (or dismisses in
//! its design discussion), implemented from scratch so the benchmark harness
//! can regenerate the comparison figures on this machine:
//!
//! * [`householder`] — Golub-Kahan bidiagonalization + implicit-shift QR,
//!   the MATLAB / LAPACK / Intel MKL algorithm family (refs. \[6\], \[16\],
//!   \[17\]). Measured wall-clock of this routine supplies the "optimized
//!   software" side of Figs. 7–9.
//! * [`two_sided`] — classic two-sided Jacobi (Kogbetliantz / Brent-Luk),
//!   the systolic-array algorithm of §II-B; square matrices only, by
//!   construction — demonstrating the restriction the paper cites.
//! * [`naive_hestenes`] — one-sided Jacobi that recomputes norms and
//!   covariances every visit, modelling the earlier FPGA design (ref. \[12\])
//!   whose "repeated calculations" the paper's Gram-maintenance removes.
//! * [`gpu_model`] — analytic GPU timing model (sync overhead + throughput)
//!   calibrated to the published 8800-era data points, plus a functional
//!   run of the round-robin schedule that measures its own barrier counts.
//! * [`fixed_point`] — saturating Q31.32 arithmetic and a fixed-point
//!   Hestenes driver, quantifying the dynamic-range argument for the
//!   paper's double-precision choice.
//! * [`cordic`] — fixed-point CORDIC rotation engine, the hardware
//!   alternative to the paper's direct FP evaluation of eqs. (8)–(10).
//! * [`partial_svd`] — randomized truncated SVD (Halko-Martinsson-Tropp),
//!   the "partial SVD" primitive of the paper's §I robust-PCA motivation,
//!   with the Hestenes-Jacobi SVD as its small-core factorizer.
//! * [`qr`], [`preconditioned`] — column-pivoted Householder QR and the
//!   Drmač-style QR-preconditioned Jacobi SVD (the production refinement of
//!   the paper's algorithm; its ref. \[15\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cordic;
pub mod fixed_point;
pub mod gpu_model;
pub mod householder;
pub mod lanczos;
pub mod naive_hestenes;
pub mod partial_svd;
pub mod preconditioned;
pub mod qr;
pub mod single_precision;
pub mod two_sided;

use hj_matrix::Matrix;

/// A thin SVD `A ≈ U Σ Vᵀ` as produced by the baseline algorithms.
///
/// Same layout contract as [`hj_core::Svd`]: `u` is `m × k`, `sigma` sorted
/// descending with length `k = min(m, n)`, `v` is `n × k`.
#[derive(Debug, Clone)]
pub struct SvdFactors {
    /// Left singular vectors.
    pub u: Matrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors.
    pub v: Matrix,
}

pub use householder::BaselineError;
pub use two_sided::TwoSidedError;
