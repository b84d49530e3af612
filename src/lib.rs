//! # hjsvd — Hestenes-Jacobi Singular Value Decomposition
//!
//! A full Rust reproduction of *"An FPGA Implementation of the
//! Hestenes-Jacobi Algorithm for Singular Value Decomposition"*
//! (Wang & Zambreno, IPDPS workshops, 2014): the modified Gram-updating
//! Hestenes-Jacobi algorithm, a cycle-level simulator of the paper's
//! hardware architecture, the software baselines it compares against, and a
//! benchmark harness that regenerates every table and figure in the paper's
//! evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`matrix`] — dense matrix substrate (storage, generators, norms).
//! * [`core`] — the Hestenes-Jacobi algorithm itself.
//! * [`baselines`] — Householder/QR, two-sided Jacobi, naive Hestenes,
//!   GPU-model and fixed-point/CORDIC comparators.
//! * [`fpsim`] — FPGA component models (pipelined operators, FIFOs, BRAM,
//!   resource accounting).
//! * [`arch`] — the paper's architecture assembled from those components,
//!   with timing and resource reports.
//! * [`serve`] — the multi-tenant solve service: bounded job queue,
//!   deadline-aware scheduler, worker pool, and the TCP wire protocol
//!   behind `hjsvd serve` / `hjsvd submit`.
//!
//! ## Quickstart
//!
//! ```
//! use hjsvd::core::{HestenesSvd, SvdOptions};
//! use hjsvd::matrix::gen;
//!
//! let a = gen::uniform(64, 16, 42);
//! let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
//! assert_eq!(svd.singular_values.len(), 16);
//! // Singular values come out sorted descending:
//! assert!(svd.singular_values.windows(2).all(|w| w[0] >= w[1]));
//! ```

pub use hj_arch as arch;
pub use hj_baselines as baselines;
pub use hj_core as core;
pub use hj_fpsim as fpsim;
pub use hj_matrix as matrix;
pub use hj_serve as serve;

/// The names most programs need, importable in one line:
/// `use hjsvd::prelude::*;`
pub mod prelude {
    pub use hj_arch::{ArchConfig, HestenesJacobiArch};
    pub use hj_core::{
        Convergence, HestenesSvd, Ordering, Pca, SolveBudget, Svd, SvdError, SvdOptions,
    };
    pub use hj_matrix::{gen, norms, Matrix, PackedSymmetric};
    pub use hj_serve::{JobSpec, ServiceConfig, SolveService};
}
