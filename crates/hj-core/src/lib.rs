//! # hj-core — the modified Hestenes-Jacobi SVD algorithm
//!
//! This crate is the paper's primary contribution in library form: one-sided
//! Jacobi SVD over arbitrary `m × n` matrices with the **maintained
//! covariance matrix** optimization (the paper's Algorithm 1). The Gram
//! matrix `D = AᵀA` is computed once; every subsequent plane rotation
//! updates `D` in place in `O(n)` instead of recomputing dot products from
//! the `m`-long columns — the same data-reuse idea that the hardware's
//! reconfigurable preprocessor / update-operator split implements.
//!
//! Module map (each mirrors a hardware component or design decision):
//!
//! * [`rotation`] — the Jacobi rotation component's arithmetic: textbook
//!   `ρ→t→cos→sin` chain and the paper's flattened eqs. (8)–(10).
//! * [`gram`] — the maintained covariance matrix and its O(n) rotation
//!   update (the Update operator's covariance path).
//! * [`kernel`] — the vectorization-friendly inner kernels the sweep hot
//!   loops run on: the three-region packed rotation and the SoA batch
//!   kernels (the packed rotation is bit-identical to the scalar path; see
//!   the module's bit-compat policy).
//! * [`ordering`] — the sweep schedule: the two cyclic orders of
//!   [`Ordering`] — round-robin pairing (the paper's Fig. 6, the default)
//!   and the row-cyclic loop nest of Algorithm 1 — and the
//!   [`ordering::ThresholdSchedule`] rotation-threshold ramp composable
//!   with either. A sweep's plan is a function of the ordering and `n`,
//!   stored as one flat pair list ([`ordering::Sweep`]), so a solve plans
//!   once with one allocation and sweeps with none.
//! * [`engine`] — the sweep pipeline: the [`engine::SweepEngine`] trait,
//!   the [`engine::RotationTarget`] / [`engine::PairGuard`] abstractions,
//!   the [`engine::Sequential`] engine (Algorithm 1's in-place data flow),
//!   and the single [`engine::SolveDriver`] loop every solver runs on.
//! * [`batch`] — batched values-only drivers
//!   ([`HestenesSvd::singular_values_batch`]): the SoA engine for uniform
//!   small batches, otherwise independent solves fanned across the thread
//!   pool, with per-solve error isolation either way.
//! * [`batch_engine`] — the batched SoA engine for many tiny SVDs:
//!   `k` interleaved Gram triangles swept together by one lanes-wide kernel
//!   invocation per pair ([`batch_engine::BatchWorkspace`] /
//!   [`batch_engine::BatchDriver`]), with a per-problem active mask and
//!   per-problem fault isolation. [`HestenesSvd::singular_values_batch`]
//!   dispatches uniform small-`n` batches here automatically.
//! * [`stats`] — [`SolveStats`] observability record (timings, rotation
//!   counts, prescale) attached to every solve.
//! * [`trace`] — structured solve tracing: the [`trace::TraceSink`]
//!   contract, typed [`trace::TraceEvent`]s for every sweep / rotation /
//!   convergence check, and the no-op, ring-buffer, and JSONL
//!   sinks. A solve is traced through its [`Request`]; zero cost when
//!   disabled.
//! * [`convergence`] — stopping rules and per-sweep instrumentation
//!   (the paper's Figs. 10–11 metric).
//! * [`recovery`] — the fault-detection layer: [`recovery::Fault`]
//!   taxonomy, per-sweep [`recovery::HealthCheck`] (the one fault rule of
//!   the scalar driver and every SoA lane), and [`recovery::SolveBudget`]
//!   deadline/cancellation. Every solve path aborts on its first fault with
//!   [`SvdError::SolveFault`]. Tests corrupt a solve through the public
//!   [`engine::SweepEngine`] seam.
//! * [`svd`] — user-facing drivers: [`HestenesSvd::singular_values`]
//!   (paper-faithful, D-only after the first pass) and
//!   [`HestenesSvd::decompose`] (full `A = UΣVᵀ`), each also taking a
//!   [`Request`] (`_with`) that attaches a trace sink. The scalar and SoA
//!   paths share one exact power-of-two scaler and one spectrum step.
//! * [`pca`], [`lowrank`] — the downstream applications the paper
//!   motivates: PCA (fit/transform/explained variance) and low-rank /
//!   pseudoinverse / least-squares utilities.
//!
//! ## Quickstart
//!
//! ```
//! use hj_core::{HestenesSvd, SvdOptions};
//! use hj_matrix::gen;
//!
//! let a = gen::uniform(128, 32, 42);
//! let solver = HestenesSvd::new(SvdOptions::default());
//! let svd = solver.decompose(&a).unwrap();
//! assert_eq!(svd.singular_values.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod batch_engine;
pub mod convergence;
pub mod eigh;
pub mod engine;
mod error;
pub mod gram;
pub mod kernel;
pub mod lowrank;
pub mod ordering;
pub mod pca;
pub mod recovery;
pub mod rotation;
pub mod stats;
pub mod svd;
pub mod trace;

pub use batch_engine::{BatchDriver, BatchWorkspace};
pub use convergence::{Convergence, SweepRecord};
pub use engine::{
    MonitoredRun, PairGuard, RotationTarget, SolveDriver, SolveMonitor, SweepEngine, SweepState,
};
pub use error::SvdError;
pub use gram::{DiagonalScan, GramState};
pub use ordering::{Ordering, PlanBuffers, SweepSchedule, ThresholdSchedule};
pub use pca::Pca;
pub use recovery::{Fault, HealthCheck, SolveBudget};
pub use rotation::{hardware_params, textbook_params, Rotation};
pub use stats::SolveStats;
pub use svd::{HestenesSvd, Request, SingularValues, Svd, SvdOptions};
pub use trace::{
    JsonlSink, NoopSink, RingBufferSink, SkipReason, TraceEvent, TraceLevel, TraceSink, Tracer,
};
