//! # hj-serve — the multi-tenant solve service
//!
//! The paper's architecture is a *throughput machine*: 8 independent
//! rotations issue every 64 cycles, and the covariance memory system is
//! sized so many problems stream through one datapath. This crate is the
//! software analogue of that layer — the subsystem that admits,
//! prioritizes, executes, and drains many independent SVD solves over the
//! `hj-core` kernel, instead of exposing one library call at a time.
//!
//! Components (std-only, no external dependencies):
//!
//! * **Jobs** ([`JobSpec`], [`Priority`], [`JobTicket`]) — a solve request
//!   with an ordering, a priority class, an optional wall-clock deadline, and
//!   a tenant identity. A job's [`JobPayload`] is either one matrix or a
//!   **bulk** batch of many ([`JobSpec::bulk`]): one queue entry, one
//!   ticket, per-problem results ([`JobResult`]). Uniform small-`n` bulk
//!   jobs ride `hj-core`'s SoA batch engine on the worker.
//! * **Queue + scheduler** (internal) — a bounded queue with
//!   reject-with-reason admission control ([`RejectReason`]) and per-tenant
//!   in-flight caps; dispatch is strict priority between classes and
//!   earliest-deadline-first within one.
//! * **Worker pool** ([`SolveService`]) — fixed worker threads. A single
//!   job is a one-shot [`hj_core::HestenesSvd::singular_values`] call,
//!   whose sweep plan is one allocation and whose sweeps allocate nothing;
//!   each worker keeps one warm [`hj_core::BatchWorkspace`] for bulk jobs.
//!   Deadlines and ticket cancellation become the
//!   solve's [`hj_core::SolveBudget`]. A job completes on its first
//!   outcome: the solve is deterministic, so a retry could only repeat its
//!   fault.
//! * **Lifecycle** — [`SolveService::shutdown`] stops admission, drains
//!   in-flight work within a bounded deadline, cancels stragglers, and
//!   joins the pool; [`ServiceStats`] snapshots counters and per-class
//!   latency histograms; admissions/dispatches/completions stream as
//!   `job_*` [`hj_core::TraceEvent`]s into any [`hj_core::TraceSink`].
//! * **Wire front-end** ([`Server`], [`Client`], [`protocol`]) — a
//!   framework-free length-prefixed TCP protocol whose matrix and spectrum
//!   payloads are raw `f64::to_bits`, so results over the wire are
//!   **bit-identical** to direct [`hj_core::HestenesSvd`] calls. Protocol
//!   v3 adds the bulk frames: one `SubmitBatch` carries many matrices, one
//!   `BatchResult` brings back every slot's spectrum or structured error
//!   ([`Client::submit_batch`], [`RemoteBatchOutcome`]).
//!
//! ## Quickstart
//!
//! ```
//! use hj_serve::{JobSpec, ServiceConfig, SolveService};
//! use hj_matrix::gen;
//! use std::time::Duration;
//!
//! let service = SolveService::start(ServiceConfig::default());
//! let outcome = service.solve(JobSpec::new(gen::uniform(32, 8, 9))).unwrap();
//! assert_eq!(outcome.result.into_single().unwrap().values.len(), 8);
//! assert!(service.shutdown(Duration::from_secs(5)).drained_cleanly);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod client;
mod job;
pub mod protocol;
mod queue;
mod server;
mod service;
mod stats;

pub use client::{
    Client, ClientError, RemoteBatchOutcome, RemoteFailure, RemoteOutcome, RemoteSpectrum,
    SubmitOptions,
};
pub use job::{
    JobOutcome, JobPayload, JobResult, JobSpec, JobTicket, Priority, RejectReason, PRIORITY_CLASSES,
};
pub use server::{
    error_code, error_kind, Server, CODE_BAD_REQUEST, CODE_CANCELLED, CODE_DEADLINE, CODE_REJECTED,
    CODE_SOLVE_FAULT,
};
pub use service::{DrainReport, ServiceConfig, SolveService};
pub use stats::{LatencyHistogram, ServiceStats, HISTOGRAM_BUCKETS};
