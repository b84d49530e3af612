//! Job vocabulary: what a caller submits, how it is prioritized, and how the
//! result comes back.

use hj_core::{SingularValues, SolveBudget, SvdError};
use hj_matrix::Matrix;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hj_core::Ordering;

/// Priority class of a job. Dispatch is strict-priority between classes and
/// earliest-deadline-first within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive traffic; always dispatched before batch work.
    #[default]
    Interactive,
    /// Throughput traffic; runs when no interactive job is eligible.
    Batch,
}

/// Number of priority classes (sizes the per-class stats arrays).
pub const PRIORITY_CLASSES: usize = 2;

impl Priority {
    /// Parse a CLI spelling: `interactive` or `batch`.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// Canonical lowercase name (round-trips through [`Priority::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }

    /// Dense index for per-class arrays (`0` = highest priority).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }

    /// Inverse of [`Priority::index`].
    pub fn from_index(i: usize) -> Option<Priority> {
        match i {
            0 => Some(Priority::Interactive),
            1 => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// What one job asks the workers to solve: a single matrix, or a whole
/// batch of independent matrices carried as one queue entry.
///
/// A bulk job occupies **one** queue slot, counts once against its tenant's
/// in-flight cap, and completes as one unit — the per-problem fan-out
/// happens inside the worker via [`hj_core::HestenesSvd::singular_values_batch`]
/// semantics (uniform small batches ride the SoA batch engine), with
/// per-problem error isolation in the result.
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// One matrix, one spectrum.
    Single(Matrix),
    /// Many independent matrices solved as one job, results in slot order.
    Bulk(Vec<Matrix>),
}

impl JobPayload {
    /// Number of problems this payload carries (1 for a single).
    pub fn problems(&self) -> usize {
        match self {
            JobPayload::Single(_) => 1,
            JobPayload::Bulk(mats) => mats.len(),
        }
    }
}

/// One solve request, as admitted into the service queue.
///
/// The builder methods cover the optional fields; a bare
/// [`JobSpec::new`] is an interactive, deadline-free, anonymous-tenant job
/// on the default cyclic ordering.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to solve: one matrix or a bulk batch.
    pub payload: JobPayload,
    /// Which pair-ordering strategy plans the sweeps.
    pub ordering: Ordering,
    /// Priority class for dispatch ordering.
    pub priority: Priority,
    /// Optional absolute wall-clock deadline; translated into the solve's
    /// [`hj_core::SolveBudget`] and used as the EDF sort key.
    pub deadline: Option<Instant>,
    /// Tenant identity for per-tenant in-flight caps (empty = anonymous,
    /// which is itself a tenant).
    pub tenant: String,
}

impl JobSpec {
    /// An interactive, deadline-free job for `matrix` under the anonymous
    /// tenant.
    pub fn new(matrix: Matrix) -> JobSpec {
        JobSpec::with_payload(JobPayload::Single(matrix))
    }

    /// A bulk job solving every matrix of `matrices` as one queue entry
    /// (defaults match [`JobSpec::new`]; batch jobs often also want
    /// [`JobSpec::priority`]​`(Priority::Batch)`).
    pub fn bulk(matrices: Vec<Matrix>) -> JobSpec {
        JobSpec::with_payload(JobPayload::Bulk(matrices))
    }

    fn with_payload(payload: JobPayload) -> JobSpec {
        JobSpec {
            payload,
            ordering: Ordering::default(),
            priority: Priority::Interactive,
            deadline: None,
            tenant: String::new(),
        }
    }

    /// Select the pair-ordering strategy.
    pub fn ordering(mut self, ordering: Ordering) -> JobSpec {
        self.ordering = ordering;
        self
    }

    /// Select the priority class.
    pub fn priority(mut self, priority: Priority) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Set an absolute deadline.
    pub fn deadline(mut self, deadline: Instant) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Set a deadline `timeout` from now, saturating as
    /// [`SolveBudget::with_timeout`] does: a `timeout` beyond the platform's
    /// `Instant` range gives a deadline decades ahead, never one that has
    /// already passed.
    pub fn deadline_in(mut self, timeout: Duration) -> JobSpec {
        self.deadline = SolveBudget::with_timeout(timeout).deadline;
        self
    }

    /// Set the tenant identity.
    pub fn tenant(mut self, tenant: impl Into<String>) -> JobSpec {
        self.tenant = tenant.into();
        self
    }
}

/// Why admission control turned a submission away. Every rejection is
/// structured and immediate — a full service never blocks or hangs the
/// submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The submitting tenant is already at its in-flight cap.
    TenantCap {
        /// The configured per-tenant cap that was hit.
        cap: usize,
    },
    /// The service is draining for shutdown and admits nothing new.
    Draining,
}

impl RejectReason {
    /// Stable machine-readable name (used in trace events, stats, and the
    /// wire protocol's error frames).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue-full",
            RejectReason::TenantCap { .. } => "tenant-cap",
            RejectReason::Draining => "draining",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::TenantCap { cap } => {
                write!(f, "tenant at its in-flight cap ({cap})")
            }
            RejectReason::Draining => write!(f, "service is draining"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// Terminal result of a job, shaped like its payload.
// One `JobResult` exists per job and is consumed immediately by the
// responder, so the `Single`/`Bulk` size gap never multiplies across a
// collection — boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum JobResult {
    /// Outcome of a [`JobPayload::Single`] job — bit-identical to a direct
    /// [`hj_core::HestenesSvd::singular_values`] call on the same matrix
    /// and ordering.
    Single(Result<SingularValues, SvdError>),
    /// Per-problem outcomes of a [`JobPayload::Bulk`] job, in slot order.
    /// A failed slot (bad input, mid-solve fault) never disturbs its
    /// neighbors.
    Bulk(Vec<Result<SingularValues, SvdError>>),
}

impl JobResult {
    /// True when every problem solved (all slots `Ok` for a bulk job).
    pub fn is_ok(&self) -> bool {
        match self {
            JobResult::Single(r) => r.is_ok(),
            JobResult::Bulk(rs) => rs.iter().all(Result::is_ok),
        }
    }

    /// Unwrap a single-solve result.
    ///
    /// # Panics
    /// Panics if the job was a bulk submission.
    pub fn into_single(self) -> Result<SingularValues, SvdError> {
        match self {
            JobResult::Single(r) => r,
            JobResult::Bulk(_) => panic!("bulk job result treated as a single solve"),
        }
    }

    /// Unwrap a bulk-solve result.
    ///
    /// # Panics
    /// Panics if the job was a single submission.
    pub fn into_bulk(self) -> Vec<Result<SingularValues, SvdError>> {
        match self {
            JobResult::Bulk(rs) => rs,
            JobResult::Single(_) => panic!("single job result treated as a bulk solve"),
        }
    }
}

/// Terminal state of one admitted job.
#[derive(Debug)]
pub struct JobOutcome {
    /// Service-assigned job id.
    pub job: u64,
    /// The result, shaped like the submission ([`JobResult::into_single`] /
    /// [`JobResult::into_bulk`]).
    pub result: JobResult,
    /// Wall-clock seconds from admission to completion (queue wait
    /// included).
    pub wall_seconds: f64,
}

/// Shared completion slot: the worker fills it once; the submitter waits on
/// it.
pub(crate) type CompletionSlot = Arc<(Mutex<Option<JobOutcome>>, Condvar)>;

/// The submitter's handle to an admitted job: wait for the outcome, or
/// cancel cooperatively.
#[derive(Debug)]
pub struct JobTicket {
    pub(crate) id: u64,
    pub(crate) slot: CompletionSlot,
    pub(crate) cancel: Arc<AtomicBool>,
}

impl JobTicket {
    /// The service-assigned job id (monotone per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Raise the job's cancellation flag. Cooperative: a queued job faults
    /// with `cancelled` as soon as a worker picks it up; a running job
    /// aborts at its next sweep boundary. The outcome still arrives through
    /// [`JobTicket::wait`].
    pub fn cancel(&self) {
        self.cancel.store(true, AtomicOrdering::Relaxed);
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(self) -> JobOutcome {
        let (lock, cv) = &*self.slot;
        let mut guard = lock.lock().expect("completion slot lock");
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = cv.wait(guard).expect("completion slot wait");
        }
    }

    /// Block until the job completes or `timeout` passes; `Err(self)` gives
    /// the ticket back on timeout so the caller can keep waiting or cancel.
    pub fn wait_timeout(self, timeout: Duration) -> Result<JobOutcome, JobTicket> {
        let deadline = Instant::now() + timeout;
        {
            let (lock, cv) = &*self.slot;
            let mut guard = lock.lock().expect("completion slot lock");
            loop {
                if let Some(outcome) = guard.take() {
                    return Ok(outcome);
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, _timed_out) =
                    cv.wait_timeout(guard, deadline - now).expect("completion slot wait");
                guard = g;
            }
        }
        Err(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_round_trips() {
        for p in [Priority::Interactive, Priority::Batch] {
            assert_eq!(Priority::parse(p.name()), Some(p));
            assert_eq!(Priority::from_index(p.index()), Some(p));
        }
        assert_eq!(Priority::parse("urgent"), None);
        assert_eq!(Priority::from_index(PRIORITY_CLASSES), None);
        assert!(Priority::Interactive.index() < Priority::Batch.index());
    }

    #[test]
    fn reject_reasons_name_themselves() {
        assert_eq!(RejectReason::QueueFull { capacity: 4 }.name(), "queue-full");
        assert_eq!(RejectReason::TenantCap { cap: 2 }.name(), "tenant-cap");
        assert_eq!(RejectReason::Draining.name(), "draining");
        assert!(RejectReason::QueueFull { capacity: 4 }.to_string().contains("capacity 4"));
        assert!(RejectReason::TenantCap { cap: 2 }.to_string().contains("cap (2)"));
    }

    #[test]
    fn payloads_count_their_problems() {
        assert_eq!(JobPayload::Single(Matrix::zeros(2, 2)).problems(), 1);
        assert_eq!(JobPayload::Bulk(vec![Matrix::zeros(2, 2); 5]).problems(), 5);
        assert_eq!(JobPayload::Bulk(Vec::new()).problems(), 0);
        assert!(matches!(JobSpec::new(Matrix::zeros(2, 2)).payload, JobPayload::Single(_)));
        assert!(matches!(JobSpec::bulk(vec![Matrix::zeros(2, 2)]).payload, JobPayload::Bulk(_)));
    }

    #[test]
    fn spec_builder_sets_every_field() {
        let spec = JobSpec::new(Matrix::zeros(2, 2))
            .ordering(Ordering::RowCyclic)
            .priority(Priority::Batch)
            .deadline_in(Duration::from_secs(1))
            .tenant("acme");
        assert_eq!(spec.ordering, Ordering::RowCyclic);
        assert_eq!(spec.priority, Priority::Batch);
        assert!(spec.deadline.is_some());
        assert_eq!(spec.tenant, "acme");
    }
}
