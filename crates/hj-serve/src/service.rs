//! The solve service: a fixed worker pool over the scheduler, with per-job
//! solve budgets and a graceful drain-on-shutdown lifecycle. A job completes
//! on its first outcome: the solve is deterministic, so running it again
//! could only repeat its fault.

use crate::job::{JobOutcome, JobPayload, JobResult, JobSpec, JobTicket, RejectReason};
use crate::queue::{QueuedJob, Scheduler};
use crate::stats::ServiceStats;
use hj_core::{HestenesSvd, SolveBudget, SvdError, SvdOptions, TraceEvent, TraceLevel, TraceSink};
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration. [`ServiceConfig::default`] is a small two-worker
/// pool suitable for tests; size `workers` to the machine for production
/// traffic.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (each keeps one warm SoA batch workspace for bulk
    /// jobs). At least 1.
    pub workers: usize,
    /// Bounded queue capacity — submissions beyond it are rejected, never
    /// blocked. At least 1.
    pub queue_capacity: usize,
    /// Per-tenant in-flight cap (queued + running); 0 disables the cap.
    pub tenant_cap: usize,
    /// Base solver options. The ordering field is overridden per job by
    /// [`JobSpec::ordering`].
    pub options: SvdOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            tenant_cap: 0,
            options: SvdOptions::default(),
        }
    }
}

/// What [`SolveService::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// True when every admitted job reached a terminal state within the
    /// drain deadline (no cancellation was needed).
    pub drained_cleanly: bool,
    /// Queued jobs force-completed with a `cancelled` fault after the
    /// drain deadline passed.
    pub cancelled: usize,
}

/// Shared trace fan-in: worker threads and the submit path all emit
/// service-lifecycle events through one mutexed sink.
struct SharedSink {
    sink: Mutex<Box<dyn TraceSink + Send>>,
    level: TraceLevel,
}

struct Shared {
    scheduler: Scheduler,
    config: ServiceConfig,
    trace: Option<SharedSink>,
}

impl Shared {
    fn emit(&self, event: TraceEvent) {
        if let Some(t) = &self.trace {
            if t.level >= event.level() {
                t.sink.lock().expect("trace sink lock").record(&event);
            }
        }
    }
}

/// A running multi-tenant solve service.
///
/// ```
/// use hj_serve::{JobSpec, ServiceConfig, SolveService};
/// use hj_matrix::gen;
/// use std::time::Duration;
///
/// let service = SolveService::start(ServiceConfig::default());
/// let ticket = service.submit(JobSpec::new(gen::uniform(20, 5, 1))).unwrap();
/// let outcome = ticket.wait();
/// assert_eq!(outcome.result.into_single().unwrap().values.len(), 5);
/// let report = service.shutdown(Duration::from_secs(5));
/// assert!(report.drained_cleanly);
/// ```
pub struct SolveService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl SolveService {
    /// Start the worker pool with no trace sink attached.
    pub fn start(config: ServiceConfig) -> SolveService {
        SolveService::start_inner(config, None)
    }

    /// Start with service-lifecycle events streamed into `sink` (admission,
    /// rejection, dispatch, completion, fault — the `job_*` event family).
    pub fn start_traced(config: ServiceConfig, sink: Box<dyn TraceSink + Send>) -> SolveService {
        SolveService::start_inner(
            config,
            Some(SharedSink { sink: Mutex::new(sink), level: TraceLevel::Sweep }),
        )
    }

    fn start_inner(mut config: ServiceConfig, trace: Option<SharedSink>) -> SolveService {
        config.workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(config.queue_capacity, config.tenant_cap),
            config: config.clone(),
            trace,
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hj-serve-worker-{index}"))
                    .spawn(move || worker_loop(index, &shared))
                    .expect("spawn worker thread")
            })
            .collect();
        SolveService { shared, workers: Mutex::new(workers) }
    }

    /// Submit a job through admission control. `Ok` hands back a
    /// [`JobTicket`] to wait on; `Err` is an immediate structured
    /// rejection.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, RejectReason> {
        let (result, event) = self.shared.scheduler.submit(spec);
        self.shared.emit(event);
        result
    }

    /// Submit and block until the outcome arrives.
    pub fn solve(&self, spec: JobSpec) -> Result<JobOutcome, RejectReason> {
        self.submit(spec).map(JobTicket::wait)
    }

    /// Jobs queued (admitted, not yet dispatched) right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.scheduler.depth()
    }

    /// Point-in-time counters and latency histograms.
    pub fn stats(&self) -> ServiceStats {
        self.shared.scheduler.stats(self.shared.config.workers)
    }

    /// Graceful shutdown: stop admitting, let the workers finish every
    /// admitted job, and join the pool.
    ///
    /// If the queue has not fully drained within `drain`, every still-queued
    /// job is force-completed with a `cancelled` fault, running jobs get
    /// their cancellation flags raised (they abort at the next sweep
    /// boundary), and the workers are then joined — so shutdown is bounded
    /// even with wedged traffic. Idempotent: a second call returns
    /// immediately.
    pub fn shutdown(&self, drain: Duration) -> DrainReport {
        self.shared.scheduler.close();
        let drained_cleanly = self.shared.scheduler.wait_idle(drain);
        let mut cancelled = 0;
        if !drained_cleanly {
            cancelled = self.shared.scheduler.cancel_pending();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker handles lock"));
        for h in handles {
            let _ = h.join();
        }
        DrainReport { drained_cleanly, cancelled }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        // Last-resort cleanup for services dropped without an explicit
        // shutdown; gives in-flight work a short bounded drain.
        self.shutdown(Duration::from_secs(1));
    }
}

/// One worker: pull-solve-report until the scheduler signals shutdown.
/// Single jobs are one-shot solves, which plan with one allocation and
/// sweep with none. Bulk jobs share a worker-local SoA batch workspace that
/// stays warm for the worker's lifetime, so steady bulk traffic of one
/// shape never regrows it.
fn worker_loop(index: usize, shared: &Shared) {
    let mut batch_ws = hj_core::BatchWorkspace::new();
    while let Some(job) = shared.scheduler.next_job() {
        shared.emit(TraceEvent::JobDispatched { job: job.id, worker: index });
        let started = Instant::now();
        match &job.spec.payload {
            JobPayload::Single(_) => {
                let result = run_job(shared, &job);
                let seconds = started.elapsed().as_secs_f64();
                shared.emit(match &result {
                    Ok(values) => TraceEvent::JobCompleted {
                        job: job.id,
                        worker: index,
                        seconds,
                        sweeps: values.sweeps,
                    },
                    Err(err) => TraceEvent::JobFaulted {
                        job: job.id,
                        worker: index,
                        fault: fault_kind(err),
                    },
                });
                shared.scheduler.complete(job, JobResult::Single(result));
            }
            JobPayload::Bulk(_) => {
                let results = run_bulk(shared, &job, &mut batch_ws);
                let seconds = started.elapsed().as_secs_f64();
                let sweeps = results.iter().filter_map(|r| r.as_ref().ok().map(|v| v.sweeps)).max();
                match sweeps {
                    Some(sweeps) => shared.emit(TraceEvent::JobCompleted {
                        job: job.id,
                        worker: index,
                        seconds,
                        sweeps,
                    }),
                    None => {
                        if let Some(err) = results.iter().find_map(|r| r.as_ref().err()) {
                            shared.emit(TraceEvent::JobFaulted {
                                job: job.id,
                                worker: index,
                                fault: fault_kind(err),
                            });
                        }
                    }
                }
                shared.scheduler.complete(job, JobResult::Bulk(results));
            }
        }
    }
}

/// Solve one dispatched job. The job's deadline and cancellation flag
/// become the solve's [`SolveBudget`], checked at every sweep boundary — an
/// already-expired deadline faults before any sweep runs.
fn run_job(shared: &Shared, job: &QueuedJob) -> Result<hj_core::SingularValues, SvdError> {
    let JobPayload::Single(matrix) = &job.spec.payload else {
        unreachable!("run_job only dispatches single payloads");
    };
    solver_for(shared, job).singular_values(matrix)
}

/// Solve one dispatched bulk job on the worker's batch workspace. Uniform
/// small batches ride the SoA batch engine; anything else takes the looped
/// path. The job-level deadline/cancellation budget covers the whole batch:
/// on expiry every still-unsolved slot faults, already-converged slots keep
/// their results.
fn run_bulk(
    shared: &Shared,
    job: &QueuedJob,
    ws: &mut hj_core::BatchWorkspace,
) -> Vec<Result<hj_core::SingularValues, SvdError>> {
    let JobPayload::Bulk(matrices) = &job.spec.payload else {
        unreachable!("run_bulk only dispatches bulk payloads");
    };
    solver_for(shared, job).singular_values_batch_with_workspace(matrices, ws)
}

/// The configured solver for a dispatched job: base options with the job's
/// ordering override and its deadline + cancellation flag as the solve
/// budget.
fn solver_for(shared: &Shared, job: &QueuedJob) -> HestenesSvd {
    let mut options = shared.config.options;
    options.ordering = job.spec.ordering;
    let mut budget = match job.spec.deadline {
        Some(deadline) => SolveBudget::with_deadline(deadline),
        None => SolveBudget::unlimited(),
    };
    budget = budget.cancelled_by(Arc::clone(&job.cancel));
    HestenesSvd::new(options).with_budget(budget)
}

/// Stable fault-class string for an error's trace event.
fn fault_kind(err: &SvdError) -> &'static str {
    match err {
        SvdError::SolveFault { fault, .. } => fault.kind(),
        SvdError::EmptyInput => "empty-input",
        SvdError::NotSquare { .. } => "not-square",
        SvdError::NonFiniteInput => "non-finite-input",
        SvdError::ZeroSweepBudget => "zero-sweep-budget",
        SvdError::TruncatedTailNotNegligible => "truncated-tail",
    }
}

/// Convenience for tests: has the ticket's cancel flag been raised?
pub(crate) fn _cancel_raised(ticket: &JobTicket) -> bool {
    ticket.cancel.load(AtomicOrdering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use hj_core::recovery::Fault;
    use hj_matrix::gen;

    #[test]
    fn service_solves_and_matches_direct_call() {
        let service = SolveService::start(ServiceConfig::default());
        let a = gen::uniform(30, 8, 42);
        let direct = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap();
        let outcome = service.solve(JobSpec::new(a)).unwrap();
        let served = outcome.result.into_single().unwrap();
        for (x, y) in served.values.iter().zip(direct.values.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "service result must be bit-identical");
        }
        let report = service.shutdown(Duration::from_secs(5));
        assert!(report.drained_cleanly);
        assert_eq!(report.cancelled, 0);
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.faulted, 0);
    }

    #[test]
    fn expired_deadline_faults_without_running_a_sweep() {
        let service = SolveService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let spec = JobSpec::new(gen::uniform(40, 12, 7))
            .deadline(Instant::now() - Duration::from_millis(5))
            .priority(Priority::Interactive);
        let outcome = service.solve(spec).unwrap();
        match outcome.result.into_single() {
            Err(SvdError::SolveFault { fault: Fault::DeadlineExceeded { .. }, .. }) => {}
            other => panic!("expected deadline fault, got {other:?}"),
        }
        // The worker survives the fault and serves the next job normally.
        let ok = service.solve(JobSpec::new(gen::uniform(20, 5, 8))).unwrap();
        assert!(ok.result.is_ok());
        service.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn input_errors_are_not_retried() {
        let service = SolveService::start(ServiceConfig::default());
        let outcome = service.solve(JobSpec::new(hj_matrix::Matrix::zeros(0, 3))).unwrap();
        assert!(matches!(outcome.result.into_single(), Err(SvdError::EmptyInput)));
        service.shutdown(Duration::from_secs(2));
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.completed, stats.faulted), (1, 0, 1));
    }

    #[test]
    fn cancellation_via_ticket_aborts_the_job() {
        // One worker pinned by a first job keeps the second queued long
        // enough to cancel it deterministically.
        let service = SolveService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let blocker = service.submit(JobSpec::new(gen::uniform(120, 60, 1))).unwrap();
        let victim = service.submit(JobSpec::new(gen::uniform(60, 30, 2))).unwrap();
        victim.cancel();
        assert!(super::_cancel_raised(&victim));
        let outcome = victim.wait();
        match outcome.result.into_single() {
            Err(SvdError::SolveFault { fault: Fault::Cancelled { .. }, .. }) => {}
            other => panic!("expected cancelled fault, got {other:?}"),
        }
        assert!(blocker.wait().result.is_ok());
        service.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn bulk_jobs_solve_every_slot_with_isolation() {
        let service = SolveService::start(ServiceConfig::default());
        let mut mats: Vec<_> = (0..8).map(|k| gen::uniform(20, 8, 60 + k)).collect();
        let mut poisoned = hj_matrix::Matrix::zeros(20, 8);
        poisoned.set(1, 1, f64::NAN);
        mats[3] = poisoned;
        let direct = HestenesSvd::new(SvdOptions::default()).singular_values_batch(&mats);
        let outcome = service.solve(JobSpec::bulk(mats.clone())).unwrap();
        let slots = outcome.result.into_bulk();
        assert_eq!(slots.len(), mats.len());
        assert!(matches!(slots[3], Err(SvdError::NonFiniteInput)));
        for (k, (served, local)) in slots.iter().zip(&direct).enumerate() {
            if k == 3 {
                continue;
            }
            let served = served.as_ref().unwrap();
            let local = local.as_ref().unwrap();
            assert_eq!(served.values.len(), local.values.len(), "slot {k}");
            for (x, y) in served.values.iter().zip(&local.values) {
                assert_eq!(x.to_bits(), y.to_bits(), "slot {k} must match the local batch path");
            }
        }
        // One queue entry, one completion — but the whole batch is counted
        // faulted because a slot failed.
        let stats = service.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.faulted, 1);
        service.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn shutdown_is_idempotent_and_bounded() {
        let service = SolveService::start(ServiceConfig::default());
        let r1 = service.shutdown(Duration::from_secs(1));
        assert!(r1.drained_cleanly);
        let r2 = service.shutdown(Duration::from_secs(1));
        assert!(r2.drained_cleanly, "second shutdown is a no-op");
        assert!(matches!(
            service.submit(JobSpec::new(gen::uniform(4, 2, 1))),
            Err(RejectReason::Draining)
        ));
    }
}
