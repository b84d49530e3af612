//! The bounded admission queue and deadline-aware scheduler.
//!
//! One mutex guards the whole scheduling state (queue, in-flight registry,
//! counters); two condvars signal it — `work` wakes workers when a job
//! becomes runnable, `idle` wakes the drain waiter when the last job
//! finishes. Dispatch order is strict priority between classes and
//! earliest-deadline-first within a class (deadline-free jobs sort last,
//! FIFO by admission sequence). A dispatched job leaves the queue for good:
//! its first outcome is terminal.
//!
//! Admission control never blocks: a full queue, a tenant at its cap, or a
//! draining service answers with a structured [`RejectReason`] immediately.

use crate::job::{
    CompletionSlot, JobOutcome, JobPayload, JobResult, JobSpec, JobTicket, RejectReason,
    PRIORITY_CLASSES,
};
use crate::stats::{LatencyHistogram, ServiceStats};
use hj_core::recovery::Fault;
use hj_core::{SvdError, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One admitted job sitting in the queue (or being carried by a worker).
pub(crate) struct QueuedJob {
    /// Service-assigned id.
    pub id: u64,
    /// The submission.
    pub spec: JobSpec,
    /// Where the terminal outcome goes.
    pub slot: CompletionSlot,
    /// Cooperative cancellation flag shared with the [`JobTicket`].
    pub cancel: Arc<AtomicBool>,
    /// Admission sequence (EDF tiebreak — FIFO within equal deadlines).
    pub seq: u64,
    /// Admission timestamp (latency accounting).
    pub submitted: Instant,
}

impl QueuedJob {
    /// EDF sort key: priority class first, then deadline (`None` greatest),
    /// then admission order.
    fn key(&self) -> (usize, Option<Instant>, u64) {
        (self.spec.priority.index(), self.spec.deadline, self.seq)
    }
}

/// Compare EDF keys with `None` deadlines sorting **after** every concrete
/// deadline (a job with no deadline is never more urgent than one with
/// one).
fn key_less(a: &(usize, Option<Instant>, u64), b: &(usize, Option<Instant>, u64)) -> bool {
    if a.0 != b.0 {
        return a.0 < b.0;
    }
    match (a.1, b.1) {
        (Some(x), Some(y)) if x != y => x < y,
        (Some(_), None) => true,
        (None, Some(_)) => false,
        _ => a.2 < b.2,
    }
}

struct State {
    queue: Vec<QueuedJob>,
    admitting: bool,
    running: usize,
    /// Cancellation flags of jobs currently on workers, for drain-time
    /// cancellation.
    running_cancels: HashMap<u64, Arc<AtomicBool>>,
    /// Queued + running jobs per tenant (the in-flight cap's measure).
    tenants: HashMap<String, usize>,
    next_id: u64,
    next_seq: u64,
    admitted: u64,
    rejected_queue_full: u64,
    rejected_tenant_cap: u64,
    rejected_draining: u64,
    completed: u64,
    faulted: u64,
    cancelled_at_drain: u64,
    latency: [LatencyHistogram; PRIORITY_CLASSES],
}

impl State {
    fn terminal(&mut self, tenant: &str) {
        if let Some(n) = self.tenants.get_mut(tenant) {
            *n -= 1;
            if *n == 0 {
                self.tenants.remove(tenant);
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.running == 0
    }
}

/// The scheduler: shared between the service handle and its workers.
pub(crate) struct Scheduler {
    capacity: usize,
    /// Per-tenant in-flight cap; 0 = unlimited.
    tenant_cap: usize,
    state: Mutex<State>,
    work: Condvar,
    idle: Condvar,
}

impl Scheduler {
    pub fn new(capacity: usize, tenant_cap: usize) -> Scheduler {
        Scheduler {
            capacity: capacity.max(1),
            tenant_cap,
            state: Mutex::new(State {
                queue: Vec::with_capacity(capacity.max(1)),
                admitting: true,
                running: 0,
                running_cancels: HashMap::new(),
                tenants: HashMap::new(),
                next_id: 1,
                next_seq: 0,
                admitted: 0,
                rejected_queue_full: 0,
                rejected_tenant_cap: 0,
                rejected_draining: 0,
                completed: 0,
                faulted: 0,
                cancelled_at_drain: 0,
                latency: [LatencyHistogram::new(); PRIORITY_CLASSES],
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// Admission control. Returns the ticket (or structured reject) plus
    /// the trace event describing the decision, for the caller to emit
    /// outside the scheduler lock.
    pub fn submit(&self, spec: JobSpec) -> (Result<JobTicket, RejectReason>, TraceEvent) {
        let mut st = self.state.lock().expect("scheduler lock");
        if !st.admitting {
            st.rejected_draining += 1;
            let depth = st.queue.len();
            return (
                Err(RejectReason::Draining),
                TraceEvent::JobRejected { reason: "draining", queue_depth: depth },
            );
        }
        if st.queue.len() >= self.capacity {
            st.rejected_queue_full += 1;
            let depth = st.queue.len();
            return (
                Err(RejectReason::QueueFull { capacity: self.capacity }),
                TraceEvent::JobRejected { reason: "queue-full", queue_depth: depth },
            );
        }
        if self.tenant_cap > 0 {
            let in_flight = st.tenants.get(&spec.tenant).copied().unwrap_or(0);
            if in_flight >= self.tenant_cap {
                st.rejected_tenant_cap += 1;
                let depth = st.queue.len();
                return (
                    Err(RejectReason::TenantCap { cap: self.tenant_cap }),
                    TraceEvent::JobRejected { reason: "tenant-cap", queue_depth: depth },
                );
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        *st.tenants.entry(spec.tenant.clone()).or_insert(0) += 1;
        st.admitted += 1;
        let class = spec.priority.name();
        let slot: CompletionSlot = Arc::new((Mutex::new(None), Condvar::new()));
        let cancel = Arc::new(AtomicBool::new(false));
        st.queue.push(QueuedJob {
            id,
            spec,
            slot: Arc::clone(&slot),
            cancel: Arc::clone(&cancel),
            seq,
            submitted: Instant::now(),
        });
        let depth = st.queue.len();
        drop(st);
        self.work.notify_one();
        (
            Ok(JobTicket { id, slot, cancel }),
            TraceEvent::JobAdmitted { job: id, class, queue_depth: depth },
        )
    }

    /// Block until a job is queued and claim the most urgent one, or return
    /// `None` when the service has shut down and no work can ever arrive
    /// again (the worker-exit signal).
    pub fn next_job(&self) -> Option<QueuedJob> {
        let mut st = self.state.lock().expect("scheduler lock");
        loop {
            let mut best: Option<usize> = None;
            for (i, job) in st.queue.iter().enumerate() {
                match best {
                    None => best = Some(i),
                    Some(b) if key_less(&job.key(), &st.queue[b].key()) => best = Some(i),
                    _ => {}
                }
            }
            if let Some(i) = best {
                let job = st.queue.swap_remove(i);
                st.running += 1;
                st.running_cancels.insert(job.id, Arc::clone(&job.cancel));
                return Some(job);
            }
            // The queue is empty. The workers exit together, once the
            // service has stopped admitting and no job is still running.
            if st.is_idle() && !st.admitting {
                return None;
            }
            st = self.work.wait(st).expect("scheduler wait");
        }
    }

    /// Report a terminal outcome for a dispatched job: updates counters and
    /// latency, releases the tenant slot, fills the completion slot, and
    /// wakes anyone waiting for idle. A bulk job counts as completed only
    /// when every slot solved; any failed slot marks the whole job faulted
    /// in the counters (the per-slot results still carry the detail).
    pub fn complete(&self, job: QueuedJob, result: JobResult) {
        let wall = job.submitted.elapsed().as_secs_f64();
        let success = result.is_ok();
        {
            let mut st = self.state.lock().expect("scheduler lock");
            st.running -= 1;
            st.running_cancels.remove(&job.id);
            st.terminal(&job.spec.tenant);
            if success {
                st.completed += 1;
            } else {
                st.faulted += 1;
            }
            st.latency[job.spec.priority.index()].record(wall);
            if st.is_idle() {
                self.idle.notify_all();
            }
        }
        // Peers blocked on an empty queue re-evaluate their exit condition.
        self.work.notify_all();
        fill_slot(&job.slot, JobOutcome { job: job.id, result, wall_seconds: wall });
    }

    /// Stop admitting new jobs. Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("scheduler lock").admitting = false;
        self.work.notify_all();
    }

    /// Wait until every admitted job has reached a terminal state, up to
    /// `deadline`. Returns true on full drain.
    pub fn wait_idle(&self, deadline: Duration) -> bool {
        let until = Instant::now() + deadline;
        let mut st = self.state.lock().expect("scheduler lock");
        while !st.is_idle() {
            let now = Instant::now();
            if now >= until {
                return false;
            }
            st = self.idle.wait_timeout(st, until - now).expect("scheduler wait").0;
        }
        true
    }

    /// Drain-deadline overrun path: cancel every queued job (each completes
    /// with a `cancelled` fault without running) and raise the cancel flag
    /// of every running job so it aborts at its next sweep boundary.
    /// Returns the number of queued jobs cancelled.
    pub fn cancel_pending(&self) -> usize {
        let drained: Vec<QueuedJob>;
        {
            let mut st = self.state.lock().expect("scheduler lock");
            drained = std::mem::take(&mut st.queue);
            for job in &drained {
                st.terminal(&job.spec.tenant);
                st.cancelled_at_drain += 1;
            }
            for flag in st.running_cancels.values() {
                flag.store(true, Ordering::Relaxed);
            }
            if st.is_idle() {
                self.idle.notify_all();
            }
        }
        self.work.notify_all();
        let n = drained.len();
        for job in drained {
            let wall = job.submitted.elapsed().as_secs_f64();
            let cancelled = || {
                Err(SvdError::SolveFault {
                    fault: Fault::Cancelled { sweep: 0 },
                    sweeps_completed: 0,
                    recoveries: 0,
                })
            };
            // Shape the cancellation like the submission: a bulk job's
            // waiter gets one cancelled status per slot.
            let result = match &job.spec.payload {
                JobPayload::Single(_) => JobResult::Single(cancelled()),
                JobPayload::Bulk(mats) => {
                    JobResult::Bulk((0..mats.len()).map(|_| cancelled()).collect())
                }
            };
            fill_slot(&job.slot, JobOutcome { job: job.id, result, wall_seconds: wall });
        }
        n
    }

    /// Jobs queued (admitted, not dispatched) right now.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("scheduler lock").queue.len()
    }

    /// Snapshot the counters into a [`ServiceStats`].
    pub fn stats(&self, workers: usize) -> ServiceStats {
        let st = self.state.lock().expect("scheduler lock");
        ServiceStats {
            workers,
            queue_capacity: self.capacity,
            queue_depth: st.queue.len(),
            running: st.running,
            admitted: st.admitted,
            rejected_queue_full: st.rejected_queue_full,
            rejected_tenant_cap: st.rejected_tenant_cap,
            rejected_draining: st.rejected_draining,
            completed: st.completed,
            faulted: st.faulted,
            cancelled_at_drain: st.cancelled_at_drain,
            latency: st.latency,
        }
    }
}

fn fill_slot(slot: &CompletionSlot, outcome: JobOutcome) {
    let (lock, cv) = &**slot;
    *lock.lock().expect("completion slot lock") = Some(outcome);
    cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use hj_matrix::Matrix;

    fn spec() -> JobSpec {
        JobSpec::new(Matrix::zeros(2, 2))
    }

    #[test]
    fn edf_orders_priority_then_deadline_then_seq() {
        let now = Instant::now();
        let sched = Scheduler::new(8, 0);
        let far = now + Duration::from_secs(60);
        let near = now + Duration::from_secs(10);
        // Submit out of dispatch order.
        sched.submit(spec().priority(Priority::Batch).deadline(near)).0.unwrap();
        sched.submit(spec().priority(Priority::Interactive)).0.unwrap(); // no deadline
        sched.submit(spec().priority(Priority::Interactive).deadline(far)).0.unwrap();
        sched.submit(spec().priority(Priority::Interactive).deadline(near)).0.unwrap();
        sched.submit(spec().priority(Priority::Batch)).0.unwrap();
        let order: Vec<u64> = (0..5).map(|_| sched.next_job().unwrap().id).collect();
        // Interactive near-deadline, interactive far-deadline, interactive
        // no-deadline, then batch near-deadline, batch no-deadline.
        assert_eq!(order, vec![4, 3, 2, 1, 5]);
    }

    #[test]
    fn admission_rejects_are_structured_and_counted() {
        let sched = Scheduler::new(2, 1);
        let t1 = sched.submit(spec().tenant("a")).0.unwrap();
        assert_eq!(t1.id(), 1);
        // Tenant cap (1) before queue cap (2).
        let (r, ev) = sched.submit(spec().tenant("a"));
        assert_eq!(r.unwrap_err(), RejectReason::TenantCap { cap: 1 });
        assert_eq!(ev.name(), "job_rejected");
        sched.submit(spec().tenant("b")).0.unwrap();
        let (r, _) = sched.submit(spec().tenant("c"));
        assert_eq!(r.unwrap_err(), RejectReason::QueueFull { capacity: 2 });
        sched.close();
        let (r, _) = sched.submit(spec().tenant("d"));
        assert_eq!(r.unwrap_err(), RejectReason::Draining);
        let stats = sched.stats(0);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected_queue_full, 1);
        assert_eq!(stats.rejected_tenant_cap, 1);
        assert_eq!(stats.rejected_draining, 1);
        assert_eq!(stats.rejected(), 3);
    }

    #[test]
    fn tenant_slot_released_on_completion() {
        let sched = Scheduler::new(8, 1);
        sched.submit(spec().tenant("a")).0.unwrap();
        let job = sched.next_job().unwrap();
        // Still in flight: the cap holds.
        assert!(sched.submit(spec().tenant("a")).0.is_err());
        sched.complete(job, JobResult::Single(Err(SvdError::EmptyInput)));
        // Terminal: the slot is free again.
        assert!(sched.submit(spec().tenant("a")).0.is_ok());
    }

    #[test]
    fn cancelled_bulk_jobs_report_every_slot() {
        let sched = Scheduler::new(8, 0);
        let t = sched.submit(JobSpec::bulk(vec![Matrix::zeros(2, 2); 3])).0.unwrap();
        sched.close();
        assert_eq!(sched.cancel_pending(), 1, "a bulk job is one queue entry");
        let slots = t.wait().result.into_bulk();
        assert_eq!(slots.len(), 3);
        for r in slots {
            assert!(matches!(r, Err(SvdError::SolveFault { fault: Fault::Cancelled { .. }, .. })));
        }
    }

    #[test]
    fn cancel_pending_completes_queued_jobs_with_cancelled_fault() {
        let sched = Scheduler::new(8, 0);
        let t = sched.submit(spec()).0.unwrap();
        sched.close();
        assert_eq!(sched.cancel_pending(), 1);
        let outcome = t.wait();
        match outcome.result.into_single() {
            Err(SvdError::SolveFault { fault: Fault::Cancelled { sweep: 0 }, .. }) => {}
            other => panic!("expected cancelled fault, got {other:?}"),
        }
        assert!(sched.wait_idle(Duration::from_millis(100)));
        assert_eq!(sched.stats(0).cancelled_at_drain, 1);
        assert!(sched.next_job().is_none(), "shut-down scheduler releases workers");
    }
}
