//! Integration tests for the `hj-serve` subsystem through the public
//! `hjsvd` facade: admission-control stress, lifecycle guarantees, trace
//! event flow, and end-to-end TCP bit-identity against direct solver calls.

use hjsvd::core::{HestenesSvd, SvdError, SvdOptions, TraceEvent, TraceSink};
use hjsvd::matrix::gen;
use hjsvd::serve::protocol::{Frame, NO_DEADLINE};
use hjsvd::serve::{
    Client, ClientError, JobSpec, Priority, RejectReason, Server, ServiceConfig, SolveService,
    SubmitOptions, CODE_BAD_REQUEST, CODE_DEADLINE,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Many producer threads hammer a small queue: every submission either
/// yields a ticket that reaches exactly one terminal outcome, or a
/// structured rejection — and the stats counters reconcile exactly with
/// what the producers observed. Nothing blocks, nothing is lost, nothing
/// runs twice.
#[test]
fn stress_small_queue_loses_nothing_and_counts_rejects_exactly() {
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 24;

    let service = Arc::new(SolveService::start(ServiceConfig {
        workers: 3,
        queue_capacity: 4,
        ..ServiceConfig::default()
    }));

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            let mut rejects = 0u64;
            for k in 0..PER_PRODUCER {
                let seed = (p * PER_PRODUCER + k) as u64 + 1;
                let spec = JobSpec::new(gen::uniform(16, 6, seed));
                match service.submit(spec) {
                    // Wait inline so producers also act as consumers; the
                    // queue stays contended but every ticket is drained.
                    Ok(ticket) => outcomes.push(ticket.wait()),
                    Err(RejectReason::QueueFull { capacity }) => {
                        assert_eq!(capacity, 4);
                        rejects += 1;
                    }
                    Err(other) => panic!("unexpected rejection {other:?}"),
                }
            }
            (outcomes, rejects)
        }));
    }

    let mut all_jobs = Vec::new();
    let mut total_rejects = 0u64;
    for h in handles {
        let (outcomes, rejects) = h.join().expect("producer thread");
        total_rejects += rejects;
        for outcome in outcomes {
            assert!(outcome.result.is_ok(), "job {} faulted: {:?}", outcome.job, outcome.result);
            all_jobs.push(outcome.job);
        }
    }

    // Exactly-once execution: every admitted job produced one outcome and
    // job ids never repeat.
    let admitted = all_jobs.len() as u64;
    all_jobs.sort_unstable();
    all_jobs.dedup();
    assert_eq!(all_jobs.len() as u64, admitted, "a job id completed twice");
    assert_eq!(admitted + total_rejects, (PRODUCERS * PER_PRODUCER) as u64);

    let report = service.shutdown(Duration::from_secs(10));
    assert!(report.drained_cleanly);
    let stats = service.stats();
    assert_eq!(stats.admitted, admitted);
    assert_eq!(stats.completed, admitted);
    assert_eq!(stats.faulted, 0);
    assert_eq!(stats.rejected_queue_full, total_rejects);
    assert_eq!(stats.rejected_tenant_cap, 0);
    assert_eq!(stats.rejected_draining, 0);
    assert_eq!(stats.cancelled_at_drain, 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.running, 0);
    // Latency histograms saw every completion, attributed to its class.
    assert_eq!(stats.latency[Priority::Interactive.index()].count(), admitted);
}

/// Drain-on-shutdown completes every admitted job: tickets submitted but
/// never waited on before `shutdown` still resolve afterwards, with the
/// full spectrum, and the drain reports clean.
#[test]
fn shutdown_drains_every_admitted_job() {
    let service = SolveService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> = (0..12)
        .map(|k| {
            service.submit(JobSpec::new(gen::uniform(20, 7, 100 + k))).expect("queue has room")
        })
        .collect();

    let report = service.shutdown(Duration::from_secs(10));
    assert!(report.drained_cleanly, "drain left work behind");
    assert_eq!(report.cancelled, 0);

    for ticket in tickets {
        let outcome = ticket.wait();
        let values = outcome.result.into_single().expect("drained job completed").values;
        assert_eq!(values.len(), 7);
    }
    let stats = service.stats();
    assert_eq!(stats.admitted, 12);
    assert_eq!(stats.completed, 12);
}

/// A drain deadline too short for the backlog force-cancels what is still
/// queued — but every ticket still resolves (with a `cancelled` fault), so
/// shutdown is bounded even with wedged traffic.
#[test]
fn shutdown_past_drain_deadline_cancels_but_never_hangs() {
    let service = SolveService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    // One worker, a deep backlog of real solves: a zero drain deadline
    // cannot complete them all.
    let tickets: Vec<_> = (0..16)
        .map(|k| {
            service.submit(JobSpec::new(gen::uniform(64, 32, 200 + k))).expect("queue has room")
        })
        .collect();

    let report = service.shutdown(Duration::ZERO);
    let stats = service.stats();
    assert_eq!(
        report.cancelled as u64, stats.cancelled_at_drain,
        "drain report and stats disagree"
    );
    let mut completed = 0u64;
    let mut cancelled = 0u64;
    for ticket in tickets {
        match ticket.wait().result.into_single() {
            Ok(_) => completed += 1,
            Err(SvdError::SolveFault { fault, .. }) => {
                assert_eq!(fault.kind(), "cancelled");
                cancelled += 1;
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert_eq!(completed + cancelled, 16, "a ticket was lost");
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.cancelled_at_drain + stats.faulted, cancelled);
}

/// A shared vector sink for asserting on the service's `job_*` event flow.
#[derive(Clone, Default)]
struct VecSink(Arc<Mutex<Vec<TraceEvent>>>);

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

/// The service narrates its lifecycle through the `job_*` trace events:
/// admission, dispatch, completion, faults, and structured rejections all
/// stream into the attached sink with consistent job ids.
#[test]
fn traced_service_emits_job_lifecycle_events() {
    let sink = VecSink::default();
    let events = Arc::clone(&sink.0);
    let service = SolveService::start_traced(
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
        Box::new(sink),
    );

    let ok = service.solve(JobSpec::new(gen::uniform(18, 6, 5))).unwrap();
    assert!(ok.result.is_ok());

    let late = service
        .solve(
            JobSpec::new(gen::uniform(18, 6, 6)).deadline(Instant::now() - Duration::from_secs(1)),
        )
        .unwrap();
    assert!(!late.result.is_ok());

    service.shutdown(Duration::from_secs(5));
    // Post-drain submissions are rejected — and the rejection is traced.
    assert!(service.submit(JobSpec::new(gen::uniform(4, 2, 1))).is_err());

    let events = events.lock().unwrap();
    let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
    let count = |n: &str| names.iter().filter(|x| **x == n).count();
    assert_eq!(count("job_admitted"), 2, "events: {names:?}");
    assert_eq!(count("job_dispatched"), 2, "events: {names:?}");
    assert_eq!(count("job_completed"), 1, "events: {names:?}");
    assert_eq!(count("job_faulted"), 1, "events: {names:?}");
    assert_eq!(count("job_rejected"), 1, "events: {names:?}");

    // The completed event belongs to the job that succeeded; the faulted
    // one carries the deadline fault class.
    for event in events.iter() {
        match event {
            TraceEvent::JobCompleted { job, .. } => assert_eq!(*job, ok.job),
            TraceEvent::JobFaulted { job, fault, .. } => {
                assert_eq!(*job, late.job);
                assert_eq!(*fault, "deadline");
            }
            TraceEvent::JobRejected { reason, .. } => assert_eq!(*reason, "draining"),
            _ => {}
        }
    }
}

/// Per-tenant in-flight caps reject the over-quota tenant with a
/// structured reason while other tenants keep flowing.
#[test]
fn tenant_caps_isolate_noisy_neighbours() {
    let service = SolveService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        tenant_cap: 2,
        ..ServiceConfig::default()
    });
    // Pin the single worker so queued jobs stay in flight. The blocker has
    // to out-solve the next three submit calls by a wide margin — a
    // 384 x 192 problem runs tens of milliseconds even on a fast build,
    // while the submits land in microseconds.
    let blocker = service.submit(JobSpec::new(gen::uniform(384, 192, 1)).tenant("noisy")).unwrap();
    let second = service.submit(JobSpec::new(gen::uniform(12, 4, 2)).tenant("noisy")).unwrap();
    match service.submit(JobSpec::new(gen::uniform(12, 4, 3)).tenant("noisy")) {
        Err(RejectReason::TenantCap { cap }) => assert_eq!(cap, 2),
        other => panic!("expected tenant-cap rejection, got {other:?}"),
    }
    // A different tenant is unaffected by the noisy one's cap.
    let quiet = service.submit(JobSpec::new(gen::uniform(12, 4, 4)).tenant("quiet")).unwrap();
    for t in [blocker, second, quiet] {
        assert!(t.wait().result.is_ok());
    }
    let stats = service.stats();
    assert_eq!(stats.rejected_tenant_cap, 1);
    service.shutdown(Duration::from_secs(5));
}

/// Spawn a server on an ephemeral port and run it on a background thread.
fn spawn_server(config: ServiceConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle)
}

/// The acceptance criterion for the wire front-end: for a fixed seed
/// corpus, singular values obtained via the TCP protocol are bitwise equal
/// to direct `HestenesSvd::singular_values` results on the one sweep
/// engine. The submit frames' engine byte is reserved: 1 and 2 (the retired
/// parallel and blocked engines' bytes) get the structured `bad-engine`
/// error, and the same connection then solves with engine byte 0.
#[test]
fn tcp_spectra_are_bit_identical_to_direct_solves_on_all_engines() {
    let corpus: &[(usize, usize, u64)] = &[(24, 8, 11), (30, 10, 22), (17, 5, 33), (40, 40, 44)];

    let (addr, handle) = spawn_server(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    let mut request = |frame: Frame| {
        frame.write_to(&mut raw).expect("write frame");
        Frame::read_from(&mut raw).expect("read reply")
    };
    let submit = |engine: u8, a: &hjsvd::matrix::Matrix| Frame::Submit {
        priority: 0,
        engine,
        ordering: 0,
        deadline_ms: NO_DEADLINE,
        tenant: String::new(),
        matrix: a.clone(),
    };

    for &(m, n, seed) in corpus {
        let a = gen::uniform(m, n, seed);
        for engine in [1u8, 2] {
            match request(submit(engine, &a)) {
                Frame::Error { code, kind, .. } => {
                    assert_eq!((code, kind.as_str()), (CODE_BAD_REQUEST, "bad-engine"));
                }
                other => panic!("engine byte {engine} must be rejected, got {other:?}"),
            }
        }
        let direct =
            HestenesSvd::new(SvdOptions::default()).singular_values(&a).expect("direct solve");
        let Frame::Result { sweeps, values, .. } = request(submit(0, &a)) else {
            panic!("engine byte 0 must solve {m}x{n}/{seed}");
        };
        assert_eq!(sweeps as usize, direct.sweeps, "{m}x{n}/{seed}");
        assert_eq!(values.len(), direct.values.len());
        for (i, (r, d)) in values.iter().zip(direct.values.iter()).enumerate() {
            assert_eq!(r.to_bits(), d.to_bits(), "σ[{i}] differs over the wire for {m}x{n}/{seed}");
        }
    }
    // The bulk frame's engine byte is reserved the same way.
    let bulk = Frame::SubmitBatch {
        priority: 1,
        engine: 2,
        ordering: 0,
        deadline_ms: NO_DEADLINE,
        tenant: String::new(),
        matrices: vec![gen::uniform(8, 4, 1), gen::uniform(8, 4, 2)],
    };
    match request(bulk) {
        Frame::Error { code, kind, .. } => {
            assert_eq!((code, kind.as_str()), (CODE_BAD_REQUEST, "bad-engine"));
        }
        other => panic!("bulk engine byte 2 must be rejected, got {other:?}"),
    }

    let mut client = Client::connect(addr).expect("connect");
    let stats_json = client.stats_json().expect("stats frame");
    assert!(stats_json.contains("\"schema\":\"hjsvd-serve-stats/v1\""));
    let final_json = client.shutdown(Duration::from_secs(5)).expect("shutdown frame");
    assert!(final_json.contains("\"completed\":4"), "{final_json}");
    handle.join().expect("server thread");
}

/// An already-expired relative deadline crosses the wire as a structured
/// error frame with the deadline code — and the server keeps serving: the
/// same connection then completes a normal solve.
#[test]
fn tcp_expired_deadline_is_a_structured_error_not_a_hang() {
    let (addr, handle) = spawn_server(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let mut client = Client::connect(addr).expect("connect");

    let a = gen::uniform(28, 9, 77);
    let err = client
        .submit(&a, SubmitOptions { deadline_ms: Some(0), ..SubmitOptions::default() })
        .expect_err("deadline 0 must fault");
    match err {
        ClientError::Remote { code, kind, .. } => {
            assert_eq!(code, CODE_DEADLINE);
            assert_eq!(kind, "deadline");
        }
        other => panic!("expected remote deadline error, got {other}"),
    }

    // The worker's workspace came back clean: the very next solve succeeds
    // and matches a direct call bitwise.
    let direct = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap();
    let remote = client.submit(&a, SubmitOptions::default()).expect("follow-up solve");
    for (r, d) in remote.values.iter().zip(direct.values.iter()) {
        assert_eq!(r.to_bits(), d.to_bits());
    }

    client.shutdown(Duration::from_secs(5)).expect("shutdown");
    handle.join().expect("server thread");
}
