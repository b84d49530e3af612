//! The TCP front-end: one accept loop, one handler thread per connection,
//! all feeding the shared [`SolveService`].
//!
//! The server is deliberately framework-free (`std::net` only). Each
//! connection speaks the [`crate::protocol`] frame format; a `Shutdown`
//! frame drains the service, answers with the final stats snapshot, and
//! stops the accept loop. Submissions block their own connection thread
//! while waiting for the solve — concurrency across clients comes from the
//! per-connection threads, and solve throughput from the worker pool behind
//! the queue, exactly like the paper's datapath streaming many independent
//! problems.

use crate::job::{JobSpec, Priority, RejectReason};
use crate::protocol::{BatchItem, Frame, ProtoError, NO_DEADLINE};
use crate::service::{ServiceConfig, SolveService};
use crate::stats::ServiceStats;
use hj_core::{Ordering, SvdError};
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

/// Wire error code for a rejected submission (the CLI exits with it).
pub const CODE_REJECTED: u8 = 10;
/// Wire error code for malformed requests.
pub const CODE_BAD_REQUEST: u8 = 4;
/// Wire error code for a solve fault other than deadline/cancellation.
pub const CODE_SOLVE_FAULT: u8 = 7;
/// Wire error code for a deadline-exceeded fault.
pub const CODE_DEADLINE: u8 = 8;
/// Wire error code for a cancelled job.
pub const CODE_CANCELLED: u8 = 9;

/// A bound server, ready to [`Server::run`].
pub struct Server {
    listener: TcpListener,
    service: Arc<SolveService>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the worker
    /// pool.
    pub fn bind(addr: impl ToSocketAddrs, config: ServiceConfig) -> std::io::Result<Server> {
        Server::with_service(addr, SolveService::start(config))
    }

    /// Bind `addr` over an already-started service (lets callers attach a
    /// trace sink via [`SolveService::start_traced`] first).
    pub fn with_service(
        addr: impl ToSocketAddrs,
        service: SolveService,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, service: Arc::new(service), stop: Arc::new(AtomicBool::new(false)) })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The service behind the front-end (stats, direct submissions).
    pub fn service(&self) -> &SolveService {
        &self.service
    }

    /// Accept and serve connections until a `Shutdown` frame arrives, then
    /// return the final post-drain stats snapshot.
    pub fn run(&self) -> std::io::Result<ServiceStats> {
        let addr = self.local_addr()?;
        for stream in self.listener.incoming() {
            if self.stop.load(AtomicOrdering::Relaxed) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let service = Arc::clone(&self.service);
                    let stop = Arc::clone(&self.stop);
                    std::thread::Builder::new()
                        .name("hj-serve-conn".to_string())
                        .spawn(move || handle_connection(stream, &service, &stop, addr))
                        .expect("spawn connection handler");
                }
                Err(e) => {
                    if self.stop.load(AtomicOrdering::Relaxed) {
                        break;
                    }
                    return Err(e);
                }
            }
        }
        Ok(self.service.stats())
    }
}

/// Serve one connection until it closes or requests shutdown.
fn handle_connection(
    stream: TcpStream,
    service: &SolveService,
    stop: &AtomicBool,
    server_addr: SocketAddr,
) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    loop {
        let frame = match Frame::read_from(&mut reader) {
            Ok(f) => f,
            Err(ProtoError::Closed) => return,
            Err(ProtoError::Io(_)) => return,
            Err(e) => {
                // Protocol violation: answer with a structured error, then
                // close (framing can no longer be trusted). Version skew
                // gets its own kind so older clients (v2 and earlier) see a
                // clean "upgrade" signal instead of a generic parse error.
                let kind = match e {
                    ProtoError::BadVersion(_) => "unsupported-version",
                    _ => "bad-frame",
                };
                let _ = Frame::Error {
                    code: CODE_BAD_REQUEST,
                    kind: kind.to_string(),
                    message: e.to_string(),
                }
                .write_to(&mut writer);
                return;
            }
        };
        let reply = match frame {
            Frame::Submit { priority, engine, ordering, deadline_ms, tenant, matrix } => {
                handle_submit(service, priority, engine, ordering, deadline_ms, tenant, matrix)
            }
            Frame::SubmitBatch { priority, engine, ordering, deadline_ms, tenant, matrices } => {
                handle_submit_batch(
                    service,
                    priority,
                    engine,
                    ordering,
                    deadline_ms,
                    tenant,
                    matrices,
                )
            }
            Frame::StatsRequest => Frame::Stats { json: service.stats().to_json() },
            Frame::Shutdown { drain_ms } => {
                service.shutdown(Duration::from_millis(drain_ms));
                let reply = Frame::Stats { json: service.stats().to_json() };
                let _ = reply.write_to(&mut writer);
                stop.store(true, AtomicOrdering::Relaxed);
                // Unblock the accept loop so `run` can observe the flag.
                let _ = TcpStream::connect(server_addr);
                return;
            }
            // Server-to-client frames arriving at the server are protocol
            // violations.
            Frame::Result { .. }
            | Frame::BatchResult { .. }
            | Frame::Error { .. }
            | Frame::Stats { .. } => Frame::Error {
                code: CODE_BAD_REQUEST,
                kind: "bad-frame".to_string(),
                message: "client sent a server-only frame".to_string(),
            },
        };
        if reply.write_to(&mut writer).is_err() {
            return;
        }
    }
}

/// Decode the shared submit option bytes into a configured spec, or an
/// error frame when a byte is out of range. The engine byte is reserved and
/// must be 0: the one sweep engine needs no selector.
fn decode_spec(
    spec: JobSpec,
    priority: u8,
    engine: u8,
    ordering: u8,
    deadline_ms: u64,
    tenant: String,
) -> Result<JobSpec, Frame> {
    let Some(priority) = Priority::from_index(priority as usize) else {
        return Err(Frame::Error {
            code: CODE_BAD_REQUEST,
            kind: "bad-priority".to_string(),
            message: format!("unknown priority byte {priority}"),
        });
    };
    if engine != 0 {
        return Err(Frame::Error {
            code: CODE_BAD_REQUEST,
            kind: "bad-engine".to_string(),
            message: format!("engine byte {engine} is reserved and must be 0"),
        });
    }
    let Some(ordering) = Ordering::from_index(ordering as usize) else {
        return Err(Frame::Error {
            code: CODE_BAD_REQUEST,
            kind: "bad-ordering".to_string(),
            message: format!("unknown ordering byte {ordering}"),
        });
    };
    let spec = spec.ordering(ordering).priority(priority).tenant(tenant);
    if deadline_ms == NO_DEADLINE {
        return Ok(spec);
    }
    Ok(spec.deadline_in(Duration::from_millis(deadline_ms)))
}

/// Admit, wait, and shape the outcome into a reply frame.
fn handle_submit(
    service: &SolveService,
    priority: u8,
    engine: u8,
    ordering: u8,
    deadline_ms: u64,
    tenant: String,
    matrix: hj_matrix::Matrix,
) -> Frame {
    let spec =
        match decode_spec(JobSpec::new(matrix), priority, engine, ordering, deadline_ms, tenant) {
            Ok(spec) => spec,
            Err(frame) => return frame,
        };
    match service.submit(spec) {
        Err(reason) => reject_frame(reason),
        Ok(ticket) => {
            let outcome = ticket.wait();
            match outcome.result.into_single() {
                Ok(sv) => {
                    Frame::Result { job: outcome.job, sweeps: sv.sweeps as u32, values: sv.values }
                }
                Err(err) => Frame::Error {
                    code: error_code(&err),
                    kind: error_kind(&err).to_string(),
                    message: err.to_string(),
                },
            }
        }
    }
}

/// Admit one bulk job, wait, and shape every slot's outcome into a single
/// [`Frame::BatchResult`]. Whole-batch failures (rejection, bad option
/// bytes, an empty matrix list) come back as one error frame instead.
fn handle_submit_batch(
    service: &SolveService,
    priority: u8,
    engine: u8,
    ordering: u8,
    deadline_ms: u64,
    tenant: String,
    matrices: Vec<hj_matrix::Matrix>,
) -> Frame {
    if matrices.is_empty() {
        return Frame::Error {
            code: CODE_BAD_REQUEST,
            kind: "empty-batch".to_string(),
            message: "a batch submit needs at least one matrix".to_string(),
        };
    }
    let spec =
        match decode_spec(JobSpec::bulk(matrices), priority, engine, ordering, deadline_ms, tenant)
        {
            Ok(spec) => spec,
            Err(frame) => return frame,
        };
    match service.submit(spec) {
        Err(reason) => reject_frame(reason),
        Ok(ticket) => {
            let outcome = ticket.wait();
            let items = outcome
                .result
                .into_bulk()
                .into_iter()
                .map(|slot| match slot {
                    Ok(sv) => BatchItem::Ok { sweeps: sv.sweeps as u32, values: sv.values },
                    Err(err) => BatchItem::Err {
                        code: error_code(&err),
                        kind: error_kind(&err).to_string(),
                        message: err.to_string(),
                    },
                })
                .collect();
            Frame::BatchResult { job: outcome.job, items }
        }
    }
}

fn reject_frame(reason: RejectReason) -> Frame {
    Frame::Error {
        code: CODE_REJECTED,
        kind: reason.name().to_string(),
        message: reason.to_string(),
    }
}

/// Wire error code for a terminal solve error.
pub fn error_code(err: &SvdError) -> u8 {
    match err {
        SvdError::SolveFault { fault, .. } => match fault.kind() {
            "deadline" => CODE_DEADLINE,
            "cancelled" => CODE_CANCELLED,
            _ => CODE_SOLVE_FAULT,
        },
        _ => CODE_BAD_REQUEST,
    }
}

/// Stable error kind string for a terminal solve error.
pub fn error_kind(err: &SvdError) -> &'static str {
    match err {
        SvdError::SolveFault { fault, .. } => fault.kind(),
        SvdError::EmptyInput => "empty-input",
        SvdError::NotSquare { .. } => "not-square",
        SvdError::NonFiniteInput => "non-finite-input",
        SvdError::ZeroSweepBudget => "zero-sweep-budget",
        SvdError::TruncatedTailNotNegligible => "truncated-tail",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError, SubmitOptions};
    use hj_core::recovery::Fault;
    use hj_matrix::gen;

    fn spawn_server(config: ServiceConfig) -> (std::thread::JoinHandle<ServiceStats>, SocketAddr) {
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (handle, addr)
    }

    #[test]
    fn submit_stats_shutdown_over_localhost() {
        let (handle, addr) = spawn_server(ServiceConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let a = gen::uniform(24, 6, 5);
        let direct =
            hj_core::HestenesSvd::new(hj_core::SvdOptions::default()).singular_values(&a).unwrap();
        let outcome = client.submit(&a, SubmitOptions::default()).unwrap();
        assert_eq!(outcome.values.len(), 6);
        for (x, y) in outcome.values.iter().zip(direct.values.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "wire spectrum must be bit-identical");
        }
        let json = client.stats_json().unwrap();
        assert!(json.contains("\"completed\":1"), "{json}");
        let final_json = client.shutdown(Duration::from_secs(5)).unwrap();
        assert!(final_json.contains("hjsvd-serve-stats/v1"));
        let stats = handle.join().unwrap();
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn ordering_travels_the_wire_and_bad_bytes_are_rejected() {
        let (handle, addr) = spawn_server(ServiceConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let a = gen::uniform(24, 8, 17);
        // A row-cyclic remote solve is bit-identical to the local one.
        let direct = hj_core::HestenesSvd::new(hj_core::SvdOptions {
            ordering: Ordering::RowCyclic,
            ..Default::default()
        })
        .singular_values(&a)
        .unwrap();
        let outcome = client
            .submit(&a, SubmitOptions { ordering: Ordering::RowCyclic, ..Default::default() })
            .unwrap();
        assert_eq!(outcome.sweeps, direct.sweeps);
        for (x, y) in outcome.values.iter().zip(direct.values.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "row-cyclic wire spectrum must be bit-identical");
        }
        // Bytes 0 and 1 are the only orderings; the retired 2 and 3 and any
        // other byte are rejected before admission, single or bulk.
        for ordering in [2u8, 3, 9] {
            let single = Frame::Submit {
                priority: 0,
                engine: 0,
                ordering,
                deadline_ms: crate::protocol::NO_DEADLINE,
                tenant: String::new(),
                matrix: a.clone(),
            };
            let bulk = Frame::SubmitBatch {
                priority: 0,
                engine: 0,
                ordering,
                deadline_ms: crate::protocol::NO_DEADLINE,
                tenant: String::new(),
                matrices: vec![a.clone(), a.clone()],
            };
            for raw in [single, bulk] {
                match handle_submit_frame(addr, raw) {
                    Frame::Error { code, kind, .. } => {
                        assert_eq!(code, CODE_BAD_REQUEST, "byte {ordering}");
                        assert_eq!(kind, "bad-ordering", "byte {ordering}");
                    }
                    other => panic!("byte {ordering}: expected error frame, got {other:?}"),
                }
            }
        }
        client.shutdown(Duration::from_secs(5)).unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.admitted, 1, "only the row-cyclic submit may be admitted");
    }

    /// Send one raw frame and read the single reply (bypasses the typed
    /// client, which cannot produce invalid bytes).
    fn handle_submit_frame(addr: SocketAddr, frame: Frame) -> Frame {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = stream.try_clone().unwrap();
        let mut writer = BufWriter::new(stream);
        frame.write_to(&mut writer).unwrap();
        Frame::read_from(&mut reader).unwrap()
    }

    #[test]
    fn bulk_submissions_round_trip_bit_exactly() {
        let (handle, addr) = spawn_server(ServiceConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let mut mats: Vec<_> = (0..6).map(|k| gen::uniform(16, 8, 90 + k)).collect();
        mats[2] = hj_matrix::Matrix::zeros(0, 8); // one invalid slot
        let direct =
            hj_core::HestenesSvd::new(hj_core::SvdOptions::default()).singular_values_batch(&mats);
        let outcome = client.submit_batch(&mats, SubmitOptions::default()).unwrap();
        assert_eq!(outcome.items.len(), mats.len());
        for (k, (remote, local)) in outcome.items.iter().zip(&direct).enumerate() {
            match (remote, local) {
                (Ok(spectrum), Ok(sv)) => {
                    assert_eq!(spectrum.sweeps, sv.sweeps, "slot {k}");
                    assert_eq!(spectrum.values.len(), sv.values.len(), "slot {k}");
                    for (x, y) in spectrum.values.iter().zip(&sv.values) {
                        assert_eq!(x.to_bits(), y.to_bits(), "slot {k} spectrum over the wire");
                    }
                }
                (Err(failure), Err(err)) => {
                    assert_eq!(failure.code, error_code(err), "slot {k}");
                    assert_eq!(failure.kind, error_kind(err), "slot {k}");
                }
                other => panic!("slot {k} shape mismatch: {other:?}"),
            }
        }
        client.shutdown(Duration::from_secs(5)).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn old_protocol_versions_get_a_structured_rejection() {
        use std::io::{Read, Write};
        let (handle, addr) = spawn_server(ServiceConfig::default());
        // Hand-roll a v2 Submit header: length prefix, then [version=2,
        // type=1]. The server must answer with a structured error naming
        // the version skew, not a generic bad-frame.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let payload = [2u8, 1u8];
        stream.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        stream.write_all(&payload).unwrap();
        stream.flush().unwrap();
        let mut reader = stream.try_clone().unwrap();
        let reply = Frame::read_from(&mut reader).unwrap();
        match reply {
            Frame::Error { code, kind, message } => {
                assert_eq!(code, CODE_BAD_REQUEST);
                assert_eq!(kind, "unsupported-version");
                assert!(message.contains('2'), "{message}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        // The connection is closed after a protocol violation.
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
        let mut client = Client::connect(addr).unwrap();
        client.shutdown(Duration::from_secs(5)).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn deadline_and_rejection_surface_as_error_frames() {
        let (handle, addr) = spawn_server(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let mut client = Client::connect(addr).unwrap();
        // An already-expired deadline: structured deadline error.
        let err = client
            .submit(
                &gen::uniform(30, 10, 1),
                SubmitOptions { deadline_ms: Some(0), ..Default::default() },
            )
            .unwrap_err();
        match err {
            ClientError::Remote { code, kind, .. } => {
                assert_eq!(code, CODE_DEADLINE);
                assert_eq!(kind, "deadline");
            }
            other => panic!("expected remote error, got {other:?}"),
        }
        client.shutdown(Duration::from_secs(5)).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn error_codes_map_fault_kinds() {
        let deadline = SvdError::SolveFault {
            fault: Fault::DeadlineExceeded { sweep: 1 },
            sweeps_completed: 0,
        };
        assert_eq!(error_code(&deadline), CODE_DEADLINE);
        let cancelled =
            SvdError::SolveFault { fault: Fault::Cancelled { sweep: 1 }, sweeps_completed: 0 };
        assert_eq!(error_code(&cancelled), CODE_CANCELLED);
        let stall = SvdError::SolveFault {
            fault: Fault::ConvergenceStall { sweep: 2, stalled_sweeps: 2 },
            sweeps_completed: 2,
        };
        assert_eq!(error_code(&stall), CODE_SOLVE_FAULT);
        assert_eq!(error_kind(&stall), "stall");
        assert_eq!(error_code(&SvdError::EmptyInput), CODE_BAD_REQUEST);
        assert_eq!(error_kind(&SvdError::EmptyInput), "empty-input");
        let not_square = SvdError::NotSquare { rows: 2, cols: 3 };
        assert_eq!(error_code(&not_square), CODE_BAD_REQUEST);
        assert_eq!(error_kind(&not_square), "not-square");
    }
}
