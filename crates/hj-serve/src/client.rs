//! A blocking client for the serve protocol — what `hjsvd submit` and the
//! saturation benchmark are built on.

use crate::job::Priority;
use crate::protocol::{BatchItem, Frame, ProtoError, NO_DEADLINE};
use hj_core::Ordering;
use hj_matrix::Matrix;
use std::io::BufWriter;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Per-submission options (ordering, class, deadline, tenant).
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Pair-ordering strategy for the sweeps.
    pub ordering: Ordering,
    /// Priority class.
    pub priority: Priority,
    /// Relative deadline in milliseconds (None = no deadline).
    pub deadline_ms: Option<u64>,
    /// Tenant identity.
    pub tenant: String,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            ordering: Ordering::default(),
            priority: Priority::Interactive,
            deadline_ms: None,
            tenant: String::new(),
        }
    }
}

/// A successful remote solve.
#[derive(Debug, Clone)]
pub struct RemoteOutcome {
    /// Service-assigned job id.
    pub job: u64,
    /// Sweeps the solve ran.
    pub sweeps: usize,
    /// Singular values, descending — bit-identical to a direct local solve.
    pub values: Vec<f64>,
}

/// One solved slot of a remote batch.
#[derive(Debug, Clone)]
pub struct RemoteSpectrum {
    /// Sweeps the slot's solve ran.
    pub sweeps: usize,
    /// Singular values, descending — bit-identical to a local batch solve.
    pub values: Vec<f64>,
}

/// One failed slot of a remote batch (same code/kind vocabulary as
/// [`ClientError::Remote`]).
#[derive(Debug, Clone)]
pub struct RemoteFailure {
    /// Wire error code.
    pub code: u8,
    /// Stable error kind (`"non-finite-input"`, `"deadline"`, …).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

/// A completed remote batch: one slot per submitted matrix, in submission
/// order, each independently solved or failed.
#[derive(Debug, Clone)]
pub struct RemoteBatchOutcome {
    /// Service-assigned job id (the whole batch is one job).
    pub job: u64,
    /// Per-problem outcomes, aligned with the submitted matrices.
    pub items: Vec<Result<RemoteSpectrum, RemoteFailure>>,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// A transport-level failure.
    Io(std::io::Error),
    /// The server's reply violated the protocol.
    Protocol(ProtoError),
    /// The server answered with a structured error frame.
    Remote {
        /// Wire error code (doubles as the CLI exit code).
        code: u8,
        /// Stable error kind (`"queue-full"`, `"deadline"`, …).
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// The server sent a well-formed frame of the wrong type.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Remote { code, kind, message } => {
                write!(f, "server error [{kind}] (code {code}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected reply frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        match e {
            ProtoError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other),
        }
    }
}

/// One connection to a serve front-end. Requests are strictly sequential
/// per connection (submit = one request frame, one reply frame); open more
/// connections for client-side concurrency.
#[derive(Debug)]
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        Ok(Client { reader, writer: BufWriter::new(stream) })
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        frame.write_to(&mut self.writer)?;
        Ok(Frame::read_from(&mut self.reader)?)
    }

    /// Submit `matrix` and block until the spectrum (or a structured
    /// error) comes back.
    pub fn submit(
        &mut self,
        matrix: &Matrix,
        options: SubmitOptions,
    ) -> Result<RemoteOutcome, ClientError> {
        let frame = Frame::Submit {
            priority: options.priority.index() as u8,
            engine: 0,
            ordering: options.ordering.index() as u8,
            deadline_ms: options.deadline_ms.unwrap_or(NO_DEADLINE),
            tenant: options.tenant,
            matrix: matrix.clone(),
        };
        match self.request(&frame)? {
            Frame::Result { job, sweeps, values } => {
                Ok(RemoteOutcome { job, sweeps: sweeps as usize, values })
            }
            Frame::Error { code, kind, message } => {
                Err(ClientError::Remote { code, kind, message })
            }
            _ => Err(ClientError::Unexpected("submit wants result or error")),
        }
    }

    /// Submit `matrices` as one bulk job and block until every slot's
    /// spectrum (or per-slot error) comes back in a single reply frame.
    /// Whole-batch failures (queue rejection, bad options) surface as
    /// [`ClientError::Remote`].
    pub fn submit_batch(
        &mut self,
        matrices: &[Matrix],
        options: SubmitOptions,
    ) -> Result<RemoteBatchOutcome, ClientError> {
        let frame = Frame::SubmitBatch {
            priority: options.priority.index() as u8,
            engine: 0,
            ordering: options.ordering.index() as u8,
            deadline_ms: options.deadline_ms.unwrap_or(NO_DEADLINE),
            tenant: options.tenant,
            matrices: matrices.to_vec(),
        };
        match self.request(&frame)? {
            Frame::BatchResult { job, items } => {
                let items = items
                    .into_iter()
                    .map(|item| match item {
                        BatchItem::Ok { sweeps, values } => {
                            Ok(RemoteSpectrum { sweeps: sweeps as usize, values })
                        }
                        BatchItem::Err { code, kind, message } => {
                            Err(RemoteFailure { code, kind, message })
                        }
                    })
                    .collect();
                Ok(RemoteBatchOutcome { job, items })
            }
            Frame::Error { code, kind, message } => {
                Err(ClientError::Remote { code, kind, message })
            }
            _ => Err(ClientError::Unexpected("submit-batch wants a batch result or error")),
        }
    }

    /// Fetch a [`crate::ServiceStats`] snapshot as JSON.
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        match self.request(&Frame::StatsRequest)? {
            Frame::Stats { json } => Ok(json),
            Frame::Error { code, kind, message } => {
                Err(ClientError::Remote { code, kind, message })
            }
            _ => Err(ClientError::Unexpected("stats wants a stats frame")),
        }
    }

    /// Ask the server to drain (up to `drain`) and stop; returns the final
    /// stats JSON.
    pub fn shutdown(&mut self, drain: Duration) -> Result<String, ClientError> {
        let drain_ms = u64::try_from(drain.as_millis()).unwrap_or(u64::MAX);
        match self.request(&Frame::Shutdown { drain_ms })? {
            Frame::Stats { json } => Ok(json),
            Frame::Error { code, kind, message } => {
                Err(ClientError::Remote { code, kind, message })
            }
            _ => Err(ClientError::Unexpected("shutdown wants a stats frame")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_shape() {
        let e = ClientError::Remote { code: 10, kind: "queue-full".into(), message: "full".into() };
        let msg = e.to_string();
        assert!(msg.contains("[queue-full]") && msg.contains("code 10"), "{msg}");
        assert!(ClientError::Unexpected("x").to_string().contains("unexpected"));
    }
}
