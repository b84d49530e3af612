//! The versioned, length-prefixed wire protocol.
//!
//! Every frame on the wire is:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | payload length `L` (u32 LE, not counting these 4 bytes) |
//! | 4      | 1    | protocol version ([`PROTOCOL_VERSION`]) |
//! | 5      | 1    | frame type |
//! | 6      | L−2  | type-specific body |
//!
//! Frame types and bodies (all integers little-endian):
//!
//! | type | name | body |
//! |------|------|------|
//! | 1 | submit | `u8` priority, `u8` engine (reserved, must be 0), `u8` ordering ([`hj_core::Ordering::index`]: 0 cyclic, 1 row-cyclic; any other byte is rejected), `u64` deadline_ms ([`NO_DEADLINE`] = none), `u16` tenant length + tenant bytes (UTF-8), then an [`hj_matrix::wire`] matrix frame |
//! | 2 | result | `u64` job id, `u32` sweeps, `u32` n, then n × `f64::to_bits` LE values |
//! | 3 | error | `u8` code, `u16` kind length + kind bytes, `u16` message length + message bytes |
//! | 4 | stats request | empty |
//! | 5 | stats | UTF-8 JSON object (the [`crate::ServiceStats`] schema) |
//! | 6 | shutdown | `u64` drain_ms |
//! | 7 | submit-batch | `u8` priority, `u8` engine (reserved, must be 0), `u8` ordering (as in submit), `u64` deadline_ms, `u16` tenant length + tenant bytes, `u32` matrix count, then per matrix a `u32` byte length + an [`hj_matrix::wire`] matrix frame |
//! | 8 | batch-result | `u64` job id, `u32` item count, then per item a `u8` status: `0` (ok) followed by `u32` sweeps, `u32` n, n × `f64::to_bits` LE values; `1` (error) followed by `u8` code, `u16` kind length + kind bytes, `u16` message length + message bytes |
//!
//! Singular values travel as raw `f64::to_bits` exactly like the matrix
//! payload, so a spectrum crosses the wire bit-identically — the round trip
//! adds *zero* rounding. A batch submission is **one** frame carrying many
//! matrices and its reply is **one** frame carrying a per-problem status for
//! every slot, so a million tiny solves need not pay a frame round trip
//! each.

use hj_matrix::wire::{self, WireError};
use hj_matrix::Matrix;
use std::io::{Read, Write};

/// Current protocol version; frames with any other version are rejected
/// (the server answers version mismatches with a structured
/// `unsupported-version` error frame before closing).
/// Version 2 added the submit frame's ordering byte; version 3 added the
/// bulk submit-batch / batch-result frames.
pub const PROTOCOL_VERSION: u8 = 3;

/// Sentinel `deadline_ms` meaning "no deadline".
pub const NO_DEADLINE: u64 = u64::MAX;

/// Hard ceiling on a frame's payload length (256 MiB): a corrupt length
/// prefix cannot make a peer attempt an unbounded allocation.
pub const MAX_FRAME_BYTES: u32 = 1 << 28;

/// One protocol frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: solve this matrix.
    Submit {
        /// Priority class byte ([`crate::Priority::index`]).
        priority: u8,
        /// Engine byte: reserved, must be 0 (the server answers any other
        /// value with a `bad-engine` error).
        engine: u8,
        /// Ordering byte ([`hj_core::Ordering::index`]): 0 cyclic,
        /// 1 row-cyclic; any other byte is rejected.
        ordering: u8,
        /// Relative deadline in milliseconds from receipt, or
        /// [`NO_DEADLINE`].
        deadline_ms: u64,
        /// Tenant identity (may be empty).
        tenant: String,
        /// The matrix to decompose.
        matrix: Matrix,
    },
    /// Server → client: the solve succeeded.
    Result {
        /// Service-assigned job id.
        job: u64,
        /// Sweeps the solve ran.
        sweeps: u32,
        /// Singular values, descending, bit-exact.
        values: Vec<f64>,
    },
    /// Server → client: the submission was rejected or the solve failed.
    Error {
        /// Machine-readable error code (mirrors the CLI exit codes).
        code: u8,
        /// Stable error kind (e.g. `"queue-full"`, `"deadline"`).
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// Client → server: send a stats snapshot.
    StatsRequest,
    /// Server → client: a [`crate::ServiceStats`] JSON object.
    Stats {
        /// The JSON text (schema `hjsvd-serve-stats/v1`).
        json: String,
    },
    /// Client → server: drain and stop, waiting up to `drain_ms` for
    /// in-flight jobs.
    Shutdown {
        /// Drain deadline in milliseconds.
        drain_ms: u64,
    },
    /// Client → server: solve this whole batch as one job (one queue slot,
    /// one ticket, one reply frame).
    SubmitBatch {
        /// Priority class byte ([`crate::Priority::index`]).
        priority: u8,
        /// Engine byte: reserved, must be 0.
        engine: u8,
        /// Ordering byte, as in [`Frame::Submit`].
        ordering: u8,
        /// Relative deadline in milliseconds from receipt, or
        /// [`NO_DEADLINE`]. The deadline covers the whole batch.
        deadline_ms: u64,
        /// Tenant identity (may be empty).
        tenant: String,
        /// The matrices to decompose, in slot order.
        matrices: Vec<Matrix>,
    },
    /// Server → client: per-problem outcomes of a batch job, in slot order.
    BatchResult {
        /// Service-assigned job id (one id covers the whole batch).
        job: u64,
        /// One status per submitted matrix.
        items: Vec<BatchItem>,
    },
}

/// Per-problem status inside a [`Frame::BatchResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// The slot solved; its spectrum crossed the wire bit-exactly.
    Ok {
        /// Sweeps this problem ran.
        sweeps: u32,
        /// Singular values, descending, bit-exact.
        values: Vec<f64>,
    },
    /// The slot failed; its neighbors are unaffected.
    Err {
        /// Machine-readable error code (same space as [`Frame::Error`]).
        code: u8,
        /// Stable error kind (e.g. `"non-finite-input"`, `"stall"`).
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

/// Wire-protocol failures.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// An I/O error (includes mid-frame disconnects).
    Io(std::io::Error),
    /// The frame declared an unsupported protocol version.
    BadVersion(u8),
    /// The frame declared an unknown type byte.
    BadType(u8),
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// The body ended before (or after) its declared fields.
    Malformed(&'static str),
    /// The embedded matrix frame failed to decode.
    Wire(WireError),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {PROTOCOL_VERSION})")
            }
            ProtoError::BadType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
            }
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::Wire(e) => write!(f, "bad matrix payload: {e}"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> ProtoError {
        ProtoError::Wire(e)
    }
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Submit { .. } => 1,
            Frame::Result { .. } => 2,
            Frame::Error { .. } => 3,
            Frame::StatsRequest => 4,
            Frame::Stats { .. } => 5,
            Frame::Shutdown { .. } => 6,
            Frame::SubmitBatch { .. } => 7,
            Frame::BatchResult { .. } => 8,
        }
    }

    /// Encode as a complete frame, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64);
        payload.push(PROTOCOL_VERSION);
        payload.push(self.type_byte());
        match self {
            Frame::Submit { priority, engine, ordering, deadline_ms, tenant, matrix } => {
                payload.push(*priority);
                payload.push(*engine);
                payload.push(*ordering);
                payload.extend_from_slice(&deadline_ms.to_le_bytes());
                put_str16(&mut payload, tenant);
                wire::encode_matrix_into(matrix, &mut payload);
            }
            Frame::Result { job, sweeps, values } => {
                payload.extend_from_slice(&job.to_le_bytes());
                payload.extend_from_slice(&sweeps.to_le_bytes());
                payload.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for v in values {
                    payload.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Frame::Error { code, kind, message } => {
                payload.push(*code);
                put_str16(&mut payload, kind);
                put_str16(&mut payload, message);
            }
            Frame::StatsRequest => {}
            Frame::Stats { json } => payload.extend_from_slice(json.as_bytes()),
            Frame::Shutdown { drain_ms } => {
                payload.extend_from_slice(&drain_ms.to_le_bytes());
            }
            Frame::SubmitBatch { priority, engine, ordering, deadline_ms, tenant, matrices } => {
                payload.push(*priority);
                payload.push(*engine);
                payload.push(*ordering);
                payload.extend_from_slice(&deadline_ms.to_le_bytes());
                put_str16(&mut payload, tenant);
                payload.extend_from_slice(&(matrices.len() as u32).to_le_bytes());
                for m in matrices {
                    // Length-prefix each embedded matrix frame so the
                    // decoder can walk the batch without trusting the wire
                    // format's internal length arithmetic.
                    let len_at = payload.len();
                    payload.extend_from_slice(&0u32.to_le_bytes());
                    let start = payload.len();
                    wire::encode_matrix_into(m, &mut payload);
                    let len = (payload.len() - start) as u32;
                    payload[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
            Frame::BatchResult { job, items } => {
                payload.extend_from_slice(&job.to_le_bytes());
                payload.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    match item {
                        BatchItem::Ok { sweeps, values } => {
                            payload.push(0);
                            payload.extend_from_slice(&sweeps.to_le_bytes());
                            payload.extend_from_slice(&(values.len() as u32).to_le_bytes());
                            for v in values {
                                payload.extend_from_slice(&v.to_bits().to_le_bytes());
                            }
                        }
                        BatchItem::Err { code, kind, message } => {
                            payload.push(1);
                            payload.push(*code);
                            put_str16(&mut payload, kind);
                            put_str16(&mut payload, message);
                        }
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(4 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Write one frame to `w` (flushes).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Read one frame from `r`. A clean close at a frame boundary is
    /// [`ProtoError::Closed`]; a close mid-frame is [`ProtoError::Io`].
    pub fn read_from(r: &mut impl Read) -> Result<Frame, ProtoError> {
        let mut len_bytes = [0u8; 4];
        if let Err(e) = r.read_exact(&mut len_bytes) {
            return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ProtoError::Closed
            } else {
                ProtoError::Io(e)
            });
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME_BYTES {
            return Err(ProtoError::Oversized(len));
        }
        if len < 2 {
            return Err(ProtoError::Malformed("payload shorter than its header"));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        Frame::decode_payload(&payload)
    }

    /// Decode a payload (everything after the length prefix).
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, ProtoError> {
        let mut c = Cursor { buf: payload, pos: 0 };
        let version = c.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let frame = match c.u8()? {
            1 => {
                let priority = c.u8()?;
                let engine = c.u8()?;
                let ordering = c.u8()?;
                let deadline_ms = c.u64()?;
                let tenant = c.str16()?;
                let matrix = wire::decode_matrix(c.rest())?;
                Frame::Submit { priority, engine, ordering, deadline_ms, tenant, matrix }
            }
            2 => {
                let job = c.u64()?;
                let sweeps = c.u32()?;
                let n = c.u32()? as usize;
                let bytes = c.take(8 * n)?;
                let mut values = Vec::with_capacity(n);
                for chunk in bytes.chunks_exact(8) {
                    values.push(f64::from_bits(u64::from_le_bytes(
                        chunk.try_into().expect("8 bytes"),
                    )));
                }
                c.done()?;
                Frame::Result { job, sweeps, values }
            }
            3 => {
                let code = c.u8()?;
                let kind = c.str16()?;
                let message = c.str16()?;
                c.done()?;
                Frame::Error { code, kind, message }
            }
            4 => {
                c.done()?;
                Frame::StatsRequest
            }
            5 => {
                let json = String::from_utf8(c.rest().to_vec()).map_err(|_| ProtoError::BadUtf8)?;
                Frame::Stats { json }
            }
            6 => {
                let drain_ms = c.u64()?;
                c.done()?;
                Frame::Shutdown { drain_ms }
            }
            7 => {
                let priority = c.u8()?;
                let engine = c.u8()?;
                let ordering = c.u8()?;
                let deadline_ms = c.u64()?;
                let tenant = c.str16()?;
                let count = c.u32()? as usize;
                let mut matrices = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let len = c.u32()? as usize;
                    matrices.push(wire::decode_matrix(c.take(len)?)?);
                }
                c.done()?;
                Frame::SubmitBatch { priority, engine, ordering, deadline_ms, tenant, matrices }
            }
            8 => {
                let job = c.u64()?;
                let count = c.u32()? as usize;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(match c.u8()? {
                        0 => {
                            let sweeps = c.u32()?;
                            let n = c.u32()? as usize;
                            let bytes = c.take(8 * n)?;
                            let mut values = Vec::with_capacity(n);
                            for chunk in bytes.chunks_exact(8) {
                                values.push(f64::from_bits(u64::from_le_bytes(
                                    chunk.try_into().expect("8 bytes"),
                                )));
                            }
                            BatchItem::Ok { sweeps, values }
                        }
                        1 => {
                            let code = c.u8()?;
                            let kind = c.str16()?;
                            let message = c.str16()?;
                            BatchItem::Err { code, kind, message }
                        }
                        _ => return Err(ProtoError::Malformed("unknown batch item status")),
                    });
                }
                c.done()?;
                Frame::BatchResult { job, items }
            }
            t => return Err(ProtoError::BadType(t)),
        };
        Ok(frame)
    }
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Malformed("body ends before a declared field"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str16(&mut self) -> Result<String, ProtoError> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after the body"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hj_matrix::gen;

    fn roundtrip(frame: Frame) -> Frame {
        let bytes = frame.encode();
        // Through the streaming reader, not just the payload decoder.
        let mut r = std::io::Cursor::new(bytes);
        Frame::read_from(&mut r).unwrap()
    }

    #[test]
    fn every_frame_type_round_trips() {
        let a = gen::uniform(5, 3, 77);
        let frames = vec![
            Frame::Submit {
                priority: 1,
                engine: 2,
                ordering: 3,
                deadline_ms: 1500,
                tenant: "acme".into(),
                matrix: a,
            },
            Frame::Result {
                job: 42,
                sweeps: 6,
                values: vec![3.5, 1.0, f64::MIN_POSITIVE, 0.0, -0.0],
            },
            Frame::Error { code: 7, kind: "deadline".into(), message: "too slow".into() },
            Frame::StatsRequest,
            Frame::Stats { json: "{\"schema\":\"hjsvd-serve-stats/v1\"}".into() },
            Frame::Shutdown { drain_ms: 2000 },
            Frame::SubmitBatch {
                priority: 1,
                engine: 0,
                ordering: 0,
                deadline_ms: NO_DEADLINE,
                tenant: "bulk".into(),
                matrices: (0..5).map(|k| gen::uniform(8, 4, k)).collect(),
            },
            Frame::BatchResult {
                job: 9,
                items: vec![
                    BatchItem::Ok { sweeps: 7, values: vec![2.0, 1.0, 0.5] },
                    BatchItem::Err {
                        code: 4,
                        kind: "non-finite-input".into(),
                        message: "slot 1".into(),
                    },
                    BatchItem::Ok { sweeps: 3, values: vec![] },
                ],
            },
        ];
        for frame in frames {
            let back = roundtrip(frame.clone());
            assert_eq!(back, frame);
            // Encoding is deterministic — byte-identical re-encode.
            assert_eq!(back.encode(), frame.encode());
        }
    }

    #[test]
    fn submit_matrix_survives_bit_exactly() {
        let a = gen::uniform(16, 8, 3);
        let frame = Frame::Submit {
            priority: 0,
            engine: 0,
            ordering: 0,
            deadline_ms: NO_DEADLINE,
            tenant: String::new(),
            matrix: a.clone(),
        };
        match roundtrip(frame) {
            Frame::Submit { matrix, deadline_ms, .. } => {
                assert_eq!(deadline_ms, NO_DEADLINE);
                for (x, y) in a.as_slice().iter().zip(matrix.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn result_values_survive_bit_exactly() {
        let values = vec![1.0 / 3.0, 2.0_f64.sqrt(), 1e-300, f64::MAX];
        let frame = Frame::Result { job: 1, sweeps: 5, values: values.clone() };
        match roundtrip(frame) {
            Frame::Result { values: back, .. } => {
                for (x, y) in values.iter().zip(back.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn bad_version_type_length_are_rejected() {
        assert!(matches!(Frame::decode_payload(&[9, 4]), Err(ProtoError::BadVersion(9))));
        // Version 1 predates the submit ordering byte and version 2 the
        // bulk frames; both are rejected, not misparsed.
        assert!(matches!(Frame::decode_payload(&[1, 4]), Err(ProtoError::BadVersion(1))));
        assert!(matches!(Frame::decode_payload(&[2, 4]), Err(ProtoError::BadVersion(2))));
        assert!(matches!(
            Frame::decode_payload(&[PROTOCOL_VERSION, 99]),
            Err(ProtoError::BadType(99))
        ));
        // Truncated body: a shutdown frame missing its drain_ms.
        assert!(matches!(
            Frame::decode_payload(&[PROTOCOL_VERSION, 6, 1, 2]),
            Err(ProtoError::Malformed(_))
        ));
        // Trailing garbage after a complete body.
        assert!(matches!(
            Frame::decode_payload(&[PROTOCOL_VERSION, 4, 0]),
            Err(ProtoError::Malformed(_))
        ));
        // Oversized length prefix rejected before allocation.
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut r = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(Frame::read_from(&mut r), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn clean_close_is_distinguished_from_mid_frame_close() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(Frame::read_from(&mut empty), Err(ProtoError::Closed)));
        // Length prefix present but payload missing.
        let mut partial = std::io::Cursor::new(8u32.to_le_bytes().to_vec());
        assert!(matches!(Frame::read_from(&mut partial), Err(ProtoError::Io(_))));
    }

    #[test]
    fn batch_frames_survive_bit_exactly_and_reject_bad_statuses() {
        let mats: Vec<Matrix> = (0..3).map(|k| gen::uniform(6, 3, 40 + k)).collect();
        let frame = Frame::SubmitBatch {
            priority: 0,
            engine: 0,
            ordering: 0,
            deadline_ms: 250,
            tenant: String::new(),
            matrices: mats.clone(),
        };
        match roundtrip(frame) {
            Frame::SubmitBatch { matrices, deadline_ms, .. } => {
                assert_eq!(deadline_ms, 250);
                assert_eq!(matrices.len(), mats.len());
                for (a, b) in mats.iter().zip(&matrices) {
                    assert_eq!(a.shape(), b.shape());
                    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
            other => panic!("wrong frame: {other:?}"),
        }
        let values = vec![1.0 / 3.0, 1e-300, -0.0];
        let reply = Frame::BatchResult {
            job: 3,
            items: vec![BatchItem::Ok { sweeps: 2, values: values.clone() }],
        };
        match roundtrip(reply) {
            Frame::BatchResult { items, .. } => match &items[0] {
                BatchItem::Ok { values: back, .. } => {
                    for (x, y) in values.iter().zip(back) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                other => panic!("wrong item: {other:?}"),
            },
            other => panic!("wrong frame: {other:?}"),
        }
        // An unknown per-item status byte is malformed, not misparsed:
        // job id, count 1, status 7.
        let mut bad = vec![PROTOCOL_VERSION, 8];
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(7);
        assert!(matches!(Frame::decode_payload(&bad), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn errors_display_their_cause() {
        assert!(ProtoError::BadVersion(3).to_string().contains("version 3"));
        assert!(ProtoError::Oversized(u32::MAX).to_string().contains("exceeds"));
        assert!(ProtoError::Closed.to_string().contains("closed"));
    }
}
