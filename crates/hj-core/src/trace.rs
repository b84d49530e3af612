//! Structured solve tracing — typed events, pluggable sinks, zero cost off.
//!
//! [`crate::SolveStats`] answers *how much* a solve did (rotations,
//! seconds); this module answers *what happened, in order*: every sweep
//! boundary, individual rotation decision, and convergence check is a
//! typed [`TraceEvent`] that the solver pushes into a caller-supplied
//! [`TraceSink`]. The event vocabulary mirrors the stages of the paper's
//! pipeline (Figs. 2, 4, 5): a `SweepStart` is the preprocessor handing
//! control to the rotation/update loop, and
//! `RotationApplied`/`RotationSkipped` are the per-pair decisions the
//! hardware's orthogonality guard makes. The cycle-accurate simulator emits
//! the same stream shape through [`TraceEvent::PipelineStage`], so software
//! and hardware traces can be lined up event for event.
//!
//! # Cost model
//!
//! Tracing is opt-in per solve: a [`crate::Request`] carries the sink and
//! its [`TraceLevel`] into [`crate::HestenesSvd::singular_values_with`] or
//! [`crate::HestenesSvd::decompose_with`]. With no sink attached — or with
//! [`NoopSink`] / [`TraceLevel::Off`] — the emission sites reduce to one
//! branch on a cached level; no event is constructed, nothing allocates,
//! and the solve is bit-identical to an untraced run (pinned by
//! `tests/trace.rs` in the workspace root).
//!
//! # Sinks
//!
//! | sink | destination | use |
//! |---|---|---|
//! | [`NoopSink`] | nowhere | overhead baseline, tests |
//! | [`RingBufferSink`] | bounded in-memory ring | programmatic inspection |
//! | [`JsonlSink`] | any [`std::io::Write`], one JSON object per line | `hjsvd svd --trace`, offline analysis |

use std::fmt::Write as _;
use std::io::Write;

/// Event granularity of a traced solve, ordered from silent to per-pair.
///
/// Each [`TraceEvent`] carries a minimum level ([`TraceEvent::level`]); an
/// event is emitted only when the solve's configured level is at least that
/// minimum. [`TraceLevel::parse`] accepts `off`, `sweep` and `rotation`;
/// `hjsvd svd --trace-level` takes `sweep` and `rotation`, since `--trace`
/// already asks for events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No events (the default — tracing fully disabled).
    #[default]
    Off,
    /// Sweep boundaries and convergence checks (plus the service's job
    /// lifecycle and the simulator's pipeline stages).
    Sweep,
    /// Additionally one event per visited pair — every applied and skipped
    /// rotation.
    Rotation,
}

impl TraceLevel {
    /// Parse a level name: `off`, `sweep`, `rotation`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "sweep" => Some(TraceLevel::Sweep),
            "rotation" => Some(TraceLevel::Rotation),
            _ => None,
        }
    }

    /// Canonical lowercase name (round-trips through [`TraceLevel::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Sweep => "sweep",
            TraceLevel::Rotation => "rotation",
        }
    }
}

/// Why a visited pair was skipped instead of rotated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The SVD drivers' Drmač guard held: `|D_ij| ≤ tol·√(D_ii·D_jj)`.
    RelativeGuard,
    /// The eigensolver's diagonal-scaled guard held:
    /// `|D_ij| ≤ tol·max_k|D_kk|`.
    DiagonalScaleGuard,
    /// An active [`crate::ordering::ThresholdSchedule`] ramp deferred the
    /// pair: `|D_ij| ≤ tol_sweep·√(D_ii·D_jj)` with `tol_sweep` still above
    /// the [`crate::engine::PAIR_TOL`] floor.
    ThresholdGuard,
}

impl SkipReason {
    /// Stable machine-readable name used in the JSONL stream.
    pub fn name(self) -> &'static str {
        match self {
            SkipReason::RelativeGuard => "relative-guard",
            SkipReason::DiagonalScaleGuard => "diagonal-scale-guard",
            SkipReason::ThresholdGuard => "threshold-guard",
        }
    }
}

/// One typed observation from a solve (or from the hardware simulator).
///
/// Numeric payloads only (plus `&'static str` labels) for the software
/// events, so constructing one never allocates; the simulator's
/// [`TraceEvent::PipelineStage`] carries an owned description and is only
/// built when a trace is explicitly requested.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A sweep is about to run (emitted by the [`crate::SolveDriver`] loop).
    SweepStart {
        /// 1-based sweep index.
        sweep: usize,
        /// Canonical engine name (`"sequential"`).
        engine: &'static str,
    },
    /// A sweep finished; carries its rotation counts and timing.
    SweepEnd {
        /// 1-based sweep index.
        sweep: usize,
        /// Rotations applied in this sweep.
        rotations_applied: usize,
        /// Pairs skipped by the orthogonality guard in this sweep.
        rotations_skipped: usize,
        /// Off-diagonal Frobenius mass of `D` after the sweep.
        off_frobenius: f64,
        /// Wall-clock seconds of the sweep; sweep 1's include the solve's
        /// planning.
        seconds: f64,
    },
    /// A plane rotation was applied to columns `(i, j)`.
    RotationApplied {
        /// 1-based sweep index.
        sweep: usize,
        /// Lower column index of the pair.
        i: usize,
        /// Upper column index of the pair.
        j: usize,
    },
    /// A visited pair was already orthogonal enough and was skipped.
    RotationSkipped {
        /// 1-based sweep index.
        sweep: usize,
        /// Lower column index of the pair.
        i: usize,
        /// Upper column index of the pair.
        j: usize,
        /// Which guard rule skipped it.
        reason: SkipReason,
    },
    /// The stopping rule was evaluated at the end of a sweep.
    ConvergenceCheck {
        /// 1-based sweep index.
        sweep: usize,
        /// Largest `|D_ij|` after the sweep.
        max_abs_cov: f64,
        /// Off-diagonal Frobenius mass after the sweep.
        off_frobenius: f64,
        /// Whether the rule declared convergence (ends the solve).
        converged: bool,
    },
    /// A job passed admission control and was enqueued (emitted by the
    /// `hj-serve` service layer).
    JobAdmitted {
        /// Service-assigned job id (monotone per service instance).
        job: u64,
        /// Stable priority-class name (`"interactive"`, `"batch"`, …).
        class: &'static str,
        /// Queue depth immediately after the enqueue.
        queue_depth: usize,
    },
    /// A submission was rejected by admission control.
    JobRejected {
        /// Stable rejection reason (`"queue-full"`, `"tenant-cap"`,
        /// `"draining"`, …).
        reason: &'static str,
        /// Queue depth at the time of the rejection.
        queue_depth: usize,
    },
    /// A queued job was handed to a worker.
    JobDispatched {
        /// Service-assigned job id.
        job: u64,
        /// 0-based worker index.
        worker: usize,
    },
    /// A job finished successfully on a worker.
    JobCompleted {
        /// Service-assigned job id.
        job: u64,
        /// 0-based worker index.
        worker: usize,
        /// Wall-clock seconds from dispatch to completion.
        seconds: f64,
        /// Sweeps the solve ran.
        sweeps: usize,
    },
    /// A job ended in an error: a single job's solve failed, or no slot of
    /// a bulk job solved.
    JobFaulted {
        /// Service-assigned job id.
        job: u64,
        /// 0-based worker index.
        worker: usize,
        /// Stable fault class name ([`crate::recovery::Fault::kind`]).
        fault: &'static str,
    },
    /// A cycle-stamped hardware-pipeline event from the `hj-arch`
    /// simulator's component timeline, mapped into the same stream shape as
    /// the software events.
    PipelineStage {
        /// Simulated cycle at which the event occurs.
        cycle: u64,
        /// Stable component name (`"gram-store"`, `"rotation"`, …).
        component: &'static str,
        /// Human-readable description of the stage.
        what: String,
    },
}

impl TraceEvent {
    /// Stable machine-readable event name (the `"event"` key in the JSONL
    /// form).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::SweepStart { .. } => "sweep_start",
            TraceEvent::SweepEnd { .. } => "sweep_end",
            TraceEvent::RotationApplied { .. } => "rotation_applied",
            TraceEvent::RotationSkipped { .. } => "rotation_skipped",
            TraceEvent::ConvergenceCheck { .. } => "convergence_check",
            TraceEvent::JobAdmitted { .. } => "job_admitted",
            TraceEvent::JobRejected { .. } => "job_rejected",
            TraceEvent::JobDispatched { .. } => "job_dispatched",
            TraceEvent::JobCompleted { .. } => "job_completed",
            TraceEvent::JobFaulted { .. } => "job_faulted",
            TraceEvent::PipelineStage { .. } => "pipeline_stage",
        }
    }

    /// Minimum [`TraceLevel`] at which this event is emitted.
    pub fn level(&self) -> TraceLevel {
        match self {
            TraceEvent::SweepStart { .. }
            | TraceEvent::SweepEnd { .. }
            | TraceEvent::ConvergenceCheck { .. }
            | TraceEvent::JobAdmitted { .. }
            | TraceEvent::JobRejected { .. }
            | TraceEvent::JobDispatched { .. }
            | TraceEvent::JobCompleted { .. }
            | TraceEvent::JobFaulted { .. }
            | TraceEvent::PipelineStage { .. } => TraceLevel::Sweep,
            TraceEvent::RotationApplied { .. } | TraceEvent::RotationSkipped { .. } => {
                TraceLevel::Rotation
            }
        }
    }

    /// The 1-based sweep index the event belongs to, if it has one. The
    /// service-lifecycle (`Job*`) events and [`TraceEvent::PipelineStage`]
    /// are not tied to a sweep and return `None`.
    pub fn sweep(&self) -> Option<usize> {
        match *self {
            TraceEvent::SweepStart { sweep, .. }
            | TraceEvent::SweepEnd { sweep, .. }
            | TraceEvent::RotationApplied { sweep, .. }
            | TraceEvent::RotationSkipped { sweep, .. }
            | TraceEvent::ConvergenceCheck { sweep, .. } => Some(sweep),
            TraceEvent::JobAdmitted { .. }
            | TraceEvent::JobRejected { .. }
            | TraceEvent::JobDispatched { .. }
            | TraceEvent::JobCompleted { .. }
            | TraceEvent::JobFaulted { .. }
            | TraceEvent::PipelineStage { .. } => None,
        }
    }

    /// Serialize as one flat JSON object (the JSONL line format).
    ///
    /// Hand-rolled like [`crate::SolveStats::to_json`] — the workspace takes
    /// no serde dependency. Non-finite floats (possible mid-fault) serialize
    /// as `null` so every emitted line stays valid JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"event\":\"");
        s.push_str(self.name());
        s.push('"');
        match self {
            TraceEvent::SweepStart { sweep, engine } => {
                write_num(&mut s, "sweep", *sweep as f64);
                write_str(&mut s, "engine", engine);
            }
            TraceEvent::SweepEnd {
                sweep,
                rotations_applied,
                rotations_skipped,
                off_frobenius,
                seconds,
            } => {
                write_num(&mut s, "sweep", *sweep as f64);
                write_num(&mut s, "rotations_applied", *rotations_applied as f64);
                write_num(&mut s, "rotations_skipped", *rotations_skipped as f64);
                write_f64(&mut s, "off_frobenius", *off_frobenius);
                write_f64(&mut s, "seconds", *seconds);
            }
            TraceEvent::RotationApplied { sweep, i, j } => {
                write_num(&mut s, "sweep", *sweep as f64);
                write_num(&mut s, "i", *i as f64);
                write_num(&mut s, "j", *j as f64);
            }
            TraceEvent::RotationSkipped { sweep, i, j, reason } => {
                write_num(&mut s, "sweep", *sweep as f64);
                write_num(&mut s, "i", *i as f64);
                write_num(&mut s, "j", *j as f64);
                write_str(&mut s, "reason", reason.name());
            }
            TraceEvent::ConvergenceCheck { sweep, max_abs_cov, off_frobenius, converged } => {
                write_num(&mut s, "sweep", *sweep as f64);
                write_f64(&mut s, "max_abs_cov", *max_abs_cov);
                write_f64(&mut s, "off_frobenius", *off_frobenius);
                s.push_str(",\"converged\":");
                s.push_str(if *converged { "true" } else { "false" });
            }
            TraceEvent::JobAdmitted { job, class, queue_depth } => {
                write_num(&mut s, "job", *job as f64);
                write_str(&mut s, "class", class);
                write_num(&mut s, "queue_depth", *queue_depth as f64);
            }
            TraceEvent::JobRejected { reason, queue_depth } => {
                write_str(&mut s, "reason", reason);
                write_num(&mut s, "queue_depth", *queue_depth as f64);
            }
            TraceEvent::JobDispatched { job, worker } => {
                write_num(&mut s, "job", *job as f64);
                write_num(&mut s, "worker", *worker as f64);
            }
            TraceEvent::JobCompleted { job, worker, seconds, sweeps } => {
                write_num(&mut s, "job", *job as f64);
                write_num(&mut s, "worker", *worker as f64);
                write_f64(&mut s, "seconds", *seconds);
                write_num(&mut s, "sweeps", *sweeps as f64);
            }
            TraceEvent::JobFaulted { job, worker, fault } => {
                write_num(&mut s, "job", *job as f64);
                write_num(&mut s, "worker", *worker as f64);
                write_str(&mut s, "fault", fault);
            }
            TraceEvent::PipelineStage { cycle, component, what } => {
                write_num(&mut s, "cycle", *cycle as f64);
                write_str(&mut s, "component", component);
                write_str(&mut s, "what", what);
            }
        }
        s.push('}');
        s
    }
}

/// Append `,"key":<integer>` (the value is a non-negative integer stored as
/// f64 — exact for every count this crate produces).
fn write_num(s: &mut String, key: &str, v: f64) {
    write!(s, ",\"{key}\":{}", v as u64).expect("write to String");
}

/// Append `,"key":<float>`, with non-finite values as `null`.
fn write_f64(s: &mut String, key: &str, v: f64) {
    if v.is_finite() {
        write!(s, ",\"{key}\":{v:?}").expect("write to String");
    } else {
        write!(s, ",\"{key}\":null").expect("write to String");
    }
}

/// Append `,"key":"escaped value"`.
fn write_str(s: &mut String, key: &str, v: &str) {
    write!(s, ",\"{key}\":\"").expect("write to String");
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(s, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Destination for trace events.
///
/// A sink only receives events the solve's [`TraceLevel`] admits; it never
/// filters, blocks, or influences the computation. Implementations must not
/// panic on any event — a trace must never take down the solve it observes.
///
/// ```
/// use hj_core::trace::{RingBufferSink, TraceLevel};
/// use hj_core::{HestenesSvd, Request, SvdOptions};
/// use hj_matrix::gen;
///
/// let a = gen::uniform(30, 8, 7);
/// let mut sink = RingBufferSink::new(256);
/// let request = Request::traced(&mut sink, TraceLevel::Sweep);
/// let svd = HestenesSvd::new(SvdOptions::default()).decompose_with(&a, request).unwrap();
/// // One sweep_start + sweep_end + convergence_check triple per sweep.
/// assert_eq!(sink.events().len(), 3 * svd.sweeps);
/// ```
pub trait TraceSink {
    /// Record one event. Called serially, in execution order.
    fn record(&mut self, event: &TraceEvent);
}

/// A sink that discards everything — the overhead baseline.
///
/// A solve traced into a `NoopSink` is bit-identical to an untraced solve
/// and performs zero extra heap allocations (both pinned by tests); use it
/// to keep a single traced code path whose cost can be turned off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// A bounded in-memory sink: keeps the most recent `capacity` events,
/// overwriting the oldest once full (flight-recorder style).
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position once the ring has wrapped.
    head: usize,
    /// Total events ever recorded (≥ `buf.len()`).
    recorded: usize,
}

impl RingBufferSink {
    /// Ring over the most recent `capacity` events (at least 1).
    pub fn new(capacity: usize) -> RingBufferSink {
        let capacity = capacity.max(1);
        RingBufferSink { buf: Vec::with_capacity(capacity), capacity, head: 0, recorded: 0 }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.capacity {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }

    /// Total events recorded over the sink's lifetime, including any that
    /// have been overwritten.
    pub fn recorded(&self) -> usize {
        self.recorded
    }

    /// Drop all retained events (the lifetime count is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event.clone());
        } else {
            self.buf[self.head] = event.clone();
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }
}

/// A sink that writes one JSON object per line to any [`std::io::Write`].
///
/// I/O errors cannot surface through [`TraceSink::record`] (a trace must
/// never interrupt the solve), so the first error is stored and all further
/// writes are skipped; [`JsonlSink::finish`] flushes and surfaces it.
pub struct JsonlSink<W: Write> {
    writer: W,
    lines: usize,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Sink over `writer` (wrap files in a [`std::io::BufWriter`]).
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink { writer, lines: 0, error: None }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Flush and return the writer, surfacing the first deferred I/O error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        match writeln!(self.writer, "{}", event.to_json()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// The emission handle threaded through the sweep pipeline: an optional sink
/// plus the solve's configured level, with inline early-return checks so a
/// disabled tracer costs one branch per site.
///
/// Hot paths guard event *construction* on [`Tracer::enabled`] (or the
/// [`Tracer::sweep_enabled`] / [`Tracer::rotation_enabled`] shorthands), so
/// with tracing off no event is ever built.
pub struct Tracer<'a, 'k> {
    sink: Option<&'a mut (dyn TraceSink + 'k)>,
    level: TraceLevel,
}

impl<'a, 'k> Tracer<'a, 'k> {
    /// A tracer that emits nothing (the untraced pipeline).
    pub fn disabled() -> Tracer<'static, 'static> {
        Tracer { sink: None, level: TraceLevel::Off }
    }

    /// Tracer over an optional sink, emitting events up to `level` —
    /// disabled when `sink` is `None`.
    pub fn attach(sink: Option<&'a mut (dyn TraceSink + 'k)>, level: TraceLevel) -> Tracer<'a, 'k> {
        Tracer { sink, level }
    }

    /// True when events of `level` would be emitted.
    #[inline]
    pub fn enabled(&self, level: TraceLevel) -> bool {
        self.sink.is_some() && self.level >= level
    }

    /// Shorthand for `enabled(TraceLevel::Sweep)`.
    #[inline]
    pub fn sweep_enabled(&self) -> bool {
        self.enabled(TraceLevel::Sweep)
    }

    /// Shorthand for `enabled(TraceLevel::Rotation)`.
    #[inline]
    pub fn rotation_enabled(&self) -> bool {
        self.enabled(TraceLevel::Rotation)
    }

    /// Emit `event` if the level admits it.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            if self.level >= event.level() {
                sink.record(&event);
            }
        }
    }
}

impl std::fmt::Debug for Tracer<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("attached", &self.sink.is_some())
            .field("level", &self.level)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(TraceLevel::Off < TraceLevel::Sweep);
        assert!(TraceLevel::Sweep < TraceLevel::Rotation);
        for l in [TraceLevel::Off, TraceLevel::Sweep, TraceLevel::Rotation] {
            assert_eq!(TraceLevel::parse(l.name()), Some(l));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
        assert_eq!(TraceLevel::parse("group"), None);
    }

    #[test]
    fn tracer_filters_by_level() {
        let mut sink = RingBufferSink::new(16);
        let mut t = Tracer::attach(Some(&mut sink), TraceLevel::Sweep);
        t.emit(TraceEvent::SweepStart { sweep: 1, engine: "sequential" });
        t.emit(TraceEvent::RotationApplied { sweep: 1, i: 0, j: 1 });
        assert_eq!(sink.events().len(), 1, "only the sweep-level event passes");
        assert!(!Tracer::disabled().sweep_enabled());
        assert!(!Tracer::attach(None, TraceLevel::Rotation).sweep_enabled(), "no sink, no events");
    }

    #[test]
    fn ring_buffer_keeps_most_recent_events() {
        let mut sink = RingBufferSink::new(3);
        for s in 1..=5 {
            sink.record(&TraceEvent::SweepStart { sweep: s, engine: "sequential" });
        }
        assert_eq!(sink.recorded(), 5);
        let sweeps: Vec<usize> = sink.events().iter().filter_map(|e| e.sweep()).collect();
        assert_eq!(sweeps, vec![3, 4, 5], "oldest events are overwritten in order");
        assert_eq!(
            TraceEvent::JobAdmitted { job: 1, class: "batch", queue_depth: 0 }.sweep(),
            None,
            "service events carry no sweep index"
        );
        sink.clear();
        assert!(sink.events().is_empty());
        assert_eq!(sink.recorded(), 5, "lifetime count survives clear");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceEvent::SweepStart { sweep: 1, engine: "sequential" });
        sink.record(&TraceEvent::ConvergenceCheck {
            sweep: 1,
            max_abs_cov: 0.25,
            off_frobenius: 1.5,
            converged: false,
        });
        assert_eq!(sink.lines(), 2);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"event\":\"sweep_start\",\"sweep\":1,\"engine\":\"sequential\"}");
        assert!(lines[1].contains("\"converged\":false"));
    }

    #[test]
    fn json_escapes_strings_and_nulls_non_finite() {
        let e = TraceEvent::PipelineStage {
            cycle: 7,
            component: "rotation",
            what: "say \"hi\"\n\tpath\\x".to_string(),
        };
        let j = e.to_json();
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\\t"));
        assert!(j.contains("\\\\x"));
        let e = TraceEvent::SweepEnd {
            sweep: 2,
            rotations_applied: 3,
            rotations_skipped: 0,
            off_frobenius: f64::NAN,
            seconds: 0.5,
        };
        assert!(e.to_json().contains("\"off_frobenius\":null"));
    }

    #[test]
    fn every_event_names_its_level() {
        let events = [
            TraceEvent::SweepStart { sweep: 1, engine: "sequential" },
            TraceEvent::SweepEnd {
                sweep: 1,
                rotations_applied: 1,
                rotations_skipped: 0,
                off_frobenius: 0.0,
                seconds: 0.0,
            },
            TraceEvent::RotationApplied { sweep: 1, i: 0, j: 1 },
            TraceEvent::RotationSkipped { sweep: 1, i: 0, j: 1, reason: SkipReason::RelativeGuard },
            TraceEvent::ConvergenceCheck {
                sweep: 1,
                max_abs_cov: 0.0,
                off_frobenius: 0.0,
                converged: true,
            },
            TraceEvent::JobAdmitted { job: 1, class: "interactive", queue_depth: 1 },
            TraceEvent::JobRejected { reason: "queue-full", queue_depth: 8 },
            TraceEvent::JobDispatched { job: 1, worker: 0 },
            TraceEvent::JobCompleted { job: 1, worker: 0, seconds: 0.01, sweeps: 6 },
            TraceEvent::JobFaulted { job: 2, worker: 1, fault: "deadline" },
            TraceEvent::PipelineStage { cycle: 0, component: "fifo", what: "drain".into() },
        ];
        for e in &events {
            let j = e.to_json();
            assert!(j.starts_with("{\"event\":\"") && j.ends_with('}'), "{j}");
            assert!(j.contains(e.name()), "{j}");
            assert!(e.level() >= TraceLevel::Sweep);
            assert!(!j.contains(",}") && !j.contains(",]"), "{j}");
        }
    }
}
