//! The sweep-execution pipeline: one driver loop, one engine.
//!
//! The paper's machine is a single pipeline with pluggable phases
//! (preprocessor → rotation → update); this module is the software mirror of
//! that structure. Every solver in the crate — [`crate::HestenesSvd`]'s
//! values-only and full drivers, [`crate::eigh`], PCA, and the batch API —
//! runs its sweeps through exactly one loop, [`SolveDriver::run_monitored`],
//! against an engine implementing [`SweepEngine`]. The one engine is
//! [`Sequential`], faithful to Algorithm 1's data flow: pairs are visited
//! one at a time and `D` (plus any columns) is rotated in place.
//!
//! The paper's hardware issues each round of disjoint pairs to its rotation
//! units concurrently (Fig. 6). That concurrency is modelled cycle by cycle
//! in `hj-arch`'s rotation unit, not executed here: on a CPU with a few
//! cores, synchronizing once per round costs more than the round's work
//! (EXPERIMENTS.md, "One sweep engine"). A round kernel that wins on the
//! measurement ledger would enter as a second [`SweepEngine`].
//!
//! What gets rotated is expressed once, by [`RotationTarget`]: the Gram
//! matrix alone (values-only mode), Gram + matrix columns + accumulated `V`
//! (maintaining `B = A·V`), or Gram + `V` only (the eigensolver). Which
//! pairs are *skipped* is expressed once too, by [`PairGuard`]: the SVD
//! drivers' relative Drmač guard or the classical eigensolver's
//! diagonal-scaled threshold.
//!
//! The driver owns the shared machinery the old per-driver loops hand-copied:
//! planning the solve's one sweep plan, per-sweep wall-clock timing,
//! [`SweepRecord`] history, the health check, convergence checking, and
//! [`SolveStats`] accounting.

use crate::convergence::{is_converged, off_frobenius, Convergence, SweepRecord, MAX_SWEEP_CAP};
use crate::gram::GramState;
use crate::ordering::{Sweep, SweepSchedule};
use crate::recovery::{Fault, HealthCheck, HealthState, SolveBudget};
use crate::rotation::{pair_converged, textbook_params};
use crate::stats::SolveStats;
use crate::svd::Request;
use crate::trace::{SkipReason, TraceEvent, TraceLevel, Tracer};
use hj_matrix::Matrix;
use std::time::Instant;

/// Per-pair orthogonality guard used by the SVD drivers; pairs with
/// `|cov| ≤ PAIR_TOL·√(D_ii·D_jj)` are skipped. A few ulps above machine
/// epsilon: tight enough for 1e-14-level final accuracy, loose enough not to
/// churn on roundoff noise.
pub const PAIR_TOL: f64 = 1e-15;

/// Per-pair skip rule — decides, once per visited pair, whether the pair is
/// already numerically orthogonal and needs no rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairGuard {
    /// Skip when `|D_ij| ≤ tol·√(D_ii·D_jj)` — the Drmač guard the SVD
    /// drivers use (valid for the PSD Gram matrix).
    Relative {
        /// Relative tolerance (the drivers use [`PAIR_TOL`]).
        tol: f64,
    },
    /// Skip when `|D_ij| ≤ tol·max_k|D_kk|`, with the scale re-measured at
    /// the start of every sweep — the classical Jacobi eigensolver guard,
    /// valid for indefinite symmetric matrices (negative diagonals would make
    /// the `√(D_ii·D_jj)` guard meaningless).
    DiagonalScale {
        /// Relative tolerance against the largest |diagonal|.
        tol: f64,
    },
    /// The same `|D_ij| ≤ tol·√(D_ii·D_jj)` rule as [`PairGuard::Relative`]
    /// but with a *per-sweep* tolerance set by an active
    /// [`crate::ordering::ThresholdSchedule`] ramp — skipped pairs report
    /// [`SkipReason::ThresholdGuard`] so traces distinguish "converged"
    /// from "deferred by the ramp". Installed by the driver, not by callers.
    Threshold {
        /// This sweep's ramp tolerance (≥ [`PAIR_TOL`]).
        tol: f64,
    },
}

impl Default for PairGuard {
    /// The SVD drivers' guard: [`PairGuard::Relative`] at [`PAIR_TOL`].
    fn default() -> Self {
        PairGuard::Relative { tol: PAIR_TOL }
    }
}

impl PairGuard {
    /// Resolve the guard against the current `D` for one sweep (the
    /// diagonal-scaled rule samples `max|D_kk|` here).
    fn ready(&self, gram: &GramState) -> ReadyGuard {
        match *self {
            PairGuard::Relative { tol } => {
                ReadyGuard { relative: true, tol, scale: 0.0, reason: SkipReason::RelativeGuard }
            }
            PairGuard::Threshold { tol } => {
                ReadyGuard { relative: true, tol, scale: 0.0, reason: SkipReason::ThresholdGuard }
            }
            PairGuard::DiagonalScale { tol } => {
                let scale = gram.packed().diagonal().iter().fold(0.0f64, |m, &d| m.max(d.abs()));
                ReadyGuard {
                    relative: false,
                    tol,
                    scale: scale.max(f64::MIN_POSITIVE),
                    reason: SkipReason::DiagonalScaleGuard,
                }
            }
        }
    }
}

/// A [`PairGuard`] resolved for one sweep.
#[derive(Clone, Copy)]
struct ReadyGuard {
    relative: bool,
    tol: f64,
    scale: f64,
    reason: SkipReason,
}

impl ReadyGuard {
    /// True if the pair is already orthogonal enough to skip.
    #[inline]
    fn skip(&self, norm_i: f64, norm_j: f64, cov: f64) -> bool {
        if self.relative {
            pair_converged(norm_i, norm_j, cov, self.tol)
        } else {
            cov.abs() <= self.tol * self.scale
        }
    }

    /// The [`SkipReason`] this guard reports for skipped pairs.
    #[inline]
    fn reason(&self) -> SkipReason {
        self.reason
    }
}

/// What a sweep rotates besides the maintained covariance matrix `D` —
/// the single place the Gram-only / Gram+columns / Gram+columns+V decision
/// lives. The engine consumes this; no driver re-encodes it.
#[derive(Debug, Default)]
pub struct RotationTarget<'a> {
    /// Column data kept in sync with `D` (the evolving `B = A·V`);
    /// `None` in values-only mode.
    pub columns: Option<&'a mut Matrix>,
    /// Accumulated right-rotation matrix `V`; `None` when singular/eigen
    /// vectors are not needed.
    pub v: Option<&'a mut Matrix>,
}

impl<'a> RotationTarget<'a> {
    /// Rotate `D` only — the paper-faithful values-only mode.
    pub fn gram_only() -> RotationTarget<'static> {
        RotationTarget { columns: None, v: None }
    }

    /// Rotate `D`, the matrix columns, and accumulate `V` — full SVD mode.
    pub fn full(columns: &'a mut Matrix, v: &'a mut Matrix) -> RotationTarget<'a> {
        RotationTarget { columns: Some(columns), v: Some(v) }
    }

    /// Rotate `D` and accumulate `V` only — the eigensolver's mode (there is
    /// no separate column matrix; `D` *is* the data).
    pub fn accumulate(v: &'a mut Matrix) -> RotationTarget<'a> {
        RotationTarget { columns: None, v: Some(v) }
    }
}

/// Everything a sweep acts on: the maintained `D`, the rotation target, and
/// the pair guard. Borrowed mutably by [`SweepEngine::sweep`] each sweep.
#[derive(Debug)]
pub struct SweepState<'a> {
    /// The maintained covariance matrix `D`.
    pub gram: &'a mut GramState,
    /// What gets rotated alongside `D`.
    pub target: RotationTarget<'a>,
    /// The per-pair skip rule.
    pub guard: PairGuard,
}

/// A sweep-execution strategy. Implementations run exactly one sweep per
/// call and report it; the surrounding loop, timing, convergence checking,
/// and stats accounting belong to [`SolveDriver`].
pub trait SweepEngine {
    /// Canonical lowercase engine name (recorded into [`SolveStats`]).
    fn name(&self) -> &'static str;

    /// Run sweep number `idx` (1-based, label only) over `state` in the
    /// given pair order, emitting [`TraceEvent`]s through `tracer` at
    /// whatever granularity its level admits. With a disabled tracer this
    /// must be bit-identical to an untraced sweep (the emission sites cost
    /// one branch each).
    fn sweep_traced(
        &mut self,
        state: &mut SweepState<'_>,
        order: &Sweep,
        idx: usize,
        tracer: &mut Tracer<'_, '_>,
    ) -> SweepRecord;

    /// Run sweep number `idx` (1-based, label only) over `state` in the
    /// given pair order, without tracing. Provided: delegates to
    /// [`SweepEngine::sweep_traced`] with a disabled tracer.
    fn sweep(&mut self, state: &mut SweepState<'_>, order: &Sweep, idx: usize) -> SweepRecord {
        self.sweep_traced(state, order, idx, &mut Tracer::disabled())
    }
}

/// The in-place pair-at-a-time engine — Algorithm 1's literal data flow.
/// Stateless and allocation-free; works with any pair ordering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl SweepEngine for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn sweep_traced(
        &mut self,
        state: &mut SweepState<'_>,
        order: &Sweep,
        idx: usize,
        tracer: &mut Tracer<'_, '_>,
    ) -> SweepRecord {
        let guard = state.guard.ready(state.gram);
        let mut applied = 0usize;
        let mut skipped = 0usize;
        for (i, j) in order.pairs() {
            let (ni, nj, cov) =
                (state.gram.norm_sq(i), state.gram.norm_sq(j), state.gram.covariance(i, j));
            if guard.skip(ni, nj, cov) {
                skipped += 1;
                if tracer.rotation_enabled() {
                    tracer.emit(TraceEvent::RotationSkipped {
                        sweep: idx,
                        i,
                        j,
                        reason: guard.reason(),
                    });
                }
                continue;
            }
            let rot = textbook_params(ni, nj, cov);
            state.gram.rotate(i, j, &rot);
            if let Some(b) = state.target.columns.as_deref_mut() {
                b.column_pair(i, j).expect("sweep pairs are valid").rotate(rot.cos, rot.sin);
            }
            if let Some(vm) = state.target.v.as_deref_mut() {
                vm.column_pair(i, j).expect("sweep pairs are valid").rotate(rot.cos, rot.sin);
            }
            applied += 1;
            if tracer.rotation_enabled() {
                tracer.emit(TraceEvent::RotationApplied { sweep: idx, i, j });
            }
        }
        finish_record(state.gram, idx, applied, skipped)
    }
}

/// Close a sweep: its instrumentation record, labelled `sweep_index`.
fn finish_record(
    gram: &GramState,
    sweep_index: usize,
    applied: usize,
    skipped: usize,
) -> SweepRecord {
    // One fused triangle pass for all three metrics (bit-identical to the
    // three standalone passes this used to make).
    let sum = gram.off_summary();
    let n = gram.dim();
    let mean_abs_cov = if n < 2 { 0.0 } else { sum.abs_sum / ((n * (n - 1) / 2) as f64) };
    let d = gram.packed();
    let entries = (0..n).flat_map(|i| (i + 1..n).map(move |j| d.get(i, j)));
    let off = off_frobenius(sum.sum_sq, sum.max_abs, entries);
    SweepRecord {
        sweep: sweep_index,
        mean_abs_cov,
        off_frobenius: off,
        max_abs_cov: sum.max_abs,
        rotations_applied: applied,
        rotations_skipped: skipped,
    }
}

/// The one sweep loop in the crate. Owns planning, convergence checking,
/// per-sweep timing, history collection, and [`SolveStats`] accounting;
/// every solver API routes through [`SolveDriver::run_monitored`].
#[derive(Debug, Clone, Copy)]
pub struct SolveDriver {
    /// Stopping rule evaluated after every sweep.
    pub convergence: Convergence,
    /// Hard sweep budget (additionally capped at [`MAX_SWEEP_CAP`]).
    pub max_sweeps: usize,
}

/// Monitoring attached to one [`SolveDriver::run_monitored`] call: a latency
/// [`SolveBudget`] checked at sweep boundaries, the per-sweep
/// [`HealthCheck`], and the caller's [`Request`] (its trace sink). Nothing
/// here writes `D`: a test that corrupts a solve passes
/// [`SolveDriver::run_monitored`] its own [`SweepEngine`] instead.
pub struct SolveMonitor<'a> {
    /// Deadline/cancellation limits, checked before each sweep starts.
    pub budget: SolveBudget,
    /// Per-sweep `O(n)` scan of `D` for non-finite values, negative
    /// diagonals, and convergence stalls.
    pub health: HealthCheck,
    /// What the run is watched by; the default watches nothing (the
    /// untraced pipeline, bit for bit).
    pub request: Request<'a>,
}

impl std::fmt::Debug for SolveMonitor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveMonitor")
            .field("budget", &self.budget)
            .field("health", &self.health)
            .finish_non_exhaustive()
    }
}

impl<'a> SolveMonitor<'a> {
    /// Monitor with the given budget and health check and the default
    /// [`Request`].
    pub fn new(budget: SolveBudget, health: HealthCheck) -> SolveMonitor<'a> {
        SolveMonitor { budget, health, request: Request::default() }
    }
}

/// The outcome of one [`SolveDriver::run_monitored`] call.
#[derive(Debug)]
pub struct MonitoredRun {
    /// Per-sweep convergence records, in execution order.
    pub history: Vec<SweepRecord>,
    /// Filled stats for the run, faulted or not.
    pub stats: SolveStats,
    /// The fault that stopped the run, or `None` if it ran to convergence
    /// or exhausted its sweep budget cleanly. A caller that gets a fault
    /// aborts: [`crate::HestenesSvd`] and [`crate::eigh`] turn it into
    /// [`crate::SvdError::SolveFault`].
    pub fault: Option<Fault>,
}

impl SolveDriver {
    /// Run sweeps under a [`SolveMonitor`] until the stopping rule, the sweep
    /// budget or a fault ends the run. The budget is checked before each
    /// sweep starts; the schedule's ordering is planned into its plan buffer
    /// once, at sweep 1, and the plan is replayed every sweep; the health
    /// check inspects `D` after each sweep *before* convergence is evaluated
    /// (a corrupted state must never be declared converged), and the first
    /// fault ends the run.
    ///
    /// When the schedule carries a [`crate::ordering::ThresholdSchedule`],
    /// the driver installs a [`PairGuard::Threshold`] for every sweep whose
    /// ramp tolerance is still above [`PAIR_TOL`], restores the caller's
    /// guard once the ramp bottoms out, and suppresses the
    /// [`Convergence::NoRotations`] stopping rule while the ramp is active
    /// (a coarse guard's idle sweep is not convergence).
    pub fn run_monitored(
        &self,
        engine: &mut dyn SweepEngine,
        state: &mut SweepState<'_>,
        schedule: &mut SweepSchedule<'_>,
        monitor: &mut SolveMonitor<'_>,
    ) -> MonitoredRun {
        let n = state.gram.dim();
        let mut history = Vec::new();
        let mut stats = SolveStats::default();
        let mut health_state = HealthState::new();
        let mut fault = None;
        let cap = self.max_sweeps.min(MAX_SWEEP_CAP);
        let level = monitor.request.trace.as_ref().map_or(TraceLevel::Off, |(_, level)| *level);
        let sink = monitor.request.trace.as_mut().map(|(sink, _)| &mut **sink);
        let mut tracer = Tracer::attach(sink, level);
        let base_guard = state.guard;
        for s in 1..=cap {
            if let Some(f) = monitor.budget.check(s) {
                fault = Some(f);
                break;
            }
            // Sweep 1's clock covers the solve's planning.
            let t0 = Instant::now();
            if s == 1 {
                schedule.strategy.plan_into(n, schedule.plan);
            }
            let threshold_active = schedule.threshold.is_some_and(|th| th.active(s));
            if let Some(th) = schedule.threshold {
                state.guard = if threshold_active {
                    PairGuard::Threshold { tol: th.tol(s) }
                } else {
                    base_guard
                };
            }
            if tracer.sweep_enabled() {
                tracer.emit(TraceEvent::SweepStart { sweep: s, engine: engine.name() });
            }
            let rec = engine.sweep_traced(state, schedule.plan, s, &mut tracer);
            let seconds = t0.elapsed().as_secs_f64();
            stats.record_sweep(seconds, &rec);
            if threshold_active {
                stats.pairs_skipped_by_threshold += rec.rotations_skipped;
            }
            if tracer.sweep_enabled() {
                tracer.emit(TraceEvent::SweepEnd {
                    sweep: s,
                    rotations_applied: rec.rotations_applied,
                    rotations_skipped: rec.rotations_skipped,
                    off_frobenius: rec.off_frobenius,
                    seconds,
                });
            }
            history.push(rec);
            let scan = state.gram.diagonal_scan();
            if let Some(f) = monitor.health.inspect(&scan, n, &rec, &mut health_state) {
                fault = Some(f);
                break;
            }
            let converged =
                if threshold_active && matches!(self.convergence, Convergence::NoRotations) {
                    false
                } else {
                    is_converged(&self.convergence, &rec, state.gram.trace(), n)
                };
            if tracer.sweep_enabled() {
                tracer.emit(TraceEvent::ConvergenceCheck {
                    sweep: s,
                    max_abs_cov: rec.max_abs_cov,
                    off_frobenius: rec.off_frobenius,
                    converged,
                });
            }
            if converged {
                break;
            }
        }
        state.guard = base_guard;
        stats.engine = engine.name();
        stats.ordering = schedule.strategy.name();
        MonitoredRun { history, stats, fault }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::{round_robin, row_cyclic, Ordering, ThresholdSchedule};
    use hj_matrix::{gen, norms};

    fn driver() -> SolveDriver {
        SolveDriver { convergence: Convergence::default(), max_sweeps: MAX_SWEEP_CAP }
    }

    /// A run of `d` over the cyclic schedule under `budget` and the default
    /// health check, as the SVD drivers run it.
    fn run_cyclic(
        d: &SolveDriver,
        state: &mut SweepState<'_>,
        threshold: Option<ThresholdSchedule>,
        budget: SolveBudget,
    ) -> MonitoredRun {
        let mut plan = Sweep::new();
        let mut schedule =
            SweepSchedule { strategy: Ordering::RoundRobin, plan: &mut plan, threshold };
        let mut monitor = SolveMonitor::new(budget, HealthCheck::default());
        d.run_monitored(&mut Sequential, state, &mut schedule, &mut monitor)
    }

    /// One gram-only [`Sequential`] sweep.
    fn sweep_gram(gram: &mut GramState, order: &Sweep, s: usize) -> SweepRecord {
        let mut state =
            SweepState { gram, target: RotationTarget::gram_only(), guard: PairGuard::default() };
        Sequential.sweep(&mut state, order, s)
    }

    /// One [`Sequential`] sweep over `D`, the columns of `a` and (if given)
    /// the accumulated `V`.
    fn sweep_full(
        a: &mut Matrix,
        gram: &mut GramState,
        v: Option<&mut Matrix>,
        order: &Sweep,
        s: usize,
    ) -> SweepRecord {
        let target = RotationTarget { columns: Some(a), v };
        let mut state = SweepState { gram, target, guard: PairGuard::default() };
        Sequential.sweep(&mut state, order, s)
    }

    #[test]
    fn gram_only_sweep_reduces_off_mass() {
        let a = gen::uniform(30, 8, 11);
        let mut g = GramState::from_matrix(&a);
        let order = round_robin(8);
        let before = finish_record(&g, 0, 0, 0).off_frobenius;
        let rec = sweep_gram(&mut g, &order, 1);
        assert!(rec.off_frobenius < before);
        assert_eq!(rec.rotations_applied + rec.rotations_skipped, 8 * 7 / 2);
        assert_eq!(rec.sweep, 1);
    }

    #[test]
    fn repeated_sweeps_converge_to_diagonal() {
        let a = gen::uniform(20, 6, 3);
        let mut g = GramState::from_matrix(&a);
        let order = round_robin(6);
        (1..=10).for_each(|s| {
            sweep_gram(&mut g, &order, s);
        });
        let scale = g.trace() / 6.0;
        assert!(
            g.max_abs_covariance() <= 1e-13 * scale,
            "off-diagonal mass {} did not converge (scale {scale})",
            g.max_abs_covariance()
        );
    }

    #[test]
    fn row_cyclic_also_converges() {
        let a = gen::uniform(15, 5, 9);
        let mut g = GramState::from_matrix(&a);
        let order = row_cyclic(5);
        (1..=10).for_each(|s| {
            sweep_gram(&mut g, &order, s);
        });
        assert!(g.max_abs_covariance() <= 1e-13 * g.trace() / 5.0);
    }

    #[test]
    fn full_sweep_keeps_gram_consistent_with_rotated_columns() {
        let mut a = gen::uniform(25, 7, 4);
        let mut g = GramState::from_matrix(&a);
        let order = round_robin(7);
        sweep_full(&mut a, &mut g, None, &order, 1);
        let fresh = GramState::from_matrix(&a);
        for p in 0..7 {
            for q in p..7 {
                assert!(
                    (g.covariance(p, q) - fresh.covariance(p, q)).abs() < 1e-10,
                    "D[{p}][{q}] inconsistent with rotated columns"
                );
            }
        }
    }

    #[test]
    fn full_sweep_accumulates_v_such_that_av_equals_b() {
        let a0 = gen::uniform(12, 5, 21);
        let mut b = a0.clone();
        let mut g = GramState::from_matrix(&b);
        let mut v = Matrix::identity(5);
        let order = round_robin(5);
        (1..=8).for_each(|s| {
            sweep_full(&mut b, &mut g, Some(&mut v), &order, s);
        });
        // V must stay orthogonal and satisfy A·V = B.
        assert!(norms::orthonormality_error(&v) < 1e-12);
        let av = a0.matmul(&v).unwrap();
        let diff = av.sub(&b).unwrap();
        assert!(norms::frobenius(&diff) < 1e-10 * norms::frobenius(&a0).max(1.0));
        // And B's columns are mutually orthogonal after convergence.
        let bg = GramState::from_matrix(&b);
        assert!(bg.max_abs_covariance() < 1e-12 * bg.trace() / 5.0);
    }

    #[test]
    fn sweep_on_orthogonal_input_applies_nothing() {
        let q = gen::random_orthonormal(16, 6, 2);
        let mut g = GramState::from_matrix(&q);
        let order = round_robin(6);
        let rec = sweep_gram(&mut g, &order, 1);
        assert_eq!(rec.rotations_applied, 0);
        assert_eq!(rec.rotations_skipped, 15);
    }

    #[test]
    fn driver_times_and_records_every_sweep() {
        let a = gen::uniform(30, 10, 5);
        let mut gram = GramState::from_matrix(&a);
        let mut state = SweepState {
            gram: &mut gram,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let run = run_cyclic(&driver(), &mut state, None, SolveBudget::unlimited());
        let (history, stats) = (run.history, run.stats);
        assert_eq!(run.fault, None);
        assert!(!history.is_empty());
        assert_eq!(stats.sweeps, history.len());
        assert_eq!(stats.sweep_seconds.len(), history.len());
        assert_eq!(stats.engine, "sequential");
        assert_eq!(stats.ordering, "cyclic");
        assert_eq!(stats.rotations_applied, history.iter().map(|r| r.rotations_applied).sum());
    }

    #[test]
    fn driver_respects_fixed_sweep_budget() {
        let a = gen::uniform(40, 12, 9);
        let mut gram = GramState::from_matrix(&a);
        let mut state = SweepState {
            gram: &mut gram,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let d = SolveDriver { convergence: Convergence::FixedSweeps(3), max_sweeps: 10 };
        let run = run_cyclic(&d, &mut state, None, SolveBudget::unlimited());
        assert_eq!(run.history.len(), 3);
        assert_eq!(run.stats.sweeps, 3);
    }

    #[test]
    fn expired_deadline_stops_before_the_first_sweep() {
        let a = gen::uniform(30, 10, 2);
        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let budget = SolveBudget::with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let run = run_cyclic(&driver(), &mut st, None, budget);
        assert_eq!(run.fault, Some(Fault::DeadlineExceeded { sweep: 1 }));
        assert!(run.history.is_empty());
        assert_eq!(run.stats.sweeps, 0);
    }

    #[test]
    fn scheduled_cyclic_run_is_bit_identical_to_static_run() {
        // The driver over the cyclic schedule must be the plain loop of
        // sweeps over the fixed round-robin plan, bit for bit.
        let a = gen::uniform(40, 12, 31);
        let sweeps = 5;

        let mut g1 = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g1,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let order = round_robin(12);
        let h1: Vec<SweepRecord> =
            (1..=sweeps).map(|s| Sequential.sweep(&mut st, &order, s)).collect();

        let mut g2 = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g2,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let d = SolveDriver { convergence: Convergence::FixedSweeps(sweeps), max_sweeps: sweeps };
        let run = run_cyclic(&d, &mut st, None, SolveBudget::unlimited());
        assert_eq!(run.fault, None);
        assert_eq!(g1.packed().as_slice(), g2.packed().as_slice());
        assert_eq!(h1, run.history);
        assert_eq!(run.stats.ordering, "cyclic");
    }

    #[test]
    fn threshold_schedule_defers_pairs_then_restores_the_guard() {
        let a = gen::uniform(40, 10, 23);
        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        // A deliberately coarse ramp: sweep 1 skips almost everything.
        let th = ThresholdSchedule::new(0.5, 1e-3);
        let run = run_cyclic(&driver(), &mut st, Some(th), SolveBudget::unlimited());
        assert_eq!(run.fault, None);
        assert!(
            run.stats.pairs_skipped_by_threshold > 0,
            "the coarse early ramp must defer some pairs"
        );
        // The caller's guard is restored after the run.
        assert_eq!(st.guard, PairGuard::default());
        // And the solve still reaches the default convergence target.
        assert!(g.max_abs_covariance() <= 1e-14 * (g.trace() / 10.0).max(f64::MIN_POSITIVE));
    }

    #[test]
    fn no_rotations_rule_is_suppressed_while_the_ramp_is_active() {
        // With a guard so coarse that sweep 1 rotates nothing, NoRotations
        // must NOT stop the solve while the ramp is above the floor.
        let a = gen::uniform(30, 8, 41);
        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let th = ThresholdSchedule::new(10.0, 1e-2); // sweep 1 skips all pairs
        let d = SolveDriver { convergence: Convergence::NoRotations, max_sweeps: MAX_SWEEP_CAP };
        let run = run_cyclic(&d, &mut st, Some(th), SolveBudget::unlimited());
        assert_eq!(run.fault, None);
        assert!(run.history[0].rotations_applied == 0, "sweep 1 must be fully deferred");
        assert!(run.history.len() > 1, "NoRotations must not fire on a deferred sweep");
        assert_eq!(run.history.last().unwrap().rotations_applied, 0, "real convergence at the end");
    }

    #[test]
    fn diagonal_scale_guard_skips_relative_to_largest_diagonal() {
        // D = diag(4, 1) with off-diagonal 1e-10: the diagonal-scaled guard
        // at 1e-9 skips it (1e-10 ≤ 1e-9·4); at 1e-12 it rotates.
        let mut p = hj_matrix::PackedSymmetric::zeros(2);
        p.set(0, 0, 4.0);
        p.set(1, 1, 1.0);
        p.set(0, 1, 1e-10);
        let order = round_robin(2);
        for (tol, expect_applied) in [(1e-9, 0usize), (1e-12, 1usize)] {
            let mut g = GramState::from_packed(p.clone());
            let mut st = SweepState {
                gram: &mut g,
                target: RotationTarget::gram_only(),
                guard: PairGuard::DiagonalScale { tol },
            };
            let rec = Sequential.sweep(&mut st, &order, 1);
            assert_eq!(rec.rotations_applied, expect_applied, "tol {tol}");
        }
    }
}
