//! Fault taxonomy, health checking, and solve budgets.
//!
//! The paper's Algorithm 1 reads the matrix columns exactly once — every
//! sweep after the first trusts the in-place-updated covariance matrix
//! `D = AᵀA`. That single-pass discipline is the source of its efficiency
//! *and* its fragility: one overflowed squared norm, one NaN escaping an
//! ill-conditioned rotation, or one stalled off-diagonal silently corrupts
//! every remaining sweep, because nothing downstream ever looks at the
//! ground-truth columns again.
//!
//! This module is the detection half of the crate's fault-tolerance layer
//! (the prevention half — power-of-two pre-scaling — lives in
//! [`crate::svd`]):
//!
//! * [`Fault`] — the closed set of mid-solve failure classes.
//! * [`HealthCheck`] — a cheap `O(n)` per-sweep judgement of `D` run by
//!   [`crate::SolveDriver::run_monitored`] and by every lane of the SoA
//!   batch engine: non-finite metrics, negative diagonals (impossible for a
//!   true Gram matrix), and convergence stalls.
//! * [`SolveBudget`] — deadline/cancellation checked at sweep boundaries, so
//!   batch and CLI callers can bound worst-case latency.
//!
//! Every solve path has one fault rule: the check or the budget detects a
//! fault within one sweep, and the solve aborts with
//! [`crate::SvdError::SolveFault`]. Nothing is retried. The solve is
//! deterministic, so running it again could only repeat the fault, and a
//! finite input whose result fits in `f64` does not fault
//! (`tests/extreme_conditioning.rs` searches for one).
//!
//! Tests corrupt `D` mid-solve through the public seams, not through a
//! build option: a [`crate::SweepEngine`] that writes `D` before it
//! delegates to [`crate::engine::Sequential`] (`tests/fault_injection.rs`),
//! and a hook before each shared sweep of the SoA batch engine (its unit
//! tests).

use crate::convergence::SweepRecord;
use crate::gram::DiagonalScan;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A mid-solve failure detected by the [`HealthCheck`] or [`SolveBudget`].
///
/// Every variant carries the 1-based sweep index at which it was detected;
/// the health check runs after each sweep, so detection lags the underlying
/// corruption by at most one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A NaN or ±∞ reached the maintained covariance matrix — an overflowed
    /// squared norm or a poisoned rotation. From [`crate::eigh`] it can also
    /// mean a spectrum beyond `f64::MAX`, found when the eigenvalues of a
    /// prescaled solve are scaled back.
    NonFiniteGram {
        /// Sweep at which the non-finite value was detected.
        sweep: usize,
    },
    /// A diagonal entry of `D` went materially negative. `D = AᵀA` is
    /// positive semidefinite, so beyond roundoff dust this is impossible for
    /// an uncorrupted solve (a non-orthonormal "rotation" is the classic
    /// cause).
    NegativeDiagonal {
        /// Sweep at which the negative diagonal was detected.
        sweep: usize,
        /// Column index of the offending diagonal entry.
        index: usize,
    },
    /// The off-diagonal norm stopped decreasing while still far from
    /// convergence — the iteration is wedged (cyclically re-corrupted state,
    /// or pathological input below the guard's resolution).
    ConvergenceStall {
        /// Sweep at which the stall was declared.
        sweep: usize,
        /// Consecutive sweeps without meaningful progress.
        stalled_sweeps: usize,
    },
    /// The [`SolveBudget`] deadline passed before the solve converged.
    DeadlineExceeded {
        /// Sweep boundary at which the deadline was observed.
        sweep: usize,
    },
    /// The [`SolveBudget`] cancellation flag was raised by the caller.
    Cancelled {
        /// Sweep boundary at which the cancellation was observed.
        sweep: usize,
    },
}

impl Fault {
    /// Short machine-readable class name (stable; used by the CLI's
    /// structured error lines).
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::NonFiniteGram { .. } => "non-finite-gram",
            Fault::NegativeDiagonal { .. } => "negative-diagonal",
            Fault::ConvergenceStall { .. } => "stall",
            Fault::DeadlineExceeded { .. } => "deadline",
            Fault::Cancelled { .. } => "cancelled",
        }
    }

    /// The 1-based sweep index at which the fault was detected.
    pub fn sweep(&self) -> usize {
        match *self {
            Fault::NonFiniteGram { sweep }
            | Fault::NegativeDiagonal { sweep, .. }
            | Fault::ConvergenceStall { sweep, .. }
            | Fault::DeadlineExceeded { sweep }
            | Fault::Cancelled { sweep } => sweep,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::NonFiniteGram { sweep } => {
                write!(f, "non-finite value in the covariance matrix at sweep {sweep}")
            }
            Fault::NegativeDiagonal { sweep, index } => {
                write!(f, "negative diagonal D[{index}][{index}] at sweep {sweep}")
            }
            Fault::ConvergenceStall { sweep, stalled_sweeps } => {
                write!(f, "convergence stalled for {stalled_sweeps} sweeps (at sweep {sweep})")
            }
            Fault::DeadlineExceeded { sweep } => {
                write!(f, "deadline exceeded at sweep boundary {sweep}")
            }
            Fault::Cancelled { sweep } => write!(f, "cancelled at sweep boundary {sweep}"),
        }
    }
}

/// Relative tolerance below which a negative diagonal entry counts as
/// roundoff dust, not a fault. Legitimate dust sits many orders below this
/// (|D_ii| ≲ n·ε·max|D_kk| ≈ 1e-14·max), while corruption-induced negatives
/// are O(max) — the gap is wide on both sides.
const NEGATIVE_DIAG_TOL: f64 = 1e-10;

/// Relative floor below which the off-diagonal norm counts as converged dust
/// for stall purposes: no stall is ever declared once
/// `off(D) ≤ floor ≈ 1e-13·n·max|D_kk|`.
const STALL_OFF_FLOOR: f64 = 1e-13;

/// Minimum relative improvement per sweep that counts as progress for the
/// stall detector. Healthy Jacobi sweeps reduce `off(D)` by large factors
/// (quadratically near convergence); anything under 0.1% for several
/// consecutive sweeps means the iteration is wedged.
const STALL_MIN_PROGRESS: f64 = 1e-3;

/// Consecutive no-progress sweeps before a stall is declared. Jacobi
/// converges quadratically: six flat sweeps is decisively wedged, while
/// legitimate solves never produce even two.
const STALL_SWEEPS: usize = 6;

/// The per-sweep health judgement run by
/// [`crate::SolveDriver::run_monitored`] and by every lane of the SoA batch
/// engine — one rule for both paths.
///
/// Checks, in order: non-finite sweep metrics (one NaN/∞ anywhere in `D`
/// poisons the off-diagonal sums), non-finite or materially negative
/// diagonal entries, and convergence stalls (`off(D)` not decreasing across
/// six sweeps while still above the dust floor).
/// It reads the sweep's [`SweepRecord`] and a [`DiagonalScan`] of `D` that
/// the caller has already made, and allocates nothing, preserving the
/// engines' steady-state zero-allocation invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthCheck {
    /// Flag materially negative diagonals. Valid for Gram matrices (PSD by
    /// construction); must be `false` for the indefinite eigensolver, where
    /// negative diagonals are legitimate.
    pub negative_diagonal: bool,
}

impl Default for HealthCheck {
    /// The SVD drivers' check, negative diagonals included.
    fn default() -> Self {
        HealthCheck { negative_diagonal: true }
    }
}

impl HealthCheck {
    /// The indefinite-safe variant used by [`crate::eigh`]: negative
    /// diagonals are expected there, everything else still applies.
    pub fn indefinite() -> Self {
        HealthCheck { negative_diagonal: false }
    }

    /// Inspect the post-sweep state of an `n`-column `D`, given its
    /// diagonal `scan` and the sweep's record; returns the first fault
    /// found. `state` carries the stall detector's memory across the sweeps
    /// of one run.
    pub(crate) fn inspect(
        &self,
        scan: &DiagonalScan,
        n: usize,
        rec: &SweepRecord,
        state: &mut HealthState,
    ) -> Option<Fault> {
        // The sweep metrics are sums over every off-diagonal entry: a single
        // NaN/∞ anywhere poisons them, making this a full-matrix finiteness
        // probe at zero extra cost.
        if !rec.off_frobenius.is_finite() || !rec.mean_abs_cov.is_finite() {
            return Some(Fault::NonFiniteGram { sweep: rec.sweep });
        }
        if !scan.finite {
            return Some(Fault::NonFiniteGram { sweep: rec.sweep });
        }
        if self.negative_diagonal && scan.min < -NEGATIVE_DIAG_TOL * scan.max_abs {
            return Some(Fault::NegativeDiagonal { sweep: rec.sweep, index: scan.argmin });
        }
        let floor = STALL_OFF_FLOOR * scan.max_abs * n as f64;
        if rec.off_frobenius <= floor {
            // Converged dust region — by definition not a stall.
            state.stalled = 0;
        } else if rec.off_frobenius < state.best_off * (1.0 - STALL_MIN_PROGRESS) {
            state.stalled = 0;
        } else {
            state.stalled += 1;
            if state.stalled >= STALL_SWEEPS {
                return Some(Fault::ConvergenceStall {
                    sweep: rec.sweep,
                    stalled_sweeps: state.stalled,
                });
            }
        }
        state.best_off = state.best_off.min(rec.off_frobenius);
        None
    }
}

/// The stall detector's cross-sweep memory (one per run, or per SoA lane).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HealthState {
    best_off: f64,
    stalled: usize,
}

impl HealthState {
    pub(crate) fn new() -> Self {
        HealthState { best_off: f64::INFINITY, stalled: 0 }
    }
}

/// Latency bounds for one solve, checked at every sweep boundary by
/// [`crate::SolveDriver::run_monitored`].
///
/// Both limits are optional; the default has neither and never fires. The
/// cancellation flag is shared (`Arc`), so a batch caller can cancel many
/// in-flight solves with one store.
///
/// # Granularity
///
/// The budget is observed **only at sweep boundaries**: the check runs
/// immediately before each sweep starts, and a sweep in flight is never
/// interrupted. A solve can therefore overrun its deadline by up to one full
/// sweep (`O(n²)` rotations) before the fault surfaces — callers that need a
/// hard wall-clock bound should budget one sweep of slack. The flip side is
/// that an *already-expired* deadline is caught before any work happens: the
/// boundary check for sweep 1 fires first, so zero sweeps run and the solve
/// returns [`Fault::DeadlineExceeded`] without touching the input. All
/// deadline arithmetic saturates ([`SolveBudget::remaining`] reports
/// `Duration::ZERO` for a passed deadline; it never panics on underflow).
///
/// ```
/// use hj_core::SolveBudget;
/// use std::time::{Duration, Instant};
///
/// // Construct a budget from a wall-clock deadline (e.g. an RPC's
/// // "respond by" timestamp translated into the solver's terms).
/// let respond_by = Instant::now() + Duration::from_millis(250);
/// let budget = SolveBudget::with_deadline(respond_by);
/// assert!(budget.remaining().unwrap() <= Duration::from_millis(250));
/// assert_eq!(budget.check(1), None, "deadline still ahead");
///
/// // A deadline already in the past saturates instead of underflowing:
/// // remaining() is exactly zero and the very first boundary check —
/// // before sweep 1 runs — reports the fault, so no sweep executes.
/// let expired = SolveBudget::with_deadline(Instant::now() - Duration::from_millis(5));
/// assert_eq!(expired.remaining(), Some(Duration::ZERO));
/// assert!(expired.check(1).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    /// Absolute wall-clock deadline; sweeps do not start past it.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag; raised by the caller, observed at
    /// sweep boundaries.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl SolveBudget {
    /// No deadline, no cancellation — never fires.
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// Budget that expires `timeout` from now. Saturating: a `timeout` too
    /// large for the platform's `Instant` range clamps to the farthest
    /// representable deadline instead of panicking on overflow.
    pub fn with_timeout(timeout: Duration) -> Self {
        let now = Instant::now();
        let deadline = now
            .checked_add(timeout)
            // ~30 years: beyond any real solve, within Instant's range.
            .or_else(|| now.checked_add(Duration::from_secs(30 * 365 * 24 * 3600)))
            .unwrap_or(now);
        SolveBudget { deadline: Some(deadline), cancel: None }
    }

    /// Budget with an absolute deadline.
    pub fn with_deadline(deadline: Instant) -> Self {
        SolveBudget { deadline: Some(deadline), cancel: None }
    }

    /// Attach a shared cancellation flag (builder-style).
    pub fn cancelled_by(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Wall-clock time left before the deadline (`None` when no deadline is
    /// set). Saturates at [`Duration::ZERO`] once the deadline has passed —
    /// never an underflow panic — which is what guarantees an expired budget
    /// yields a clean [`Fault::DeadlineExceeded`] at the first sweep
    /// boundary rather than poisoning the solve.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Check both limits at the boundary before sweep `sweep` (1-based).
    /// Cancellation is reported ahead of the deadline when both hold.
    pub fn check(&self, sweep: usize) -> Option<Fault> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(Fault::Cancelled { sweep });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Fault::DeadlineExceeded { sweep });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::MAX_SWEEP_CAP;
    use crate::gram::GramState;
    use hj_matrix::{gen, PackedSymmetric};

    fn rec(sweep: usize, off: f64) -> SweepRecord {
        SweepRecord {
            sweep,
            mean_abs_cov: off,
            off_frobenius: off,
            max_abs_cov: off,
            rotations_applied: 1,
            rotations_skipped: 0,
        }
    }

    /// `hc` judging `g` after the sweep `rec` describes.
    fn inspect(
        hc: HealthCheck,
        g: &GramState,
        rec: &SweepRecord,
        st: &mut HealthState,
    ) -> Option<Fault> {
        hc.inspect(&g.diagonal_scan(), g.dim(), rec, st)
    }

    #[test]
    fn fault_kind_and_display_are_stable() {
        let faults = [
            Fault::NonFiniteGram { sweep: 2 },
            Fault::NegativeDiagonal { sweep: 3, index: 1 },
            Fault::ConvergenceStall { sweep: 9, stalled_sweeps: 6 },
            Fault::DeadlineExceeded { sweep: 4 },
            Fault::Cancelled { sweep: 5 },
        ];
        let kinds = ["non-finite-gram", "negative-diagonal", "stall", "deadline", "cancelled"];
        for (f, k) in faults.iter().zip(kinds) {
            assert_eq!(f.kind(), k);
            assert!(!f.to_string().is_empty());
        }
        assert_eq!(faults[0].sweep(), 2);
        assert_eq!(faults[2].sweep(), 9);
    }

    #[test]
    fn healthy_solve_raises_no_fault() {
        use crate::engine::{
            PairGuard, RotationTarget, Sequential, SolveDriver, SolveMonitor, SweepState,
        };
        use crate::ordering::{Ordering, Sweep, SweepSchedule};
        let a = gen::uniform(30, 8, 11);
        let mut g = GramState::from_matrix(&a);
        let mut state = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let mut plan = Sweep::new();
        let mut schedule =
            SweepSchedule { strategy: Ordering::RoundRobin, plan: &mut plan, threshold: None };
        // The monitored driver inspects `D` after every one of the ten sweeps.
        let mut monitor = SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::default());
        let driver =
            SolveDriver { convergence: crate::Convergence::FixedSweeps(10), max_sweeps: 10 };
        let run = driver.run_monitored(&mut Sequential, &mut state, &mut schedule, &mut monitor);
        assert_eq!(run.fault, None, "false positive");
        assert_eq!(run.history.len(), 10);
    }

    #[test]
    fn nan_in_gram_is_detected_via_sweep_metrics() {
        let a = gen::uniform(10, 4, 3);
        let g = GramState::from_matrix(&a);
        let hc = HealthCheck::default();
        let mut st = HealthState::new();
        let bad = rec(1, f64::NAN);
        assert_eq!(inspect(hc, &g, &bad, &mut st), Some(Fault::NonFiniteGram { sweep: 1 }));
    }

    #[test]
    fn nan_diagonal_is_detected_even_with_finite_metrics() {
        let mut p = PackedSymmetric::zeros(3);
        p.set(0, 0, 1.0);
        p.set(1, 1, f64::INFINITY);
        p.set(2, 2, 1.0);
        let g = GramState::from_packed(p);
        let hc = HealthCheck::default();
        let mut st = HealthState::new();
        assert_eq!(inspect(hc, &g, &rec(2, 0.5), &mut st), Some(Fault::NonFiniteGram { sweep: 2 }));
    }

    #[test]
    fn negative_diagonal_detected_and_dust_tolerated() {
        let mut p = PackedSymmetric::zeros(3);
        p.set(0, 0, 4.0);
        p.set(1, 1, -1e-14); // roundoff dust: fine
        p.set(2, 2, 1.0);
        let g = GramState::from_packed(p.clone());
        let hc = HealthCheck::default();
        let mut st = HealthState::new();
        assert_eq!(inspect(hc, &g, &rec(1, 0.1), &mut st), None);

        p.set(1, 1, -1.0); // material negative: fault, with the right index
        let g = GramState::from_packed(p.clone());
        assert_eq!(
            inspect(hc, &g, &rec(1, 0.1), &mut st),
            Some(Fault::NegativeDiagonal { sweep: 1, index: 1 })
        );

        // ... but the indefinite profile (eigh) accepts it.
        let mut st2 = HealthState::new();
        assert_eq!(inspect(HealthCheck::indefinite(), &g, &rec(1, 0.1), &mut st2), None);
    }

    #[test]
    fn stall_fires_after_window_and_resets_on_progress() {
        let a = gen::uniform(10, 4, 5);
        let g = GramState::from_matrix(&a);
        let hc = HealthCheck::default();
        let mut st = HealthState::new();
        let off = g.trace(); // far above the dust floor
        assert_eq!(inspect(hc, &g, &rec(1, off), &mut st), None);
        // Five flat sweeps (stalled = 1..=5) stay inside the window.
        for s in 2..=6 {
            assert_eq!(inspect(hc, &g, &rec(s, off), &mut st), None, "sweep {s}");
        }
        assert_eq!(inspect(hc, &g, &rec(7, off * 0.5), &mut st), None); // progress resets
        for s in 8..=12 {
            assert_eq!(inspect(hc, &g, &rec(s, off * 0.5), &mut st), None, "sweep {s}");
        }
        assert_eq!(
            inspect(hc, &g, &rec(13, off * 0.5), &mut st),
            Some(Fault::ConvergenceStall { sweep: 13, stalled_sweeps: STALL_SWEEPS })
        );
    }

    #[test]
    fn stall_never_fires_in_the_dust_region() {
        let a = gen::uniform(10, 4, 5);
        let g = GramState::from_matrix(&a);
        let hc = HealthCheck::default();
        let mut st = HealthState::new();
        let dust = 1e-16 * g.trace();
        for s in 1..=3 * STALL_SWEEPS {
            assert_eq!(inspect(hc, &g, &rec(s, dust), &mut st), None);
        }
    }

    #[test]
    fn budget_unlimited_never_fires() {
        let b = SolveBudget::unlimited();
        assert!(b.deadline.is_none() && b.cancel.is_none());
        for s in 1..=MAX_SWEEP_CAP {
            assert_eq!(b.check(s), None);
        }
    }

    #[test]
    fn budget_remaining_saturates_and_huge_timeouts_clamp() {
        assert_eq!(SolveBudget::unlimited().remaining(), None);
        let expired = SolveBudget::with_deadline(Instant::now() - Duration::from_millis(10));
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
        let ahead = SolveBudget::with_timeout(Duration::from_secs(60));
        let left = ahead.remaining().unwrap();
        assert!(left > Duration::from_secs(59) && left <= Duration::from_secs(60));
        // Duration::MAX overflows Instant arithmetic on every platform;
        // the saturating constructor must neither panic nor fire early.
        let huge = SolveBudget::with_timeout(Duration::MAX);
        assert_eq!(huge.check(1), None);
        assert!(huge.remaining().unwrap() > Duration::from_secs(3600));
    }

    #[test]
    fn budget_deadline_and_cancel_fire() {
        let expired = SolveBudget::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(expired.check(3), Some(Fault::DeadlineExceeded { sweep: 3 }));
        let future = SolveBudget::with_timeout(Duration::from_secs(3600));
        assert!(future.deadline.is_some() && future.cancel.is_none());
        assert_eq!(future.check(1), None);

        let flag = Arc::new(AtomicBool::new(false));
        let b = SolveBudget::unlimited().cancelled_by(Arc::clone(&flag));
        assert_eq!(b.check(1), None);
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.check(2), Some(Fault::Cancelled { sweep: 2 }));
        // Cancellation wins over an expired deadline.
        let both = SolveBudget::with_deadline(Instant::now() - Duration::from_millis(1))
            .cancelled_by(flag);
        assert_eq!(both.check(1), Some(Fault::Cancelled { sweep: 1 }));
    }
}
