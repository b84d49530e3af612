//! The user-facing SVD drivers.
//!
//! [`HestenesSvd`] runs the modified Hestenes-Jacobi algorithm end to end:
//! Gram initialization (the preprocessor's job), iterated sweeps with the
//! chosen ordering and convergence rule, and the final square-root /
//! sort / normalization stage that turns the orthogonalized system into
//! `A = U Σ Vᵀ`.
//!
//! Each mode has one entry point, [`HestenesSvd::singular_values_with`] and
//! [`HestenesSvd::decompose_with`], taking a [`Request`]: what the solve is
//! watched by (a trace sink). The plain [`HestenesSvd::singular_values`]
//! and [`HestenesSvd::decompose`] pass the default request, which watches
//! nothing.

use crate::convergence::{Convergence, SweepRecord, MAX_SWEEP_CAP};
use crate::engine::{PairGuard, RotationTarget, Sequential, SolveDriver, SolveMonitor, SweepState};
use crate::gram::GramState;
use crate::ordering::{Ordering, Sweep, SweepSchedule, ThresholdSchedule};
use crate::recovery::{HealthCheck, SolveBudget};
use crate::stats::SolveStats;
use crate::trace::{TraceLevel, TraceSink};
use crate::SvdError;
use hj_matrix::{ops, Matrix};

/// Relative tolerance for the wide-matrix truncated-tail check: the
/// discarded spectrum mass (sum of discarded `σ²`) must stay below this
/// fraction of `trace(D) = ‖A‖_F²`. Converged solves leave only Gram-noise
/// dust in the tail (≈ `n·ε·trace ≈ 1e-14·trace`), while an unconverged
/// spectrum parks O(1) fractions of the mass there — `1e-12` separates the
/// two regimes by orders of magnitude on both sides.
const WIDE_TAIL_TOL: f64 = 1e-12;

/// Guarded-numerics safe window: inputs whose largest-entry binary exponent
/// `e` satisfies `|e| ≤ SAFE_EXP` are solved as-is, so ordinary inputs
/// compute the exact same bits as before the guard existed. Outside the
/// window, the input is pre-multiplied by the power of two `2^-e` — an
/// exact operation, exactly undone on the singular values at output.
///
/// What sets the bound: Gram entries are squares of the input (up to
/// `m·2^(2e+2)`), and the pair guard compares `D_ij²` with
/// `tol²·D_ii·D_jj`, a fourth power of the input scale damped by
/// `tol² ≈ 2^-100`. At `e = 250` (inputs up to ~1e75) that product stays
/// finite for any `m` below `2^59`. The off-diagonal norm of each sweep
/// record squares the Gram entries too, but it falls back to a scaled sum
/// when the plain one overflows (`convergence::off_frobenius`), so it does
/// not bound the window.
const SAFE_EXP: i32 = 250;

/// Above this magnitude the scale factor `2^k` itself leaves the normal
/// range, so the scaling is applied in two exact half-steps.
const EXP2_STEP_LIMIT: i32 = 900;

/// Binary exponent of `max_abs` (0 for zero or non-finite input).
pub(crate) fn max_exponent(max_abs: f64) -> i32 {
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs.log2().floor() as i32
    } else {
        0
    }
}

/// Pre-scaling exponent for an input whose largest entry has binary
/// exponent `e`: 0 inside the safe window (bit-preserving fast path),
/// `-e` outside it (normalizing the largest entry to `[1, 2)`).
pub(crate) fn prescale_exponent(max_abs: f64) -> i32 {
    let e = max_exponent(max_abs);
    if e.abs() <= SAFE_EXP {
        0
    } else {
        -e
    }
}

/// Multiply every value by `2^k`, exactly: the one power-of-two scaler of
/// every solve path. It prescales inputs (`k` = the prescale exponent) and
/// undoes that on spectra (`-k`), split into two half-steps when `2^k`
/// itself would be subnormal or infinite.
pub(crate) fn scale_exp2(values: &mut [f64], k: i32) {
    let steps = if k.abs() > EXP2_STEP_LIMIT { [k / 2, k - k / 2] } else { [k, 0] };
    for s in steps.into_iter().filter(|&s| s != 0) {
        let f = 2.0f64.powi(s);
        values.iter_mut().for_each(|v| *v *= f);
    }
}

/// The spectrum step of a values-only solve, scalar and SoA alike: take the
/// converged diagonal `D_ii`, clamp roundoff dust to zero and square-root
/// it, sort descending, check a wide matrix's discarded tail, keep
/// `min(rows, n)` values and undo the prescale `exp`.
///
/// A wide matrix (`rows < n`) has `rank ≤ rows`, so the `n − rows` values it
/// drops must be numerically zero; an unconverged solve leaves real mass
/// there and is refused rather than silently truncated. The tail ratio is
/// invariant under the uniform prescaling, so it is tested before the undo.
pub(crate) fn spectrum(mut d: Vec<f64>, rows: usize, exp: i32) -> Result<Vec<f64>, SvdError> {
    let trace: f64 = d.iter().sum();
    d.iter_mut().for_each(|v| *v = v.max(0.0).sqrt());
    d.sort_by(|x, y| y.partial_cmp(x).expect("finite values"));
    let k = rows.min(d.len());
    let tail_mass: f64 = d[k..].iter().map(|s| s * s).sum();
    if trace > 0.0 && tail_mass > trace * WIDE_TAIL_TOL {
        return Err(SvdError::TruncatedTailNotNegligible);
    }
    d.truncate(k);
    scale_exp2(&mut d, -exp);
    Ok(d)
}

/// What one solve is watched by: an optional trace sink with the level to
/// emit at. [`Request::default`] watches nothing — the plain solve that
/// [`HestenesSvd::singular_values`] and [`HestenesSvd::decompose`] run —
/// and [`Request::traced`] attaches a sink. A trace sink observes and never
/// influences: a traced solve computes the same bits as the plain one.
///
/// ```
/// use hj_core::{HestenesSvd, Request, RingBufferSink, SvdOptions, TraceLevel};
/// use hj_matrix::gen;
///
/// let a = gen::uniform(40, 10, 3);
/// let solver = HestenesSvd::new(SvdOptions::default());
/// let mut sink = RingBufferSink::new(1024);
/// let sv = solver.singular_values_with(&a, Request::traced(&mut sink, TraceLevel::Sweep)).unwrap();
/// assert_eq!(sv.values, solver.singular_values(&a).unwrap().values);
/// // One sweep_start + sweep_end + convergence_check triple per sweep.
/// assert_eq!(sink.recorded(), 3 * sv.sweeps);
/// ```
#[derive(Default)]
pub struct Request<'a> {
    /// Sink receiving the solve's [`TraceEvent`](crate::TraceEvent)s, with
    /// the finest [`TraceLevel`] to emit; `None` traces nothing.
    pub(crate) trace: Option<(&'a mut dyn TraceSink, TraceLevel)>,
}

impl<'a> Request<'a> {
    /// A request streaming the solve's events up to `level` into `sink`.
    pub fn traced(sink: &'a mut dyn TraceSink, level: TraceLevel) -> Self {
        Request { trace: Some((sink, level)) }
    }
}

/// Configuration for a Hestenes-Jacobi decomposition.
///
/// All fields have useful defaults; override selectively with struct-update
/// syntax:
///
/// ```
/// use hj_core::{HestenesSvd, Ordering, SvdOptions};
/// use hj_matrix::gen;
///
/// let options = SvdOptions { ordering: Ordering::RowCyclic, ..Default::default() };
/// let svd = HestenesSvd::new(options).decompose(&gen::uniform(30, 8, 1)).unwrap();
/// assert_eq!(svd.stats.ordering, "row-cyclic");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvdOptions {
    /// Stopping rule. Default: scale-relative covariance threshold.
    pub convergence: Convergence,
    /// Hard upper bound on sweeps regardless of the stopping rule.
    /// Default: [`MAX_SWEEP_CAP`].
    pub max_sweeps: usize,
    /// Pair visiting order (see [`crate::ordering`] for the strategy
    /// catalogue). Default: round-robin (the paper's cyclic order,
    /// bit-identical to the pre-subsystem schedule).
    pub ordering: Ordering,
    /// Optional per-sweep rotation-threshold ramp, composable with any
    /// ordering. `None` (the default) keeps the standard fixed pair guard —
    /// and the bit-identical default solve path.
    pub threshold: Option<ThresholdSchedule>,
}

impl Default for SvdOptions {
    fn default() -> Self {
        SvdOptions {
            convergence: Convergence::default(),
            max_sweeps: MAX_SWEEP_CAP,
            ordering: Ordering::RoundRobin,
            threshold: None,
        }
    }
}

impl SvdOptions {
    /// The paper's operating point: exactly 6 sweeps, cyclic order.
    pub fn paper() -> Self {
        SvdOptions {
            convergence: Convergence::FixedSweeps(6),
            max_sweeps: 6,
            ordering: Ordering::RoundRobin,
            threshold: None,
        }
    }
}

/// A computed thin SVD `A ≈ U Σ Vᵀ` with diagnostics.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × k` with `k = min(m, n)`. Columns whose
    /// singular value is (numerically) zero are zero columns — see
    /// [`Svd::rank`].
    pub u: Matrix,
    /// Singular values, length `k`, sorted descending, non-negative.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, `n × k`.
    pub v: Matrix,
    /// Number of sweeps executed.
    pub sweeps: usize,
    /// Per-sweep convergence measurements.
    pub history: Vec<SweepRecord>,
    /// Solve-level observability (timings, rotation counts, prescale).
    pub stats: SolveStats,
}

impl Svd {
    /// Numerical rank: number of singular values above
    /// `tol · max(m, n) · σ_max` (the LAPACK default rank rule).
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.singular_values.first().copied().unwrap_or(0.0);
        let (m, _) = self.u.shape();
        let n = self.v.rows();
        let cutoff = tol * m.max(n) as f64 * smax;
        self.singular_values.iter().take_while(|&&s| s > cutoff).count()
    }

    /// Reconstruct the rank-`r` truncation `A_r = U_r Σ_r V_rᵀ` — the
    /// dimensionality-reduction primitive behind the paper's PCA motivation.
    pub fn truncated(&self, r: usize) -> Matrix {
        let r = r.min(self.singular_values.len());
        let (m, _) = self.u.shape();
        let n = self.v.rows();
        let mut out = Matrix::zeros(m, n);
        for t in 0..r {
            let s = self.singular_values[t];
            if s == 0.0 {
                break;
            }
            let ut = self.u.col(t);
            for c in 0..n {
                let w = s * self.v.get(c, t);
                ops::axpy(w, ut, out.col_mut(c));
            }
        }
        out
    }
}

/// Result of the values-only driver.
#[derive(Debug, Clone)]
pub struct SingularValues {
    /// Singular values, length `min(m, n)`, sorted descending.
    pub values: Vec<f64>,
    /// Number of sweeps executed.
    pub sweeps: usize,
    /// Per-sweep convergence measurements.
    pub history: Vec<SweepRecord>,
    /// Solve-level observability (timings, rotation counts, prescale).
    pub stats: SolveStats,
}

/// The Hestenes-Jacobi SVD solver.
///
/// ```
/// use hj_core::{HestenesSvd, SvdOptions};
/// use hj_matrix::{gen, norms};
///
/// let a = gen::uniform(40, 10, 7);
/// let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
/// let err = norms::reconstruction_error(&a, &svd.u, &svd.singular_values, &svd.v);
/// assert!(err < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HestenesSvd {
    options: SvdOptions,
    budget: SolveBudget,
}

impl HestenesSvd {
    /// Create a solver with the given options and an unlimited
    /// [`SolveBudget`]. Every solve runs the default [`HealthCheck`] after
    /// each sweep.
    pub fn new(options: SvdOptions) -> Self {
        HestenesSvd { options, budget: SolveBudget::unlimited() }
    }

    /// The active options.
    pub fn options(&self) -> &SvdOptions {
        &self.options
    }

    /// The active solve budget (the batch engine checks it at shared sweep
    /// boundaries).
    pub(crate) fn budget(&self) -> &SolveBudget {
        &self.budget
    }

    /// Bound worst-case latency: the budget's deadline/cancellation flag is
    /// checked at every sweep boundary of every solve this solver runs.
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Compute only the singular values — the paper-faithful mode.
    ///
    /// Column data are read once (to form `D = AᵀA`); every subsequent sweep
    /// operates on `D` alone, exactly as the hardware does after
    /// reconfiguring the preprocessor into update kernels.
    ///
    /// ```
    /// use hj_core::{HestenesSvd, SvdOptions};
    /// use hj_matrix::gen;
    ///
    /// let a = gen::with_singular_values(30, 3, &[4.0, 2.0, 1.0], 5);
    /// let sv = HestenesSvd::new(SvdOptions::paper()).singular_values(&a).unwrap();
    /// assert_eq!(sv.sweeps, 6);                       // the paper's fixed budget
    /// assert!((sv.values[0] - 4.0).abs() < 1e-9);
    /// ```
    pub fn singular_values(&self, a: &Matrix) -> Result<SingularValues, SvdError> {
        self.singular_values_with(a, Request::default())
    }

    /// [`Self::singular_values`] watched by `request` (see [`Request`]).
    pub fn singular_values_with(
        &self,
        a: &Matrix,
        request: Request<'_>,
    ) -> Result<SingularValues, SvdError> {
        let GuardedSolve { gram, history, stats, .. } = self.solve_guarded(a, false, request)?;
        let values = spectrum(gram.packed().diagonal(), a.rows(), stats.prescale_exp)?;
        Ok(SingularValues { values, sweeps: history.len(), history, stats })
    }

    /// Run the guarded solve: reject inputs no solve accepts, build `D`
    /// while scanning the input, pre-scale out-of-window inputs, and run the
    /// monitored driver once on the [`Sequential`] engine under `request`.
    /// The first [`crate::recovery::Fault`] the monitor detects aborts the
    /// solve with [`SvdError::SolveFault`].
    ///
    /// The build scans `a` in the same pass ([`GramState::scanned`]), so an
    /// in-window input is read once. A build the scan stopped — a NaN or
    /// ±∞, or a running max outside the prescale window, whose unscaled
    /// products could be subnormal and slow — falls back to one full scan,
    /// which gives `NonFiniteInput` or the exact max, and `D` is then built
    /// from the input scaled by the exponent that max gives.
    fn solve_guarded(
        &self,
        a: &Matrix,
        full: bool,
        request: Request<'_>,
    ) -> Result<GuardedSolve, SvdError> {
        // Input errors come in the order `EmptyInput`, `NonFiniteInput`,
        // `ZeroSweepBudget`. The Gram build scans for non-finite entries, so
        // only a zero sweep budget, which builds nothing, scans here.
        if a.is_empty() {
            return Err(SvdError::EmptyInput);
        }
        if self.options.max_sweeps == 0 {
            ops::finite_max_abs(a.as_slice()).ok_or(SvdError::NonFiniteInput)?;
            return Err(SvdError::ZeroSweepBudget);
        }
        let scanned = GramState::scanned(a, |max_abs| prescale_exponent(max_abs) == 0);
        let (scanned, max_abs) = match scanned {
            Some((gram, max_abs)) => (Some(gram), max_abs),
            None => (None, ops::finite_max_abs(a.as_slice()).ok_or(SvdError::NonFiniteInput)?),
        };
        let exp = prescale_exponent(max_abs);
        let scaled = |a: &Matrix| {
            let mut b = a.clone();
            scale_exp2(b.as_mut_slice(), exp);
            b
        };
        // Full mode rotates the columns `B` of the prescaled input.
        let mut b = full.then(|| scaled(a));
        let mut gram = match (scanned, &b) {
            // The scanned build ran to the end inside the window.
            (Some(gram), _) if exp == 0 => gram,
            (_, Some(b)) => GramState::from_matrix(b),
            (_, None) if exp == 0 => GramState::from_matrix(a),
            (_, None) => GramState::from_matrix(&scaled(a)),
        };
        let mut v = full.then(|| Matrix::identity(a.cols()));
        let mut monitor = SolveMonitor {
            request,
            ..SolveMonitor::new(self.budget.clone(), HealthCheck::default())
        };
        let driver = SolveDriver {
            convergence: self.options.convergence,
            max_sweeps: self.options.max_sweeps.min(MAX_SWEEP_CAP),
        };
        let target = match (b.as_mut(), v.as_mut()) {
            (Some(b), Some(v)) => RotationTarget::full(b, v),
            _ => RotationTarget::gram_only(),
        };
        let mut state = SweepState { gram: &mut gram, target, guard: PairGuard::default() };
        let mut plan = Sweep::new();
        let mut schedule = SweepSchedule {
            strategy: self.options.ordering,
            plan: &mut plan,
            threshold: self.options.threshold,
        };
        let run = driver.run_monitored(&mut Sequential, &mut state, &mut schedule, &mut monitor);
        if let Some(fault) = run.fault {
            return Err(SvdError::SolveFault { fault, sweeps_completed: run.stats.sweeps });
        }
        let stats = SolveStats { prescale_exp: exp, ..run.stats };
        Ok(GuardedSolve { gram, b, v, history: run.history, stats })
    }

    /// Compute the full thin SVD `A = U Σ Vᵀ`.
    ///
    /// Unlike the values-only mode, columns are rotated in **every** sweep
    /// (maintaining `B = A·V`) and the rotations are accumulated into `V`;
    /// afterwards `U = B·Σ⁻¹` (paper's eq. (7)).
    pub fn decompose(&self, a: &Matrix) -> Result<Svd, SvdError> {
        self.decompose_with(a, Request::default())
    }

    /// [`Self::decompose`] watched by `request` (see [`Request`]).
    ///
    /// ```
    /// use hj_core::{HestenesSvd, JsonlSink, Request, SvdOptions, TraceLevel};
    /// use hj_matrix::gen;
    ///
    /// let a = gen::uniform(30, 8, 11);
    /// let mut sink = JsonlSink::new(Vec::new());
    /// let svd = HestenesSvd::new(SvdOptions::default())
    ///     .decompose_with(&a, Request::traced(&mut sink, TraceLevel::Sweep))
    ///     .unwrap();
    /// let jsonl = String::from_utf8(sink.finish().unwrap()).unwrap();
    /// assert_eq!(jsonl.lines().filter(|l| l.contains("sweep_end")).count(), svd.sweeps);
    /// ```
    pub fn decompose_with(&self, a: &Matrix, request: Request<'_>) -> Result<Svd, SvdError> {
        let GuardedSolve { b, v, history, stats, .. } = self.solve_guarded(a, true, request)?;
        let b = b.expect("full-mode solve maintains B");
        let v = v.expect("full-mode solve accumulates V");
        let (m, n) = a.shape();
        let k = m.min(n);
        let sweeps = history.len();

        // The factors are computed on the scaled system: `U` and `V` are
        // invariant under the uniform prescaling (the scale cancels in
        // `U = B·Σ⁻¹`), so only `Σ` is unscaled at the end. Σ comes from the
        // actual rotated columns, not the updated `D` (slightly more
        // accurate and free: one pass over B).
        let mut order_idx: Vec<usize> = (0..n).collect();
        let col_norms: Vec<f64> = (0..n).map(|c| ops::norm(b.col(c))).collect();
        order_idx.sort_by(|&x, &y| col_norms[y].partial_cmp(&col_norms[x]).expect("finite norms"));

        let mut u = Matrix::zeros(m, k);
        let mut sigma = Vec::with_capacity(k);
        let mut v_sorted = Matrix::zeros(n, k);
        // Zero-σ cutoff: below this, B's column is numerical noise and U's
        // column is left zero (its direction is not determined by the data).
        let smax = col_norms[order_idx[0]];
        let cutoff = smax * f64::EPSILON * m.max(n) as f64;
        for (t, &c) in order_idx.iter().take(k).enumerate() {
            let s = col_norms[c];
            sigma.push(s);
            if s > cutoff && s > 0.0 {
                let inv = 1.0 / s;
                let bc = b.col(c);
                let uc = u.col_mut(t);
                for (out, &x) in uc.iter_mut().zip(bc) {
                    *out = x * inv;
                }
            }
            v_sorted.col_mut(t).copy_from_slice(v.col(c));
        }
        scale_exp2(&mut sigma, -stats.prescale_exp);
        Ok(Svd { u, singular_values: sigma, v: v_sorted, sweeps, history, stats })
    }
}

/// A finished guarded solve, before factor extraction: the converged `D`,
/// the rotated columns `B` and accumulated `V` (full mode only), and the
/// history and stats, whose `prescale_exp` is still baked into the
/// spectrum.
struct GuardedSolve {
    gram: GramState,
    b: Option<Matrix>,
    v: Option<Matrix>,
    history: Vec<SweepRecord>,
    stats: SolveStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hj_matrix::{gen, norms};

    fn check_svd(a: &Matrix, svd: &Svd, tol: f64) {
        let err = norms::reconstruction_error(a, &svd.u, &svd.singular_values, &svd.v);
        assert!(err < tol, "reconstruction error {err} ≥ {tol}");
        assert!(
            svd.singular_values.windows(2).all(|w| w[0] >= w[1]),
            "singular values must be sorted descending: {:?}",
            svd.singular_values
        );
        assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn decompose_random_tall() {
        let a = gen::uniform(50, 12, 42);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        check_svd(&a, &svd, 1e-12);
        assert!(norms::orthonormality_error(&svd.u) < 1e-12);
        assert!(norms::orthonormality_error(&svd.v) < 1e-12);
    }

    #[test]
    fn decompose_square() {
        let a = gen::uniform(16, 16, 1);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        check_svd(&a, &svd, 1e-12);
    }

    #[test]
    fn decompose_wide_matrix() {
        // m < n: rank ≤ m, the trailing n−m implicit values are ~0 and the
        // thin factors have k = m columns.
        let a = gen::uniform(6, 20, 5);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert_eq!(svd.singular_values.len(), 6);
        assert_eq!(svd.u.shape(), (6, 6));
        assert_eq!(svd.v.shape(), (20, 6));
        check_svd(&a, &svd, 1e-11);
    }

    #[test]
    fn known_spectrum_is_recovered() {
        let sigma = [10.0, 5.0, 1.0, 0.1];
        let a = gen::with_singular_values(30, 4, &sigma, 77);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        for (got, want) in svd.singular_values.iter().zip(&sigma) {
            assert!(
                (got - want).abs() < 1e-12 * want.max(1.0),
                "singular value {got} vs expected {want}"
            );
        }
    }

    #[test]
    fn values_only_matches_decompose() {
        let a = gen::uniform(25, 10, 13);
        let solver = HestenesSvd::new(SvdOptions::default());
        let sv = solver.singular_values(&a).unwrap();
        let svd = solver.decompose(&a).unwrap();
        for (x, y) in sv.values.iter().zip(&svd.singular_values) {
            assert!((x - y).abs() < 1e-10 * x.max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn rank_deficient_input() {
        let a = gen::rank_deficient(20, 8, 3, 3);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        check_svd(&a, &svd, 1e-11);
        assert_eq!(svd.rank(f64::EPSILON), 3);
        // Zero singular values land at the tail.
        assert!(svd.singular_values[3] < 1e-12);
    }

    #[test]
    fn paper_options_run_exactly_six_sweeps() {
        let a = gen::uniform(64, 32, 8);
        let sv = HestenesSvd::new(SvdOptions::paper()).singular_values(&a).unwrap();
        assert_eq!(sv.sweeps, 6);
        assert_eq!(sv.history.len(), 6);
        // ... and six sweeps reach "reasonable convergence" on this size
        // (the paper's claim): covariance mass down by ≥ 7 orders.
        let last = sv.history.last().unwrap();
        assert!(last.mean_abs_cov < 1e-7 * sv.history[0].mean_abs_cov.max(1.0));
    }

    #[test]
    fn history_is_monotonically_converging() {
        let a = gen::uniform(40, 16, 4);
        let sv = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap();
        for w in sv.history.windows(2) {
            assert!(
                w[1].off_frobenius <= w[0].off_frobenius * (1.0 + 1e-12),
                "off(D) must not grow between sweeps: {w:?}"
            );
        }
    }

    #[test]
    fn truncated_reconstruction_improves_with_rank() {
        let a = gen::with_singular_values(20, 6, &[8.0, 4.0, 2.0, 1.0, 0.5, 0.25], 31);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        let mut prev = f64::INFINITY;
        for r in 1..=6 {
            let ar = svd.truncated(r);
            let err = norms::frobenius(&a.sub(&ar).unwrap());
            assert!(err < prev + 1e-12, "rank-{r} error {err} worse than rank-{} {prev}", r - 1);
            prev = err;
        }
        assert!(prev < 1e-10, "full-rank truncation must reconstruct A");
    }

    #[test]
    fn empty_and_nonfinite_inputs_error() {
        let solver = HestenesSvd::new(SvdOptions::default());
        assert!(matches!(solver.decompose(&Matrix::zeros(0, 4)), Err(SvdError::EmptyInput)));
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, f64::NAN);
        assert!(matches!(solver.decompose(&a), Err(SvdError::NonFiniteInput)));
        a.set(0, 0, f64::INFINITY);
        assert!(matches!(solver.singular_values(&a), Err(SvdError::NonFiniteInput)));
    }

    #[test]
    fn zero_matrix_decomposes() {
        let a = Matrix::zeros(5, 3);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert!(svd.singular_values.iter().all(|&s| s == 0.0));
        check_svd(&a, &svd, 1e-12);
    }

    #[test]
    fn single_column_matrix() {
        let a = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert!((svd.singular_values[0] - 5.0).abs() < 1e-12);
        check_svd(&a, &svd, 1e-14);
    }

    #[test]
    fn hilbert_matrix_high_relative_accuracy() {
        // One-sided Jacobi's signature property (Drmač): tiny singular values
        // of an ill-conditioned matrix computed to high relative accuracy.
        let h = gen::hilbert(8);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&h).unwrap();
        check_svd(&h, &svd, 1e-10);
        // κ(H₈) ≈ 1.5e10; the smallest σ is ~1e-10 and must be positive.
        assert!(svd.singular_values[7] > 0.0);
        assert!(svd.singular_values[0] / svd.singular_values[7] > 1e9);
    }

    #[test]
    fn stats_are_populated() {
        let a = gen::uniform(30, 10, 77);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert_eq!(svd.stats.engine, "sequential");
        assert_eq!(svd.stats.sweeps, svd.sweeps);
        assert_eq!(svd.stats.sweep_seconds.len(), svd.sweeps);
        assert_eq!(
            svd.stats.rotations_applied,
            svd.history.iter().map(|r| r.rotations_applied).sum::<usize>()
        );
        assert_eq!(svd.stats.prescale_exp, 0);
        let sv = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap();
        assert_eq!(sv.stats.sweeps, sv.sweeps);
        assert!(sv.stats.to_json().contains("\"sweeps\""));
        assert!(sv.stats.to_json().contains("\"engine\":\"sequential\""));
    }

    #[test]
    fn wide_values_only_truncates_only_numerically_zero_tail() {
        // 6×20: the Gram spectrum has 20 entries, 14 of which must be dust.
        let a = gen::uniform(6, 20, 5);
        let solver = HestenesSvd::new(SvdOptions::default());
        let sv = solver.singular_values(&a).unwrap();
        assert_eq!(sv.values.len(), 6);
        let svd = solver.decompose(&a).unwrap();
        for (x, y) in sv.values.iter().zip(&svd.singular_values) {
            assert!((x - y).abs() < 1e-10 * x.max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn wide_values_only_rejects_unconverged_truncation() {
        // One sweep is nowhere near convergence for 6×20, so the 14 discarded
        // diagonal entries still carry real spectrum mass → hard error, not
        // silently wrong values.
        let a = gen::uniform(6, 20, 5);
        let opts = SvdOptions {
            convergence: Convergence::FixedSweeps(1),
            max_sweeps: 1,
            ..Default::default()
        };
        assert!(matches!(
            HestenesSvd::new(opts).singular_values(&a),
            Err(SvdError::TruncatedTailNotNegligible)
        ));
        // Tall inputs never truncate, so a single sweep still returns Ok.
        let tall = gen::uniform(20, 6, 5);
        assert!(HestenesSvd::new(opts).singular_values(&tall).is_ok());
    }

    #[test]
    fn finite_input_with_overflowing_gram_solves_via_prescaling() {
        // Entries ~1e160 are finite, but squaring them (the Gram build)
        // overflows f64 — the exact hole the guarded-numerics pass closes.
        // σ(c·A) = c·σ(A) for c > 0, so the guarded solve of the huge matrix
        // must match the plain solve of the ordinary one, rescaled.
        let base = gen::uniform(20, 6, 41);
        let huge = base.scaled(1e160);
        assert!(huge.as_slice().iter().all(|v| v.is_finite()), "input itself is finite");
        let solver = HestenesSvd::new(SvdOptions::default());
        let clean = solver.decompose(&base).unwrap();

        let svd = solver.decompose(&huge).unwrap();
        assert_ne!(svd.stats.prescale_exp, 0, "guard must have engaged");
        assert!(svd.singular_values.iter().all(|s| s.is_finite()));
        assert!(svd.u.as_slice().iter().all(|v| v.is_finite()));
        for (got, want) in svd.singular_values.iter().zip(&clean.singular_values) {
            let scaled = want * 1e160;
            assert!(
                (got - scaled).abs() <= 1e-10 * clean.singular_values[0] * 1e160,
                "σ {got:e} vs expected {scaled:e}"
            );
        }
        let sv = solver.singular_values(&huge).unwrap();
        assert_ne!(sv.stats.prescale_exp, 0);
        for (x, y) in sv.values.iter().zip(&svd.singular_values) {
            assert!((x - y).abs() <= 1e-10 * svd.singular_values[0], "{x:e} vs {y:e}");
        }
    }

    #[test]
    fn tiny_input_with_underflowing_gram_solves_via_prescaling() {
        // Entries ~1e-170: every Gram entry (~1e-340) underflows to zero
        // without the guard, silently reporting an all-zero spectrum.
        let base = gen::uniform(15, 5, 42);
        let tiny = base.scaled(1e-170);
        let clean = HestenesSvd::new(SvdOptions::default()).decompose(&base).unwrap();
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&tiny).unwrap();
        assert_ne!(svd.stats.prescale_exp, 0);
        assert!(svd.singular_values[0] > 0.0, "spectrum must not underflow to zero");
        for (got, want) in svd.singular_values.iter().zip(&clean.singular_values) {
            let scaled = want * 1e-170;
            assert!(
                (got - scaled).abs() <= 1e-10 * clean.singular_values[0] * 1e-170,
                "σ {got:e} vs expected {scaled:e}"
            );
        }
    }

    #[test]
    fn prescaling_is_inactive_inside_the_safe_window() {
        // Ordinary inputs (anything within ±250 binary orders, ~1e±75) take
        // the bit-preserving fast path: no scaling, prescale_exp = 0.
        for scale in [1.0, 1e-70, 1e70] {
            let a = gen::uniform(12, 4, 9).scaled(scale);
            let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
            assert_eq!(svd.stats.prescale_exp, 0, "scale {scale:e}");
        }
    }

    #[test]
    fn expired_budget_surfaces_a_structured_solve_fault() {
        use crate::recovery::Fault;
        use std::time::{Duration, Instant};
        let a = gen::uniform(20, 8, 17);
        let solver = HestenesSvd::new(SvdOptions::default())
            .with_budget(SolveBudget::with_deadline(Instant::now() - Duration::from_millis(1)));
        match solver.decompose(&a) {
            Err(SvdError::SolveFault { fault, sweeps_completed }) => {
                assert_eq!(fault, Fault::DeadlineExceeded { sweep: 1 });
                assert_eq!(sweeps_completed, 0);
            }
            other => panic!("expected SolveFault, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_flag_stops_the_solve() {
        use crate::recovery::Fault;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let a = gen::uniform(20, 8, 18);
        let flag = Arc::new(AtomicBool::new(true)); // pre-cancelled
        let solver = HestenesSvd::new(SvdOptions::default())
            .with_budget(SolveBudget::unlimited().cancelled_by(flag));
        match solver.singular_values(&a) {
            Err(SvdError::SolveFault { fault, .. }) => {
                assert_eq!(fault, Fault::Cancelled { sweep: 1 });
            }
            other => panic!("expected SolveFault, got {other:?}"),
        }
    }

    #[test]
    fn invalid_option_combinations_error() {
        let a = gen::uniform(4, 4, 0);
        for ordering in Ordering::ALL {
            let opts = SvdOptions { ordering, ..Default::default() };
            assert!(HestenesSvd::new(opts).decompose(&a).is_ok(), "{ordering:?}");
        }
        let opts = SvdOptions { max_sweeps: 0, ..Default::default() };
        assert!(matches!(HestenesSvd::new(opts).decompose(&a), Err(SvdError::ZeroSweepBudget)));
    }

    #[test]
    fn every_ordering_converges() {
        let a = gen::uniform(40, 12, 19);
        let reference = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        for ordering in Ordering::ALL {
            let opts = SvdOptions { ordering, ..Default::default() };
            let svd = HestenesSvd::new(opts).decompose(&a).unwrap();
            check_svd(&a, &svd, 1e-11);
            assert_eq!(svd.stats.ordering, ordering.name(), "{ordering:?}");
            for (x, y) in svd.singular_values.iter().zip(&reference.singular_values) {
                assert!((x - y).abs() < 1e-10 * y.max(1.0), "{ordering:?}: σ {x} vs {y}");
            }
        }
    }

    #[test]
    fn cyclic_ordering_is_bit_identical_to_the_default_path() {
        // The Cyclic strategy must reproduce the pre-subsystem round-robin
        // schedule exactly, so the default options' results are pinned bitwise
        // across the refactor (same rotations in the same order).
        let a = gen::uniform(36, 11, 23);
        let opts = SvdOptions { ordering: Ordering::RoundRobin, ..Default::default() };
        let one = HestenesSvd::new(opts).decompose(&a).unwrap();
        let two = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert_eq!(one.singular_values, two.singular_values);
        assert_eq!(one.u.as_slice(), two.u.as_slice());
        assert_eq!(one.v.as_slice(), two.v.as_slice());
        assert_eq!(one.stats.ordering, "cyclic");
    }

    #[test]
    fn threshold_schedule_converges_and_reports_skips() {
        let a = gen::uniform(48, 16, 29);
        let opts =
            SvdOptions { threshold: Some(ThresholdSchedule::default()), ..Default::default() };
        let svd = HestenesSvd::new(opts).decompose(&a).unwrap();
        check_svd(&a, &svd, 1e-11);
        assert!(
            svd.stats.pairs_skipped_by_threshold > 0,
            "the early coarse sweeps must defer some pairs"
        );
        // The default path must not carry threshold accounting.
        let plain = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert_eq!(plain.stats.pairs_skipped_by_threshold, 0);
    }
}
