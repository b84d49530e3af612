//! Fault-injection campaign.
//!
//! Drives [`SolveDriver::run_monitored`], the one sweep loop every solve
//! runs, with a test-local [`SweepEngine`] that corrupts the solve
//! mid-flight: before it delegates each sweep to [`Sequential`], it writes
//! `D` or sleeps. The campaign proves the abort contract: every fault
//! class is detected by the health check within one sweep of firing, and
//! the run stops with the matching structured [`Fault`] at that sweep —
//! never retried, and never a silently wrong answer. The SoA batch
//! engine's lanes are corrupted the same way in its unit tests.

use hjsvd::core::engine::Sequential;
use hjsvd::core::ordering::Sweep;
use hjsvd::core::{
    Fault, GramState, HealthCheck, HestenesSvd, MonitoredRun, Ordering, PairGuard, Rotation,
    RotationTarget, SolveBudget, SolveDriver, SolveMonitor, SvdError, SvdOptions, SweepEngine,
    SweepRecord, SweepSchedule, SweepState, Tracer,
};
use hjsvd::matrix::{gen, Matrix};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

fn solver() -> HestenesSvd {
    HestenesSvd::new(SvdOptions::default())
}

/// [`Sequential`], with `before(sweep, D)` run ahead of every sweep.
struct Corrupting<F: FnMut(usize, &mut GramState)>(F);

impl<F: FnMut(usize, &mut GramState)> SweepEngine for Corrupting<F> {
    fn name(&self) -> &'static str {
        "corrupting"
    }

    fn sweep_traced(
        &mut self,
        state: &mut SweepState<'_>,
        order: &Sweep,
        idx: usize,
        tracer: &mut Tracer<'_, '_>,
    ) -> SweepRecord {
        (self.0)(idx, state.gram);
        Sequential.sweep_traced(state, order, idx, tracer)
    }
}

/// Overwrite `D[i][j]` (and `D[j][i]`) with `value`.
fn write(gram: &mut GramState, i: usize, j: usize, value: f64) {
    let mut d = gram.packed().clone();
    d.set(i, j, value);
    *gram = GramState::from_packed(d);
}

/// Solve `a` as the default solver does, on `engine` and under `budget`:
/// values only, or with the columns and `V` rotated too when `full`.
/// Returns the run and the final `D`.
fn run(
    a: &Matrix,
    full: bool,
    budget: SolveBudget,
    engine: &mut dyn SweepEngine,
) -> (MonitoredRun, GramState) {
    let opts = SvdOptions::default();
    let mut gram = GramState::from_matrix(a);
    let (mut b, mut v) = (a.clone(), Matrix::identity(a.cols()));
    let target =
        if full { RotationTarget::full(&mut b, &mut v) } else { RotationTarget::gram_only() };
    let mut state = SweepState { gram: &mut gram, target, guard: PairGuard::default() };
    let mut plan = Sweep::new();
    let mut schedule =
        SweepSchedule { strategy: Ordering::RoundRobin, plan: &mut plan, threshold: None };
    let mut monitor = SolveMonitor::new(budget, HealthCheck::default());
    let driver = SolveDriver { convergence: opts.convergence, max_sweeps: opts.max_sweeps };
    let run = driver.run_monitored(engine, &mut state, &mut schedule, &mut monitor);
    (run, gram)
}

/// A spectrum returned despite a corruption must match the clean solve to
/// `1e-10 · σ_max`.
fn assert_spectrum_close(got: &[f64], clean: &[f64]) {
    assert_eq!(got.len(), clean.len());
    let smax = clean[0].max(1e-300);
    for (k, (g, c)) in got.iter().zip(clean).enumerate() {
        assert!((g - c).abs() <= 1e-10 * smax, "σ[{k}] = {g} vs clean {c}");
    }
}

/// The values-only spectrum of a converged `D`: `√D_ii`, descending.
fn spectrum(gram: &GramState) -> Vec<f64> {
    let mut values = gram.singular_values_unsorted();
    values.sort_by(|x, y| y.partial_cmp(x).unwrap());
    values
}

#[test]
fn transient_nan_gram_entry_aborts_at_the_sweep_it_fired() {
    let a = gen::uniform(24, 8, 42);
    let mut fired = 0;
    let mut engine = Corrupting(|sweep, d: &mut GramState| {
        if sweep == 2 {
            write(d, 1, 4, f64::NAN);
            fired += 1;
        }
    });
    let (run, _) = run(&a, false, SolveBudget::unlimited(), &mut engine);
    assert_eq!(run.fault, Some(Fault::NonFiniteGram { sweep: 2 }));
    assert_eq!(run.history.len(), 2, "the corrupted sweep is the last one run");
    assert_eq!(fired, 1, "corruption fired once");
}

#[test]
fn transient_negative_diagonal_aborts_at_the_sweep_it_fired() {
    // A corrupted norm update: a squared column norm goes hard negative,
    // in a full solve that rotates the columns and `V` too.
    let a = gen::uniform(20, 6, 11);
    let mut fired = 0;
    let mut engine = Corrupting(|sweep, d: &mut GramState| {
        if sweep == 1 {
            write(d, 3, 3, -5.0);
            fired += 1;
        }
    });
    let (run, _) = run(&a, true, SolveBudget::unlimited(), &mut engine);
    assert!(
        matches!(run.fault, Some(Fault::NegativeDiagonal { sweep: 1, .. })),
        "expected a NegativeDiagonal fault at sweep 1, got {:?}",
        run.fault
    );
    assert_eq!(run.history.len(), 1, "the corrupted sweep is the last one run");
    assert_eq!(fired, 1, "corruption fired once");
}

#[test]
fn persistent_nan_aborts_with_non_finite_gram_fault() {
    let a = gen::uniform(18, 6, 5);
    let mut fired = 0;
    let mut engine = Corrupting(|_, d: &mut GramState| {
        write(d, 0, 2, f64::INFINITY);
        fired += 1;
    });
    let (run, _) = run(&a, false, SolveBudget::unlimited(), &mut engine);
    assert_eq!(run.fault, Some(Fault::NonFiniteGram { sweep: 1 }), "detected where it fired");
    assert_eq!(run.history.len(), 1);
    assert_eq!(fired, 1, "the solve aborted before the fault could re-fire");
}

#[test]
fn persistent_bogus_rotation_never_returns_a_silent_answer() {
    // A broken rotation kernel (cos² + sin² = 2) re-corrupts the Gram state
    // before every sweep. Whatever path the solve takes, the one forbidden
    // outcome is a clean run with a spectrum that disagrees with the clean
    // solve.
    let a = gen::uniform(20, 6, 17);
    let clean = solver().singular_values(&a).unwrap();
    let bogus = Rotation { cos: 1.0, sin: 1.0, t: 1.0 };
    let mut fired = 0;
    let mut engine = Corrupting(|_, d: &mut GramState| {
        d.rotate(1, 3, &bogus);
        fired += 1;
    });
    let (run, gram) = run(&a, false, SolveBudget::unlimited(), &mut engine);
    match run.fault {
        Some(fault) => assert!(
            matches!(
                fault,
                Fault::ConvergenceStall { .. }
                    | Fault::NonFiniteGram { .. }
                    // cos = sin = 1 makes d_j' = d_i + d_j − 2·cov, which
                    // goes negative whenever the pair is strongly
                    // correlated — the diagonal check fires first.
                    | Fault::NegativeDiagonal { .. }
            ),
            "unexpected fault class: {fault:?}"
        ),
        None => assert_spectrum_close(&spectrum(&gram), &clean.values),
    }
    assert!(fired > 0);
}

#[test]
fn slow_sweeps_trip_the_deadline() {
    let a = gen::uniform(30, 10, 23);
    let budget = SolveBudget::with_timeout(Duration::from_millis(20));
    let mut engine =
        Corrupting(|_, _: &mut GramState| std::thread::sleep(Duration::from_millis(60)));
    let (run, _) = run(&a, false, budget, &mut engine);
    match run.fault {
        Some(Fault::DeadlineExceeded { sweep }) => {
            assert!(sweep >= 2, "the first sweep ran before the deadline fired");
            assert_eq!(run.history.len(), sweep - 1, "no sweep runs past the deadline");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn cancellation_flag_aborts_between_sweeps() {
    let a = gen::uniform(16, 5, 29);
    let flag = Arc::new(AtomicBool::new(true));
    let s = solver().with_budget(SolveBudget::unlimited().cancelled_by(flag.clone()));
    let err = s.singular_values(&a).unwrap_err();
    assert!(
        matches!(
            err,
            SvdError::SolveFault { fault: Fault::Cancelled { sweep: 1 }, sweeps_completed: 0 }
        ),
        "pre-set flag stops before the first sweep: {err:?}"
    );
    // Clearing the flag lets the same solver run to completion.
    flag.store(false, AtomicOrdering::Relaxed);
    assert!(s.singular_values(&a).is_ok());
}

#[test]
fn injected_run_with_no_planned_corruptions_matches_clean_run_bitwise() {
    // The seam itself must not perturb results: a corrupting engine with
    // nothing planned reproduces `singular_values` bit for bit.
    let a = gen::uniform(20, 6, 53);
    let clean = solver().singular_values(&a).unwrap();
    let mut engine = Corrupting(|_, _: &mut GramState| {});
    let (run, gram) = run(&a, false, SolveBudget::unlimited(), &mut engine);
    assert_eq!(run.fault, None);
    assert_eq!(run.history, clean.history);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&spectrum(&gram)), bits(&clean.values));
}
