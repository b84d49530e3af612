//! Fault-injection campaign (requires `--features fault-injection`).
//!
//! Drives the public solver API with a deterministic [`SeededInjector`],
//! attached through [`Request`]'s `injector` field, corrupting the solve
//! mid-flight, and proves the abort contract: every
//! fault class is detected by the health check within one sweep of firing,
//! and the solve is *rejected* with the matching structured
//! [`SvdError::SolveFault`] at that sweep — never retried, and never a
//! silently wrong answer.
#![cfg(feature = "fault-injection")]

use hjsvd::core::{
    Corruption, Fault, HestenesSvd, Request, SeededInjector, SolveBudget, SvdError, SvdOptions,
};
use hjsvd::matrix::gen;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn solver() -> HestenesSvd {
    HestenesSvd::new(SvdOptions::default())
}

/// A request that watches the solve with `injector`.
fn injecting(injector: &mut SeededInjector) -> Request<'_> {
    Request { injector: Some(injector), ..Request::default() }
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

#[test]
fn transient_nan_gram_entry_aborts_at_the_sweep_it_fired() {
    let a = gen::uniform(24, 8, 42);
    let mut inj =
        SeededInjector::new(7).at_sweep(2, Corruption::GramEntry { i: 1, j: 4, value: f64::NAN });
    match solver().singular_values_with(&a, injecting(&mut inj)) {
        Err(SvdError::SolveFault { fault, sweeps_completed }) => {
            assert_eq!(fault, Fault::NonFiniteGram { sweep: 2 });
            assert_eq!(sweeps_completed, 2, "the corrupted sweep is the last one run");
        }
        other => panic!("expected NonFiniteGram SolveFault, got {other:?}"),
    }
    assert_eq!(inj.fired().len(), 1, "corruption fired once");
}

#[test]
fn transient_negative_diagonal_aborts_at_the_sweep_it_fired() {
    // A corrupted norm update: a squared column norm goes hard negative.
    let a = gen::uniform(20, 6, 11);
    let mut inj =
        SeededInjector::new(3).at_sweep(1, Corruption::GramEntry { i: 3, j: 3, value: -5.0 });
    match solver().decompose_with(&a, injecting(&mut inj)) {
        Err(SvdError::SolveFault {
            fault: Fault::NegativeDiagonal { sweep, .. },
            sweeps_completed,
        }) => {
            assert_eq!(sweep, 1);
            assert_eq!(sweeps_completed, 1, "the corrupted sweep is the last one run");
        }
        other => panic!("expected NegativeDiagonal SolveFault, got {other:?}"),
    }
    assert_eq!(inj.fired().len(), 1, "corruption fired once");
}

#[test]
fn persistent_nan_aborts_with_non_finite_gram_fault() {
    let a = gen::uniform(18, 6, 5);
    let s = solver();
    let mut inj = SeededInjector::new(9)
        .at_sweep(1, Corruption::GramEntry { i: 0, j: 2, value: f64::INFINITY })
        .persistent();
    let err = s.singular_values_with(&a, injecting(&mut inj)).unwrap_err();
    match err {
        SvdError::SolveFault { fault: Fault::NonFiniteGram { sweep }, sweeps_completed } => {
            assert_eq!(sweep, 1, "detected in the sweep the corruption fired");
            assert_eq!(sweeps_completed, 1);
        }
        other => panic!("expected NonFiniteGram SolveFault, got {other:?}"),
    }
    assert_eq!(inj.fired().len(), 1, "the solve aborted before the fault could re-fire");
}

#[test]
fn persistent_bogus_rotation_never_returns_a_silent_answer() {
    // A broken rotation kernel (cos² + sin² = 2) re-corrupts the Gram state
    // before every sweep. Whatever path the solve takes, the one forbidden
    // outcome is Ok with a spectrum that disagrees with the clean solve.
    let a = gen::uniform(20, 6, 17);
    let s = solver();
    let clean = s.singular_values(&a).unwrap();
    let mut inj = SeededInjector::new(31)
        .at_sweep(1, Corruption::BogusRotation { i: 1, j: 3, cos: 1.0, sin: 1.0 })
        .persistent();
    match s.singular_values_with(&a, injecting(&mut inj)) {
        Err(SvdError::SolveFault { fault, .. }) => {
            assert!(
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
            );
        }
        Err(other) => panic!("expected a SolveFault, got {other:?}"),
        Ok(sv) => assert_spectrum_close(&sv.values, &clean.values),
    }
    assert!(!inj.fired().is_empty());
}

#[test]
fn slow_sweeps_trip_the_deadline() {
    let a = gen::uniform(30, 10, 23);
    let s = solver().with_budget(SolveBudget::with_timeout(Duration::from_millis(20)));
    let mut inj = SeededInjector::new(1).at_sweep(1, Corruption::Delay { millis: 60 }).persistent();
    let err = s.singular_values_with(&a, injecting(&mut inj)).unwrap_err();
    match err {
        SvdError::SolveFault { fault: Fault::DeadlineExceeded { sweep }, sweeps_completed } => {
            assert!(sweep >= 2, "the first sweep ran before the deadline fired");
            assert_eq!(sweeps_completed, sweep - 1, "no sweep runs past the deadline");
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
    flag.store(false, Ordering::Relaxed);
    assert!(s.singular_values(&a).is_ok());
}

#[test]
fn injected_run_with_no_planned_corruptions_matches_clean_run_bitwise() {
    // The monitoring/injection plumbing itself must not perturb results.
    let a = gen::uniform(20, 6, 53);
    let s = solver();
    let clean = s.decompose(&a).unwrap();
    let mut inj = SeededInjector::new(1);
    let injected = s.decompose_with(&a, injecting(&mut inj)).unwrap();
    assert!(inj.fired().is_empty());
    assert_eq!(injected.singular_values, clean.singular_values);
    assert_eq!(injected.u.as_slice(), clean.u.as_slice());
    assert_eq!(injected.v.as_slice(), clean.v.as_slice());
}

#[test]
fn poisoned_batch_lane_aborts_alone_and_neighbors_are_bit_unaffected() {
    // Per-lane fault isolation in the SoA batch engine: a NaN written into
    // one problem's interleaved Gram triangle aborts THAT lane with a
    // structured non-finite-gram fault, while every other lane's spectrum,
    // sweep count, and history match the clean batch run bit-for-bit — the
    // software analogue of the paper's independent processing elements.
    use hjsvd::core::batch_engine::{BatchDriver, BatchWorkspace, LaneCorruption};

    let mats: Vec<_> = (0..12).map(|k| gen::uniform(18, 6, 500 + k)).collect();
    let s = solver();
    let clean = BatchDriver::new(&s).solve(&mut BatchWorkspace::new(), &mats);

    let driver = BatchDriver::new(&s);
    let mut ws = BatchWorkspace::new();
    driver.load(&mut ws, &mats);
    let plan = [LaneCorruption { problem: 4, sweep: 2, i: 1, j: 3, value: f64::NAN }];
    driver.sweep_to_convergence_corrupted(&mut ws, &plan);
    let batch = driver.extract(&ws, &mats);

    for (p, (res, want)) in batch.iter().zip(&clean).enumerate() {
        if p == 4 {
            match res {
                Err(SvdError::SolveFault { fault, sweeps_completed, .. }) => {
                    assert_eq!(fault.kind(), "non-finite-gram", "{fault}");
                    assert!(*sweeps_completed >= 2, "detected at the poisoned sweep");
                }
                other => panic!("poisoned lane must abort with a solve fault, got {other:?}"),
            }
        } else {
            let (got, want) = (res.as_ref().unwrap(), want.as_ref().unwrap());
            assert_eq!(got.values, want.values, "lane {p} perturbed by its neighbor's fault");
            assert_eq!(got.sweeps, want.sweeps, "lane {p} sweep count drifted");
            assert_eq!(got.history, want.history, "lane {p} history drifted");
        }
    }
}

#[test]
fn multiple_poisoned_lanes_fail_independently() {
    // Several corrupted lanes, several fault classes (NaN gram entry and a
    // hard-negative diagonal), one shared sweep loop: each poisoned lane
    // reports its own fault; the survivors still match the clean run.
    use hjsvd::core::batch_engine::{BatchDriver, BatchWorkspace, LaneCorruption};

    let mats: Vec<_> = (0..8).map(|k| gen::uniform(16, 5, 800 + k)).collect();
    let s = solver();
    let clean = BatchDriver::new(&s).solve(&mut BatchWorkspace::new(), &mats);

    let driver = BatchDriver::new(&s);
    let mut ws = BatchWorkspace::new();
    driver.load(&mut ws, &mats);
    let plan = [
        LaneCorruption { problem: 1, sweep: 1, i: 0, j: 2, value: f64::NAN },
        LaneCorruption { problem: 6, sweep: 2, i: 3, j: 3, value: -1e12 },
    ];
    driver.sweep_to_convergence_corrupted(&mut ws, &plan);
    let batch = driver.extract(&ws, &mats);

    let mut kinds = Vec::new();
    for (p, (res, want)) in batch.iter().zip(&clean).enumerate() {
        match (p, res) {
            (1 | 6, Err(SvdError::SolveFault { fault, .. })) => kinds.push(fault.kind()),
            (1 | 6, other) => panic!("lane {p} must abort, got {other:?}"),
            (_, res) => {
                let (got, want) = (res.as_ref().unwrap(), want.as_ref().unwrap());
                assert_eq!(got.values, want.values, "lane {p} perturbed");
            }
        }
    }
    assert_eq!(kinds, ["non-finite-gram", "negative-diagonal"]);
}
