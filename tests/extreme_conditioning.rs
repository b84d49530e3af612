//! Property tests at the edges of f64: column scales spanning
//! `1e-150..1e150`, rank-deficient inputs, duplicated columns. The contract
//! under test is the guarded-numerics guarantee:
//! the guarded solver either converges with an entirely finite
//! factorization or fails loudly with a structured error. It never returns
//! NaN, and it never returns silently wrong values.
//!
//! Inputs at the top of the prescale window, and huge symmetric matrices
//! for `eigh`, have a finite `D` whose squared entries overflow. They must
//! solve without a fault on every path.

use hjsvd::core::{eigh, BatchDriver, BatchWorkspace, HestenesSvd, Ordering, SvdOptions};
use hjsvd::matrix::{gen, Matrix};
use proptest::prelude::*;

/// Deterministic per-column decimal exponents in `[-150, 150]` from a seed.
fn column_exponents(seed: u64, n: usize) -> Vec<i32> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 301) as i32 - 150
        })
        .collect()
}

fn scale_columns(a: &mut Matrix, exps: &[i32]) {
    for (k, &e) in exps.iter().enumerate() {
        let s = 10f64.powi(e);
        for v in a.col_mut(k) {
            *v *= s;
        }
    }
}

/// `Ok` must mean *every* output value is finite and the spectrum is sorted
/// descending and non-negative; anything else is only acceptable as an `Err`.
fn assert_finite_or_loud(a: &Matrix) -> Result<(), TestCaseError> {
    let solver = HestenesSvd::new(SvdOptions::default());
    match solver.decompose(a) {
        Err(_) => {} // loud failure is a valid outcome at the extremes
        Ok(svd) => {
            prop_assert!(
                svd.singular_values.iter().all(|v| v.is_finite() && *v >= 0.0),
                "non-finite or negative σ: {:?}",
                svd.singular_values
            );
            prop_assert!(
                svd.singular_values.windows(2).all(|w| w[0] >= w[1]),
                "σ not sorted descending"
            );
            prop_assert!(svd.u.as_slice().iter().all(|v| v.is_finite()), "NaN/∞ in U");
            prop_assert!(svd.v.as_slice().iter().all(|v| v.is_finite()), "NaN/∞ in V");
        }
    }
    // Values-only path: same solve, same guarantee.
    match solver.singular_values(a) {
        Err(_) => {}
        Ok(sv) => {
            prop_assert!(
                sv.values.iter().all(|v| v.is_finite() && *v >= 0.0),
                "values-only path produced non-finite σ"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn extreme_column_scales_never_yield_nan(
        (seed, n, extra_rows) in (any::<u64>(), 3usize..8, 1usize..12)
    ) {
        let m = n + extra_rows;
        let mut a = gen::uniform(m, n, seed);
        scale_columns(&mut a, &column_exponents(seed, n));
        assert_finite_or_loud(&a)?;
    }

    #[test]
    fn rank_deficient_extremes_never_yield_nan(
        (seed, n, extra_rows) in (any::<u64>(), 4usize..8, 1usize..10)
    ) {
        let m = n + extra_rows;
        let mut a = gen::uniform(m, n, seed);
        scale_columns(&mut a, &column_exponents(seed, n));
        // Duplicate a scaled column and zero another: rank ≤ n − 2, with
        // exactly repeated columns (the hardest case for a Jacobi pair —
        // the rotation angle is ±45° every visit).
        let dup = a.col(0).to_vec();
        a.col_mut(1).copy_from_slice(&dup);
        for v in a.col_mut(n - 1) {
            *v = 0.0;
        }
        assert_finite_or_loud(&a)?;
    }

    #[test]
    fn engines_agree_on_the_spectrum_when_all_converge(
        (seed, n) in (any::<u64>(), 3usize..7)
    ) {
        // Exponent span narrowed to ±75 (inside the prescaler's bit-exact
        // window): when both engines converge — the sequential sweep engine
        // and the SoA batch engine, which sweeps on its own shared schedule
        // with its own parameter kernel — they must agree: the spectrum is
        // a property of the input, not of the sweep schedule.
        let mut a = gen::uniform(n + 8, n, seed);
        let exps: Vec<i32> = column_exponents(seed, n).iter().map(|e| e / 2).collect();
        scale_columns(&mut a, &exps);
        let solver = HestenesSvd::new(SvdOptions::default());
        let soa = BatchDriver::new(&solver).solve(&mut BatchWorkspace::new(), std::slice::from_ref(&a));
        let spectra: Vec<Vec<f64>> = std::iter::once(solver.singular_values(&a))
            .chain(soa)
            .filter_map(|res| res.ok().map(|sv| sv.values))
            .collect();
        for pair in spectra.windows(2) {
            let smax = pair[0].first().copied().unwrap_or(0.0).max(f64::MIN_POSITIVE);
            for (x, y) in pair[0].iter().zip(&pair[1]) {
                prop_assert!(
                    (x - y).abs() <= 1e-10 * smax,
                    "engines disagree: {x} vs {y} (σmax {smax})"
                );
            }
        }
    }
}

/// Entries of random sign and magnitude `1.9·2^250`: the largest binary
/// exponent is 250, the top of the prescale window, so the input is solved
/// unscaled, and `D_ij²` overflows while every entry of `D` is finite.
fn window_edge_signs(m: usize, n: usize, seed: u64) -> Matrix {
    let s = 1.9 * 2f64.powi(250);
    let data =
        gen::uniform(m, n, seed).as_slice().iter().map(|&u| if u < 0.0 { -s } else { s }).collect();
    Matrix::from_col_major(m, n, data).unwrap()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn window_edge_inputs_solve_without_a_fault() {
    // The sweep record's off(D) used to overflow here at sweep 1, so the
    // solve faulted with a non-finite Gram and rescale-restarted. Its result
    // must still be the bits of the exactly prescaled solve, scaled back.
    let a = window_edge_signs(256, 128, 3);
    let down = a.scaled(2f64.powi(-250));
    let up = |v: &[f64]| bits(&v.iter().map(|x| x * 2f64.powi(250)).collect::<Vec<_>>());
    let solver = HestenesSvd::new(SvdOptions::default());

    let sv = solver.singular_values(&a).unwrap();
    assert_eq!((sv.stats.faults, sv.stats.recoveries, sv.stats.prescale_exp), (0, 0, 0));
    assert_eq!(bits(&sv.values), up(&solver.singular_values(&down).unwrap().values));

    let svd = solver.decompose(&a).unwrap();
    assert_eq!((svd.stats.faults, svd.stats.recoveries, svd.stats.prescale_exp), (0, 0, 0));
    let want = solver.decompose(&down).unwrap();
    assert_eq!(bits(&svd.singular_values), up(&want.singular_values));
    assert_eq!(bits(svd.u.as_slice()), bits(want.u.as_slice()));
    assert_eq!(bits(svd.v.as_slice()), bits(want.v.as_slice()));
}

#[test]
fn window_edge_soa_lanes_solve_without_a_fault() {
    // Uniform 8192×32 batches ride the SoA engine, which has no restart:
    // both slots used to fail with non-finite-gram.
    let mats = [window_edge_signs(8192, 32, 3), window_edge_signs(8192, 32, 4)];
    let solver = HestenesSvd::new(SvdOptions::default());
    for (k, res) in solver.singular_values_batch(&mats).into_iter().enumerate() {
        let sv = res.unwrap_or_else(|e| panic!("slot {k}: {e}"));
        assert_eq!((sv.stats.engine, sv.stats.faults), ("batch-soa", 0), "slot {k}");
        let looped = solver.singular_values(&mats[k]).unwrap();
        let smax = looped.values[0];
        for (x, y) in sv.values.iter().zip(&looped.values) {
            assert!((x - y).abs() <= 1e-12 * smax, "slot {k}: {x:e} vs {y:e}");
        }
    }
}

#[test]
fn eigh_of_a_huge_symmetric_matrix_matches_the_unscaled_solve() {
    // eigh does not prescale, so from a scale of 1e154 on its off(D) used
    // to overflow at sweep 1 and the solve failed with non-finite-gram.
    let b = gen::uniform(12, 12, 7);
    let s = b.add(&b.transpose()).unwrap();
    let base = eigh::eigh_dense(&s, 1e-14, Ordering::RoundRobin).unwrap();
    let lmax = base.eigenvalues.iter().fold(0f64, |m, v| m.max(v.abs()));
    for scale in [1e154, 1e156, 1e160, 1e300] {
        let e = eigh::eigh_dense(&s.scaled(scale), 1e-14, Ordering::RoundRobin)
            .unwrap_or_else(|err| panic!("scale {scale:e}: {err}"));
        assert_eq!(e.sweeps, base.sweeps, "scale {scale:e}");
        for (got, want) in e.eigenvalues.iter().zip(&base.eigenvalues) {
            assert!((got / scale - want).abs() <= 1e-14 * lmax, "scale {scale:e}: {got:e}");
        }
    }
}
