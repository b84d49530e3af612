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
//!
//! The campaign at the end searches for the opposite: a finite input with a
//! representable result that faults on any path. Every solve path aborts on
//! its first fault, so any such input would be an error here. It draws ten
//! input structures at largest-entry exponents from −1070 to 1000, always
//! including both edges of the prescale window.

use hjsvd::core::{
    eigh, BatchDriver, BatchWorkspace, Fault, HestenesSvd, Ordering, SvdError, SvdOptions,
};
use hjsvd::matrix::{gen, Matrix, PackedSymmetric};
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
    // The sweep record's off(D) used to overflow here at sweep 1, and the
    // solve faulted with a non-finite Gram. It must solve unscaled, to the
    // bits of the exactly prescaled solve, scaled back.
    let a = window_edge_signs(256, 128, 3);
    let down = a.scaled(2f64.powi(-250));
    let up = |v: &[f64]| bits(&v.iter().map(|x| x * 2f64.powi(250)).collect::<Vec<_>>());
    let solver = HestenesSvd::new(SvdOptions::default());

    let sv = solver.singular_values(&a).unwrap();
    assert_eq!(sv.stats.prescale_exp, 0);
    assert_eq!(bits(&sv.values), up(&solver.singular_values(&down).unwrap().values));

    let svd = solver.decompose(&a).unwrap();
    assert_eq!(svd.stats.prescale_exp, 0);
    let want = solver.decompose(&down).unwrap();
    assert_eq!(bits(&svd.singular_values), up(&want.singular_values));
    assert_eq!(bits(svd.u.as_slice()), bits(want.u.as_slice()));
    assert_eq!(bits(svd.v.as_slice()), bits(want.v.as_slice()));
}

#[test]
fn window_edge_soa_lanes_solve_without_a_fault() {
    // Uniform 8192×32 batches ride the SoA engine: both slots used to fail
    // with non-finite-gram.
    let mats = [window_edge_signs(8192, 32, 3), window_edge_signs(8192, 32, 4)];
    let solver = HestenesSvd::new(SvdOptions::default());
    for (k, res) in solver.singular_values_batch(&mats).into_iter().enumerate() {
        let sv = res.unwrap_or_else(|e| panic!("slot {k}: {e}"));
        assert_eq!(sv.stats.engine, "batch-soa", "slot {k}");
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

/// The campaign's input structures, before the overall scale is applied.
const STRUCTURES: usize = 10;

/// Structure `kind` at shape `m × n`, largest entry of order 1: uniform,
/// Gaussian, rank `min(m, n)/3`, duplicate columns, columns `1e-15` apart,
/// zero columns, one column scaled by `1e-310`, columns graded over
/// `2^480`, all ones, and κ = 1e16.
fn structure(kind: usize, m: usize, n: usize, seed: u64) -> Matrix {
    let mut a = match kind {
        1 => gen::gaussian(m, n, seed),
        2 => gen::rank_deficient(m, n, (m.min(n) / 3).max(1), seed),
        8 => Matrix::from_col_major(m, n, vec![1.0; m * n]).unwrap(),
        9 => gen::with_condition_number(m, n, 1e16, seed),
        _ => gen::uniform(m, n, seed),
    };
    for c in 0..n {
        let left = a.col(c.saturating_sub(1)).to_vec();
        let col = a.col_mut(c);
        match kind {
            3 if c % 2 == 1 => col.copy_from_slice(&left),
            4 if c % 2 == 1 => {
                for (v, l) in col.iter_mut().zip(&left) {
                    *v = l * (1.0 + 1e-15);
                }
            }
            5 if c % 3 == 2 || c == n - 1 => col.fill(0.0),
            6 if c == 0 => col.iter_mut().for_each(|v| *v *= 1e-310),
            7 => col.iter_mut().for_each(|v| *v *= 2f64.powi(-480 * c as i32 / n as i32)),
            _ => {}
        }
    }
    a
}

/// Binary exponent of the largest entry of `a`.
fn top_exponent(a: &Matrix) -> i32 {
    a.as_slice().iter().fold(0f64, |m, v| m.max(v.abs())).log2().floor() as i32
}

/// `a` scaled by a power of two so that its largest entry has binary
/// exponent `e`. The scale is applied in two steps, each exact while the
/// result stays normal, since `2^k` alone is 0 for subnormal targets.
fn with_top_exponent(a: &Matrix, e: i32) -> Matrix {
    let k = e - top_exponent(a);
    a.scaled(2f64.powi(k / 2)).scaled(2f64.powi(k - k / 2))
}

/// Both edges of the prescale window (`|e| ≤ 250`) and their neighbours.
const WINDOW_EDGES: [i32; 6] = [-251, -250, -249, 249, 250, 251];

/// Shapes of the scalar campaign, wide ones included.
const SHAPES: [(usize, usize); 7] =
    [(2, 2), (64, 2), (48, 12), (12, 48), (300, 7), (9, 24), (16, 16)];

fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// A spectrum a solve may return: finite, non-negative, sorted descending.
fn clean_spectrum(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite() && *v >= 0.0) && values.windows(2).all(|w| w[0] >= w[1])
}

/// `singular_values` and `decompose` of `a` under both orderings: every
/// solve is `Ok`, with a clean spectrum and finite factors.
fn every_scalar_solve_is_clean(a: &Matrix, what: &str) -> Result<(), TestCaseError> {
    for ordering in Ordering::ALL {
        let solver = HestenesSvd::new(SvdOptions { ordering, ..Default::default() });
        let fail = |mode: &str, e: SvdError| {
            TestCaseError::fail(format!("{what}, {ordering:?}, {mode}: {e}"))
        };
        let sv = solver.singular_values(a).map_err(|e| fail("values", e))?;
        prop_assert!(clean_spectrum(&sv.values), "{what}, {ordering:?}: {:?}", sv.values);
        let svd = solver.decompose(a).map_err(|e| fail("full", e))?;
        prop_assert!(clean_spectrum(&svd.singular_values), "{what}, {ordering:?}, full");
        prop_assert!(all_finite(svd.u.as_slice()) && all_finite(svd.v.as_slice()), "{what}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn no_finite_input_faults_on_the_scalar_path(
        (kind, shape, e, seed) in (0..STRUCTURES, 0..SHAPES.len(), -1070i32..1001, any::<u64>())
    ) {
        let (m, n) = SHAPES[shape];
        let a = with_top_exponent(&structure(kind, m, n, seed), e);
        every_scalar_solve_is_clean(&a, &format!("structure {kind}, {m}x{n}, 2^{e}"))?;
    }
}

#[test]
fn no_structure_faults_at_the_window_edges() {
    for kind in 0..STRUCTURES {
        for (m, n) in [(20, 6), (6, 20)] {
            let a = structure(kind, m, n, 7 + kind as u64);
            for e in WINDOW_EDGES {
                let what = format!("structure {kind}, {m}x{n}, 2^{e}");
                every_scalar_solve_is_clean(&with_top_exponent(&a, e), &what)
                    .unwrap_or_else(|err| panic!("{err}"));
            }
        }
    }
}

#[test]
fn split_scanned_gram_builds_solve_at_both_window_edges() {
    // m·n² > 2^21, so the Gram build is split over the pool's threads and
    // scanned in the same pass.
    for (m, n) in [(100_000, 8), (4096, 64)] {
        let a = gen::uniform(m, n, 5);
        for ordering in Ordering::ALL {
            let solver = HestenesSvd::new(SvdOptions { ordering, ..Default::default() });
            let base = solver.singular_values(&with_top_exponent(&a, 0)).unwrap();
            for e in [-250, 250] {
                let sv = solver
                    .singular_values(&with_top_exponent(&a, e))
                    .unwrap_or_else(|err| panic!("{m}x{n}, {ordering:?}, 2^{e}: {err}"));
                assert_eq!(sv.stats.prescale_exp, 0, "{m}x{n}, 2^{e} is inside the window");
                let smax = base.values[0];
                for (got, want) in sv.values.iter().zip(&base.values) {
                    let got = got * 2f64.powi(-e);
                    assert!((got - want).abs() <= 1e-12 * smax, "{m}x{n}, 2^{e}: {got:e}");
                }
            }
        }
    }
}

#[test]
fn no_soa_lane_faults() {
    // One lane per structure and exponent, at every lane width the SoA
    // engine serves.
    let exponents = [-1070, -1000, -600, -251, -250, -1, 0, 249, 250, 251, 600, 1000];
    for n in [2, 8, 16, 32] {
        let mats: Vec<Matrix> = (0..STRUCTURES)
            .flat_map(|kind| {
                let a = structure(kind, n + 5, n, 11 + kind as u64);
                exponents.map(|e| with_top_exponent(&a, e))
            })
            .collect();
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = BatchDriver::new(&solver).solve(&mut BatchWorkspace::new(), &mats);
        for (k, (res, a)) in batch.into_iter().zip(&mats).enumerate() {
            let e = exponents[k % exponents.len()];
            let what = format!("n = {n}, structure {}, 2^{e}", k / exponents.len());
            let sv = res.unwrap_or_else(|err| panic!("{what}: {err}"));
            assert!(clean_spectrum(&sv.values), "{what}: {:?}", sv.values);
            // Values come from `D`, so a lane matches its scalar solve in
            // σ², to a small multiple of ε·σ_max². Below 2^-600 the
            // noise-level σ of rank-deficient lanes are subnormal and carry
            // too few bits to compare.
            if e >= -600 {
                let scalar = solver.singular_values(a).unwrap();
                let smax = scalar.values[0];
                for (x, y) in sv.values.iter().zip(&scalar.values) {
                    let gap = (x / smax).powi(2) - (y / smax).powi(2);
                    assert!(gap.abs() <= 1e-11, "{what}: {x:e} vs {y:e}");
                }
            }
        }
    }
}

/// The packed form of a dense symmetric matrix.
fn packed(s: &Matrix) -> PackedSymmetric {
    let n = s.rows();
    let mut p = PackedSymmetric::zeros(n);
    for i in 0..n {
        for j in i..n {
            p.set(i, j, s.get(i, j));
        }
    }
    p
}

/// `eigh` and `eigh_dense` of `s` scaled so that its largest entry has
/// binary exponent `e`: both `Ok`, with finite eigenvectors, and with
/// `base`, the eigenvalues of `s`, scaled by the same power of two, to
/// `1e-12·|λ|max`. Below 2^-600 the eigenvalues are only checked to be
/// finite: near the subnormal range they carry too few bits to compare.
fn both_eigh_paths_solve(s: &Matrix, base: &[f64], e: i32, what: &str) {
    let big = with_top_exponent(s, e);
    let k = e - top_exponent(s);
    let lmax = base.iter().fold(0f64, |m, v| m.max(v.abs()));
    let solves = [
        eigh::eigh(&packed(&big), 1e-14, Ordering::RoundRobin),
        eigh::eigh_dense(&big, 1e-14, Ordering::RoundRobin),
    ];
    for (path, res) in ["eigh", "eigh_dense"].iter().zip(solves) {
        let got = res.unwrap_or_else(|err| panic!("{what}, {path}: {err}"));
        assert!(all_finite(&got.eigenvalues), "{what}, {path}: {:?}", got.eigenvalues);
        assert!(all_finite(got.eigenvectors.as_slice()), "{what}, {path}");
        if e >= -600 {
            for (x, y) in got.eigenvalues.iter().zip(base) {
                let x = x * 2f64.powi(-k / 2) * 2f64.powi(k / 2 - k);
                assert!((x - y).abs() <= 1e-12 * lmax, "{what}, {path}: {x:e} vs {y:e}");
            }
        }
    }
}

fn eigenvalues(s: &Matrix) -> Vec<f64> {
    eigh::eigh_dense(s, 1e-14, Ordering::RoundRobin).unwrap().eigenvalues
}

#[test]
fn no_symmetric_input_with_a_representable_spectrum_faults_in_eigh() {
    // Gershgorin: with every entry at most f64::MAX / n, |λ| ≤ f64::MAX.
    for n in [2usize, 5, 12] {
        let top = 1023 - (n as f64).log2().ceil() as i32;
        for kind in 0..STRUCTURES {
            let a = structure(kind, n + 3, n, 3 + kind as u64);
            let gram = a.transpose().matmul(&a).unwrap();
            let b = gen::uniform(n, n, 3 + kind as u64);
            let indefinite = b.add(&b.transpose()).unwrap();
            for (name, s) in [("gram", &gram), ("indefinite", &indefinite)] {
                let base = eigenvalues(s);
                for e in [-1070, -1000, -600, -250, 0, 250, 600, top] {
                    let what = format!("{name} of structure {kind}, n = {n}, 2^{e}");
                    both_eigh_paths_solve(s, &base, e, &what);
                }
            }
        }
    }
}

#[test]
fn eigh_dense_solves_gram_matrices_whose_mean_covariance_sum_overflows() {
    // λ_max of these Gram matrices is 1.5–2.2 times their largest entry, so
    // it fits in f64 up to a largest entry of 2^1022. Unscaled, the sweep
    // record's mean of |D_ij| summed past f64::MAX and read as a
    // non-finite Gram: at n = 48 from 2^1019 on, at n = 24 from 2^1021.
    for n in [12, 24, 48] {
        let a = gen::uniform(97, n, 1);
        let gram = a.transpose().matmul(&a).unwrap();
        let base = eigenvalues(&gram);
        for e in 1019..=1022 {
            both_eigh_paths_solve(&gram, &base, e, &format!("gram, n = {n}, 2^{e}"));
        }
    }
}

#[test]
fn eigh_solves_a_matrix_whose_off_diagonal_norm_exceeds_f64_max() {
    // |λ|max of this B + Bᵀ is 4.3 times its largest entry, 2^1021, so it
    // fits in f64, but off(D) of the unscaled matrix does not, and the
    // health check read it as a non-finite Gram at sweep 1.
    let b = gen::uniform(24, 24, 1);
    let s = b.add(&b.transpose()).unwrap();
    both_eigh_paths_solve(&s, &eigenvalues(&s), 1021, "B + Bᵀ, n = 24");
}

/// Both eigenvalues of the symmetric 2×2 `[[a, c], [c, b]]·scale`, in
/// closed form, against `eigh` and `eigh_dense`.
fn assert_two_by_two(a: f64, c: f64, b: f64, scale: f64) {
    let s = Matrix::from_rows(&[&[a, c], &[c, b]]).scaled(scale);
    let h = ((a - b) / 2.0).hypot(c);
    let want = [((a + b) / 2.0 + h) * scale, ((a + b) / 2.0 - h) * scale];
    for res in [
        eigh::eigh(&packed(&s), 1e-14, Ordering::RoundRobin),
        eigh::eigh_dense(&s, 1e-14, Ordering::RoundRobin),
    ] {
        let got = res.unwrap_or_else(|err| panic!("[[{a}, {c}], [{c}, {b}]]: {err}"));
        for (x, y) in got.eigenvalues.iter().zip(want) {
            assert!((x - y).abs() <= 1e-14 * want[0].abs(), "{x:e} vs {y:e}");
        }
    }
}

#[test]
fn eigh_dense_keeps_a_diagonal_entry_above_half_of_f64_max() {
    // s_00 + s_00 overflows, so averaging the diagonal with its transpose
    // made a finite matrix look non-finite.
    assert_two_by_two(8.0, 2.0, 1.0, 1.5 * 2f64.powi(1020));
}

#[test]
fn eigh_rotates_right_when_an_entry_exceeds_half_of_f64_max() {
    // Unscaled, the rotation's 2·D_01 overflowed and gave the wrong angle:
    // `eigh` returned eigenvalues 8–55% off without a fault, and
    // `eigh_dense` rejected the input as non-finite.
    for (a, c, b) in [(0.1, 0.6, 0.0), (0.3, 0.55, -0.2)] {
        assert_two_by_two(a, c, b, f64::MAX);
    }
}

#[test]
fn eigh_aborts_on_a_spectrum_beyond_f64_max() {
    // None of these spectra is representable: the Gram matrix's λ_max is
    // about 2.2 times its largest entry, 2^1023, and |λ|max of the B + Bᵀ
    // 4.3 times its largest entry, 2^1022. The solve must abort, not
    // return ±∞.
    let a = gen::uniform(97, 48, 1);
    let gram = with_top_exponent(&a.transpose().matmul(&a).unwrap(), 1023);
    let b = gen::uniform(24, 24, 1);
    let indefinite = with_top_exponent(&b.add(&b.transpose()).unwrap(), 1022);
    let x = 2f64.powi(1023);
    let all_x = Matrix::from_rows(&[&[x, x], &[x, x]]);
    for (what, s) in
        [("gram, n = 48", &gram), ("B + Bᵀ, n = 24", &indefinite), ("2x2 of 2^1023", &all_x)]
    {
        for res in [
            eigh::eigh(&packed(s), 1e-14, Ordering::RoundRobin),
            eigh::eigh_dense(s, 1e-14, Ordering::RoundRobin),
        ] {
            match res {
                Err(SvdError::SolveFault { fault: Fault::NonFiniteGram { .. }, .. }) => {}
                other => panic!("{what}: expected a non-finite-gram fault, got {other:?}"),
            }
        }
    }
}
