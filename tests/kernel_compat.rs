//! Kernel-compat layer: pins the vectorized kernels introduced for the
//! engine-inversion fix against the scalar paths they replaced.
//!
//! Compat policy (also documented in `hj_core::kernel`):
//!
//! * `kernel::batch_params` runs the exact `textbook_params` expression
//!   chain per lane, so it is **bitwise** equal to the scalar kernel — 0 ulp,
//!   well inside the ≤1 ulp budget. Against `hardware_params` it inherits
//!   the existing textbook↔hardware pin (≤1e-12 absolute on `cos`/`sin`,
//!   `tests/properties.rs::hardware_equals_textbook`) — the two scalar
//!   formulations legitimately differ by re-association.
//! * `ops::rotate_pair` (lane-chunked + scalar tail) and
//!   `kernel::rotate_packed` (three-region packed walk) keep the per-element
//!   expressions of the scalar loops unchanged, so both are **bitwise**
//!   equal to their references on every length and every pair, aligned or
//!   not.
//!
//! * `ops::gram_packed` (the register-blocked Gram kernel behind
//!   `Matrix::gram`, `GramState::from_matrix` and the SoA batch loader)
//!   keeps each entry's sixteen partial sums and final reduction, so every
//!   entry is **bitwise** the per-entry `ops::dot` it replaced, whatever the
//!   row count, panel split or column tiling.
//! * `ops::finite_max_abs`, the one input scan behind validation and the
//!   prescale exponent, rejects a non-finite entry wherever it sits and
//!   yields the same exponent as the separate scans it replaced.
//!
//! All strategies span twelve orders of magnitude in the norms (1e-6..1e6),
//! like the scalar rotation proptests.

use hjsvd::core::kernel::{batch_params, rotate_packed};
use hjsvd::core::rotation::{hardware_params, textbook_params, Rotation};
use hjsvd::core::{
    BatchDriver, BatchWorkspace, EngineKind, GramState, HestenesSvd, SvdError, SvdOptions,
};
use hjsvd::matrix::{gen, ops, Matrix, PackedSymmetric};
use proptest::prelude::*;

/// A plausible (norm_i, norm_j, cov) triple satisfying Cauchy-Schwarz,
/// spanning twelve orders of magnitude in the norms.
fn gram_pair() -> impl Strategy<Value = (f64, f64, f64)> {
    (1e-6f64..1e6, 1e-6f64..1e6, -0.999f64..0.999)
        .prop_map(|(a, b, frac)| (a, b, frac * (a * b).sqrt()))
}

/// `Vec<_>` strategy: a length drawn from `range`, then that many draws of
/// `inner`. (The vendored proptest stand-in has no `prop::collection`.)
struct VecOf<S>(S, std::ops::Range<usize>);

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.1.clone().generate(rng);
        (0..len).map(|_| self.0.generate(rng)).collect()
    }
}

/// Scalar reference for the packed rotation: the pre-kernel `get`/`set`
/// loop over every affected entry of the packed triangle.
fn rotate_packed_reference(d: &mut PackedSymmetric, i: usize, j: usize, rot: &Rotation) {
    let n = d.dim();
    let cov = d.get(i, j);
    let (ni, nj) = (d.get(i, i), d.get(j, j));
    d.set(i, i, ni - rot.t * cov);
    d.set(j, j, nj + rot.t * cov);
    d.set(i, j, 0.0);
    for k in 0..n {
        if k == i || k == j {
            continue;
        }
        let dik = d.get(k, i);
        let djk = d.get(k, j);
        d.set(k, i, dik * rot.cos - djk * rot.sin);
        d.set(k, j, dik * rot.sin + djk * rot.cos);
    }
}

/// Per-entry reference for the Gram kernel: the pre-kernel `Matrix::gram`,
/// one `ops::dot` per packed entry.
fn gram_reference(a: &Matrix) -> PackedSymmetric {
    let n = a.cols();
    let mut d = PackedSymmetric::zeros(n);
    for i in 0..n {
        for j in i..n {
            d.set(i, j, ops::dot(a.col(i), a.col(j)));
        }
    }
    d
}

/// An `m × n` input whose entries spread over thirteen binary orders, so a
/// changed summation order would show in the low bits.
fn spread(m: usize, n: usize, seed: u64) -> Matrix {
    let mut a = gen::uniform(m, n, seed);
    for (k, v) in a.as_mut_slice().iter_mut().enumerate() {
        *v *= 2f64.powi((k * 7 % 13) as i32 - 6);
    }
    a
}

/// First entry where two triangles differ in their bits, if any.
fn first_bit_difference(got: &PackedSymmetric, want: &PackedSymmetric) -> Option<usize> {
    assert_eq!(got.dim(), want.dim());
    got.as_slice().iter().zip(want.as_slice()).position(|(g, w)| g.to_bits() != w.to_bits())
}

#[test]
fn gram_kernel_is_bitwise_dot_on_every_row_residue() {
    // Row counts under one 16-row block, inside one 512-row panel, exactly
    // filling it, and across one and two panel boundaries — each at every
    // residue mod 16. Column counts: one, two, odd (a ragged 2×2 block),
    // and more than one 16-column tile.
    for base in [0usize, 48, 512, 528, 1040] {
        for residue in 0..16 {
            let m = base + residue;
            for n in [1usize, 2, 7, 17, 33] {
                if n == 33 && base >= 512 {
                    continue; // two tiles are covered at the smaller heights
                }
                let a = spread(m, n, (m * 64 + n) as u64);
                let diff = first_bit_difference(&a.gram(), &gram_reference(&a));
                assert_eq!(diff, None, "{m}x{n}: packed entry differs from ops::dot");
            }
        }
    }
}

#[test]
fn soa_loader_triangles_equal_matrix_gram_slot_by_slot() {
    let solver = HestenesSvd::new(SvdOptions::default());
    let driver = BatchDriver::new(&solver);
    let mut ws = BatchWorkspace::new();
    for (m, n, k) in [(32usize, 32usize, 7usize), (48, 12, 9), (5, 3, 4), (600, 17, 3)] {
        let mats: Vec<Matrix> = (0..k).map(|p| spread(m, n, p as u64 + 1)).collect();
        driver.load(&mut ws, &mats);
        for (p, a) in mats.iter().enumerate() {
            let diff = first_bit_difference(&ws.packed(p), &a.gram());
            assert_eq!(diff, None, "{m}x{n} batch of {k}: slot {p} differs");
        }
    }
    // A prescaled slot: the loader builds the triangle of the exactly
    // scaled copy, which is what `Matrix::gram` of that copy gives.
    let huge = spread(24, 6, 9).scaled(2f64.powi(700));
    let mats = vec![spread(24, 6, 8), huge.clone()];
    let exp = solver.singular_values_batch(&mats)[1].as_ref().unwrap().stats.prescale_exp;
    assert_ne!(exp, 0, "the guard must engage");
    driver.load(&mut ws, &mats);
    let diff = first_bit_difference(&ws.packed(1), &huge.scaled(2f64.powi(exp)).gram());
    assert_eq!(diff, None, "prescaled slot differs");
}

#[test]
fn non_finite_entries_are_rejected_wherever_they_sit() {
    let solver = HestenesSvd::new(SvdOptions::default());
    // 7×5 = 35 entries: two whole 16-lane chunks and 3 in the remainder;
    // 40×13 = 520: a long vector body and 8 in the remainder.
    for (m, n, spots) in [(7usize, 5usize, [0usize, 17, 33, 34]), (40, 13, [0, 259, 515, 519])] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in spots {
                let mut a = gen::uniform(m, n, 3);
                a.as_mut_slice()[at] = bad;
                let what = format!("{bad} at {at} of {m}x{n}");
                assert_eq!(ops::finite_max_abs(a.as_slice()), None, "{what}");
                assert!(
                    matches!(solver.singular_values(&a), Err(SvdError::NonFiniteInput)),
                    "singular_values: {what}"
                );
                assert!(
                    matches!(solver.decompose(&a), Err(SvdError::NonFiniteInput)),
                    "decompose: {what}"
                );
                let mats = vec![gen::uniform(m, n, 1), a, gen::uniform(m, n, 2)];
                let out = solver.singular_values_batch(&mats);
                assert!(matches!(out[1], Err(SvdError::NonFiniteInput)), "batch: {what}");
                assert!(out[0].is_ok() && out[2].is_ok(), "batch neighbours: {what}");
            }
        }
    }
}

#[test]
fn prescale_exponent_is_unchanged_near_the_range_ends() {
    // The single scan must feed the prescale the exponent the separate
    // max|a| fold gave: 0 inside ±250 binary orders, −⌊log₂ max|a|⌋ outside.
    let solver = HestenesSvd::new(SvdOptions::default());
    let expected = |a: &Matrix| {
        let max_abs = a.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let e = max_abs.log2().floor() as i32;
        if e.abs() <= 250 {
            0
        } else {
            -e
        }
    };
    for scale in [1e160, 1e-160, 1e300, 1e-300] {
        let a = gen::uniform(20, 6, 41).scaled(scale);
        let b = gen::uniform(20, 6, 42).scaled(scale * 0.7);
        let (want_a, want_b) = (expected(&a), expected(&b));
        assert_ne!(want_a, 0, "scale {scale:e} must engage the guard");
        let sv = solver.singular_values(&a).unwrap();
        assert_eq!(sv.stats.prescale_exp, want_a, "singular_values at {scale:e}");
        let svd = solver.decompose(&a).unwrap();
        assert_eq!(svd.stats.prescale_exp, want_a, "decompose at {scale:e}");
        let batch = solver.singular_values_batch(&[a, b]);
        assert_eq!(batch[0].as_ref().unwrap().stats.prescale_exp, want_a, "batch at {scale:e}");
        assert_eq!(batch[1].as_ref().unwrap().stats.prescale_exp, want_b, "batch at {scale:e}");
    }
}

proptest! {
    #[test]
    fn batched_params_are_bitwise_textbook(triples in VecOf(gram_pair(), 0..40)) {
        let ni: Vec<f64> = triples.iter().map(|t| t.0).collect();
        let nj: Vec<f64> = triples.iter().map(|t| t.1).collect();
        let cov: Vec<f64> = triples.iter().map(|t| t.2).collect();
        let mut cos = vec![0.0; triples.len()];
        let mut sin = vec![0.0; triples.len()];
        let mut t = vec![0.0; triples.len()];
        batch_params(&ni, &nj, &cov, &mut cos, &mut sin, &mut t);
        for (k, &(a, b, c)) in triples.iter().enumerate() {
            let scalar = textbook_params(a, b, c);
            prop_assert_eq!(cos[k].to_bits(), scalar.cos.to_bits(), "cos lane {}", k);
            prop_assert_eq!(sin[k].to_bits(), scalar.sin.to_bits(), "sin lane {}", k);
            prop_assert_eq!(t[k].to_bits(), scalar.t.to_bits(), "t lane {}", k);
        }
    }

    #[test]
    fn batched_params_match_hardware_formulation((a, b, c) in gram_pair()) {
        // The batch kernel is textbook bitwise; against the re-associated
        // hardware dataflow it carries the same pin the scalar kernels do.
        let mut cos = [0.0];
        let mut sin = [0.0];
        let mut t = [0.0];
        batch_params(&[a], &[b], &[c], &mut cos, &mut sin, &mut t);
        let hw = hardware_params(a, b, c);
        prop_assert!((cos[0] - hw.cos).abs() < 1e-12, "cos {} vs {}", cos[0], hw.cos);
        prop_assert!((sin[0] - hw.sin).abs() < 1e-12, "sin {} vs {}", sin[0], hw.sin);
    }

    #[test]
    fn batched_params_zero_covariance_is_identity(a in 1e-6f64..1e6, b in 1e-6f64..1e6) {
        let mut cos = [9.0];
        let mut sin = [9.0];
        let mut t = [9.0];
        batch_params(&[a], &[b], &[0.0], &mut cos, &mut sin, &mut t);
        prop_assert_eq!(cos[0], 1.0);
        prop_assert_eq!(sin[0], 0.0);
        prop_assert_eq!(t[0], 0.0);
    }

    #[test]
    fn paired_rotate_is_bitwise_scalar_on_any_length(
        len in 0usize..130,
        seed in 0u64..500,
        (a, b, c) in gram_pair(),
    ) {
        // Odd, prime, and non-multiple-of-lane lengths all take the scalar
        // tail; the chunked head must still produce the scalar loop's bits.
        let rot = textbook_params(a, b, c);
        let src = gen::uniform(len.max(1), 2, seed);
        let mut x: Vec<f64> = src.col(0)[..len].to_vec();
        let mut y: Vec<f64> = src.col(1)[..len].to_vec();
        let mut xs = x.clone();
        let mut ys = y.clone();
        ops::rotate_pair(&mut x, &mut y, rot.cos, rot.sin);
        for (p, q) in xs.iter_mut().zip(ys.iter_mut()) {
            let (xi, yj) = (*p, *q);
            *p = xi * rot.cos - yj * rot.sin;
            *q = xi * rot.sin + yj * rot.cos;
        }
        for k in 0..len {
            prop_assert_eq!(x[k].to_bits(), xs[k].to_bits(), "x[{}] at len {}", k, len);
            prop_assert_eq!(y[k].to_bits(), ys[k].to_bits(), "y[{}] at len {}", k, len);
        }
    }

    #[test]
    fn packed_rotation_is_bitwise_scalar_reference(
        n in 2usize..24,
        pair in 0usize..1000,
        seed in 0u64..300,
    ) {
        let pairs = n * (n - 1) / 2;
        let mut k = pair % pairs;
        let (mut i, mut j) = (0, 1);
        'outer: for p in 0..n {
            for q in (p + 1)..n {
                if k == 0 { i = p; j = q; break 'outer; }
                k -= 1;
            }
        }
        let a = gen::uniform(2 * n + 1, n, seed);
        let g = GramState::from_matrix(&a);
        let rot = textbook_params(g.norm_sq(i), g.norm_sq(j), g.covariance(i, j));
        let mut fast = g.packed().clone();
        let mut slow = g.packed().clone();
        rotate_packed(&mut fast, i, j, &rot);
        rotate_packed_reference(&mut slow, i, j, &rot);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "pair ({}, {}) n {}", i, j, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gram_kernel_triangle_is_bitwise_per_entry_dot(
        m in 0usize..1100,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = spread(m, n, seed);
        let diff = first_bit_difference(&a.gram(), &gram_reference(&a));
        prop_assert_eq!(diff, None, "{}x{}: packed entry differs from ops::dot", m, n);
        let g = GramState::from_matrix(&a);
        prop_assert_eq!(first_bit_difference(g.packed(), &gram_reference(&a)), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_fast_path_equals_sequential_bitwise(seed in 0u64..60, n in 2usize..20) {
        // Engine equivalence over the vectorized paths: under `for_dim`
        // every n here fits one tile, and the fast path must reproduce the
        // sequential engine's bits exactly — values, U, and V.
        let a = gen::uniform(2 * n + 3, n, seed);
        let seq = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        let blk =
            HestenesSvd::new(SvdOptions { engine: EngineKind::Blocked, ..Default::default() })
                .decompose(&a)
                .unwrap();
        prop_assert_eq!(&seq.singular_values, &blk.singular_values);
        prop_assert_eq!(seq.u.as_slice(), blk.u.as_slice());
        prop_assert_eq!(seq.v.as_slice(), blk.v.as_slice());
        prop_assert_eq!(blk.stats.tile_refills, 0, "single tile must never refill");
    }

    #[test]
    fn parallel_engine_matches_sequential_bitwise_on_one_thread(seed in 0u64..60, n in 2usize..16) {
        // The 1-thread fallback is the sequential engine, bit for bit. On
        // wider pools the engines legitimately differ in rounding, so this
        // pin only applies where the fallback engages.
        let a = gen::uniform(2 * n + 1, n, seed);
        let par =
            HestenesSvd::new(SvdOptions { engine: EngineKind::Parallel, ..Default::default() })
                .decompose(&a)
                .unwrap();
        if par.stats.threads != 1 {
            return Ok(());
        }
        let seq = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        prop_assert_eq!(&seq.singular_values, &par.singular_values);
        prop_assert_eq!(seq.u.as_slice(), par.u.as_slice());
        prop_assert_eq!(seq.v.as_slice(), par.v.as_slice());
        prop_assert_eq!(par.stats.parallel_dispatches, 0);
    }
}
