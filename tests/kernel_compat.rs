//! Kernel-compat layer: pins the vectorized kernels against the scalar
//! paths they replaced.
//!
//! Compat policy (also documented in `hj_core::kernel`):
//!
//! * `ops::rotate_pair` (lane-chunked + scalar tail) and
//!   `kernel::rotate_packed` (three-region packed walk) keep the per-element
//!   expressions of the scalar loops unchanged, so both are **bitwise**
//!   equal to their references on every length and every pair, aligned or
//!   not.
//!
//! * `ops::gram_packed_rows` (the register-blocked Gram kernel behind
//!   `Matrix::gram`, `GramState::from_matrix` and the SoA batch loader)
//!   keeps each entry's sixteen partial sums and final reduction, so every
//!   entry is **bitwise** the per-entry `ops::dot` it replaced, whatever the
//!   row count, panel split, column tiling, group of tile pairs, row range
//!   or stride. `GramState::from_matrix` splits the rows over the rayon
//!   pool, so its `D` must be `Matrix::gram` at any thread count.
//! * The input scan rides in the solve's Gram build (`ops::finite_max_abs`
//!   is its fallback): a non-finite entry is rejected wherever it sits and
//!   whichever part scans it, and the prescale exponent is the one the
//!   separate scans gave.
//! * `Sequential` sweeps a round-robin plan one round at a time on the
//!   round kernel, and must give the bits of the pair-at-a-time sweep it
//!   replaced (`per_pair::PerPair`): `D` after every sweep, every record,
//!   `B`, `V`, the counts and the faults.
//!
//! All strategies span twelve orders of magnitude in the norms (1e-6..1e6),
//! like the scalar rotation proptests.

mod per_pair;

use hjsvd::core::engine::Sequential;
use hjsvd::core::kernel::rotate_packed;
use hjsvd::core::ordering::Sweep;
use hjsvd::core::rotation::{textbook_params, Rotation};
use hjsvd::core::{
    BatchDriver, BatchWorkspace, Convergence, Fault, GramState, HealthCheck, HestenesSvd, Ordering,
    PairGuard, PlanBuffers, RotationTarget, SolveBudget, SolveDriver, SolveMonitor, SvdError,
    SvdOptions, SweepEngine, SweepRecord, SweepSchedule, SweepState, ThresholdSchedule, Tracer,
};
use hjsvd::matrix::{gen, ops, Matrix, PackedSymmetric};
use per_pair::PerPair;
use proptest::prelude::*;

/// A plausible (norm_i, norm_j, cov) triple satisfying Cauchy-Schwarz,
/// spanning twelve orders of magnitude in the norms.
fn gram_pair() -> impl Strategy<Value = (f64, f64, f64)> {
    (1e-6f64..1e6, 1e-6f64..1e6, -0.999f64..0.999)
        .prop_map(|(a, b, frac)| (a, b, frac * (a * b).sqrt()))
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

/// The triangle of `a` built as two parts split at packed row `split`,
/// each filling its own `split_at_mut` piece of one output, written at
/// `stride` and read back as a plain triangle.
fn gram_in_two_parts(a: &Matrix, split: usize, stride: usize) -> PackedSymmetric {
    let (m, n) = a.shape();
    let entries = n * (n + 1) / 2;
    let mut out = vec![f64::NAN; entries * stride];
    let (head, tail) = out.split_at_mut(ops::packed_row_start(n, split) * stride);
    for (rows, piece) in [(0..split, head), (split..n, tail)] {
        let done = ops::gram_packed_rows(a.as_slice(), m, n, rows, piece, stride, None);
        assert_eq!(done, Some(0.0), "an unscanned part runs to the end");
    }
    let mut d = PackedSymmetric::zeros(n);
    for (e, v) in d.as_mut_slice().iter_mut().enumerate() {
        *v = out[e * stride];
    }
    d
}

#[test]
fn row_range_parts_are_bitwise_dot_at_every_split_row() {
    // Two panels and a 2-row tail; every split row from 0 to n, so the
    // parts run from one tile pair to all of them, and at n = 100 a whole
    // part needs two groups of tile pairs.
    for n in [1usize, 2, 17, 33, 64, 100] {
        let a = spread(530, n, n as u64);
        let want = gram_reference(&a);
        for split in 0..=n {
            for stride in [1, 3] {
                let diff = first_bit_difference(&gram_in_two_parts(&a, split, stride), &want);
                assert_eq!(diff, None, "530x{n} split at row {split}, stride {stride}");
            }
        }
    }
}

#[test]
fn grouped_panels_are_bitwise_dot_at_every_residue_near_panel_bounds() {
    // Row counts at every residue mod 16 around one and two panels, at a
    // width whose whole triangle takes several groups of tile pairs.
    for base in [496usize, 512, 1008, 1024] {
        for residue in 0..16 {
            let m = base + residue;
            let n = if residue % 4 == 0 { 150 } else { 20 };
            let a = spread(m, n, m as u64);
            let want = gram_reference(&a);
            assert_eq!(first_bit_difference(&a.gram(), &want), None, "{m}x{n}");
            for split in [n / 3 * 2, n - 1] {
                let diff = first_bit_difference(&gram_in_two_parts(&a, split, 2), &want);
                assert_eq!(diff, None, "{m}x{n} split at row {split}");
            }
        }
    }
}

#[test]
fn split_gram_state_equals_matrix_gram() {
    // Shapes large enough for `GramState::from_matrix` to split over the
    // pool, at whatever thread count the pool has.
    for (m, n) in [(4096usize, 64usize), (2049, 70), (1025, 64), (1500, 51), (3000, 33)] {
        let a = spread(m, n, (m + n) as u64);
        let got = GramState::from_matrix(&a);
        assert_eq!(first_bit_difference(got.packed(), &a.gram()), None, "{m}x{n}");
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
    // A shape whose Gram build splits over the pool and whose scan rides in
    // it: three panels and a 12-row tail. The spots are (row, column): the
    // first panel, the last panel, the last column (scanned only by the last
    // part), the tail rows past the last 16-row block, and column 0's tail.
    let (m, n) = (1100usize, 64usize);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (row, col) in [(3usize, 5usize), (1050, 40), (600, 63), (1095, 30), (1099, 0)] {
            let mut a = gen::uniform(m, n, 3);
            a.set(row, col, bad);
            let what = format!("{bad} at ({row}, {col}) of {m}x{n}");
            assert!(
                matches!(solver.singular_values(&a), Err(SvdError::NonFiniteInput)),
                "singular_values: {what}"
            );
            assert!(
                matches!(solver.decompose(&a), Err(SvdError::NonFiniteInput)),
                "decompose: {what}"
            );
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
    for ((m, n), scale) in [(20usize, 6usize), (1100, 64)]
        .into_iter()
        .flat_map(|shape| [1e160, 1e-160, 1e300, 1e-300].map(|scale| (shape, scale)))
    {
        let a = gen::uniform(m, n, 41).scaled(scale);
        let b = gen::uniform(m, n, 42).scaled(scale * 0.7);
        let (want_a, want_b) = (expected(&a), expected(&b));
        let at = format!("{m}x{n} at {scale:e}");
        assert_ne!(want_a, 0, "{at} must engage the guard");
        let sv = solver.singular_values(&a).unwrap();
        assert_eq!(sv.stats.prescale_exp, want_a, "singular_values, {at}");
        let svd = solver.decompose(&a).unwrap();
        assert_eq!(svd.stats.prescale_exp, want_a, "decompose, {at}");
        let batch = solver.singular_values_batch(&[a, b]);
        assert_eq!(batch[0].as_ref().unwrap().stats.prescale_exp, want_a, "batch, {at}");
        assert_eq!(batch[1].as_ref().unwrap().stats.prescale_exp, want_b, "batch, {at}");
    }
}

/// `singular_values` replayed as its layer chain: `GramState::from_matrix`,
/// the cyclic sweeps on `Sequential`, then the sorted diagonal.
fn replayed_values(solver: &HestenesSvd, a: &Matrix) -> Vec<f64> {
    let mut gram = GramState::from_matrix(a);
    let opts = solver.options();
    let driver = SolveDriver { convergence: opts.convergence, max_sweeps: opts.max_sweeps };
    let mut plans = PlanBuffers::new();
    let (strategy, plan) = plans.schedule_parts(Ordering::RoundRobin);
    let mut schedule = SweepSchedule { strategy, plan, threshold: None };
    let mut monitor = SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::default());
    let target = RotationTarget::gram_only();
    let mut state = SweepState { gram: &mut gram, target, guard: PairGuard::default() };
    let run = driver.run_monitored(&mut Sequential, &mut state, &mut schedule, &mut monitor);
    assert!(run.fault.is_none());
    let mut values = gram.singular_values_unsorted();
    values.sort_by(|x, y| y.total_cmp(x));
    values.truncate(a.rows().min(a.cols()));
    values
}

#[test]
fn a_scan_stopped_inside_the_window_rebuilds_the_same_bits() {
    // The first panel's entries are below the prescale window, so the
    // scanned build stops there; the whole input is in the window, so the
    // solve rebuilds the unscaled `D` and must give the chain's bits.
    let solver = HestenesSvd::new(SvdOptions::default());
    let mut a = spread(1100, 64, 5);
    for c in 0..64 {
        for v in &mut a.col_mut(c)[..512] {
            *v *= 1e-90;
        }
    }
    let sv = solver.singular_values(&a).unwrap();
    assert_eq!(sv.stats.prescale_exp, 0);
    let want = replayed_values(&solver, &a);
    assert!(sv.values.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()));
    let plain = spread(1100, 64, 5);
    let sv = solver.singular_values(&plain).unwrap();
    let want = replayed_values(&solver, &plain);
    assert!(sv.values.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()));
}

/// An engine that keeps the bits of `D` after every sweep of `inner`.
struct Snapshots<E> {
    inner: E,
    d: Vec<Vec<u64>>,
}

impl<E: SweepEngine> SweepEngine for Snapshots<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sweep_traced(
        &mut self,
        state: &mut SweepState<'_>,
        order: &Sweep,
        idx: usize,
        tracer: &mut Tracer<'_, '_>,
    ) -> SweepRecord {
        let rec = self.inner.sweep_traced(state, order, idx, tracer);
        self.d.push(bit_vec(state.gram.packed().as_slice()));
        rec
    }
}

fn bit_vec(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Everything a monitored round-robin run produces, as bits.
#[derive(Debug, PartialEq)]
struct PinnedRun {
    d: Vec<Vec<u64>>,
    history: Vec<SweepRecord>,
    b: Vec<u64>,
    v: Vec<u64>,
    counts: (usize, usize, usize),
    fault: Option<Fault>,
}

/// What a pinned run sweeps: `D` from `a`'s columns (the SVD drivers'
/// guards), or `s` itself with the eigensolver's guard.
enum PinInput<'a> {
    Columns { a: &'a Matrix, full: bool, threshold: bool },
    Symmetric(&'a PackedSymmetric),
}

/// One monitored round-robin run of `input` on `engine`.
fn pinned_run<E: SweepEngine>(engine: E, input: &PinInput<'_>) -> PinnedRun {
    let mut engine = Snapshots { inner: engine, d: Vec::new() };
    let (mut gram, mut b, mut v, guard, threshold, health) = match *input {
        PinInput::Columns { a, full, threshold } => (
            GramState::from_matrix(a),
            full.then(|| a.clone()),
            full.then(|| Matrix::identity(a.cols())),
            PairGuard::default(),
            threshold.then(ThresholdSchedule::default),
            HealthCheck::default(),
        ),
        PinInput::Symmetric(s) => (
            GramState::from_packed(s.clone()),
            None,
            Some(Matrix::identity(s.dim())),
            PairGuard::DiagonalScale { tol: 1e-14 },
            None,
            HealthCheck::indefinite(),
        ),
    };
    let target = RotationTarget { columns: b.as_mut(), v: v.as_mut() };
    let mut state = SweepState { gram: &mut gram, target, guard };
    let mut plan = Sweep::new();
    let mut schedule = SweepSchedule { strategy: Ordering::RoundRobin, plan: &mut plan, threshold };
    let mut monitor = SolveMonitor::new(SolveBudget::unlimited(), health);
    let driver = SolveDriver { convergence: Convergence::default(), max_sweeps: 40 };
    let run = driver.run_monitored(&mut engine, &mut state, &mut schedule, &mut monitor);
    let stats = run.stats;
    PinnedRun {
        d: engine.d,
        history: run.history,
        b: b.map_or_else(Vec::new, |b| bit_vec(b.as_slice())),
        v: v.map_or_else(Vec::new, |v| bit_vec(v.as_slice())),
        counts: (stats.sweeps, stats.rotations_applied, stats.pairs_skipped_by_threshold),
        fault: run.fault,
    }
}

/// A pin input of `n` columns: tall, square or wide by `shape`, with a
/// zero, a `−0.0` and a duplicated column when `n` has room.
fn pin_matrix(n: usize, shape: usize, seed: u64) -> Matrix {
    let m = match shape {
        0 => 2 * n + 3,
        1 => n,
        _ => n / 2 + 1,
    };
    let mut a = gen::uniform(m, n, seed);
    if n >= 4 && seed % 2 == 1 {
        a.col_mut(n / 3).fill(0.0);
        a.col_mut(n - 1).fill(-0.0);
        let dup = a.col(1).to_vec();
        a.col_mut(n / 2).copy_from_slice(&dup);
    }
    a
}

/// An indefinite symmetric input of dimension `n`: a Gram matrix with its
/// diagonal shifted by half its mean.
fn pin_indefinite(n: usize, seed: u64) -> PackedSymmetric {
    let mut s = gen::uniform(n + 2, n, seed).gram();
    let shift = 0.5 * s.trace() / n as f64;
    for i in (0..n).step_by(2) {
        s.set(i, i, s.get(i, i) - 3.0 * shift);
    }
    s
}

#[test]
fn round_kernel_sweeps_are_the_pair_at_a_time_bits() {
    // Every (shape, mode, guard) combination recurs across n = 1–70, and
    // n = 127–129 take three of them; odd seeds add the special columns.
    let wide: Vec<usize> = (1..=70).chain(127..=129).collect();
    for (case, &n) in wide.iter().enumerate() {
        let seed = 900 + case as u64;
        let a = pin_matrix(n, case % 3, seed);
        let combo = case / 3 % 4;
        let input = match combo {
            0 => PinInput::Columns { a: &a, full: false, threshold: false },
            1 => PinInput::Columns { a: &a, full: true, threshold: false },
            2 => PinInput::Columns { a: &a, full: case % 2 == 0, threshold: true },
            _ => {
                let s = pin_indefinite(n, seed);
                let (got, want) = (
                    pinned_run(Sequential, &PinInput::Symmetric(&s)),
                    pinned_run(PerPair, &PinInput::Symmetric(&s)),
                );
                assert_eq!(got, want, "n={n} indefinite, DiagonalScale guard");
                continue;
            }
        };
        let (got, want) = (pinned_run(Sequential, &input), pinned_run(PerPair, &input));
        assert!(!got.history.is_empty() || n < 2, "n={n}: no sweep ran");
        assert_eq!(got, want, "n={n} shape {} combo {combo}", case % 3);
    }
}

proptest! {
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
