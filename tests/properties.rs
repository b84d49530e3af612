//! Property-based tests (proptest) over the core data structures and
//! numerical invariants of the workspace.

use hjsvd::core::ordering::{round_robin, row_cyclic, Ordering, Sweep};
use hjsvd::core::rotation::{hardware_params, rotate_norms, textbook_params};
use hjsvd::core::{BatchDriver, BatchWorkspace, GramState, HestenesSvd, SvdOptions};
use hjsvd::matrix::{gen, norms, PackedSymmetric};
use proptest::prelude::*;

/// Strategy: a plausible (norm_i, norm_j, cov) triple satisfying
/// Cauchy-Schwarz (what a real Gram pair always satisfies).
fn gram_pair() -> impl Strategy<Value = (f64, f64, f64)> {
    (1e-6f64..1e6, 1e-6f64..1e6, -0.999f64..0.999)
        .prop_map(|(a, b, frac)| (a, b, frac * (a * b).sqrt()))
}

proptest! {
    #[test]
    fn rotation_annihilates_covariance((ni, nj, cov) in gram_pair()) {
        let rot = textbook_params(ni, nj, cov);
        let new_cov = rot.cos * rot.sin * (ni - nj) + (rot.cos * rot.cos - rot.sin * rot.sin) * cov;
        let scale = ni.max(nj).max(1.0);
        prop_assert!(new_cov.abs() <= 1e-12 * scale, "residual covariance {new_cov}");
    }

    #[test]
    fn rotation_is_orthonormal_and_inner((ni, nj, cov) in gram_pair()) {
        let rot = textbook_params(ni, nj, cov);
        prop_assert!((rot.cos * rot.cos + rot.sin * rot.sin - 1.0).abs() < 1e-14);
        prop_assert!(rot.t.abs() <= 1.0 + 1e-15, "Jacobi must pick the inner rotation");
        prop_assert!(rot.cos >= std::f64::consts::FRAC_1_SQRT_2 - 1e-15);
    }

    #[test]
    fn hardware_equals_textbook((ni, nj, cov) in gram_pair()) {
        let tx = textbook_params(ni, nj, cov);
        let hw = hardware_params(ni, nj, cov);
        let tol = 1e-12;
        prop_assert!((tx.cos - hw.cos).abs() < tol, "cos {} vs {}", tx.cos, hw.cos);
        prop_assert!((tx.sin - hw.sin).abs() < tol, "sin {} vs {}", tx.sin, hw.sin);
    }

    #[test]
    fn norm_update_preserves_trace_and_positivity((ni, nj, cov) in gram_pair()) {
        let rot = textbook_params(ni, nj, cov);
        let (a2, b2, c2) = rotate_norms(ni, nj, cov, &rot);
        prop_assert_eq!(c2, 0.0);
        prop_assert!((a2 + b2 - (ni + nj)).abs() < 1e-10 * (ni + nj));
        // PSD 2x2 eigenvalues stay nonnegative (up to roundoff).
        prop_assert!(a2 >= -1e-9 * (ni + nj) && b2 >= -1e-9 * (ni + nj));
    }

    #[test]
    fn packed_symmetric_get_set_roundtrip(n in 1usize..40, i in 0usize..40, j in 0usize..40, v in -1e9f64..1e9) {
        let (i, j) = (i % n, j % n);
        let mut d = PackedSymmetric::zeros(n);
        d.set(i, j, v);
        prop_assert_eq!(d.get(i, j), v);
        prop_assert_eq!(d.get(j, i), v);
        // Exactly one packed slot was written.
        let written = d.as_slice().iter().filter(|&&x| x != 0.0).count();
        prop_assert!(written <= 1);
    }

    #[test]
    fn round_robin_covers_every_pair(n in 2usize..40) {
        let sweep = round_robin(n);
        let mut seen = std::collections::HashSet::new();
        for (i, j) in sweep.pairs() {
            prop_assert!(i < j && j < n);
            prop_assert!(seen.insert((i, j)), "duplicate pair ({i},{j})");
        }
        prop_assert_eq!(seen.len(), n * (n - 1) / 2);
        // Disjointness within rounds.
        for round in sweep.rounds() {
            let mut used = std::collections::HashSet::new();
            for &(i, j) in round {
                prop_assert!(used.insert(i) && used.insert(j));
            }
        }
    }

    #[test]
    fn row_cyclic_covers_every_pair(n in 2usize..30) {
        let sweep = row_cyclic(n);
        prop_assert_eq!(sweep.pair_count(), n * (n - 1) / 2);
    }

    #[test]
    fn gram_rotation_preserves_trace(seed in 0u64..500, n in 2usize..12) {
        let a = gen::uniform(3 * n, n, seed);
        let mut g = GramState::from_matrix(&a);
        let t0 = g.trace();
        for (i, j) in round_robin(n).pairs() {
            let rot = textbook_params(g.norm_sq(i), g.norm_sq(j), g.covariance(i, j));
            g.rotate(i, j, &rot);
        }
        prop_assert!((g.trace() - t0).abs() < 1e-10 * t0.max(1.0));
    }

    #[test]
    fn svd_reconstructs_random_input(seed in 0u64..200, m in 2usize..24, n in 1usize..16) {
        let a = gen::uniform(m, n, seed);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        let err = norms::reconstruction_error(&a, &svd.u, &svd.singular_values, &svd.v);
        prop_assert!(err < 1e-10, "reconstruction error {err} for {m}x{n} seed {seed}");
        // Frobenius identity: ‖A‖_F² = Σ σ².
        let f2 = norms::frobenius_sq(&a);
        let s2: f64 = svd.singular_values.iter().map(|s| s * s).sum();
        prop_assert!((f2 - s2).abs() < 1e-9 * f2.max(1.0));
        // Sorted, nonnegative.
        prop_assert!(svd.singular_values.windows(2).all(|w| w[0] >= w[1]));
        prop_assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_spectrum_is_scale_equivariant(seed in 0u64..100, scale in 1e-3f64..1e3) {
        let a = gen::uniform(10, 6, seed);
        let scaled = a.scaled(scale);
        let s1 = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap().values;
        let s2 = HestenesSvd::new(SvdOptions::default()).singular_values(&scaled).unwrap().values;
        for (x, y) in s1.iter().zip(&s2) {
            prop_assert!((x * scale - y).abs() < 1e-9 * (x * scale).max(1e-9), "{x} * {scale} vs {y}");
        }
    }

    #[test]
    fn transpose_preserves_spectrum(seed in 0u64..100) {
        let a = gen::uniform(14, 7, seed);
        let at = a.transpose();
        let s1 = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap().values;
        let s2 = HestenesSvd::new(SvdOptions::default()).singular_values(&at).unwrap().values;
        for (x, y) in s1.iter().zip(&s2) {
            prop_assert!((x - y).abs() < 1e-9 * x.max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transpose_identity(seed in 0u64..100, m in 1usize..10, n in 1usize..10, k in 1usize..10) {
        // (AB)ᵀ = BᵀAᵀ — exercises the matrix substrate's product/transpose.
        let a = gen::uniform(m, k, seed);
        let b = gen::uniform(k, n, seed ^ 1);
        let ab_t = a.matmul(&b).unwrap().transpose();
        let bt_at = b.transpose().matmul(&a.transpose()).unwrap();
        let diff = norms::frobenius(&ab_t.sub(&bt_at).unwrap());
        prop_assert!(diff < 1e-10);
    }

    #[test]
    fn column_pair_rotation_preserves_frobenius(seed in 0u64..100, theta in -3.1f64..3.1) {
        let mut a = gen::uniform(12, 5, seed);
        let before = norms::frobenius_sq(&a);
        a.column_pair(1, 3).unwrap().rotate(theta.cos(), theta.sin());
        let after = norms::frobenius_sq(&a);
        prop_assert!((before - after).abs() < 1e-10 * before.max(1.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn eckart_young_truncation(seed in 0u64..50) {
        // ‖A − A_r‖_F² = Σ_{t>r} σ_t² — the truncated SVD must achieve the
        // optimal low-rank error exactly.
        let sigma = [8.0, 4.0, 2.0, 1.0, 0.5];
        let a = gen::with_singular_values(20, 5, &sigma, seed);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        for r in 0..5 {
            let ar = svd.truncated(r);
            let err2 = norms::frobenius_sq(&a.sub(&ar).unwrap());
            let expect: f64 = sigma[r..].iter().map(|s| s * s).sum();
            prop_assert!((err2 - expect).abs() < 1e-8 * expect.max(1e-8),
                "rank {r}: err² {err2} vs Σ tail σ² {expect}");
        }
    }

    #[test]
    fn fixed_point_matches_f64_on_well_scaled(seed in 0u64..30) {
        let a = gen::uniform(12, 5, seed);
        let rep = hjsvd::baselines::fixed_point::fixed_point_singular_values(&a, 12);
        prop_assert!(!rep.stats.any(), "unexpected overflow: {:?}", rep.stats);
        let exact = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap();
        for (x, y) in rep.singular_values.iter().zip(&exact.values) {
            prop_assert!((x - y).abs() < 1e-3 * y.max(1.0), "fixed {x} vs exact {y}");
        }
    }

    #[test]
    fn batched_solves_are_bitwise_identical_to_sequential(
        seed in 0u64..100,
        count in 1usize..6,
    ) {
        // singular_values_batch must return, slot for slot, the exact bits
        // the one-at-a-time driver produces — at whatever thread count the
        // pool was launched with (fan-out order must never leak into
        // results). Mixed shapes take the looped fan-out, never the SoA
        // engine.
        let mats: Vec<_> = (0..count)
            .map(|k| {
                let m = 3 + (seed as usize + 5 * k) % 14;
                let n = 1 + (seed as usize + 3 * k) % m.min(8);
                gen::uniform(m, n, seed.wrapping_add(k as u64))
            })
            .collect();
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = solver.singular_values_batch(&mats);
        prop_assert_eq!(batch.len(), mats.len());
        for (k, res) in batch.iter().enumerate() {
            let one = solver.singular_values(&mats[k]).unwrap();
            let b = res.as_ref().unwrap();
            prop_assert_eq!(b.stats.engine, "sequential", "slot {} left the looped path", k);
            prop_assert_eq!(&b.values, &one.values, "sigma[{}] differs", k);
            prop_assert_eq!(&b.history, &one.history, "history[{}] differs", k);
        }
    }

    #[test]
    fn soa_batch_matches_looped_within_envelope_on_mixed_batches(
        seed in 0u64..120,
        n in 2usize..13,
        count in 1usize..10,
    ) {
        // The SoA engine's documented accuracy contract against the looped
        // per-matrix baseline: slot for slot, every singular value within
        // 1e-12·σ_max, on batches mixing well-conditioned (κ = 10) and
        // ill-conditioned (κ = 1e3) graded spectra. The two paths' guarded
        // parameter chains diverge in the last ulps and conditioning
        // amplifies that on the smallest σ by ~ε·κ/2, so κ = 1e3 keeps the
        // tail inside the 1e-12 envelope with real margin (by κ ≈ 1e4 the
        // divergence itself reaches the bound — that regime belongs to the
        // coarser extreme-conditioning suite). Conditioning is pinned on
        // BOTH halves: random uniform matrices have a heavy-tailed κ that
        // would make the envelope flaky across hundreds of cases.
        let mats: Vec<_> = (0..count)
            .map(|k| {
                let s = seed.wrapping_mul(31).wrapping_add(k as u64);
                let m = n + 4 + (seed as usize + k) % 9;
                let cond = if k % 2 == 0 { 10.0 } else { 1e3 };
                gen::with_condition_number(m, n, cond, s)
            })
            .collect();
        let solver = HestenesSvd::new(SvdOptions::default());
        let looped = solver.singular_values_batch_looped(&mats);
        let soa = BatchDriver::new(&solver).solve(&mut BatchWorkspace::new(), &mats);
        prop_assert_eq!(soa.len(), mats.len());
        for (k, (l, s)) in looped.iter().zip(&soa).enumerate() {
            let l = l.as_ref().unwrap();
            let s = s.as_ref().unwrap();
            prop_assert_eq!(l.values.len(), s.values.len(), "slot {} length", k);
            let smax = l.values.first().copied().unwrap_or(0.0).max(1e-300);
            for (r, (a, b)) in l.values.iter().zip(&s.values).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-12 * smax,
                    "slot {} sigma[{}]: looped {} vs soa {}", k, r, a, b
                );
            }
        }
    }

    #[test]
    fn workspace_reuse_is_bitwise_transparent(
        seed in 0u64..100,
        n1 in 2usize..12,
        n2 in 2usize..12,
    ) {
        // One plan buffer carried across two different-shaped full solves
        // under both orderings produces the same bits as a fresh buffer per
        // solve: planning into a used buffer leaves no stale round width or
        // pair behind.
        use hjsvd::core::convergence::{Convergence, MAX_SWEEP_CAP};
        use hjsvd::core::engine::Sequential;
        use hjsvd::core::{
            HealthCheck, PairGuard, RotationTarget, SolveBudget, SolveDriver, SolveMonitor,
            SweepSchedule, SweepState,
        };
        use hjsvd::matrix::Matrix;
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let shapes = [(2 * n1 + 1, n1), (3 * n2, n2)];
        let mut carried = Sweep::new();
        for (k, &(m, n)) in shapes.iter().enumerate() {
            let src = gen::uniform(m, n, seed.wrapping_add(k as u64));
            for ordering in Ordering::ALL {
                let solve = |plan: &mut Sweep| {
                    let (mut b, mut v) = (src.clone(), Matrix::identity(n));
                    let mut gram = GramState::from_matrix(&src);
                    let target = RotationTarget::full(&mut b, &mut v);
                    let mut state = SweepState { gram: &mut gram, target, guard: PairGuard::default() };
                    let mut schedule = SweepSchedule { strategy: ordering, plan, threshold: None };
                    let driver =
                        SolveDriver { convergence: Convergence::default(), max_sweeps: MAX_SWEEP_CAP };
                    let mut monitor = SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::default());
                    let run = driver.run_monitored(&mut Sequential, &mut state, &mut schedule, &mut monitor);
                    (bits(gram.packed().as_slice()), bits(b.as_slice()), bits(v.as_slice()), run.history)
                };
                let reused = solve(&mut carried);
                let fresh = solve(&mut Sweep::new());
                prop_assert_eq!(&reused.0, &fresh.0, "D differs on solve {} ({:?})", k, ordering);
                prop_assert_eq!(&reused.1, &fresh.1, "B differs on solve {} ({:?})", k, ordering);
                prop_assert_eq!(&reused.2, &fresh.2, "V differs on solve {} ({:?})", k, ordering);
                prop_assert_eq!(&reused.3, &fresh.3, "history differs on solve {} ({:?})", k, ordering);
            }
        }
    }

    #[test]
    fn every_ordering_plans_disjoint_rounds_and_visits_pairs_at_most_once(
        seed in 0u64..100,
        n in 2usize..24,
    ) {
        // The scheduling contract every ordering must honor, also when it
        // plans into a buffer another shape or ordering used: pairs are
        // (i, j) with i < j < n, no pair is visited twice within one sweep,
        // no column appears twice within one round, and every pair is
        // visited exactly once per sweep.
        let mut plan = Sweep::new();
        for dim in [n, (seed as usize) % 24 + 2, n] {
            for kind in Ordering::ALL {
                kind.plan_into(dim, &mut plan);
                let mut seen = std::collections::HashSet::new();
                for round in plan.rounds() {
                    let mut used = std::collections::HashSet::new();
                    for &(i, j) in round {
                        prop_assert!(i < j && j < dim,
                            "{}: bad pair ({i},{j}) for n={dim}", kind.name());
                        prop_assert!(seen.insert((i, j)),
                            "{}: pair ({i},{j}) visited twice at n={dim}", kind.name());
                        prop_assert!(used.insert(i) && used.insert(j),
                            "{}: column reused within a round", kind.name());
                    }
                }
                prop_assert_eq!(seen.len(), dim * (dim - 1) / 2,
                    "{}: the sweep must cover every pair at n={}", kind.name(), dim);
            }
        }
    }

    #[test]
    fn cyclic_ordering_is_bit_identical_to_the_fixed_plan_on_every_engine(
        seed in 0u64..60,
        n in 2usize..12,
    ) {
        // The solve plans its cyclic schedule inside the driver; it must
        // still produce the exact bits of the engine driven sweep by sweep
        // over the fixed round_robin(n) plan, for as many sweeps as the
        // solve ran.
        use hjsvd::core::engine::{Sequential, SweepEngine};
        use hjsvd::core::{PairGuard, RotationTarget, SweepState};
        use hjsvd::matrix::{ops, Matrix};
        let m = 2 * n + 3;
        let a = gen::uniform(m, n, seed);
        let opts = SvdOptions { ordering: Ordering::RoundRobin, ..Default::default() };

        let svd = HestenesSvd::new(opts).decompose(&a).unwrap();

        let mut b = a.clone();
        let mut g = GramState::from_matrix(&b);
        let mut v = Matrix::identity(n);
        let order = round_robin(n);
        let mut state = SweepState {
            gram: &mut g,
            target: RotationTarget::full(&mut b, &mut v),
            guard: PairGuard::default(),
        };
        let history: Vec<_> =
            (1..=svd.sweeps).map(|s| Sequential.sweep(&mut state, &order, s)).collect();
        prop_assert_eq!(&svd.history, &history, "sweep records differ");

        let mut idx: Vec<usize> = (0..n).collect();
        let col_norms: Vec<f64> = (0..n).map(|c| ops::norm(b.col(c))).collect();
        idx.sort_by(|&x, &y| col_norms[y].partial_cmp(&col_norms[x]).unwrap());
        for (t, &c) in idx.iter().take(m.min(n)).enumerate() {
            prop_assert_eq!(
                svd.singular_values[t].to_bits(),
                col_norms[c].to_bits(),
                "σ[{}] bits differ", t
            );
            prop_assert_eq!(svd.v.col(t), v.col(c), "V column {} bits differ", t);
        }
    }

    #[test]
    fn cordic_agrees_with_direct_formula(
        (ni, nj) in (0.01f64..100.0, 0.01f64..100.0),
        frac in -0.99f64..0.99,
    ) {
        let cov = frac * (ni * nj).sqrt();
        let engine = hjsvd::baselines::cordic::Cordic::new(54);
        let (cc, cs) = engine.jacobi_params(ni, nj, cov);
        let direct = textbook_params(ni, nj, cov);
        prop_assert!((cc - direct.cos).abs() < 1e-7, "cos {cc} vs {}", direct.cos);
        prop_assert!((cs - direct.sin).abs() < 1e-7, "sin {cs} vs {}", direct.sin);
    }
}

/// Everything of a batch slot that must not depend on the batch: σ bits,
/// sweeps, every history field's bits, the prescale, or the error.
fn slot_bits(res: &Result<hjsvd::core::SingularValues, hjsvd::core::SvdError>) -> String {
    match res {
        Ok(sv) => {
            let values: Vec<u64> = sv.values.iter().map(|v| v.to_bits()).collect();
            let history: Vec<_> = sv
                .history
                .iter()
                .map(|r| {
                    let f = [r.mean_abs_cov, r.off_frobenius, r.max_abs_cov].map(f64::to_bits);
                    (r.sweep, f, r.rotations_applied, r.rotations_skipped)
                })
                .collect();
            format!("{values:?} {} {history:?} {}", sv.sweeps, sv.stats.prescale_exp)
        }
        Err(e) => format!("{e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_batch_slot_is_the_bits_of_its_matrix_solved_alone(
        seed in 0u64..1_000_000,
        k in 1usize..300,
        n in 2usize..33,
        wide in any::<bool>(),
        with_empty in any::<bool>(),
    ) {
        // Lanes never read each other, so a slot's result cannot depend on
        // the batch around it: not on its neighbours, its cache block, or
        // the pool's thread count (CI runs this file at 1 and 3 threads).
        // Batches mix in NaN, 0×n, 1e±160-scaled and duplicate-column slots.
        use hjsvd::matrix::Matrix;
        let m = if wide { 1 + seed as usize % n } else { n + seed as usize % 9 };
        let mats: Vec<Matrix> = (0..k)
            .map(|slot| {
                let s = seed.wrapping_mul(1_000).wrapping_add(slot as u64);
                let mut a = gen::uniform(m, n, s);
                match s.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60 {
                    0 => a.set(s as usize % m, (s / 7) as usize % n, f64::NAN),
                    1 if with_empty => a = Matrix::zeros(0, n),
                    2 => a = a.scaled(1e160),
                    3 => a = a.scaled(1e-160),
                    4 => {
                        for r in 0..m {
                            let v = a.get(r, 0);
                            a.set(r, n - 1, v);
                        }
                    }
                    _ => {}
                }
                a
            })
            .collect();
        let solver = HestenesSvd::new(SvdOptions::default());
        let alone = |a: &Matrix| {
            BatchDriver::new(&solver).solve(&mut BatchWorkspace::new(), std::slice::from_ref(a))
        };
        let want: Vec<String> = mats.iter().map(|a| slot_bits(&alone(a)[0])).collect();
        let batch = BatchDriver::new(&solver).solve(&mut BatchWorkspace::new(), &mats);
        prop_assert_eq!(batch.len(), k);
        for (slot, res) in batch.iter().enumerate() {
            prop_assert_eq!(&slot_bits(res), &want[slot], "slot {} of {}", slot, k);
        }
        let eligible = k >= 2 && mats.iter().all(|a| a.shape() == (m, n));
        if eligible {
            for (slot, res) in solver.singular_values_batch(&mats).iter().enumerate() {
                if let Ok(sv) = res {
                    prop_assert_eq!(sv.stats.engine, "batch-soa");
                }
                prop_assert_eq!(&slot_bits(res), &want[slot], "dispatched slot {} of {}", slot, k);
            }
        }
    }
}
