//! Property-based tests (proptest) over the core data structures and
//! numerical invariants of the workspace.

use hjsvd::core::ordering::{round_robin, row_cyclic, Ordering, PlanBuffers};
use hjsvd::core::rotation::{hardware_params, rotate_norms, textbook_params};
use hjsvd::core::{EngineKind, GramState, HestenesSvd, SvdOptions};
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
        which in 0usize..3,
    ) {
        let engine = [EngineKind::Sequential, EngineKind::Parallel, EngineKind::Blocked][which];
        // decompose_batch must return, slot for slot, the exact bits the
        // one-at-a-time driver produces — at whatever thread count the pool
        // was launched with (fan-out order must never leak into results).
        let mats: Vec<_> = (0..count)
            .map(|k| {
                let m = 3 + (seed as usize + 5 * k) % 14;
                let n = 1 + (seed as usize + 3 * k) % m.min(8);
                gen::uniform(m, n, seed.wrapping_add(k as u64))
            })
            .collect();
        let solver = HestenesSvd::new(SvdOptions { engine, ..Default::default() });
        let batch = solver.decompose_batch(&mats);
        prop_assert_eq!(batch.len(), mats.len());
        for (k, res) in batch.iter().enumerate() {
            let one = solver.decompose(&mats[k]).unwrap();
            let b = res.as_ref().unwrap();
            prop_assert_eq!(b.u.as_slice(), one.u.as_slice(), "U[{}] differs", k);
            prop_assert_eq!(&b.singular_values, &one.singular_values, "sigma[{}] differs", k);
            prop_assert_eq!(b.v.as_slice(), one.v.as_slice(), "V[{}] differs", k);
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
        let soa = solver.singular_values_batch_soa(&mats);
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
        // One workspace carried across two different-shaped solves produces
        // the same bits as a fresh workspace per solve: no state leaks.
        use hjsvd::core::parallel::{parallel_sweep_full_ws, SweepWorkspace};
        use hjsvd::matrix::Matrix;
        let shapes = [(2 * n1 + 1, n1), (3 * n2, n2)];
        let mut ws = SweepWorkspace::new();
        for (k, &(m, n)) in shapes.iter().enumerate() {
            let src = gen::uniform(m, n, seed.wrapping_add(k as u64));
            let order = round_robin(n);

            let mut b_reused = src.clone();
            let mut g_reused = GramState::from_matrix(&b_reused);
            let mut v_reused = Matrix::identity(n);

            let mut b_fresh = src.clone();
            let mut g_fresh = GramState::from_matrix(&b_fresh);
            let mut v_fresh = Matrix::identity(n);
            let mut fresh = SweepWorkspace::new();

            for s in 1..=3 {
                parallel_sweep_full_ws(&mut b_reused, &mut g_reused, Some(&mut v_reused), &order, s, &mut ws);
                parallel_sweep_full_ws(&mut b_fresh, &mut g_fresh, Some(&mut v_fresh), &order, s, &mut fresh);
            }
            prop_assert_eq!(b_reused.as_slice(), b_fresh.as_slice(), "B differs on solve {}", k);
            prop_assert_eq!(v_reused.as_slice(), v_fresh.as_slice(), "V differs on solve {}", k);
            prop_assert_eq!(g_reused.packed().as_slice(), g_fresh.packed().as_slice(),
                "D differs on solve {}", k);
        }
    }

    #[test]
    fn sequential_and_blocked_engines_agree(seed in 0u64..60, shape in 0usize..4) {
        // Tall, square, wide, rank-deficient — the cache-tiled blocked engine
        // takes a different (group-sequential) path through each sweep, so it
        // is not bit-identical to the sequential engine, but the spectra must
        // agree to near machine precision.
        let a = match shape {
            0 => gen::uniform(36, 11, seed),          // tall
            1 => gen::uniform(14, 14, seed),          // square
            2 => gen::uniform(8, 22, seed),           // wide
            _ => gen::rank_deficient(24, 9, 4, seed), // rank-deficient
        };
        let seq = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        let blk = HestenesSvd::new(SvdOptions { engine: EngineKind::Blocked, ..Default::default() })
            .decompose(&a)
            .unwrap();
        prop_assert_eq!(seq.singular_values.len(), blk.singular_values.len());
        let smax = seq.singular_values.first().copied().unwrap_or(0.0).max(1e-300);
        for (x, y) in seq.singular_values.iter().zip(&blk.singular_values) {
            // Compare the Gram spectrum (σ²): numerically-zero values are
            // O(√ε·σmax) dust whose exact bits legitimately differ between
            // engines, but their squared mass is pinned to 1e-13 relative.
            prop_assert!(
                (x * x - y * y).abs() <= 1e-13 * smax * smax,
                "σ² mismatch: {} vs {}", x, y
            );
            if x.min(*y) > 1e-6 * smax {
                prop_assert!((x - y).abs() <= 1e-13 * smax, "σ mismatch: {} vs {}", x, y);
            }
        }
        let err = norms::reconstruction_error(&a, &blk.u, &blk.singular_values, &blk.v);
        prop_assert!(err < 1e-10, "blocked reconstruction error {}", err);
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_manual_sweep_loop(seed in 0u64..60, n in 2usize..12) {
        // The refactor moved the parallel path behind SolveDriver; the exact
        // bits the pre-refactor driver produced (a hand-rolled
        // parallel_sweep_full_ws loop with the same convergence rule) must be
        // preserved.
        use hjsvd::core::convergence::{is_converged, Convergence, MAX_SWEEP_CAP};
        use hjsvd::core::parallel::{parallel_sweep_full_ws, SweepWorkspace};
        use hjsvd::matrix::{ops, Matrix};
        let m = 2 * n + 3;
        let a = gen::uniform(m, n, seed);

        let mut b = a.clone();
        let mut g = GramState::from_matrix(&b);
        let mut v = Matrix::identity(n);
        let order = round_robin(n);
        let mut ws = SweepWorkspace::new();
        let crit = Convergence::default();
        let mut sweeps = 0usize;
        while sweeps < MAX_SWEEP_CAP {
            sweeps += 1;
            let rec =
                parallel_sweep_full_ws(&mut b, &mut g, Some(&mut v), &order, sweeps, &mut ws);
            if is_converged(&crit, &rec, g.trace(), n) {
                break;
            }
        }

        let svd =
            HestenesSvd::new(SvdOptions { engine: EngineKind::Parallel, ..Default::default() })
                .decompose(&a)
                .unwrap();
        prop_assert_eq!(svd.sweeps, sweeps, "sweep count changed");

        // σ must be the column norms of the manual B, bitwise, in sorted
        // order; V's columns must be the manual V's columns, bitwise.
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
    fn every_ordering_plans_disjoint_rounds_and_visits_pairs_at_most_once(
        seed in 0u64..100,
        n in 2usize..24,
    ) {
        // The scheduling contract every strategy must honor, sweep after
        // sweep: pairs are (i, j) with i < j < n, no pair is visited twice
        // within one sweep, no column appears twice within one round, and —
        // for the strategies shipped today, which are all full-coverage —
        // every pair is visited exactly once per sweep.
        let a = gen::uniform(2 * n + 1, n, seed);
        let gram = GramState::from_matrix(&a);
        let mut buffers = PlanBuffers::new();
        for kind in Ordering::ALL {
            let (strategy, plan) = buffers.schedule_parts(kind);
            for sweep_index in 1..=3usize {
                strategy.plan_sweep(&gram, sweep_index, plan);
                let mut seen = std::collections::HashSet::new();
                for round in plan.rounds() {
                    let mut used = std::collections::HashSet::new();
                    for &(i, j) in round {
                        prop_assert!(i < j && j < n,
                            "{}: bad pair ({i},{j}) for n={n}", kind.name());
                        prop_assert!(seen.insert((i, j)),
                            "{}: pair ({i},{j}) visited twice in sweep {sweep_index}", kind.name());
                        prop_assert!(used.insert(i) && used.insert(j),
                            "{}: column reused within a round", kind.name());
                    }
                }
                prop_assert_eq!(seen.len(), n * (n - 1) / 2,
                    "{}: sweep {} must cover every pair", kind.name(), sweep_index);
            }
        }
    }

    #[test]
    fn presort_folds_the_permutation_into_v_bit_exactly(seed in 0u64..60, n in 2usize..12) {
        // The de Rijk presort is "cyclic on the column-permuted matrix with
        // the permutation folded into V's starting value" — so against a
        // manual permute-then-cyclic solve it must reproduce U and σ bit for
        // bit, and V row-permuted by the same permutation, with no undo pass.
        use hjsvd::matrix::{ops, Matrix};
        let m = 2 * n + 3;
        let a = gen::uniform(m, n, seed);

        // Replicate the solver's permutation: descending column norm, ties
        // (and NaN) by column index via total_cmp.
        let norms_v: Vec<f64> = (0..n).map(|c| ops::norm(a.col(c))).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by(|&x, &y| norms_v[y].total_cmp(&norms_v[x]).then(x.cmp(&y)));
        let mut ap = Matrix::zeros(m, n);
        for (t, &c) in perm.iter().enumerate() {
            ap.col_mut(t).copy_from_slice(a.col(c));
        }

        let pre = HestenesSvd::new(SvdOptions {
            ordering: Ordering::ColumnNormPresort,
            ..Default::default()
        })
        .decompose(&a)
        .unwrap();
        let cyc = HestenesSvd::new(SvdOptions::default()).decompose(&ap).unwrap();

        prop_assert_eq!(pre.sweeps, cyc.sweeps, "sweep counts differ");
        prop_assert_eq!(pre.u.as_slice(), cyc.u.as_slice(), "U bits differ");
        for (s_pre, s_cyc) in pre.singular_values.iter().zip(&cyc.singular_values) {
            prop_assert_eq!(s_pre.to_bits(), s_cyc.to_bits(), "σ bits differ");
        }
        // V_presort = P·V_cyclic: row perm[t] of the presort V is row t of
        // the cyclic-on-permuted V, bitwise.
        for k in 0..pre.v.cols() {
            let (col_pre, col_cyc) = (pre.v.col(k), cyc.v.col(k));
            for t in 0..n {
                prop_assert_eq!(col_pre[perm[t]].to_bits(), col_cyc[t].to_bits(),
                    "V row permutation broken at (t={t}, k={k})");
            }
        }
        // And the presorted solve still factors the *original* matrix.
        let err = norms::reconstruction_error(&a, &pre.u, &pre.singular_values, &pre.v);
        prop_assert!(err < 1e-10, "presort reconstruction error {err}");
    }

    #[test]
    fn cyclic_ordering_is_bit_identical_to_the_fixed_plan_on_every_engine(
        seed in 0u64..60,
        n in 2usize..12,
        which in 0usize..3,
    ) {
        // The ordering refactor moved plan construction behind
        // OrderingStrategy + PlanBuffers; the default cyclic schedule must
        // still produce the exact bits of the same engine driven over the
        // fixed round_robin(n) plan — on all three engines. Each engine is
        // compared with itself: on a pool of two or more threads the
        // parallel engine's round-synchronous update differs from the
        // sequential one in rounding (see `hj_core::parallel`).
        use hjsvd::core::engine::{Blocked, Sequential};
        use hjsvd::core::parallel::Parallel;
        use hjsvd::core::{PairGuard, RotationTarget, SolveDriver, SweepState, SweepWorkspace};
        use hjsvd::matrix::{ops, Matrix};
        let engine = [EngineKind::Sequential, EngineKind::Parallel, EngineKind::Blocked][which];
        let m = 2 * n + 3;
        let a = gen::uniform(m, n, seed);
        let opts = SvdOptions { engine, ordering: Ordering::RoundRobin, ..Default::default() };

        let mut b = a.clone();
        let mut g = GramState::from_matrix(&b);
        let mut v = Matrix::identity(n);
        let driver = SolveDriver { convergence: opts.convergence, max_sweeps: opts.max_sweeps };
        let order = round_robin(n);
        let mut ws = SweepWorkspace::new();
        let mut state = SweepState {
            gram: &mut g,
            target: RotationTarget::full(&mut b, &mut v),
            guard: PairGuard::default(),
        };
        let (history, _) = match engine {
            EngineKind::Sequential => driver.run(&mut Sequential, &mut state, &order),
            EngineKind::Parallel => driver.run(&mut Parallel::new(&mut ws), &mut state, &order),
            EngineKind::Blocked => driver.run(&mut Blocked::for_dim(&mut ws, n), &mut state, &order),
        };

        let svd = HestenesSvd::new(opts).decompose(&a).unwrap();
        prop_assert_eq!(svd.sweeps, history.len(), "{}: sweep count changed", engine.name());

        let mut idx: Vec<usize> = (0..n).collect();
        let col_norms: Vec<f64> = (0..n).map(|c| ops::norm(b.col(c))).collect();
        idx.sort_by(|&x, &y| col_norms[y].partial_cmp(&col_norms[x]).unwrap());
        for (t, &c) in idx.iter().take(m.min(n)).enumerate() {
            prop_assert_eq!(
                svd.singular_values[t].to_bits(),
                col_norms[c].to_bits(),
                "{}: σ[{}] bits differ", engine.name(), t
            );
            prop_assert_eq!(svd.v.col(t), v.col(c), "{}: V column {} bits differ",
                engine.name(), t);
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
