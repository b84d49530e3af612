//! Batched solves over independent matrices.
//!
//! The paper's architecture processes one decomposition at a time, but the
//! motivating workloads (PCA over many sensor windows, blocks of a larger
//! problem) arrive as *batches* of independent matrices. These drivers fan
//! the batch across the thread pool, one solve per matrix:
//!
//! * **Deterministic ordering** — result `k` always corresponds to input
//!   `k`, regardless of which worker ran it or in what order solves
//!   finished.
//! * **Bit-identical results** — each solve is the exact same computation as
//!   its one-at-a-time counterpart, whichever worker runs it.
//! * **Per-solve isolation** — a bad input (e.g. NaN → `NonFiniteInput`)
//!   yields an `Err` in its own slot and leaves every other solve untouched.
//! * **Workspace pooling** — every solve checks a [`SweepWorkspace`] out of
//!   a shared [`WorkspacePool`] and returns it afterwards, so a fan-out of
//!   `B` matrices over `T` workers warms at most `min(B, T)` workspaces
//!   instead of allocating a fresh one per matrix. Pooling is transparent:
//!   a warm workspace computes the same bits as a cold one.

use crate::ordering::SweepWorkspace;
use crate::svd::{HestenesSvd, SingularValues, Svd};
use crate::SvdError;
use hj_matrix::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A checkout/checkin pool of [`SweepWorkspace`]s for fan-out solves.
///
/// `checkout` hands back the most recently returned workspace (warmest
/// first) or creates a fresh one when the pool is empty; `checkin` returns
/// it for the next solve. The pool never shrinks and is safe to share
/// across threads.
#[derive(Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<SweepWorkspace>>,
    created: AtomicUsize,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created on demand.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// Take a workspace (warmest available, or a fresh one).
    pub fn checkout(&self) -> SweepWorkspace {
        if let Some(ws) = self.free.lock().expect("workspace pool poisoned").pop() {
            return ws;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        SweepWorkspace::new()
    }

    /// Return a workspace for reuse by later solves.
    pub fn checkin(&self, ws: SweepWorkspace) {
        self.free.lock().expect("workspace pool poisoned").push(ws);
    }

    /// Total workspaces ever created by this pool.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Workspaces currently checked in and idle.
    pub fn available(&self) -> usize {
        self.free.lock().expect("workspace pool poisoned").len()
    }
}

impl HestenesSvd {
    /// Decompose every matrix of the batch with this solver's options.
    ///
    /// ```
    /// use hj_core::{HestenesSvd, SvdOptions};
    /// use hj_matrix::gen;
    ///
    /// let mats: Vec<_> = (0..4).map(|k| gen::uniform(16, 6, k)).collect();
    /// let solver = HestenesSvd::new(SvdOptions::default());
    /// let results = solver.decompose_batch(&mats);
    /// assert_eq!(results.len(), 4);
    /// assert!(results.iter().all(|r| r.is_ok()));
    /// ```
    pub fn decompose_batch(&self, mats: &[Matrix]) -> Vec<Result<Svd, SvdError>> {
        self.decompose_batch_pooled(mats, &WorkspacePool::new())
    }

    /// [`HestenesSvd::decompose_batch`] drawing scratch from a caller-owned
    /// pool — reuse one pool across repeated batches to keep the workspaces
    /// warm between calls.
    pub fn decompose_batch_pooled(
        &self,
        mats: &[Matrix],
        pool: &WorkspacePool,
    ) -> Vec<Result<Svd, SvdError>> {
        self.batch(mats, pool, |m, ws| self.decompose_with_workspace(m, ws))
    }

    /// Values-only counterpart of [`HestenesSvd::decompose_batch`].
    ///
    /// Uniform-shape batches of small problems (`2 ≤ n ≤ 32`, default
    /// cyclic ordering) dispatch to the batched SoA engine
    /// ([`HestenesSvd::singular_values_batch_soa`]), which sweeps every
    /// problem together — same per-slot error isolation, results within the
    /// documented `1e-12·σ_max` envelope of the looped path. Everything else
    /// (mixed shapes, larger problems, other orderings or threshold
    /// configurations) takes the looped per-matrix path, which stays
    /// bit-identical to one-at-a-time solves.
    pub fn singular_values_batch(&self, mats: &[Matrix]) -> Vec<Result<SingularValues, SvdError>> {
        if crate::batch_engine::soa_eligible(self, mats) {
            return self.singular_values_batch_soa(mats);
        }
        self.singular_values_batch_looped(mats)
    }

    /// The looped per-matrix batch path, bypassing the SoA dispatch of
    /// [`HestenesSvd::singular_values_batch`] — one full scalar solve per
    /// matrix, bit-identical to [`HestenesSvd::singular_values`] per slot.
    /// This is the baseline the `batch_throughput` benchmark compares the
    /// SoA engine against.
    pub fn singular_values_batch_looped(
        &self,
        mats: &[Matrix],
    ) -> Vec<Result<SingularValues, SvdError>> {
        self.singular_values_batch_pooled(mats, &WorkspacePool::new())
    }

    /// [`HestenesSvd::singular_values_batch`] drawing scratch from a
    /// caller-owned pool.
    pub fn singular_values_batch_pooled(
        &self,
        mats: &[Matrix],
        pool: &WorkspacePool,
    ) -> Vec<Result<SingularValues, SvdError>> {
        self.batch(mats, pool, |m, ws| self.singular_values_with_workspace(m, ws))
    }

    fn batch<T, F>(
        &self,
        mats: &[Matrix],
        pool: &WorkspacePool,
        solve: F,
    ) -> Vec<Result<T, SvdError>>
    where
        T: Send,
        F: Fn(&Matrix, &mut SweepWorkspace) -> Result<T, SvdError> + Sync,
    {
        // One checkout per worker-sized chunk, not per matrix: per-item
        // checkout/checkin let a large batch cycle workspaces through the
        // pool faster than warm ones came back, re-creating (and re-warming)
        // workspaces mid-batch. Chunking pins the checkout count to the
        // chunk count — at most one workspace per worker, deterministically.
        let chunk = mats.len().div_ceil(rayon::current_num_threads().max(1)).max(1);
        let parts = mats.len().div_ceil(chunk);
        let starts: Vec<usize> = (0..=parts).map(|r| (r * chunk).min(mats.len())).collect();
        let mut out: Vec<Option<Result<T, SvdError>>> = (0..mats.len()).map(|_| None).collect();
        rayon::par_rows_for_each(&mut out, &starts, |r, slots| {
            let mut ws = pool.checkout();
            for (off, slot) in slots.iter_mut().enumerate() {
                *slot = Some(solve(&mats[r * chunk + off], &mut ws));
            }
            pool.checkin(ws);
        });
        out.into_iter().map(|r| r.expect("every batch slot is filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Convergence, SvdOptions};
    use hj_matrix::gen;

    fn mixed_batch() -> Vec<Matrix> {
        vec![
            gen::uniform(20, 6, 1),
            gen::uniform(9, 9, 2),
            gen::uniform(6, 20, 3), // wide
            gen::with_singular_values(24, 4, &[8.0, 4.0, 2.0, 1.0], 4),
        ]
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let mats = mixed_batch();
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = solver.decompose_batch(&mats);
        assert_eq!(batch.len(), mats.len());
        for (k, res) in batch.iter().enumerate() {
            let one = solver.decompose(&mats[k]).unwrap();
            let b = res.as_ref().unwrap();
            assert_eq!(b.u.as_slice(), one.u.as_slice(), "U[{k}] differs");
            assert_eq!(b.singular_values, one.singular_values, "σ[{k}] differs");
            assert_eq!(b.v.as_slice(), one.v.as_slice(), "V[{k}] differs");
            assert_eq!(b.sweeps, one.sweeps);
        }
    }

    #[test]
    fn values_batch_matches_sequential_bitwise() {
        let mats = mixed_batch();
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = solver.singular_values_batch(&mats);
        for (k, res) in batch.iter().enumerate() {
            let one = solver.singular_values(&mats[k]).unwrap();
            assert_eq!(res.as_ref().unwrap().values, one.values, "σ[{k}] differs");
        }
    }

    #[test]
    fn bad_input_does_not_poison_the_batch() {
        let mut mats = mixed_batch();
        let mut poisoned = Matrix::zeros(5, 3);
        poisoned.set(2, 1, f64::NAN);
        mats.insert(2, poisoned);
        mats.push(Matrix::zeros(0, 4)); // empty → EmptyInput

        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = solver.decompose_batch(&mats);
        assert_eq!(batch.len(), mats.len());
        assert!(matches!(batch[2], Err(SvdError::NonFiniteInput)));
        assert!(matches!(batch[mats.len() - 1], Err(SvdError::EmptyInput)));
        for (k, res) in batch.iter().enumerate() {
            if k == 2 || k == mats.len() - 1 {
                continue;
            }
            let one = solver.decompose(&mats[k]).unwrap();
            let b = res.as_ref().expect("good input must solve");
            assert_eq!(b.singular_values, one.singular_values, "slot {k} perturbed");
        }
    }

    #[test]
    fn per_solve_errors_are_positional() {
        // An unconverged wide truncation errors in its own slot too.
        let mats = vec![gen::uniform(6, 20, 5), gen::uniform(20, 6, 5)];
        let opts = SvdOptions {
            convergence: Convergence::FixedSweeps(1),
            max_sweeps: 1,
            ..Default::default()
        };
        let batch = HestenesSvd::new(opts).singular_values_batch(&mats);
        assert!(matches!(batch[0], Err(SvdError::TruncatedTailNotNegligible)));
        assert!(batch[1].is_ok());
    }

    #[test]
    fn faulted_solves_do_not_poison_the_pool() {
        // Every solve under an already-expired deadline aborts with a
        // structured fault in its own slot — and the workspaces those
        // aborted solves checked back in must be indistinguishable from
        // fresh ones for the next batch.
        let mats = mixed_batch();
        let pool = WorkspacePool::new();
        let expired = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let faulty = HestenesSvd::new(SvdOptions::default())
            .with_budget(crate::SolveBudget::with_deadline(expired))
            .with_recovery_policy(crate::RecoveryPolicy::abort_only());
        let batch = faulty.decompose_batch_pooled(&mats, &pool);
        for (k, res) in batch.iter().enumerate() {
            assert!(
                matches!(res, Err(SvdError::SolveFault { .. })),
                "slot {k} should abort on the expired deadline, got {res:?}"
            );
        }
        // Same pool, healthy solver: bit-identical to a fresh pool.
        let clean = HestenesSvd::new(SvdOptions::default());
        let reused = clean.decompose_batch_pooled(&mats, &pool);
        let fresh = clean.decompose_batch_pooled(&mats, &WorkspacePool::new());
        for (k, (r, f)) in reused.iter().zip(&fresh).enumerate() {
            let r = r.as_ref().expect("healthy solve");
            let f = f.as_ref().expect("healthy solve");
            assert_eq!(r.singular_values, f.singular_values, "slot {k} σ poisoned");
            assert_eq!(r.u.as_slice(), f.u.as_slice(), "slot {k} U poisoned");
            assert_eq!(r.v.as_slice(), f.v.as_slice(), "slot {k} V poisoned");
        }
    }

    #[test]
    fn uniform_small_batches_dispatch_to_the_soa_engine() {
        // Uniform shapes at n ≤ 32 under the default options take the SoA
        // path (visible through the stats engine name); mixed shapes keep
        // the looped path and its bit-identical guarantee.
        let uniform: Vec<_> = (0..6).map(|k| gen::uniform(20, 8, 50 + k)).collect();
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = solver.singular_values_batch(&uniform);
        for (k, res) in batch.iter().enumerate() {
            let sv = res.as_ref().unwrap();
            assert_eq!(sv.stats.engine, "batch-soa", "slot {k} should take the SoA path");
            let one = solver.singular_values(&uniform[k]).unwrap();
            let smax = one.values[0];
            for (x, y) in sv.values.iter().zip(&one.values) {
                assert!((x - y).abs() <= 1e-12 * smax, "slot {k}");
            }
        }
        let looped = solver.singular_values_batch(&mixed_batch());
        for res in &looped {
            assert_eq!(res.as_ref().unwrap().stats.engine, "sequential");
        }
        // The explicit escape hatch never dispatches.
        for res in solver.singular_values_batch_looped(&uniform) {
            assert_eq!(res.unwrap().stats.engine, "sequential");
        }
    }

    #[test]
    fn pool_checkout_is_chunk_deterministic() {
        // Regression: the per-item checkout/checkin cycle could create more
        // workspaces than workers when a big batch outpaced checkins. The
        // chunked path pins creation to min(batch, threads) exactly — and a
        // second batch over the warm pool creates nothing.
        let mats: Vec<_> = (0..64).map(|k| gen::uniform(12, 5, 300 + k)).collect();
        let solver = HestenesSvd::new(SvdOptions::default());
        let pool = WorkspacePool::new();
        solver.decompose_batch_pooled(&mats, &pool);
        let cap = rayon::current_num_threads().max(1).min(mats.len());
        assert!(pool.created() <= cap, "created {} workspaces for a cap of {cap}", pool.created());
        assert_eq!(pool.available(), pool.created());
        let created = pool.created();
        solver.decompose_batch_pooled(&mats, &pool);
        assert_eq!(pool.created(), created, "warm pool must not re-create workspaces");
    }

    #[test]
    fn empty_batch_is_fine() {
        let solver = HestenesSvd::new(SvdOptions::default());
        assert!(solver.decompose_batch(&[]).is_empty());
        assert!(solver.singular_values_batch(&[]).is_empty());
    }

    #[test]
    fn pool_bounds_workspace_creation_and_is_transparent() {
        // 8 same-shape solves through one pool: at most one workspace per
        // worker thread ever exists, all come back, and the results match
        // the unpooled path bit for bit.
        let mats: Vec<_> = (0..8).map(|k| gen::uniform(18, 7, 100 + k)).collect();
        let solver = HestenesSvd::new(SvdOptions::default());
        let pool = WorkspacePool::new();
        let pooled = solver.decompose_batch_pooled(&mats, &pool);
        assert!(pool.created() >= 1);
        assert!(
            pool.created() <= rayon::current_num_threads().max(1),
            "pool created {} workspaces for {} workers",
            pool.created(),
            rayon::current_num_threads()
        );
        assert_eq!(pool.available(), pool.created(), "all workspaces checked back in");
        // A second batch over the same pool creates nothing new.
        let again = solver.singular_values_batch_pooled(&mats, &pool);
        assert_eq!(pool.available(), pool.created());
        for (k, res) in pooled.iter().enumerate() {
            let one = solver.decompose(&mats[k]).unwrap();
            let b = res.as_ref().unwrap();
            assert_eq!(b.singular_values, one.singular_values, "slot {k}");
            assert_eq!(b.u.as_slice(), one.u.as_slice());
            assert_eq!(b.v.as_slice(), one.v.as_slice());
            let one_values = solver.singular_values(&mats[k]).unwrap();
            assert_eq!(again[k].as_ref().unwrap().values, one_values.values);
        }
    }
}
