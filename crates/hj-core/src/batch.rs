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

use crate::batch_engine::{soa_eligible, BatchDriver, BatchWorkspace};
use crate::svd::{HestenesSvd, SingularValues, Svd};
use crate::SvdError;
use hj_matrix::Matrix;
use rayon::prelude::*;

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
        fan_out(mats, |m| self.decompose(m))
    }

    /// Values-only counterpart of [`HestenesSvd::decompose_batch`].
    ///
    /// Uniform-shape batches of small problems (`2 ≤ n ≤ 32`, default
    /// cyclic ordering) dispatch to the batched SoA engine
    /// ([`BatchDriver`]), which sweeps every problem together — same
    /// per-slot error isolation, results within the documented
    /// `1e-12·σ_max` envelope of the looped path. Everything else (mixed
    /// shapes, larger problems, other orderings or threshold configurations)
    /// takes the looped per-matrix path, which stays bit-identical to
    /// one-at-a-time solves.
    pub fn singular_values_batch(&self, mats: &[Matrix]) -> Vec<Result<SingularValues, SvdError>> {
        self.singular_values_batch_with_workspace(mats, &mut BatchWorkspace::new())
    }

    /// [`HestenesSvd::singular_values_batch`]'s dispatch over caller-owned
    /// SoA scratch: uniform small batches run the SoA engine on `ws`,
    /// everything else takes the looped per-matrix path. Long-lived servers
    /// keep one warm [`BatchWorkspace`] per worker and route every bulk job
    /// through this.
    pub fn singular_values_batch_with_workspace(
        &self,
        mats: &[Matrix],
        ws: &mut BatchWorkspace,
    ) -> Vec<Result<SingularValues, SvdError>> {
        if soa_eligible(self, mats) {
            return BatchDriver::new(self).solve(ws, mats);
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
        fan_out(mats, |m| self.singular_values(m))
    }
}

/// One `solve` per matrix across the thread pool, each worker taking a
/// contiguous block of slots; result `k` is always input `k`'s.
fn fan_out<T, F>(mats: &[Matrix], solve: F) -> Vec<Result<T, SvdError>>
where
    T: Send,
    F: Fn(&Matrix) -> Result<T, SvdError> + Sync,
{
    let mut out: Vec<Option<Result<T, SvdError>>> = (0..mats.len()).map(|_| None).collect();
    out.par_iter_mut().enumerate().for_each(|(k, slot)| *slot = Some(solve(&mats[k])));
    out.into_iter().map(|r| r.expect("every batch slot is filled")).collect()
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
        // Under an already-expired deadline every solve aborts with a
        // structured fault in its own slot.
        let mats = mixed_batch();
        let expired = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let faulty = HestenesSvd::new(SvdOptions::default())
            .with_budget(crate::SolveBudget::with_deadline(expired));
        for (k, res) in faulty.decompose_batch(&mats).iter().enumerate() {
            assert!(
                matches!(res, Err(SvdError::SolveFault { .. })),
                "slot {k} should abort on the expired deadline, got {res:?}"
            );
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
    fn empty_batch_is_fine() {
        let solver = HestenesSvd::new(SvdOptions::default());
        assert!(solver.decompose_batch(&[]).is_empty());
        assert!(solver.singular_values_batch(&[]).is_empty());
    }
}
