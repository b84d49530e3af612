//! A pair-at-a-time reference sweep engine, shared by the round kernel's
//! pins in `kernel_compat.rs` and `trace.rs`.
//!
//! [`PerPair`] visits every pair of the plan in order, as `Sequential`
//! swept a round-robin plan before it ran one round at a time: the guard,
//! [`textbook_params`], `GramState::rotate` and the column rotations, each
//! pair seeing `D` as the pairs before it left it.

use hjsvd::core::engine::Sequential;
use hjsvd::core::ordering::Sweep;
use hjsvd::core::rotation::pair_converged;
use hjsvd::core::{
    textbook_params, PairGuard, SkipReason, SweepEngine, SweepRecord, SweepState, TraceEvent,
    Tracer,
};

/// The reference engine. Its records' metrics come from [`Sequential`]
/// over an empty plan, which rotates nothing: they are a function of `D`
/// alone. Its counts are its own.
pub struct PerPair;

/// Whether `guard` skips a pair with entries `(D_ii, D_jj, D_ij)`, where
/// `scale` is `max |D_kk|` at the start of the sweep.
fn skips(guard: PairGuard, scale: f64, (ni, nj, cov): (f64, f64, f64)) -> bool {
    match guard {
        PairGuard::Relative { tol } | PairGuard::Threshold { tol } => {
            pair_converged(ni, nj, cov, tol)
        }
        PairGuard::DiagonalScale { tol } => cov.abs() <= tol * scale.max(f64::MIN_POSITIVE),
    }
}

/// The reason `guard` reports for a skipped pair.
fn reason(guard: PairGuard) -> SkipReason {
    match guard {
        PairGuard::Relative { .. } => SkipReason::RelativeGuard,
        PairGuard::Threshold { .. } => SkipReason::ThresholdGuard,
        PairGuard::DiagonalScale { .. } => SkipReason::DiagonalScaleGuard,
    }
}

impl SweepEngine for PerPair {
    fn name(&self) -> &'static str {
        "per-pair"
    }

    fn sweep_traced(
        &mut self,
        state: &mut SweepState<'_>,
        order: &Sweep,
        idx: usize,
        tracer: &mut Tracer<'_, '_>,
    ) -> SweepRecord {
        let g = &*state.gram;
        let scale = (0..g.dim()).fold(0.0f64, |m, i| m.max(g.norm_sq(i).abs()));
        let (mut applied, mut skipped) = (0, 0);
        for (i, j) in order.pairs() {
            let g = &*state.gram;
            let (ni, nj, cov) = (g.norm_sq(i), g.norm_sq(j), g.covariance(i, j));
            if skips(state.guard, scale, (ni, nj, cov)) {
                skipped += 1;
                let reason = reason(state.guard);
                tracer.emit(TraceEvent::RotationSkipped { sweep: idx, i, j, reason });
                continue;
            }
            let rot = textbook_params(ni, nj, cov);
            state.gram.rotate(i, j, &rot);
            let target = &mut state.target;
            for m in [target.columns.as_deref_mut(), target.v.as_deref_mut()].into_iter().flatten()
            {
                m.column_pair(i, j).unwrap().rotate(rot.cos, rot.sin);
            }
            applied += 1;
            tracer.emit(TraceEvent::RotationApplied { sweep: idx, i, j });
        }
        let rec = Sequential.sweep(state, &Sweep::new(), idx);
        SweepRecord { rotations_applied: applied, rotations_skipped: skipped, ..rec }
    }
}
