//! Deterministic fault-injection harness (feature `fault-injection` only).
//!
//! The robustness campaign in `tests/fault_injection.rs` needs to corrupt a
//! solve *mid-flight* — after validation has passed and sweeps are running —
//! to prove the health check detects each fault class within one sweep and
//! the solve aborts with a structured error at that sweep. This
//! module is that corruption source: a [`FaultInjector`] hook called by
//! [`crate::SolveDriver::run_monitored`] around every sweep, and a
//! deterministic [`SeededInjector`] that fires planned [`Corruption`]s at
//! chosen sweep coordinates.
//!
//! A solve takes its injector through [`crate::Request`]'s `injector`
//! field. The module, that field and the hook calls in the engine path are
//! all gated behind the `fault-injection` cargo feature; production builds
//! compile none of them, which CI proves with a `--no-default-features`
//! build and a `compile_fail` doctest of a production `Request` that sets
//! an injector.

use crate::gram::GramState;
use crate::rotation::Rotation;
use std::time::Duration;

/// A corruption source threaded through the monitored sweep loop.
///
/// `before_sweep` runs ahead of the sweep so the sweep's own
/// [`crate::SweepRecord`] metrics reflect the corruption — the health check
/// must see the fault in the same sweep's record, never declare convergence
/// on poisoned state. `after_sweep` runs once the sweep (and its record) is
/// done, before the health inspection.
pub trait FaultInjector {
    /// Called before sweep `sweep` (1-based) executes.
    fn before_sweep(&mut self, sweep: usize, gram: &mut GramState) {
        let _ = (sweep, gram);
    }

    /// Called after sweep `sweep` executes, before the health check runs.
    fn after_sweep(&mut self, sweep: usize, gram: &mut GramState) {
        let _ = (sweep, gram);
    }
}

/// One planned corruption of the solve state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// Overwrite `D[i][j]` with an arbitrary value (NaN/∞ models an
    /// escaped overflow; a negative value on the diagonal models a
    /// corrupted norm update).
    GramEntry {
        /// Row index into `D`.
        i: usize,
        /// Column index into `D`.
        j: usize,
        /// The value written (need not be finite).
        value: f64,
    },
    /// Apply a non-orthonormal "rotation" to pair `(i, j)` of `D` — models
    /// a broken rotation kernel. `cos² + sin² ≠ 1` inflates or deflates the
    /// pair's mass every time it fires (persistent mode wedges convergence;
    /// a one-shot perturbs the spectrum and trips the diagonal checks).
    BogusRotation {
        /// First column of the corrupted pair.
        i: usize,
        /// Second column of the corrupted pair.
        j: usize,
        /// Claimed cosine (unchecked).
        cos: f64,
        /// Claimed sine (unchecked).
        sin: f64,
    },
    /// Sleep this long — models a slow sweep, for exercising the
    /// [`crate::recovery::SolveBudget`] deadline path deterministically.
    Delay {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

struct Planned {
    sweep: usize,
    corruption: Corruption,
    fired: bool,
}

/// A deterministic injector: corruptions planned at exact sweep indices, an
/// xorshift coordinate picker seeded once (so campaigns are reproducible
/// from a seed alone), and a log of everything that fired.
///
/// By default each corruption fires exactly once, at its planned sweep — a
/// transient fault. [`SeededInjector::persistent`] switches to firing at
/// every sweep at or past the planned index, modeling a hard fault that
/// re-corrupts `D` however often it is rebuilt. The health check aborts
/// the solve on either within one sweep.
pub struct SeededInjector {
    state: u64,
    planned: Vec<Planned>,
    fired: Vec<(usize, Corruption)>,
    persistent: bool,
}

impl SeededInjector {
    /// Injector with no planned corruptions and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        SeededInjector {
            state: seed.max(1), // xorshift has a zero fixed point
            planned: Vec::new(),
            fired: Vec::new(),
            persistent: false,
        }
    }

    /// Plan `corruption` to fire before sweep `sweep` (1-based).
    pub fn at_sweep(mut self, sweep: usize, corruption: Corruption) -> Self {
        self.planned.push(Planned { sweep, corruption, fired: false });
        self
    }

    /// Fire every planned corruption at *every* sweep at or past its planned
    /// index, instead of once — a hard fault that a rebuilt `D` cannot
    /// clear.
    pub fn persistent(mut self) -> Self {
        self.persistent = true;
        self
    }

    /// Everything that fired so far, as `(sweep, corruption)` pairs.
    pub fn fired(&self) -> &[(usize, Corruption)] {
        &self.fired
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Deterministically pick a distinct column pair `(i, j)`, `i < j`, for
    /// an `n`-column problem.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn pick_pair(&mut self, n: usize) -> (usize, usize) {
        assert!(n >= 2, "a pair needs at least two columns");
        let i = (self.next() % n as u64) as usize;
        let mut j = (self.next() % n as u64) as usize;
        if j == i {
            j = (i + 1) % n;
        }
        (i.min(j), i.max(j))
    }

    fn apply(gram: &mut GramState, corruption: Corruption) {
        match corruption {
            Corruption::GramEntry { i, j, value } => gram.packed_mut().set(i, j, value),
            Corruption::BogusRotation { i, j, cos, sin } => {
                let t = if cos != 0.0 { sin / cos } else { 0.0 };
                let rot = Rotation { cos, sin, t };
                // A finite bogus rotation corrupts through the normal O(n)
                // update path; a non-finite one is written straight onto the
                // pair (rotating by NaN would poison columns either way, this
                // just keeps the blast radius defined).
                if rot.is_finite() {
                    gram.rotate(i, j, &rot);
                } else {
                    gram.packed_mut().set(i, i, f64::NAN);
                    gram.packed_mut().set(i, j, f64::NAN);
                }
            }
            Corruption::Delay { millis } => std::thread::sleep(Duration::from_millis(millis)),
        }
    }
}

impl FaultInjector for SeededInjector {
    fn before_sweep(&mut self, sweep: usize, gram: &mut GramState) {
        let persistent = self.persistent;
        let mut fired_now = Vec::new();
        for p in &mut self.planned {
            let due = if persistent { sweep >= p.sweep } else { sweep == p.sweep && !p.fired };
            if due {
                Self::apply(gram, p.corruption);
                p.fired = true;
                fired_now.push((sweep, p.corruption));
            }
        }
        self.fired.extend(fired_now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hj_matrix::gen;

    #[test]
    fn one_shot_corruption_fires_exactly_once() {
        let a = gen::uniform(10, 4, 1);
        let mut g = GramState::from_matrix(&a);
        let mut inj = SeededInjector::new(7)
            .at_sweep(2, Corruption::GramEntry { i: 0, j: 1, value: f64::NAN });
        inj.before_sweep(1, &mut g);
        assert!(g.covariance(0, 1).is_finite());
        inj.before_sweep(2, &mut g);
        assert!(g.covariance(0, 1).is_nan());
        assert_eq!(inj.fired().len(), 1);
        // Rebuild `D` and keep sweeping: one-shot corruption does not
        // re-fire.
        let mut g = GramState::from_matrix(&a);
        inj.before_sweep(2, &mut g);
        inj.before_sweep(3, &mut g);
        assert!(g.covariance(0, 1).is_finite());
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn persistent_corruption_refires_after_restart() {
        let a = gen::uniform(10, 4, 2);
        let mut inj = SeededInjector::new(7)
            .at_sweep(1, Corruption::GramEntry { i: 2, j: 2, value: -5.0 })
            .persistent();
        for attempt in 0..3 {
            let mut g = GramState::from_matrix(&a);
            inj.before_sweep(1, &mut g);
            assert_eq!(g.norm_sq(2), -5.0, "attempt {attempt}");
        }
        assert_eq!(inj.fired().len(), 3);
    }

    #[test]
    fn bogus_rotation_inflates_pair_mass() {
        // cos = sin = 1 is "rotation" by a matrix with determinant 2: each
        // application roughly doubles the pair's off-diagonal mass
        // ((x−y)² + (x+y)² = 2(x² + y²)), which is exactly the
        // non-convergent behavior the stall detector must catch.
        let a = gen::uniform(10, 4, 3);
        let mut g = GramState::from_matrix(&a);
        let before = g.off_summary().sum_sq;
        SeededInjector::apply(&mut g, Corruption::BogusRotation { i: 0, j: 1, cos: 1.0, sin: 1.0 });
        assert!(
            g.off_summary().sum_sq > before,
            "non-orthonormal rotation must grow the off-diagonal mass"
        );
        assert!(Rotation { cos: 1.0, sin: 1.0, t: 1.0 }.is_finite());
    }

    #[test]
    fn non_finite_bogus_rotation_poisons_the_pair() {
        let a = gen::uniform(10, 4, 4);
        let mut g = GramState::from_matrix(&a);
        SeededInjector::apply(
            &mut g,
            Corruption::BogusRotation { i: 1, j: 3, cos: f64::NAN, sin: 0.5 },
        );
        assert!(!g.diagonal_scan().finite);
    }

    #[test]
    fn pick_pair_is_deterministic_and_valid() {
        let mut x = SeededInjector::new(99);
        let mut y = SeededInjector::new(99);
        for _ in 0..50 {
            let (i, j) = x.pick_pair(7);
            assert_eq!((i, j), y.pick_pair(7));
            assert!(i < j && j < 7);
        }
    }
}
