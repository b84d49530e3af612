//! Solve-level observability.
//!
//! [`SolveStats`] is the software analogue of the performance counters an
//! FPGA design exposes: per-sweep wall-clock timings, rotation counts, and
//! the prescale the guarded numerics applied. Every run of
//! [`crate::HestenesSvd`] fills one and attaches it to the returned
//! [`crate::Svd`] / [`crate::SingularValues`]; the `hjsvd` CLI exports it as
//! JSON with `--stats`.

use crate::convergence::SweepRecord;

/// Observability record for one solver run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Canonical name of the engine that ran the solve (`"sequential"` or
    /// `"batch-soa"`); empty for a default-constructed record.
    pub engine: &'static str,
    /// Canonical name of the pair ordering the solve was scheduled with
    /// (`"cyclic"` or `"row-cyclic"`); empty for a default-constructed
    /// record.
    pub ordering: &'static str,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Wall-clock seconds of each sweep, in execution order; sweep 1's
    /// include planning the solve's one sweep plan.
    pub sweep_seconds: Vec<f64>,
    /// Total wall-clock seconds across all sweeps, planning included
    /// (excludes the initial Gram build and the final factor-extraction
    /// stage).
    pub total_seconds: f64,
    /// Rotations applied across all sweeps.
    pub rotations_applied: usize,
    /// Pairs skipped by the per-pair orthogonality guard across all sweeps.
    pub rotations_skipped: usize,
    /// Binary exponent of the guarded-numerics pre-scaling applied to the
    /// input (the solve ran on `A·2^prescale_exp`; singular values were
    /// unscaled by `2^-prescale_exp` on output). 0 when the input was
    /// already in the safe range and no scaling occurred.
    pub prescale_exp: i32,
    /// Pairs deferred by an active [`crate::ordering::ThresholdSchedule`]
    /// ramp (sweeps whose threshold was still above the
    /// [`crate::engine::PAIR_TOL`] floor). 0 when no threshold schedule was
    /// attached.
    pub pairs_skipped_by_threshold: usize,
}

impl SolveStats {
    /// Fold one sweep's timing and rotation counts into the totals.
    pub(crate) fn record_sweep(&mut self, seconds: f64, rec: &SweepRecord) {
        self.sweeps += 1;
        self.sweep_seconds.push(seconds);
        self.total_seconds += seconds;
        self.rotations_applied += rec.rotations_applied;
        self.rotations_skipped += rec.rotations_skipped;
    }

    /// Serialize as a single JSON object.
    ///
    /// Hand-rolled (the workspace takes no serde dependency); every field is
    /// a finite number, so `{:?}` formatting yields valid JSON numbers. The
    /// schema — field names, order, and number format — is pinned by an
    /// exact-string test in this module, so the documented nine-field shape
    /// cannot drift silently.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(256);
        let mut sweep_seconds = String::new();
        for (k, t) in self.sweep_seconds.iter().enumerate() {
            if k > 0 {
                sweep_seconds.push(',');
            }
            write!(sweep_seconds, "{t:?}").expect("write to String");
        }
        write!(
            s,
            concat!(
                "{{\"engine\":\"{}\",\"ordering\":\"{}\",",
                "\"sweeps\":{},\"sweep_seconds\":[{}],",
                "\"total_seconds\":{:?},",
                "\"rotations_applied\":{},\"rotations_skipped\":{},",
                "\"prescale_exp\":{},\"pairs_skipped_by_threshold\":{}}}"
            ),
            self.engine,
            self.ordering,
            self.sweeps,
            sweep_seconds,
            self.total_seconds,
            self.rotations_applied,
            self.rotations_skipped,
            self.prescale_exp,
            self.pairs_skipped_by_threshold,
        )
        .expect("write to String");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolveStats {
        let mut st = SolveStats::default();
        st.record_sweep(
            0.5,
            &SweepRecord {
                sweep: 1,
                mean_abs_cov: 0.1,
                off_frobenius: 0.2,
                max_abs_cov: 0.3,
                rotations_applied: 7,
                rotations_skipped: 3,
            },
        );
        st.record_sweep(
            0.25,
            &SweepRecord {
                sweep: 2,
                mean_abs_cov: 0.01,
                off_frobenius: 0.02,
                max_abs_cov: 0.03,
                rotations_applied: 2,
                rotations_skipped: 8,
            },
        );
        st.engine = "batch-soa";
        st.ordering = "cyclic";
        st.prescale_exp = -532;
        st.pairs_skipped_by_threshold = 13;
        st
    }

    #[test]
    fn record_sweep_accumulates() {
        let st = sample();
        assert_eq!(st.sweeps, 2);
        assert_eq!(st.sweep_seconds, vec![0.5, 0.25]);
        assert!((st.total_seconds - 0.75).abs() < 1e-15);
        assert_eq!(st.rotations_applied, 9);
        assert_eq!(st.rotations_skipped, 11);
    }

    #[test]
    fn json_shape_is_stable() {
        // The schema pin: every field name, the field order, and the number
        // format ({:?} floats round-trip f64 exactly).
        assert_eq!(
            sample().to_json(),
            concat!(
                "{\"engine\":\"batch-soa\",\"ordering\":\"cyclic\",",
                "\"sweeps\":2,\"sweep_seconds\":[0.5,0.25],\"total_seconds\":0.75,",
                "\"rotations_applied\":9,\"rotations_skipped\":11,",
                "\"prescale_exp\":-532,\"pairs_skipped_by_threshold\":13}"
            )
        );
    }

    #[test]
    fn default_is_all_zero() {
        let st = SolveStats::default();
        assert_eq!(st.sweeps, 0);
        assert_eq!(st.total_seconds, 0.0);
        assert!(st.to_json().contains("\"sweeps\":0"));
    }
}
