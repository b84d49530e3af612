//! Solve-level observability.
//!
//! [`SolveStats`] is the software analogue of the performance counters an
//! FPGA design exposes: per-sweep wall-clock timings, rotation counts, heap
//! allocation events charged to the sweep engine, and the volume of packed
//! covariance-matrix ("Gram") traffic the solve generated. Every run of
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
    /// record or a fixed caller-built plan.
    pub ordering: &'static str,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Wall-clock seconds of each sweep, in execution order: planning the
    /// sweep's rounds plus applying its rotations.
    pub sweep_seconds: Vec<f64>,
    /// Total wall-clock seconds across all sweeps, planning included
    /// (excludes the initial Gram build and the final factor-extraction
    /// stage).
    pub total_seconds: f64,
    /// Rotations applied across all sweeps.
    pub rotations_applied: usize,
    /// Pairs skipped by the per-pair orthogonality guard across all sweeps.
    pub rotations_skipped: usize,
    /// Heap allocation events charged to the engine's reusable workspace
    /// (buffer creations/growths only). Always 0 for the sequential engine,
    /// which rotates `D` in place; the batch SoA engine reports its
    /// workspace's cumulative count.
    pub workspace_allocations: usize,
    /// Bytes of packed-triangle traffic generated by covariance updates:
    /// the `O(n)` in-place rotation touches `4n − 2` entries (`8·(4n − 2)`
    /// bytes per applied rotation). An accounting model of the engine's
    /// access pattern, not a hardware measurement.
    pub gram_bytes: u64,
    /// Logical columns of `D` read-and-rewritten while applying rotations:
    /// the pair's two columns per applied rotation.
    pub gram_col_touches: u64,
    /// Mid-solve faults detected by the health check or solve budget
    /// (0 for a clean solve; counts faults in recovered attempts too).
    pub faults: usize,
    /// Rescale-restarts taken: 0 or 1. 0 means the returned factorization
    /// came from the first attempt.
    pub recoveries: usize,
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
    /// Times the ordering strategy rebuilt the sweep plan (1 for either
    /// shipped ordering, which plans once per dimension; 0 for a fixed
    /// caller-built plan) — the replan-cost counter.
    pub replans: usize,
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
    /// schema — field names, order, and types — is pinned by the round-trip
    /// through [`SolveStats::from_json`] in this module's tests, so the
    /// documented fifteen-field shape cannot drift silently.
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
                "\"workspace_allocations\":{},\"gram_bytes\":{},",
                "\"gram_col_touches\":{},",
                "\"faults\":{},\"recoveries\":{},\"prescale_exp\":{},",
                "\"pairs_skipped_by_threshold\":{},\"replans\":{}}}"
            ),
            self.engine,
            self.ordering,
            self.sweeps,
            sweep_seconds,
            self.total_seconds,
            self.rotations_applied,
            self.rotations_skipped,
            self.workspace_allocations,
            self.gram_bytes,
            self.gram_col_touches,
            self.faults,
            self.recoveries,
            self.prescale_exp,
            self.pairs_skipped_by_threshold,
            self.replans,
        )
        .expect("write to String");
        s
    }

    /// Parse a JSON object produced by [`SolveStats::to_json`].
    ///
    /// Strict: every known field must be present, unknown fields are
    /// rejected, and values must have the expected JSON type — so a schema
    /// drift in either direction fails the round-trip test instead of
    /// passing silently. Returns `None` on any mismatch.
    pub fn from_json(json: &str) -> Option<SolveStats> {
        let body = json.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut st = SolveStats::default();
        let mut seen = 0u32;
        for field in split_top_level(body) {
            let (key, value) = split_key_value(field)?;
            let bit = match key {
                "engine" => {
                    st.engine = match parse_string(value)?.as_str() {
                        "sequential" => "sequential",
                        "batch-soa" => "batch-soa",
                        "" => "",
                        _ => return None,
                    };
                    1 << 0
                }
                "sweeps" => {
                    st.sweeps = value.parse().ok()?;
                    1 << 1
                }
                "sweep_seconds" => {
                    let inner = value.strip_prefix('[')?.strip_suffix(']')?;
                    if !inner.trim().is_empty() {
                        for item in inner.split(',') {
                            st.sweep_seconds.push(item.trim().parse().ok()?);
                        }
                    }
                    1 << 2
                }
                "total_seconds" => {
                    st.total_seconds = value.parse().ok()?;
                    1 << 3
                }
                "rotations_applied" => {
                    st.rotations_applied = value.parse().ok()?;
                    1 << 4
                }
                "rotations_skipped" => {
                    st.rotations_skipped = value.parse().ok()?;
                    1 << 5
                }
                "workspace_allocations" => {
                    st.workspace_allocations = value.parse().ok()?;
                    1 << 6
                }
                "gram_bytes" => {
                    st.gram_bytes = value.parse().ok()?;
                    1 << 7
                }
                "gram_col_touches" => {
                    st.gram_col_touches = value.parse().ok()?;
                    1 << 8
                }
                "faults" => {
                    st.faults = value.parse().ok()?;
                    1 << 9
                }
                "recoveries" => {
                    st.recoveries = value.parse().ok()?;
                    1 << 10
                }
                "prescale_exp" => {
                    st.prescale_exp = value.parse().ok()?;
                    1 << 11
                }
                "ordering" => {
                    st.ordering = match parse_string(value)?.as_str() {
                        "cyclic" => "cyclic",
                        "row-cyclic" => "row-cyclic",
                        "" => "",
                        _ => return None,
                    };
                    1 << 12
                }
                "pairs_skipped_by_threshold" => {
                    st.pairs_skipped_by_threshold = value.parse().ok()?;
                    1 << 13
                }
                "replans" => {
                    st.replans = value.parse().ok()?;
                    1 << 14
                }
                _ => return None,
            };
            if seen & bit != 0 {
                return None; // duplicate field
            }
            seen |= bit;
        }
        if seen != (1 << 15) - 1 {
            return None; // missing field(s)
        }
        Some(st)
    }
}

/// Split a JSON object body into its top-level `"key":value` fields,
/// respecting strings and bracket nesting.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut start) = (0i32, false, false, 0usize);
    for (pos, c) in body.char_indices() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                fields.push(&body[start..pos]);
                start = pos + 1;
            }
            _ => {}
        }
    }
    if !body[start..].trim().is_empty() {
        fields.push(&body[start..]);
    }
    fields
}

/// Split one `"key":value` field into `(key, value)`.
fn split_key_value(field: &str) -> Option<(&str, &str)> {
    let field = field.trim();
    let rest = field.strip_prefix('"')?;
    let end = rest.find('"')?;
    let key = &rest[..end];
    let value = rest[end + 1..].trim().strip_prefix(':')?.trim();
    Some((key, value))
}

/// Parse a JSON string literal (no escapes beyond `\"` and `\\` needed for
/// the values this module produces).
fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
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
        st.workspace_allocations = 4;
        st.gram_bytes = 1234;
        st.gram_col_touches = 56;
        st.faults = 1;
        st.recoveries = 1;
        st.prescale_exp = -532;
        st.pairs_skipped_by_threshold = 13;
        st.replans = 2;
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
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"engine\":\"batch-soa\""));
        assert!(j.contains("\"ordering\":\"cyclic\""));
        assert!(j.contains("\"sweeps\":2"));
        assert!(j.contains("\"sweep_seconds\":[0.5,0.25]"));
        assert!(j.contains("\"rotations_applied\":9"));
        assert!(j.contains("\"workspace_allocations\":4"));
        assert!(j.contains("\"gram_bytes\":1234"));
        assert!(j.contains("\"gram_col_touches\":56"));
        assert!(j.contains("\"faults\":1"));
        assert!(j.contains("\"recoveries\":1"));
        assert!(j.contains("\"prescale_exp\":-532"));
        assert!(j.contains("\"pairs_skipped_by_threshold\":13"));
        assert!(j.contains("\"replans\":2"));
        // No trailing commas, balanced brackets — cheap well-formedness check.
        assert!(!j.contains(",]") && !j.contains(",}"));
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn default_is_all_zero() {
        let st = SolveStats::default();
        assert_eq!(st.sweeps, 0);
        assert_eq!(st.total_seconds, 0.0);
        assert!(st.to_json().contains("\"sweeps\":0"));
    }

    #[test]
    fn json_round_trips_exactly() {
        // The schema pin: to_json → from_json must reproduce every field
        // bit for bit ({:?} float formatting round-trips f64 exactly).
        for st in [sample(), SolveStats::default()] {
            let parsed = SolveStats::from_json(&st.to_json()).expect("own output must parse");
            assert_eq!(parsed, st);
        }
    }

    #[test]
    fn from_json_rejects_schema_drift() {
        let good = sample().to_json();
        // Unknown field.
        let extra = good.replacen('{', "{\"bogus\":1,", 1);
        assert_eq!(SolveStats::from_json(&extra), None);
        // Missing field.
        let missing = good.replacen("\"gram_col_touches\":56,", "", 1);
        assert_eq!(SolveStats::from_json(&missing), None);
        // Unknown engine string.
        let engine = good.replacen("batch-soa", "warp", 1);
        assert_eq!(SolveStats::from_json(&engine), None);
        // Unknown ordering string.
        let ordering = good.replacen("cyclic", "zigzag", 1);
        assert_eq!(SolveStats::from_json(&ordering), None);
        // Wrong value type.
        let bad_type = good.replacen("\"faults\":1", "\"faults\":\"1\"", 1);
        assert_eq!(SolveStats::from_json(&bad_type), None);
        // Not an object at all.
        assert_eq!(SolveStats::from_json("[1,2,3]"), None);
    }
}
