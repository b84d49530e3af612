//! Reproducible per-sweep benchmark: replay square problems across all
//! pair-ordering strategies with the trace layer on, cross-check the trace
//! against [`hj_core::SolveStats`], and emit a machine-readable
//! `BENCH_sweep.json` report.
//!
//! For each `n ∈ {32, 64, 128, 256}` the values-only solver runs once per
//! entry of the ordering grid — the default cyclic ordering, the
//! row-cyclic order of Algorithm 1, and cyclic composed with the threshold
//! schedule — with a sweep-level [`hj_core::RingBufferSink`] attached, so
//! the report
//! records `sweeps_to_converge` per (n, ordering). The binary verifies, run
//! by run, that the trace's `sweep_end` events agree with the solve's own
//! accounting — same sweep count, same per-sweep rotation totals as the
//! [`hj_core::SweepRecord`] history, same grand total as
//! `SolveStats.rotations_applied` — and aborts with a nonzero exit if any
//! run disagrees.
//!
//! The summary tables, a per-sweep breakdown at `n = 128`, and the JSON
//! report (schema `hjsvd-sweep-report/v4`, one entry per run with the full
//! embedded `SolveStats` record) document the result; see EXPERIMENTS.md
//! for the schema and regeneration instructions.
//!
//! Run: `cargo run --release -p hj-bench --bin sweep_report`
//!
//! With `--perf-smoke` the binary additionally enforces the ordering
//! contract from the scheduling subsystem: no plain (threshold-free)
//! non-cyclic ordering may need *more* sweeps than cyclic at
//! `n = `[`PERF_SMOKE_N`]. CI runs this mode; any cross-check failure or
//! contract breach exits nonzero.

use hj_bench::{fmt_secs, print_table};
use hj_core::{
    HestenesSvd, Ordering, Request, RingBufferSink, SvdOptions, ThresholdSchedule, TraceEvent,
    TraceLevel,
};
use hj_matrix::gen;

const SIZES: [usize; 4] = [32, 64, 128, 256];
/// The ordering grid: both orderings plain, plus the threshold-schedule
/// composition of cyclic (row-cyclic + threshold is a known regression —
/// single-pair rounds defer too much work — so it is excluded from the grid
/// rather than silently reported as a recommendation).
const ORDERING_GRID: [(Ordering, bool); 3] =
    [(Ordering::RoundRobin, false), (Ordering::RowCyclic, false), (Ordering::RoundRobin, true)];
const SEED: u64 = 42;
const BREAKDOWN_N: usize = 128;
const PERF_SMOKE_N: usize = 256;

/// Per-sweep numbers reconstructed from one run's `sweep_end` trace events.
struct SweepLine {
    sweep: usize,
    applied: usize,
    skipped: usize,
    off_frobenius: f64,
    seconds: f64,
}

/// One (n, ordering) run: the solve's own record plus the trace's view of
/// it.
struct Run {
    n: usize,
    ordering: &'static str,
    threshold: bool,
    sweeps: usize,
    trace_events: usize,
    per_sweep: Vec<SweepLine>,
    stats_json: String,
    total_seconds: f64,
    rotations_applied: u64,
    final_off_frobenius: f64,
}

/// Run one traced solve and cross-check trace against stats; pushes the run
/// (on success) and returns the number of cross-check failures.
fn run_one(
    a: &hj_matrix::Matrix,
    n: usize,
    ordering: Ordering,
    threshold: bool,
    runs: &mut Vec<Run>,
) -> usize {
    let solver = HestenesSvd::new(SvdOptions {
        ordering,
        threshold: threshold.then(ThresholdSchedule::default),
        ..SvdOptions::default()
    });
    // Sweep level emits 3 events per sweep (start, end, convergence check);
    // 4096 slots hold any realistic solve.
    let mut sink = RingBufferSink::new(4096);
    let label = if threshold {
        format!("{}+threshold", ordering.name())
    } else {
        ordering.name().to_string()
    };
    let sv = match solver.singular_values_with(a, Request::traced(&mut sink, TraceLevel::Sweep)) {
        Ok(sv) => sv,
        Err(e) => {
            eprintln!("FAIL n={n} ordering={label}: {e}");
            return 1;
        }
    };

    let per_sweep: Vec<SweepLine> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::SweepEnd {
                sweep,
                rotations_applied,
                rotations_skipped,
                off_frobenius,
                seconds,
            } => Some(SweepLine {
                sweep,
                applied: rotations_applied,
                skipped: rotations_skipped,
                off_frobenius,
                seconds,
            }),
            _ => None,
        })
        .collect();

    // Cross-check: the trace and the solve must tell the same story.
    let mut failures = 0usize;
    let trace_total: u64 = per_sweep.iter().map(|s| s.applied as u64).sum();
    if per_sweep.len() != sv.sweeps {
        eprintln!(
            "FAIL n={n} ordering={label}: {} sweep_end events for {} sweeps",
            per_sweep.len(),
            sv.sweeps
        );
        failures += 1;
    }
    if trace_total != sv.stats.rotations_applied as u64 {
        eprintln!(
            "FAIL n={n} ordering={label}: trace counts {} rotations, stats say {}",
            trace_total, sv.stats.rotations_applied
        );
        failures += 1;
    }
    for (line, rec) in per_sweep.iter().zip(&sv.history) {
        if line.sweep != rec.sweep
            || line.applied != rec.rotations_applied
            || line.skipped != rec.rotations_skipped
        {
            eprintln!(
                "FAIL n={n} ordering={label}: sweep {} trace ({}/{}) != history ({}/{})",
                rec.sweep, line.applied, line.skipped, rec.rotations_applied, rec.rotations_skipped
            );
            failures += 1;
        }
    }

    let final_off = per_sweep.last().map(|s| s.off_frobenius).unwrap_or(0.0);
    runs.push(Run {
        n,
        ordering: ordering.name(),
        threshold,
        sweeps: sv.sweeps,
        trace_events: sink.recorded(),
        per_sweep,
        stats_json: sv.stats.to_json(),
        total_seconds: sv.stats.total_seconds,
        rotations_applied: sv.stats.rotations_applied as u64,
        final_off_frobenius: final_off,
    });
    failures
}

fn main() {
    let perf_smoke = std::env::args().skip(1).any(|a| a == "--perf-smoke");
    let mut runs = Vec::new();
    let mut failures = 0usize;

    for &n in &SIZES {
        let a = gen::uniform(n, n, SEED);
        for &(ordering, threshold) in &ORDERING_GRID {
            failures += run_one(&a, n, ordering, threshold, &mut runs);
        }
    }

    println!("sweep_report: sizes × orderings with sweep-level tracing on (seed {SEED})\n");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                ordering_label(r),
                r.sweeps.to_string(),
                r.rotations_applied.to_string(),
                format!("{:.3e}", r.final_off_frobenius),
                fmt_secs(r.total_seconds),
            ]
        })
        .collect();
    print_table(&["n", "ordering", "sweeps", "rotations", "final off-F", "total"], &rows);

    println!("\nsweeps_to_converge by ordering:");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &n in &SIZES {
        let sweeps_of = |ordering: &str, threshold: bool| {
            runs.iter()
                .find(|r| r.n == n && r.ordering == ordering && r.threshold == threshold)
                .map(|r| r.sweeps.to_string())
                .unwrap_or_else(|| "-".into())
        };
        rows.push(vec![
            n.to_string(),
            sweeps_of("cyclic", false),
            sweeps_of("row-cyclic", false),
            sweeps_of("cyclic", true),
        ]);
    }
    print_table(&["n", "cyclic", "row", "cyclic+th"], &rows);

    println!("\nper-sweep breakdown at n = {BREAKDOWN_N} (from sweep_end trace events):");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .filter(|r| r.n == BREAKDOWN_N && r.ordering == "cyclic" && !r.threshold)
        .flat_map(|r| {
            r.per_sweep.iter().map(|s| {
                vec![
                    s.sweep.to_string(),
                    s.applied.to_string(),
                    s.skipped.to_string(),
                    format!("{:.3e}", s.off_frobenius),
                    fmt_secs(s.seconds),
                ]
            })
        })
        .collect();
    print_table(&["sweep", "applied", "skipped", "off-frobenius", "time"], &rows);

    // The gate fails the run, but the report's count is of cross-checks.
    let gate_failures = if perf_smoke { ordering_smoke_check(&runs) } else { 0 };

    let path = "BENCH_sweep.json";
    match std::fs::write(path, report_json(&runs, failures)) {
        Ok(()) => println!("\nreport: {path}"),
        Err(e) => {
            eprintln!("FAIL writing {path}: {e}");
            failures += 1;
        }
    }

    let failed = failures + gate_failures;
    if failed > 0 {
        eprintln!("\n{failed} check failure(s)");
        std::process::exit(1);
    }
    println!("all trace/stats cross-checks passed ({} runs)", runs.len());
}

fn ordering_label(r: &Run) -> String {
    if r.threshold {
        format!("{}+th", r.ordering)
    } else {
        r.ordering.to_string()
    }
}

/// `--perf-smoke`: fail if the plain (threshold-free) non-cyclic ordering
/// needs more sweeps than cyclic at n = [`PERF_SMOKE_N`]; a regression here
/// means a scheduling change made it worse than the default.
fn ordering_smoke_check(runs: &[Run]) -> usize {
    let sweeps = |ordering: &str| {
        runs.iter()
            .find(|r| r.n == PERF_SMOKE_N && r.ordering == ordering && !r.threshold)
            .map(|r| r.sweeps)
    };
    let Some(cyclic) = sweeps("cyclic") else {
        eprintln!("FAIL ordering-smoke: no n={PERF_SMOKE_N} cyclic baseline run");
        return 1;
    };
    let mut failures = 0usize;
    println!("\nordering-smoke at n={PERF_SMOKE_N}: cyclic baseline = {cyclic} sweeps");
    for name in ["row-cyclic"] {
        match sweeps(name) {
            Some(s) if s > cyclic => {
                eprintln!(
                    "FAIL ordering-smoke: {name} needs {s} sweeps at n={PERF_SMOKE_N}, \
                     cyclic needs {cyclic} — a non-cyclic ordering must never be slower"
                );
                failures += 1;
            }
            Some(s) => println!("  {name}: {s} sweeps (<= {cyclic})"),
            None => {
                eprintln!("FAIL ordering-smoke: no n={PERF_SMOKE_N} {name} run");
                failures += 1;
            }
        }
    }
    failures
}

/// Render the whole report as one JSON document (schema
/// `hjsvd-sweep-report/v4` — v2 added the `ordering`, `threshold_schedule`,
/// and `sweeps_to_converge` fields; v3 dropped the per-run `engine` field,
/// since every run is on the one sweep engine, and the embedded `SolveStats`
/// lost `tile_refills`, `tile_bytes`, `parallel_dispatches` and `threads`;
/// v4's embedded `SolveStats` went from fifteen fields to nine, keeping
/// only counters that can read more than one value).
/// Hand-rolled like the rest of the workspace's JSON — no serde dependency.
fn report_json(runs: &[Run], cross_check_failures: usize) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"hjsvd-sweep-report/v4\",");
    out.push_str(&format!(
        "\"seed\":{SEED},\"cross_check_failures\":{cross_check_failures},\"runs\":["
    ));
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"n\":{},\"ordering\":\"{}\",\"threshold_schedule\":{},\
             \"sweeps_to_converge\":{},\"trace_events\":{},\"per_sweep\":[",
            r.n, r.ordering, r.threshold, r.sweeps, r.trace_events
        ));
        for (j, s) in r.per_sweep.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"sweep\":{},\"rotations_applied\":{},\"rotations_skipped\":{},\
                 \"off_frobenius\":{:?},\"seconds\":{:?}}}",
                s.sweep, s.applied, s.skipped, s.off_frobenius, s.seconds
            ));
        }
        out.push_str("],\"stats\":");
        out.push_str(&r.stats_json);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}
