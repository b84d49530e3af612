//! Throughput benchmark for the batched SoA solve engine: many tiny SVDs
//! per second, SoA lanes versus the looped per-matrix path.
//!
//! This is the software analogue of the paper's core throughput claim: the
//! FPGA keeps 8 rotation units busy because the covariance memory system
//! streams many independent problems through one datapath. Here the batch
//! engine interleaves `k` Gram triangles in SoA order so one kernel
//! invocation per pair sweeps every problem at once — amortizing schedule
//! planning, convergence bookkeeping, and loop overhead that the looped
//! path pays `k` times over.
//!
//! Each point solves the same fixed-seed corpus of `k = 256` well-formed
//! `2n x n` matrices through both paths (the SoA path on a warm
//! `BatchWorkspace`, median of several runs) and cross-checks the SoA spectra against the looped ones
//! to `1e-12 * sigma_max` so a throughput win can never hide an accuracy
//! regression. The JSON report (schema `hjsvd-batch-throughput/v1`) lands
//! in `bench_results/batch.json`; a full run also refreshes the checked-in
//! `BENCH_batch.json` snapshot. See EXPERIMENTS.md for the schema.
//!
//! Run: `cargo run --release -p hj-bench --bin batch_throughput`
//! (`--smoke` runs only n = 16 with fewer reps and exits nonzero unless
//! the SoA path is at least 2x the looped path — the CI gate; the full
//! run's acceptance bar, recorded in BENCH_batch.json, is 5x).

use hj_bench::{has_flag, measure, print_table};
use hj_core::{BatchDriver, BatchWorkspace, HestenesSvd, SvdOptions};
use hj_matrix::gen;
use hj_matrix::Matrix;

const SEED: u64 = 42;
/// Problems per batch — large enough that per-batch fixed costs vanish
/// and the lanes-wide kernels dominate, per the issue's `k >= 256` bar.
const BATCH_K: usize = 256;

/// One (n, k) measurement.
struct Point {
    n: usize,
    k: usize,
    looped_seconds: f64,
    soa_seconds: f64,
    looped_mats_per_s: f64,
    soa_mats_per_s: f64,
    speedup: f64,
}

fn main() {
    let smoke = has_flag("--smoke");
    let sizes: &[usize] = if smoke { &[16] } else { &[16, 32] };
    let reps = if smoke { 3 } else { 7 };

    let points: Vec<Point> = sizes.iter().map(|&n| run_point(n, reps)).collect();

    println!(
        "batch_throughput: {BATCH_K} matrices of 2n x n per batch, seed {SEED}, \
         median of {reps} runs{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                p.k.to_string(),
                format!("{:.0}", p.looped_mats_per_s),
                format!("{:.0}", p.soa_mats_per_s),
                format!("{:.2}x", p.speedup),
            ]
        })
        .collect();
    print_table(&["n", "batch", "looped mats/s", "soa mats/s", "speedup"], &rows);

    let json = report_json(&points, reps, smoke);
    if let Err(e) = std::fs::create_dir_all("bench_results") {
        eprintln!("FAIL creating bench_results: {e}");
        std::process::exit(1);
    }
    let path = "bench_results/batch.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("FAIL writing {path}: {e}");
        std::process::exit(1);
    }
    println!("\nreport: {path}");
    if !smoke {
        // The checked-in snapshot tracks the full run only, so a quick
        // smoke pass never overwrites the recorded acceptance numbers.
        let snapshot = "BENCH_batch.json";
        if let Err(e) = std::fs::write(snapshot, &json) {
            eprintln!("FAIL writing {snapshot}: {e}");
            std::process::exit(1);
        }
        println!("snapshot: {snapshot}");
    }

    if smoke {
        // CI gate: the SoA engine must beat the looped path by >= 2x at
        // n = 16 even on a cold, shared runner. The full-run bar (5x) is
        // asserted by the checked-in BENCH_batch.json.
        let gate = 2.0;
        for p in &points {
            if p.speedup < gate {
                eprintln!(
                    "FAIL smoke gate: n={} speedup {:.2}x < {gate:.1}x (looped {:.0} vs soa {:.0} mats/s)",
                    p.n, p.speedup, p.looped_mats_per_s, p.soa_mats_per_s
                );
                std::process::exit(1);
            }
        }
        println!("smoke gate passed: all points >= {gate:.1}x");
    }
}

/// Measure one matrix size through both batch paths on the same corpus.
fn run_point(n: usize, reps: usize) -> Point {
    let mats: Vec<Matrix> = (0..BATCH_K).map(|k| gen::uniform(2 * n, n, SEED + k as u64)).collect();
    let solver = HestenesSvd::new(SvdOptions::default());

    // Accuracy cross-check before timing: the SoA spectra must sit within
    // 1e-12 * sigma_max of the looped ones on every problem.
    let looped: Vec<_> = solver
        .singular_values_batch_looped(&mats)
        .into_iter()
        .map(|r| r.expect("benchmark corpus is well-formed"))
        .collect();
    let soa: Vec<_> = BatchDriver::new(&solver)
        .solve(&mut BatchWorkspace::new(), &mats)
        .into_iter()
        .map(|r| r.expect("benchmark corpus is well-formed"))
        .collect();
    for (k, (a, b)) in looped.iter().zip(&soa).enumerate() {
        let sigma_max = a.values[0].max(b.values[0]);
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!(
                (x - y).abs() <= 1e-12 * sigma_max,
                "problem {k}: soa spectrum drifted from looped ({x} vs {y})"
            );
        }
    }

    let looped_seconds = measure(reps, || {
        for r in solver.singular_values_batch_looped(&mats) {
            r.expect("benchmark corpus is well-formed");
        }
    });
    let mut ws = BatchWorkspace::new();
    let soa_seconds = measure(reps, || {
        for r in BatchDriver::new(&solver).solve(&mut ws, &mats) {
            r.expect("benchmark corpus is well-formed");
        }
    });

    let looped_mats_per_s = BATCH_K as f64 / looped_seconds;
    let soa_mats_per_s = BATCH_K as f64 / soa_seconds;
    Point {
        n,
        k: BATCH_K,
        looped_seconds,
        soa_seconds,
        looped_mats_per_s,
        soa_mats_per_s,
        speedup: looped_seconds / soa_seconds,
    }
}

/// Render the report (schema `hjsvd-batch-throughput/v1`), hand-rolled
/// like the rest of the workspace's JSON.
fn report_json(points: &[Point], reps: usize, smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"hjsvd-batch-throughput/v1\",");
    out.push_str(&format!("\"seed\":{SEED},\"batch_k\":{BATCH_K},\"reps\":{reps},"));
    out.push_str(&format!("\"smoke\":{smoke},"));
    out.push_str("\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"n\":{},\"k\":{},\"looped_seconds\":{:?},\"soa_seconds\":{:?},\
             \"looped_mats_per_s\":{:?},\"soa_mats_per_s\":{:?},\"speedup\":{:?}}}",
            p.n,
            p.k,
            p.looped_seconds,
            p.soa_seconds,
            p.looped_mats_per_s,
            p.soa_mats_per_s,
            p.speedup,
        ));
    }
    out.push_str("]}\n");
    out
}
