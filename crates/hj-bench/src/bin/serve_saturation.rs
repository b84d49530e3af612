//! Saturation benchmark for the `hj-serve` worker pool: closed-loop
//! producers hammer the service across a (worker count × queue depth)
//! grid, and the report records throughput, admission behaviour, and
//! latency percentiles straight from the service's own
//! [`hj_serve::ServiceStats`] histograms.
//!
//! This is the software analogue of the paper's throughput argument: the
//! FPGA datapath issues 8 independent rotations every 64 cycles because
//! the memory system keeps every rotation unit fed. Here the "rotation
//! units" are worker threads, and the question is
//! the same — how does sustained solve throughput scale with the number
//! of units, and where does the bounded admission queue start shedding
//! load?
//!
//! Each grid point starts a fresh [`hj_serve::SolveService`], offers
//! `2 × workers` closed-loop producers (each submits, waits, repeats),
//! and runs a fixed per-producer job count of identical-shape solves.
//! Rejected submissions are retried after a short pause so every producer
//! completes its quota; the rejection counter still records how often the
//! queue pushed back. The JSON report (schema
//! `hjsvd-serve-saturation/v1`) lands in `bench_results/serve.json`; see
//! EXPERIMENTS.md for regeneration instructions.
//!
//! Run: `cargo run --release -p hj-bench --bin serve_saturation`
//! (`--full` widens the grid and the per-producer quota).

use hj_bench::{fmt_secs, has_flag, print_table};
use hj_matrix::gen;
use hj_serve::{JobSpec, Priority, RejectReason, ServiceConfig, SolveService};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 42;
/// Job shape: tall enough that a solve does real sweep work, small enough
/// that a grid point finishes in seconds.
const ROWS: usize = 48;
const COLS: usize = 16;

/// One grid point's result row.
struct Point {
    workers: usize,
    queue_cap: usize,
    offered: u64,
    rejected_queue_full: u64,
    completed: u64,
    wall_seconds: f64,
    throughput: f64,
    mean_s: f64,
    p50_s: f64,
    p90_s: f64,
    p99_s: f64,
    max_s: f64,
}

fn main() {
    let full = has_flag("--full");
    let worker_counts: &[usize] = if full { &[1, 2, 4, 8] } else { &[1, 2, 4] };
    let queue_caps: &[usize] = if full { &[4, 16, 64] } else { &[4, 32] };
    let per_producer: usize = if full { 48 } else { 16 };

    let mut points = Vec::new();
    for &workers in worker_counts {
        for &queue_cap in queue_caps {
            points.push(run_point(workers, queue_cap, per_producer));
        }
    }

    println!(
        "serve_saturation: {ROWS}x{COLS} solves, closed-loop producers = 2 x workers, \
         {per_producer} jobs/producer (seed {SEED})\n"
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                p.queue_cap.to_string(),
                p.offered.to_string(),
                p.rejected_queue_full.to_string(),
                format!("{:.1}", p.throughput),
                fmt_secs(p.p50_s),
                fmt_secs(p.p99_s),
                fmt_secs(p.max_s),
            ]
        })
        .collect();
    print_table(&["workers", "queue", "offered", "rejects", "jobs/s", "p50", "p99", "max"], &rows);

    let path = "bench_results/serve.json";
    if let Err(e) = std::fs::create_dir_all("bench_results") {
        eprintln!("FAIL creating bench_results: {e}");
        std::process::exit(1);
    }
    match std::fs::write(path, report_json(&points, per_producer)) {
        Ok(()) => println!("\nreport: {path}"),
        Err(e) => {
            eprintln!("FAIL writing {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Run one (workers, queue depth) grid point to completion and snapshot
/// its stats.
fn run_point(workers: usize, queue_cap: usize, per_producer: usize) -> Point {
    let service = Arc::new(SolveService::start(ServiceConfig {
        workers,
        queue_capacity: queue_cap,
        ..ServiceConfig::default()
    }));
    let producers = workers * 2;
    let started = Instant::now();

    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut done = 0usize;
                let mut seq = 0u64;
                while done < per_producer {
                    // Distinct seeds keep grid points comparable but jobs
                    // independent; the shape (and so the work) is fixed.
                    let seed = SEED + (p as u64) * 10_000 + seq;
                    seq += 1;
                    let spec = JobSpec::new(gen::uniform(ROWS, COLS, seed));
                    match service.submit(spec) {
                        Ok(ticket) => {
                            ticket
                                .wait()
                                .result
                                .into_single()
                                .expect("benchmark solves are well-conditioned");
                            done += 1;
                        }
                        Err(RejectReason::QueueFull { .. }) => {
                            // Closed-loop backpressure: yield and retry so
                            // every producer finishes its quota.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer thread");
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    assert!(service.shutdown(Duration::from_secs(30)).drained_cleanly);

    let stats = service.stats();
    let hist = &stats.latency[Priority::Interactive.index()];
    let completed = stats.completed;
    Point {
        workers,
        queue_cap,
        offered: stats.admitted + stats.rejected_queue_full,
        rejected_queue_full: stats.rejected_queue_full,
        completed,
        wall_seconds,
        throughput: if wall_seconds > 0.0 { completed as f64 / wall_seconds } else { 0.0 },
        mean_s: hist.mean_seconds(),
        p50_s: hist.quantile_seconds(0.50),
        p90_s: hist.quantile_seconds(0.90),
        p99_s: hist.quantile_seconds(0.99),
        max_s: hist.max_seconds(),
    }
}

/// Render the report (schema `hjsvd-serve-saturation/v1`), hand-rolled
/// like the rest of the workspace's JSON.
fn report_json(points: &[Point], per_producer: usize) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"hjsvd-serve-saturation/v1\",");
    out.push_str(&format!(
        "\"seed\":{SEED},\"rows\":{ROWS},\"cols\":{COLS},\"jobs_per_producer\":{per_producer},"
    ));
    out.push_str("\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"workers\":{},\"queue_capacity\":{},\"offered\":{},\
             \"rejected_queue_full\":{},\"completed\":{},\"wall_seconds\":{:?},\
             \"throughput_jobs_per_s\":{:?},\"latency\":{{\"mean_s\":{:?},\
             \"p50_s\":{:?},\"p90_s\":{:?},\"p99_s\":{:?},\"max_s\":{:?}}}}}",
            p.workers,
            p.queue_cap,
            p.offered,
            p.rejected_queue_full,
            p.completed,
            p.wall_seconds,
            p.throughput,
            p.mean_s,
            p.p50_s,
            p.p90_s,
            p.p99_s,
            p.max_s,
        ));
    }
    out.push_str("]}\n");
    out
}
