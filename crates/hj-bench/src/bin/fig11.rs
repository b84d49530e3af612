//! Fig. 11 — convergence for matrices with a fixed column dimension and
//! varying row dimensions.
//!
//! The paper fixes n = 1024 and varies m; the observation is that the row
//! dimension barely affects the convergence trajectory (the sweeps operate
//! on the n × n covariance matrix; m only changes its initial conditioning).
//! By default this binary runs the same experiment at n = 256 (the paper's
//! BRAM-resident size) so it completes in seconds; `--full` switches to the
//! paper's n = 1024.
//!
//! Run: `cargo run --release -p hj-bench --bin fig11 [--full]`

use hj_bench::{has_flag, print_table, write_csv};
use hj_core::engine::{Sequential, SweepEngine};
use hj_core::ordering::round_robin;
use hj_core::{GramState, PairGuard, RotationTarget, SweepState};
use hj_matrix::gen;

/// Sweeps run, whatever the convergence state.
const SWEEPS: usize = 8;

fn main() {
    let full = has_flag("--full");
    let n: usize = if full { 1024 } else { 256 };
    let rows_dims: &[usize] =
        if full { &[256, 512, 1024, 2048] } else { &[64, 128, 256, 512, 1024] };

    println!("Fig. 11: mean |covariance| per sweep, column dimension n = {n}, various m\n");
    let order = round_robin(n);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &m in rows_dims {
        let a = gen::uniform(m, n, 0xB16 + m as u64);
        let mut g = GramState::from_matrix(&a);
        let mut row = vec![m.to_string(), format!("{:.3e}", g.mean_abs_covariance())];
        let mut csv_row = vec![m.to_string(), format!("{:.6e}", g.mean_abs_covariance())];
        let mut state = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        for s in 1..=SWEEPS {
            let rec = Sequential.sweep(&mut state, &order, s);
            row.push(format!("{:.3e}", rec.mean_abs_cov));
            csv_row.push(format!("{:.6e}", rec.mean_abs_cov));
        }
        rows.push(row);
        csv.push(csv_row);
    }
    let mut headers: Vec<String> = vec!["m".into(), "initial".into()];
    headers.extend((1..=SWEEPS).map(|s| format!("sweep {s}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
    println!("\nverify: the trajectories are nearly identical across m — convergence is");
    println!("governed by the column dimension, matching the paper's Fig. 11.");
    match write_csv("fig11", &header_refs, &csv) {
        Ok(p) => println!("csv: {p}"),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
