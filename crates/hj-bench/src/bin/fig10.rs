//! Fig. 10 — convergence of the Hestenes-Jacobi process for square matrices
//! of different dimensions.
//!
//! Plots (as a table) the mean absolute deviation from zero of the
//! covariances after each sweep, on random matrices — exactly the paper's
//! metric. The paper's claim to verify: "reasonable convergence can be
//! achieved within 6 iterations of operations for matrices of dimensions no
//! greater than 2048".
//!
//! Run: `cargo run --release -p hj-bench --bin fig10 [--full]`
//! (`--full` extends to n = 1024 and 2048; the functional simulation is
//! O(sweeps · n³) and takes minutes at 2048)

use hj_bench::{has_flag, print_table, write_csv};
use hj_core::engine::{Sequential, SweepEngine};
use hj_core::ordering::round_robin;
use hj_core::{GramState, PairGuard, RotationTarget, SweepState};
use hj_matrix::gen;

/// Sweeps run, whatever the convergence state.
const SWEEPS: usize = 8;

fn main() {
    let full = has_flag("--full");
    let sizes: &[usize] =
        if full { &[64, 128, 256, 512, 1024, 2048] } else { &[64, 128, 256, 512] };

    println!("Fig. 10: mean |covariance| after each sweep, square n x n random matrices\n");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &n in sizes {
        let a = gen::uniform(n, n, 0xA16 + n as u64);
        let mut g = GramState::from_matrix(&a);
        let order = round_robin(n);
        let mut row = vec![n.to_string(), format!("{:.3e}", g.mean_abs_covariance())];
        let mut csv_row = vec![n.to_string(), format!("{:.6e}", g.mean_abs_covariance())];
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
    let mut headers: Vec<String> = vec!["n".into(), "initial".into()];
    headers.extend((1..=SWEEPS).map(|s| format!("sweep {s}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
    println!("\nverify: by sweep 6 every size has dropped by many orders of magnitude");
    match write_csv("fig10", &header_refs, &csv) {
        Ok(p) => println!("csv: {p}"),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
