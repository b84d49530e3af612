//! Batched values-only throughput: a loop of one-at-a-time
//! [`HestenesSvd::singular_values`] calls vs
//! [`HestenesSvd::singular_values_batch`] on the same 64 independent 64×16
//! problems, a uniform batch that dispatches to the SoA engine. The
//! looped batch path is bit-identical to the loop, so the bench asserts
//! that once up front.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hj_core::{HestenesSvd, SvdOptions};
use hj_matrix::{gen, Matrix};

const BATCH: usize = 64;
const ROWS: usize = 64;
const COLS: usize = 16;

fn batch_inputs() -> Vec<Matrix> {
    (0..BATCH as u64).map(|k| gen::uniform(ROWS, COLS, 1000 + k)).collect()
}

fn assert_batch_matches_loop(solver: &HestenesSvd, mats: &[Matrix]) {
    let batch = solver.singular_values_batch_looped(mats);
    for (k, res) in batch.iter().enumerate() {
        let one = solver.singular_values(&mats[k]).unwrap();
        assert_eq!(res.as_ref().unwrap().values, one.values, "batch diverged at slot {k}");
    }
}

fn bench_batched(c: &mut Criterion) {
    let mats = batch_inputs();
    let solver = HestenesSvd::new(SvdOptions::default());
    assert_batch_matches_loop(&solver, &mats);

    let mut g = c.benchmark_group("batched_svd");
    g.sample_size(10);
    let id = format!("{BATCH}x({ROWS}x{COLS})");
    g.bench_with_input(BenchmarkId::new("sequential_loop", &id), &mats, |b, mats| {
        b.iter(|| {
            for m in mats {
                black_box(solver.singular_values(black_box(m)).unwrap());
            }
        })
    });
    g.bench_with_input(BenchmarkId::new("values_only_batch", &id), &mats, |b, mats| {
        b.iter(|| black_box(solver.singular_values_batch(black_box(mats))))
    });
    g.finish();
}

criterion_group!(benches, bench_batched);
criterion_main!(benches);
