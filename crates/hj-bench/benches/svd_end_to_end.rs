//! End-to-end SVD benchmarks: values-only vs full factorization.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hj_core::{HestenesSvd, SvdOptions};
use hj_matrix::gen;

fn bench_svd(c: &mut Criterion) {
    let mut g = c.benchmark_group("svd_end_to_end");
    g.sample_size(10);
    for &(m, n) in &[(128usize, 64usize), (512, 64), (256, 128)] {
        let a = gen::uniform(m, n, 7);
        let seq = HestenesSvd::new(SvdOptions::default());
        g.bench_with_input(BenchmarkId::new("values_seq", format!("{m}x{n}")), &a, |b, a| {
            b.iter(|| black_box(seq.singular_values(black_box(a)).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("full_seq", format!("{m}x{n}")), &a, |b, a| {
            b.iter(|| black_box(seq.decompose(black_box(a)).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_svd);
criterion_main!(benches);
