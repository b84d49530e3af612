//! Microbench: rotation-parameter kernels — the textbook ρ→t chain vs the
//! paper's flattened hardware equations (8)–(10) (both produce the same
//! rotation; the hardware form exists for datapath parallelism, and this
//! bench shows the two are also comparable in software cost) — plus the
//! packed three-region `rotate_packed` walk against the historical
//! per-element `get`/`set` update it replaced.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hj_core::kernel::rotate_packed;
use hj_core::rotation::{hardware_params, textbook_params, Rotation};
use hj_core::GramState;
use hj_matrix::{gen, PackedSymmetric};

fn bench_rotation_kernels(c: &mut Criterion) {
    // A mix of magnitudes so branch behaviour is realistic.
    let inputs: Vec<(f64, f64, f64)> = (0..256)
        .map(|i| {
            let x = i as f64 + 1.0;
            (x, 257.0 - x, if i % 2 == 0 { 0.3 * x } else { -0.7 / x })
        })
        .collect();

    let mut g = c.benchmark_group("rotation_params");
    g.bench_function("textbook", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(ni, nj, cv) in &inputs {
                let r = textbook_params(black_box(ni), black_box(nj), black_box(cv));
                acc += r.cos + r.sin;
            }
            black_box(acc)
        })
    });
    g.bench_function("hardware_eq_8_10", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(ni, nj, cv) in &inputs {
                let r = hardware_params(black_box(ni), black_box(nj), black_box(cv));
                acc += r.cos + r.sin;
            }
            black_box(acc)
        })
    });
    g.finish();

    // The O(n) Gram update at n = 128: the historical per-element
    // `get`/`set` walk vs the kernel's three-region split over the packed
    // triangle. This pair is the inner loop the engine inversion traced to.
    let n = 128;
    let a = gen::uniform(2 * n, n, 7);
    let gram = GramState::from_matrix(&a);
    let rot = textbook_params(gram.norm_sq(3), gram.norm_sq(90), gram.covariance(3, 90));

    let mut g = c.benchmark_group("packed_rotate_n128");
    g.bench_function("scalar_get_set", |b| {
        let mut d = gram.packed().clone();
        b.iter(|| {
            rotate_packed_scalar(&mut d, black_box(3), black_box(90), &rot);
            black_box(d.get(3, 3))
        })
    });
    g.bench_function("kernel_three_region", |b| {
        let mut d = gram.packed().clone();
        b.iter(|| {
            rotate_packed(&mut d, black_box(3), black_box(90), &rot);
            black_box(d.get(3, 3))
        })
    });
    g.finish();
}

/// The pre-kernel packed rotation: one `get`/`set` pair per touched entry,
/// each paying the triangle index computation. Kept here as the bench
/// baseline the kernel is measured against.
fn rotate_packed_scalar(d: &mut PackedSymmetric, i: usize, j: usize, rot: &Rotation) {
    let n = d.dim();
    let cov = d.get(i, j);
    let (ni, nj) = (d.get(i, i), d.get(j, j));
    d.set(i, i, ni - rot.t * cov);
    d.set(j, j, nj + rot.t * cov);
    d.set(i, j, 0.0);
    for k in 0..n {
        if k == i || k == j {
            continue;
        }
        let dik = d.get(k, i);
        let djk = d.get(k, j);
        d.set(k, i, dik * rot.cos - djk * rot.sin);
        d.set(k, j, dik * rot.sin + djk * rot.cos);
    }
}

criterion_group!(benches, bench_rotation_kernels);
criterion_main!(benches);
