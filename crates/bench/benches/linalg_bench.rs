//! Criterion benches: the dense linear-algebra substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linalg::{gemm::matmul, Cholesky, Mat};

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    g.sample_size(10);
    // 257 leaves a one-wide edge on every register tile and cache block.
    for n in [64usize, 256, 257] {
        let a = Mat::from_fn(n, n, |r, cc| ((r + cc) % 7) as f64);
        let b = Mat::from_fn(n, n, |r, cc| ((r * cc) % 5) as f64);
        g.bench_with_input(BenchmarkId::new("matmul", n), &n, |bch, _| {
            bch.iter(|| matmul(&a, &b))
        });
    }
    g.finish();
}

/// A well-conditioned SPD matrix `B·Bᵀ + n·I`.
fn spd(n: usize) -> Mat {
    let b = Mat::from_fn(n, n, |r, cc| ((r * 3 + cc) % 11) as f64 / 11.0);
    let mut a = matmul(&b, &b.t());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn bench_cholesky(c: &mut Criterion) {
    let mut g = c.benchmark_group("cholesky");
    g.sample_size(20);
    for n in [16usize, 64] {
        let a = spd(n);
        g.bench_with_input(BenchmarkId::new("factor", n), &n, |bch, _| {
            bch.iter(|| Cholesky::new(&a).unwrap())
        });
    }
    // K = 16 is BPMF's latent dimension: two inverses per sampled entity.
    let ch = Cholesky::new(&spd(16)).unwrap();
    g.bench_with_input(BenchmarkId::new("inverse", 16), &16, |bch, _| {
        bch.iter(|| ch.inverse())
    });
    g.finish();
}

fn bench_add_outer(c: &mut Criterion) {
    let mut g = c.benchmark_group("add_outer");
    g.sample_size(20);
    // One rating's contribution to a K = 16 BPMF posterior precision.
    let k = 16;
    let x: Vec<f64> = (0..k).map(|i| (i % 5) as f64 / 5.0 - 0.4).collect();
    let mut m = Mat::zeros(k, k);
    g.bench_with_input(BenchmarkId::new("rank1", k), &k, |bch, _| {
        bch.iter(|| m.add_outer(&x, 2.0))
    });
    g.finish();
}

criterion_group!(benches, bench_gemm, bench_cholesky, bench_add_outer);
criterion_main!(benches);
