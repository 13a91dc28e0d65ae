//! DFT backend comparison. `Fft` picks its algorithm from the length's
//! factorisation: 7-smooth lengths — the powers of two, the production
//! record length 840 and its packed half 420 — run mixed-radix
//! butterflies, everything else (here 421 and 842) Bluestein over a
//! power-of-two mixed-radix convolution; the naive O(N²) reference
//! anchors the scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use river_dsp::fft::{dft_naive, Fft};
use river_dsp::Complex64;
use std::hint::black_box;

fn input(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
        .collect()
}

fn bench_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft/forward");
    group.sample_size(30);
    for &n in &[256usize, 420, 421, 512, 700, 840, 842, 1024, 2048, 4096] {
        let x = input(n);
        let plan = Fft::new(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(plan.forward(&x)));
        });
    }
    group.finish();
}

fn bench_naive_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft/vs_naive");
    group.sample_size(10);
    let n = 840;
    let x = input(n);
    let plan = Fft::new(n);
    group.bench_function("mixed_radix_840", |b| {
        b.iter(|| black_box(plan.forward(&x)));
    });
    group.bench_function("naive_840", |b| b.iter(|| black_box(dft_naive(&x))));
    group.finish();
}

fn bench_plan_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft/planning");
    group.sample_size(20);
    group.bench_function("plan_840", |b| b.iter(|| black_box(Fft::new(840))));
    group.bench_function("plan_1024", |b| b.iter(|| black_box(Fft::new(1024))));
    group.finish();
}

criterion_group!(
    benches,
    bench_sizes,
    bench_naive_comparison,
    bench_plan_reuse
);
criterion_main!(benches);
