//! Ablation bench for the streaming SAX-bitmap anomaly detector:
//! throughput vs window size, alphabet size and n-gram level — the §3
//! parameter choices (window 100, alphabet 8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use river_dsp::stats::MovingAverage;
use river_sax::anomaly::{AnomalyConfig, BitmapAnomaly, Normalization};
use std::hint::black_box;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.05).sin() * 0.1 + ((i * 2654435761) % 997) as f64 * 1e-5)
        .collect()
}

fn bench_window(c: &mut Criterion) {
    let samples = signal(50_000);
    let mut group = c.benchmark_group("sax_anomaly/window");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    for window in [50usize, 100, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(AnomalyConfig {
                    window: w,
                    ..AnomalyConfig::default()
                });
                let mut acc = 0.0;
                for &x in &samples {
                    acc += det.push(x);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_alphabet(c: &mut Criterion) {
    let samples = signal(50_000);
    let mut group = c.benchmark_group("sax_anomaly/alphabet");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    for alphabet in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(alphabet), &alphabet, |b, &a| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(AnomalyConfig {
                    alphabet: a,
                    ..AnomalyConfig::default()
                });
                let mut acc = 0.0;
                for &x in &samples {
                    acc += det.push(x);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_ngram(c: &mut Criterion) {
    let samples = signal(50_000);
    let mut group = c.benchmark_group("sax_anomaly/ngram");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    for ngram in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(ngram), &ngram, |b, &n| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(AnomalyConfig {
                    ngram: n,
                    ..AnomalyConfig::default()
                });
                let mut acc = 0.0;
                for &x in &samples {
                    acc += det.push(x);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_normalization(c: &mut Criterion) {
    let samples = signal(50_000);
    let mut group = c.benchmark_group("sax_anomaly/normalization");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    for (name, norm) in [
        ("global", Normalization::Global),
        ("sliding8400", Normalization::Sliding(8_400)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &norm, |b, &n| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(AnomalyConfig {
                    normalization: n,
                    ..AnomalyConfig::default()
                });
                let mut acc = 0.0;
                for &x in &samples {
                    acc += det.push(x);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// The block kernel as `saxanomaly` calls it — one 840-sample record
/// at a time, scored then smoothed in place — next to the same stream
/// fed through one-sample calls, under the paper's `Sliding(8400)` and
/// under `Global`.
fn bench_block(c: &mut Criterion) {
    let samples = signal(50_400);
    let mut scores = vec![0.0; 840];
    let mut group = c.benchmark_group("sax_anomaly/block840");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    for (name, norm) in [
        ("sliding8400", Normalization::Sliding(8_400)),
        ("global", Normalization::Global),
    ] {
        let config = AnomalyConfig {
            normalization: norm,
            ..AnomalyConfig::default()
        };
        group.bench_function(BenchmarkId::new("score_block", name), |b| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(config);
                let mut ma = MovingAverage::new(2_250);
                let mut acc = 0.0;
                for record in samples.chunks(840) {
                    det.score_block(record, &mut scores);
                    ma.smooth_in_place(&mut scores);
                    acc += scores[839];
                }
                black_box(acc)
            });
        });
        group.bench_function(BenchmarkId::new("push", name), |b| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(config);
                let mut ma = MovingAverage::new(2_250);
                let mut acc = 0.0;
                for &x in &samples {
                    acc += ma.push(det.push(x));
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_window,
    bench_alphabet,
    bench_ngram,
    bench_normalization,
    bench_block
);
criterion_main!(benches);
