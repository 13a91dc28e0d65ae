//! Per-stage cost of the spectral featurization chain, in ns/record.
//!
//! Benches each operator of the oracle chain (`welchwindow` →
//! `float2cplx` → `dft` → `cabs`) in isolation on its own input shape,
//! plus the fused `spectrum` operator and the two underlying FFT paths
//! (full complex 840 vs packed real 840→420) — the evidence that
//! the fused real-input path is where the pipeline's throughput win
//! comes from. `fig5_pipeline --stage-json` reports the same breakdown
//! as JSON for `BENCH_fig5.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dynamic_river::{Payload, Record};
use ensemble_core::ops::{Cabs, Dft, Float2Cplx, Spectrum, WelchWindow};
use ensemble_core::{subtype, ExtractorConfig};
use river_dsp::{Complex64, Fft, RealFft};
use std::hint::black_box;

/// Deterministic pseudo-random samples in [-1, 1] (xorshift64*).
fn random_samples(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Runs `op` over clones of `records` through a bare sink.
fn run_op(op: &mut dyn dynamic_river::Operator, records: &[Record]) -> usize {
    let mut sink: Vec<Record> = Vec::with_capacity(records.len());
    for r in records {
        op.on_record(r.clone(), &mut sink).unwrap();
    }
    black_box(sink.len())
}

fn bench_operators(c: &mut Criterion) {
    let cfg = ExtractorConfig::paper();
    let n = cfg.record_len;
    let audio: Vec<Record> = (0..64)
        .map(|i| Record::data(subtype::AUDIO, Payload::f64(random_samples(n, i))))
        .collect();
    // The dft stage consumes interleaved-complex records (float2cplx
    // output): 2n values per record.
    let complex: Vec<Record> = (0..64)
        .map(|i| {
            let mut v = Vec::with_capacity(2 * n);
            for x in random_samples(n, i + 1_000) {
                v.push(x);
                v.push(0.0);
            }
            Record::data(subtype::SPECTRUM, Payload::complex(v))
        })
        .collect();

    let mut group = c.benchmark_group("stage_ns");
    group.throughput(Throughput::Elements(audio.len() as u64));

    group.bench_function("welchwindow", |b| {
        let mut op = WelchWindow::new();
        b.iter(|| run_op(&mut op, &audio));
    });
    group.bench_function("float2cplx", |b| {
        let mut op = Float2Cplx::new();
        b.iter(|| run_op(&mut op, &audio));
    });
    group.bench_function("dft", |b| {
        let mut op = Dft::new();
        b.iter(|| run_op(&mut op, &complex));
    });
    group.bench_function("cabs", |b| {
        let mut op = Cabs::new();
        b.iter(|| run_op(&mut op, &complex));
    });
    group.bench_function("spectrum_fused", |b| {
        let mut op = Spectrum::new();
        b.iter(|| run_op(&mut op, &audio));
    });
    group.finish();
}

fn bench_fft_paths(c: &mut Criterion) {
    let n = ExtractorConfig::paper().record_len;
    let x = random_samples(n, 7);
    let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();

    let mut group = c.benchmark_group("stage_ns/fft");
    group.throughput(Throughput::Elements(1));

    // The oracle chain's path: full 840-point complex transform.
    group.bench_function("complex_840", |b| {
        let fft = Fft::new(n);
        let mut buf = packed.clone();
        let mut scratch = vec![Complex64::ZERO; fft.scratch_len()];
        b.iter(|| {
            buf.copy_from_slice(&packed);
            fft.forward_scratch(&mut buf, &mut scratch);
            black_box(buf[1]);
        });
    });
    // The fused path: 840 real samples packed into a 420-point half.
    group.bench_function("real_840", |b| {
        let fft = RealFft::new(n);
        let mut out = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; fft.scratch_len()];
        b.iter(|| {
            fft.forward_into(&x, &mut out, &mut scratch);
            black_box(out[1]);
        });
    });
    // The fused production kernel: window × real FFT → magnitudes.
    group.bench_function("real_840_magnitudes", |b| {
        let fft = RealFft::new(n);
        let window = vec![0.5; n];
        let mut mags = vec![0.0; n];
        let mut scratch = vec![Complex64::ZERO; fft.scratch_len()];
        b.iter(|| {
            fft.magnitudes_into(&x, Some(&window), &mut mags, &mut scratch);
            black_box(mags[1]);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_operators, bench_fft_paths);
criterion_main!(benches);
