//! End-to-end pipeline throughput: the extraction segment and the full
//! Figure 5 graph over a 30 s clip — in samples per second.
//! (`EnsembleExtractor::extract` and `featurize_ensemble` drive these
//! same segments, so they have no legs of their own.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dynamic_river::CountingSink;
use ensemble_core::ops::{clip_record_source, clip_to_records};
use ensemble_core::pipeline::{extraction_segment, full_pipeline};
use ensemble_core::prelude::*;
use std::hint::black_box;

fn bench_record_pipeline(c: &mut Criterion) {
    let cfg = ExtractorConfig::paper();
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let clip = synth.clip(SpeciesCode::Noca, 5);
    let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
    let records = clip_to_records(
        &clip.samples[..usable],
        cfg.sample_rate,
        cfg.record_len,
        &[],
    );

    let mut group = c.benchmark_group("pipeline/records");
    group.sample_size(10);
    group.throughput(Throughput::Elements(usable as u64));
    group.bench_function("extraction_segment", |b| {
        b.iter(|| {
            let mut p = extraction_segment(cfg);
            black_box(p.run(records.clone()).unwrap().len())
        });
    });
    group.bench_function("full_figure5", |b| {
        b.iter(|| {
            let mut p = full_pipeline(cfg, true);
            black_box(p.run_batch(records.clone()).unwrap().len())
        });
    });
    // The fused streaming executor over a lazy source: no record
    // vector, no inter-stage materialization.
    group.bench_function("full_figure5_streaming", |b| {
        b.iter(|| {
            let mut p = full_pipeline(cfg, true);
            let mut sink = CountingSink::default();
            let stats = p
                .run_streaming(
                    clip_record_source(
                        clip.samples[..usable].iter().copied(),
                        cfg.sample_rate,
                        cfg.record_len,
                        &[],
                    ),
                    &mut sink,
                )
                .unwrap();
            black_box(stats.sink_records)
        });
    });
    group.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let mut group = c.benchmark_group("pipeline/synthesis");
    group.sample_size(10);
    group.bench_function("clip_30s", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(synth.clip(SpeciesCode::Hofi, seed).samples.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_record_pipeline, bench_synthesis);
criterion_main!(benches);
