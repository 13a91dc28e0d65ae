//! Property-based tests for ensemble extraction and featurization.

mod common;

use common::oracle_full_pipeline;
use dynamic_river::Pipeline;
use ensemble_core::extract::AdaptiveTrigger;
use ensemble_core::pipeline::{featurize_ensemble, full_pipeline};
use ensemble_core::prelude::*;
use rand::RngExt;

/// Extracted ensembles are always ordered, disjoint, whole records
/// of at least the configured minimum length, and within the clip
/// up to the last record's zero padding.
#[test]
fn ensembles_well_formed() {
    seeds::check(0..24, |rng| {
        let seed = rng.random_range(0u64..5_000);
        let species_idx = rng.random_range(0usize..10);
        let species = SpeciesCode::ALL[species_idx];
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let clip = synth.clip(species, seed);
        let cfg = ExtractorConfig::default();
        let ensembles = EnsembleExtractor::new(cfg).extract(&clip.samples);
        let mut prev_end = 0usize;
        for e in &ensembles {
            assert!(e.start >= prev_end);
            assert!(e.end <= clip.samples.len() + cfg.record_len / 2);
            assert!(e.len() >= cfg.min_ensemble_samples);
            assert_eq!(e.len() % cfg.record_len, 0);
            assert_eq!(e.len(), e.end - e.start);
            prev_end = e.end;
        }
    });
}

/// The trigger trace is binary, and extraction is deterministic.
#[test]
fn extraction_deterministic() {
    seeds::check(0..24, |rng| {
        let seed = rng.random_range(0u64..2_000);
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let clip = synth.clip(SpeciesCode::Blja, seed);
        let ex = EnsembleExtractor::new(ExtractorConfig::default());
        let a = ex.extract_with_trace(&clip.samples);
        let b = ex.extract_with_trace(&clip.samples);
        assert_eq!(&a.trigger, &b.trigger);
        assert_eq!(&a.ensembles, &b.ensembles);
        assert!(a.trigger.iter().all(|&t| t <= 1));
    });
}

/// Featurization yields patterns of exactly the configured
/// dimension, whatever the ensemble length.
#[test]
fn featurization_dimensions() {
    seeds::check(0..24, |rng| {
        let len = rng.random_range(840usize..8_400);
        let with_paa = rng.random_bool(0.5);
        let cfg = ExtractorConfig::default();
        let samples: Vec<f64> = (0..len).map(|i| (i as f64 * 0.21).sin() * 0.3).collect();
        let patterns = featurize_ensemble(&samples, &cfg, with_paa);
        let expect = if with_paa { 105 } else { 1_050 };
        for p in &patterns {
            assert_eq!(p.len(), expect);
            assert!(p.iter().all(|x| x.is_finite()));
        }
        // Pattern count never exceeds records / pattern_records.
        assert!(patterns.len() <= len.div_ceil(cfg.record_len) / cfg.pattern_records);
    });
}

/// Log scaling keeps features non-negative and monotone in input
/// magnitude; amplitude scaling of the waveform never changes the
/// pattern count.
#[test]
fn featurization_amplitude_stability() {
    seeds::check(0..24, |rng| {
        let gain = rng.random_range(0.01..1.0);
        let cfg = ExtractorConfig::default();
        let base: Vec<f64> = (0..840 * 6).map(|i| (i as f64 * 0.4).sin()).collect();
        let scaled: Vec<f64> = base.iter().map(|x| x * gain).collect();
        let a = featurize_ensemble(&base, &cfg, true);
        let b = featurize_ensemble(&scaled, &cfg, true);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            for (&x, &y) in pa.iter().zip(pb) {
                assert!(x >= 0.0 && y >= 0.0);
                assert!(x + 1e-12 >= y); // gain <= 1 shrinks features
            }
        }
    });
}

/// The adaptive trigger never fires during warm-up and always
/// recovers to 0 on a long constant input.
#[test]
fn trigger_sane() {
    seeds::check(0..24, |rng| {
        let warmup = rng.random_range(1u64..200);
        let scores = seeds::vec(rng, 10..300, |r| r.random_range(0.0..2.0));
        let mut t = AdaptiveTrigger::new(5.0, warmup, 0);
        for (i, &s) in scores.iter().enumerate() {
            let fired = t.push(s);
            if (i as u64) < warmup {
                assert!(!fired, "fired during warm-up at {i}");
            }
        }
        // Returning to the learned baseline always releases the trigger
        // (deviation zero is inside any band).
        let baseline = t.mu0();
        for _ in 0..5 {
            t.push(baseline);
        }
        assert!(!t.push(baseline));
    });
}

/// Runs the chain `build` composes over `clips`, both streaming and
/// sharded, returning (streaming, sharded) outputs.
fn run_both_modes(
    cfg: ExtractorConfig,
    build: impl Fn() -> Pipeline,
    clips: &[Vec<f64>],
    workers: usize,
) -> (Vec<dynamic_river::Record>, Vec<dynamic_river::Record>) {
    use ensemble_core::ops::clips_record_source;
    let mut streamed = Vec::new();
    build()
        .run_streaming(
            clips_record_source(clips.to_vec(), cfg.sample_rate, cfg.record_len),
            &mut streamed,
        )
        .unwrap();
    let mut sharded = Vec::new();
    build()
        .run_sharded(
            clips_record_source(clips.to_vec(), cfg.sample_rate, cfg.record_len),
            &mut sharded,
            workers,
        )
        .unwrap();
    (streamed, sharded)
}

/// Asserts two pipeline outputs are record-for-record equivalent:
/// identical structure (kind, subtype, seq, context) and F64 payloads
/// within `tol` relative error.
fn assert_records_equivalent(a: &[dynamic_river::Record], b: &[dynamic_river::Record], tol: f64) {
    assert_eq!(a.len(), b.len(), "record counts differ");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.kind, rb.kind, "record {i} kind");
        assert_eq!(ra.subtype, rb.subtype, "record {i} subtype");
        assert_eq!(ra.seq, rb.seq, "record {i} seq");
        match (ra.payload.as_f64(), rb.payload.as_f64()) {
            (Some(va), Some(vb)) => {
                assert_eq!(va.len(), vb.len(), "record {i} payload length");
                for (k, (x, y)) in va.iter().zip(vb).enumerate() {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!(
                        (x - y).abs() <= tol * scale,
                        "record {i} sample {k}: {x} vs {y}"
                    );
                }
            }
            _ => assert_eq!(ra.payload, rb.payload, "record {i} payload"),
        }
    }
}

/// The fused `spectrum` stage is a drop-in replacement for the
/// four-operator oracle chain: over whole synthesized clips, the
/// full pipeline's outputs agree record-for-record to ≤ 1e-9
/// relative error — under `run_streaming` AND under the sharded
/// runtime.
#[test]
fn fused_spectrum_matches_oracle_chain_end_to_end() {
    seeds::check(0..8, |rng| {
        let seed = rng.random_range(0u64..1_000);
        let species_idx = rng.random_range(0usize..10);
        let with_paa = rng.random_bool(0.5);
        let reslice = rng.random_bool(0.5);
        let workers = rng.random_range(1usize..4);
        let species = SpeciesCode::ALL[species_idx];
        let cfg = ExtractorConfig {
            reslice,
            ..ExtractorConfig::default()
        };
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let clips: Vec<Vec<f64>> = (0..2u64)
            .map(|i| {
                let c = synth.clip(species, seed.wrapping_add(i));
                let usable = c.samples.len() - c.samples.len() % cfg.record_len;
                c.samples[..usable].to_vec()
            })
            .collect();

        let (fused_stream, fused_shard) =
            run_both_modes(cfg, || full_pipeline(cfg, with_paa), &clips, workers);
        let (oracle_stream, oracle_shard) =
            run_both_modes(cfg, || oracle_full_pipeline(cfg, with_paa), &clips, workers);

        // Sharding is deterministic within a path…
        assert_eq!(&fused_stream, &fused_shard);
        assert_eq!(&oracle_stream, &oracle_shard);
        // …and the two paths agree numerically.
        assert_records_equivalent(&fused_stream, &oracle_stream, 1e-9);
    });
}
