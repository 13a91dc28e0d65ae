//! The shipped extraction chain (`saxanomaly` → `trigger` → `cutter`,
//! through `EnsembleExtractor`) against the per-sample oracle in
//! `common/`: scores and trigger bit for bit, ensembles up to the one
//! documented difference — `cutter` emits whole records.

mod common;

use common::oracle_extraction;
use ensemble_core::prelude::*;

fn clip(config: SynthConfig, species: SpeciesCode, seed: u64) -> Vec<f64> {
    ClipSynthesizer::new(config).clip(species, seed).samples
}

#[test]
fn scores_match_the_per_sample_oracle() {
    let cfg = ExtractorConfig::default();
    let tone = (0..840 * 4).map(|i| (i as f64 * 0.37).sin() * 0.01);
    let song = clip(SynthConfig::short_test(), SpeciesCode::Noca, 11);
    for samples in [tone.collect(), song] {
        let trace = EnsembleExtractor::new(cfg).extract_with_trace(&samples);
        assert_eq!(trace.scores, oracle_extraction(&samples, &cfg).scores);
    }
}

#[test]
fn trigger_matches_the_per_sample_oracle() {
    let cfg = ExtractorConfig::default();
    let samples = clip(SynthConfig::short_test(), SpeciesCode::Noca, 11);
    let trace = EnsembleExtractor::new(cfg).extract_with_trace(&samples);
    assert!(trace.trigger.contains(&1));
    assert_eq!(trace.trigger, oracle_extraction(&samples, &cfg).trigger);
}

/// `cutter`'s ensembles are the oracle's trigger-high runs rounded to
/// whole records: same count, same starts, lengths within half a
/// record, the same samples over the common prefix and zero padding
/// beyond it. A run shorter than one record has no whole record to
/// emit, whatever `min_ensemble_samples` says, and a clip's trailing
/// partial record is never analysed (the oracle gets the whole records).
#[test]
fn ensembles_are_the_oracles_runs_rounded_to_whole_records() {
    let paper = ExtractorConfig::default();
    let n = paper.record_len;
    // No hold and a minimum under one record: short runs, many of them.
    let twitchy = ExtractorConfig {
        trigger_hold: 0,
        min_ensemble_samples: n / 4,
        ..paper
    };
    let whole = clip(SynthConfig::paper(), SpeciesCode::Bcch, 7);
    assert_eq!(whole.len() % n, 0);
    let mut ragged = clip(SynthConfig::paper(), SpeciesCode::Bcch, 21);
    ragged.truncate(ragged.len() - n / 3);

    let (mut under_a_record, mut padded, mut dropped) = (0, 0, 0);
    for (cfg, samples) in [
        (paper, &whole),
        (paper, &ragged),
        (twitchy, &whole),
        (twitchy, &ragged),
    ] {
        let got = EnsembleExtractor::new(cfg).extract(samples);
        let analysed = &samples[..samples.len() - samples.len() % n];
        let mut want = oracle_extraction(analysed, &cfg).ensembles;
        under_a_record += want.iter().filter(|run| run.len() < n).count();
        want.retain(|run| run.len() >= n);
        assert_eq!(got.len(), want.len());
        for (e, run) in got.iter().zip(&want) {
            assert_eq!(
                (e.start, e.end, e.len() % n),
                (run.start, e.start + e.len(), 0)
            );
            assert!(e.len().abs_diff(run.len()) <= n / 2, "start {}", e.start);
            let common = e.len().min(run.len());
            assert_eq!(e.samples[..common], run.samples[..common]);
            assert!(e.samples[common..].iter().all(|&x| x == 0.0));
            padded += usize::from(e.len() > run.len());
            dropped += usize::from(e.len() < run.len());
        }
    }
    // The cases the comparison is for all occurred.
    assert!(under_a_record > 0 && padded > 0 && dropped > 0);
}
