//! Cross-crate determinism and invariant checks.

use acoustic_ensembles::core::pipeline::featurize_ensemble;
use acoustic_ensembles::core::prelude::*;
use acoustic_ensembles::river::scope::validate_scopes;
use acoustic_ensembles::river::Record;

const GOLDEN_ENSEMBLES: &str = include_str!("golden_ensembles.txt");

#[test]
fn same_seed_same_everything() {
    let cfg = CorpusConfig {
        clips_per_species: 1,
        seed: 99,
        synth: SynthConfig {
            clip_seconds: 8.0,
            ..SynthConfig::paper()
        },
        extractor: ExtractorConfig::paper(),
    };
    let a = Corpus::build(cfg);
    let b = Corpus::build(cfg);
    assert_eq!(a.ensembles.len(), b.ensembles.len());
    for (x, y) in a.ensembles.iter().zip(&b.ensembles) {
        assert_eq!(x.species, y.species);
        assert_eq!(x.ensemble.samples, y.ensemble.samples);
    }
    let da = DatasetBundle::build(&a);
    let db = DatasetBundle::build(&b);
    assert_eq!(da.ensemble.len(), db.ensemble.len());
    for i in 0..da.ensemble.len() {
        assert_eq!(da.ensemble.features(i), db.ensemble.features(i));
    }
}

#[test]
fn different_seeds_differ() {
    let base = CorpusConfig {
        clips_per_species: 1,
        seed: 1,
        synth: SynthConfig {
            clip_seconds: 8.0,
            ..SynthConfig::paper()
        },
        extractor: ExtractorConfig::paper(),
    };
    let a = Corpus::build(base);
    let b = Corpus::build(CorpusConfig { seed: 2, ..base });
    // Ensembles must not be byte-identical between different corpora.
    let identical = a.ensembles.len() == b.ensembles.len()
        && a.ensembles
            .iter()
            .zip(&b.ensembles)
            .all(|(x, y)| x.ensemble.samples == y.ensemble.samples);
    assert!(!identical);
}

#[test]
fn record_and_direct_paths_agree_on_real_ensembles() {
    // Real `cutter` output through the one-ensemble featurization
    // driver, by way of the facade (`ensemble-core`'s pipeline tests hold
    // it to `full_pipeline`'s patterns exactly).
    let cfg = ExtractorConfig::paper();
    let synth = ClipSynthesizer::new(SynthConfig {
        clip_seconds: 12.0,
        ..SynthConfig::paper()
    });
    let clip = synth.clip(SpeciesCode::Tuti, 3);
    let extractor = EnsembleExtractor::new(cfg);
    let ensembles = extractor.extract(&clip.samples);
    for e in ensembles.iter().take(3) {
        for with_paa in [false, true] {
            let patterns = featurize_ensemble(&e.samples, &cfg, with_paa);
            let expect_dim = if with_paa { 105 } else { 1_050 };
            for p in &patterns {
                assert_eq!(p.len(), expect_dim);
                assert!(p.iter().all(|x| x.is_finite() && *x >= 0.0));
            }
        }
    }
}

#[test]
fn full_pipeline_output_is_always_scope_balanced() {
    use acoustic_ensembles::core::ops::clip_to_records;
    use acoustic_ensembles::core::pipeline::full_pipeline;

    let cfg = ExtractorConfig::paper();
    let synth = ClipSynthesizer::new(SynthConfig {
        clip_seconds: 10.0,
        ..SynthConfig::paper()
    });
    for seed in [1u64, 2, 3] {
        let clip = synth.clip(SpeciesCode::Hofi, seed);
        let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
        let records: Vec<Record> = clip_to_records(
            &clip.samples[..usable],
            cfg.sample_rate,
            cfg.record_len,
            &[],
        );
        let out = full_pipeline(cfg, true).run(records).unwrap();
        validate_scopes(&out).unwrap();
    }
}

#[test]
fn config_geometry_is_self_consistent() {
    let cfg = ExtractorConfig::paper();
    cfg.validate();
    // The published feature arithmetic (paper §4).
    assert_eq!(cfg.pattern_features(), 1_050);
    assert_eq!(cfg.paa_pattern_features(), 105);
    assert!((cfg.pattern_seconds() - 0.125).abs() < 1e-12);
    assert_eq!(cfg.bins_per_record(), 350);
}

/// FNV-1a folded over 64-bit words (river-bench's record digest).
fn digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, x| {
        (hash ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `golden_ensembles.txt` was rendered at commit `04822d4` — the last
/// one whose `extract` and `featurize_ensemble` were a per-sample state
/// machine and a private window/FFT loop beside the operator chain —
/// one `species clip start patterns raw-digest paa-digest` line per
/// ensemble of the test-scale corpus. Both now drive the shipped
/// operators, and what Tables 1–3 are computed from must not move in
/// any bit, so the file is never regenerated. An ensemble's `end` is
/// deliberately not in it: `cutter` emits whole records (DESIGN.md §3).
#[test]
fn corpus_ensembles_match_the_parent_commits_golden_file() {
    let corpus = Corpus::build(CorpusConfig::test_scale());
    let bundle = DatasetBundle::build(&corpus);
    assert_eq!(bundle.skipped_short, 0, "groups line up with ensembles");
    let raw_groups = bundle.ensemble.group_members();
    let paa_groups = bundle.paa_ensemble.group_members();
    assert_eq!(raw_groups.len(), corpus.ensembles.len());
    let rendered: Vec<String> = corpus
        .ensembles
        .iter()
        .zip(raw_groups.iter().zip(&paa_groups))
        .map(|(le, (raw, paa))| {
            format!(
                "{} {} {} {} {:016x} {:016x}",
                le.species,
                le.clip_index,
                le.ensemble.start,
                raw.len(),
                digest(raw.iter().flat_map(|&i| bundle.ensemble.features(i))),
                digest(paa.iter().flat_map(|&i| bundle.paa_ensemble.features(i))),
            )
        })
        .collect();
    assert_eq!(rendered, GOLDEN_ENSEMBLES.lines().collect::<Vec<_>>());
}
