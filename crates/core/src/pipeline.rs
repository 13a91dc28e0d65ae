//! Assembly of the paper's Figure 5 operator graph, and the
//! one-ensemble driver of its featurization half that dataset
//! construction and the classifier use.

use crate::config::ExtractorConfig;
use crate::ops::{
    clip_to_records, Cutout, Cutter, LogScale, PaaOp, Rec2Vect, Reslice, SaxAnomaly, Spectrum,
    TriggerOp,
};
use crate::{scope_type, subtype};
use dynamic_river::{Pipeline, Record, RecordKind};
use std::borrow::Cow;

/// Builds the ensemble-extraction segment (`saxanomaly` → `trigger` →
/// `cutter`), the first half of Figure 5.
pub fn extraction_segment(config: ExtractorConfig) -> Pipeline {
    let mut p = Pipeline::new();
    p.add(SaxAnomaly::new(config));
    p.add(TriggerOp::new(config));
    p.add(Cutter::new(config));
    p
}

/// Builds the spectral featurization segment, the second half of
/// Figure 5: `[reslice]` → `spectrum` → `cutout` → `[paa]` →
/// `logscale` → `rec2vect`. `spectrum` fuses the paper's
/// `welchwindow` → `float2cplx` → `dft` → `cabs` boxes into one pass;
/// the test suites hold it to a plain complex-FFT oracle.
pub fn featurization_segment(config: ExtractorConfig, with_paa: bool) -> Pipeline {
    let mut p = Pipeline::new();
    if config.reslice {
        p.add(Reslice::new());
    }
    p.add(Spectrum::new());
    p.add(Cutout::new(
        config.cutout_low_hz,
        config.cutout_high_hz,
        config.sample_rate,
    ));
    if with_paa {
        p.add(PaaOp::new(config.paa_factor));
    }
    p.add(LogScale::new());
    p.add(Rec2Vect::new(config.pattern_records));
    p
}

/// Builds the complete Figure 5 pipeline: extraction followed by
/// featurization.
///
/// Every Figure 5 operator is scope-local — `saxanomaly`, `trigger`,
/// `cutter`, `cutout` and `rec2vect` all reset their state at each
/// clip's `OpenScope` — so `run_sharded` over it is byte-identical to
/// `run_streaming` over the same stream (DESIGN.md §11).
///
/// # Example
///
/// ```
/// use ensemble_core::pipeline::full_pipeline;
/// use ensemble_core::ExtractorConfig;
///
/// let p = full_pipeline(ExtractorConfig::default(), false);
/// assert_eq!(
///     p.names(),
///     ["saxanomaly", "trigger", "cutter", "spectrum", "cutout",
///      "logscale", "rec2vect"]
/// );
/// ```
pub fn full_pipeline(config: ExtractorConfig, with_paa: bool) -> Pipeline {
    let mut p = extraction_segment(config);
    p.extend(featurization_segment(config, with_paa));
    p
}

/// Featurizes one ensemble's samples: [`featurization_segment`] run
/// over a clip of one ensemble scope of `record_len`-sample records,
/// its pattern records returned as vectors — what dataset construction
/// and [`SpeciesClassifier`](crate::SpeciesClassifier) call, and the
/// same operators `full_pipeline` runs. An [`Ensemble`](crate::Ensemble)
/// is already whole records; any other slice gets `cutter`'s closing
/// rule (last record zero-padded when at least half full, else
/// dropped).
pub fn featurize_ensemble(
    samples: &[f64],
    config: &ExtractorConfig,
    with_paa: bool,
) -> Vec<Vec<f64>> {
    let n = config.record_len;
    let tail = samples.len() % n;
    let mut audio = Cow::Borrowed(samples);
    if tail > 0 && tail >= n / 2 {
        audio.to_mut().resize(samples.len() + n - tail, 0.0);
    }
    // A clip scope of whole records (a tail left unpadded is dropped),
    // made one ensemble.
    let mut scope = clip_to_records(&audio, config.sample_rate, n, &[]);
    scope.insert(1, Record::open_scope(scope_type::ENSEMBLE, vec![]));
    let close = Record::close_scope(scope_type::ENSEMBLE);
    scope.insert(scope.len() - 1, close);
    featurization_segment(*config, with_paa)
        .run(scope)
        .expect("an ensemble scope of audio records is well-formed")
        .iter()
        .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::PATTERN)
        .filter_map(|r| r.payload.as_f64().map(<[f64]>::to_vec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::wav2rec::clip_to_records;
    use crate::prelude::*;

    #[test]
    fn segment_operator_names_match_figure5() {
        let cfg = ExtractorConfig::default();
        assert_eq!(
            extraction_segment(cfg).names(),
            ["saxanomaly", "trigger", "cutter"]
        );
        assert_eq!(
            featurization_segment(cfg, true).names(),
            ["spectrum", "cutout", "paa", "logscale", "rec2vect"]
        );
        let resliced = ExtractorConfig {
            reslice: true,
            ..cfg
        };
        assert_eq!(featurization_segment(resliced, false).names()[0], "reslice");
    }

    #[test]
    fn full_pipeline_is_the_two_segments_composed() {
        for (with_paa, reslice) in [(false, false), (true, false), (true, true)] {
            let cfg = ExtractorConfig {
                reslice,
                ..ExtractorConfig::default()
            };
            let mut expected: Vec<String> = extraction_segment(cfg)
                .names()
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            expected.extend(
                featurization_segment(cfg, with_paa)
                    .names()
                    .iter()
                    .map(std::string::ToString::to_string),
            );
            assert_eq!(full_pipeline(cfg, with_paa).names(), expected);
        }
    }

    #[test]
    fn direct_featurization_produces_paper_geometry() {
        let cfg = ExtractorConfig::default();
        let samples = vec![0.5; cfg.record_len * 7];
        let raw = featurize_ensemble(&samples, &cfg, false);
        assert_eq!(raw.len(), 2); // 7 records -> 2 groups of 3, 1 dropped
        assert_eq!(raw[0].len(), 1_050);
        let paa = featurize_ensemble(&samples, &cfg, true);
        assert_eq!(paa[0].len(), 105);
    }

    #[test]
    fn direct_path_matches_operator_pipeline() {
        // `featurize_ensemble` over each extracted ensemble is exactly
        // `full_pipeline`'s pattern output for the clip, with and
        // without `reslice` and PAA.
        let synth = ClipSynthesizer::new(SynthConfig {
            clip_seconds: 10.0,
            ..SynthConfig::paper()
        });
        let clip = synth.clip(SpeciesCode::Hofi, 9);
        for (reslice, with_paa) in [(false, false), (false, true), (true, false), (true, true)] {
            let cfg = ExtractorConfig {
                reslice,
                ..ExtractorConfig::default()
            };
            let chained: Vec<Vec<f64>> = full_pipeline(cfg, with_paa)
                .run(clip_to_records(
                    &clip.samples,
                    cfg.sample_rate,
                    cfg.record_len,
                    &[],
                ))
                .unwrap()
                .iter()
                .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::PATTERN)
                .map(|r| r.payload.as_f64().unwrap().to_vec())
                .collect();
            assert!(!chained.is_empty());
            let driven: Vec<Vec<f64>> = EnsembleExtractor::new(cfg)
                .extract(&clip.samples)
                .iter()
                .flat_map(|e| featurize_ensemble(&e.samples, &cfg, with_paa))
                .collect();
            assert_eq!(driven, chained, "reslice={reslice} with_paa={with_paa}");
        }
    }

    #[test]
    fn short_ensemble_yields_no_patterns() {
        let cfg = ExtractorConfig::default();
        let samples = vec![0.1; cfg.record_len * 2];
        assert!(featurize_ensemble(&samples, &cfg, false).is_empty());
    }

    #[test]
    fn padding_rule_matches_cutter() {
        let cfg = ExtractorConfig::default();
        // 3.5 records: final half record padded -> 4 records -> 1 pattern
        // (3 used).
        let samples = vec![0.1; cfg.record_len * 3 + cfg.record_len / 2];
        assert_eq!(featurize_ensemble(&samples, &cfg, false).len(), 1);
        // 3.4 records: final dropped -> 3 records -> 1 pattern.
        let samples = vec![0.1; cfg.record_len * 3 + cfg.record_len / 3];
        assert_eq!(featurize_ensemble(&samples, &cfg, false).len(), 1);
    }

    #[test]
    fn sharded_full_pipeline_is_byte_identical_to_streaming() {
        use crate::ops::clips_record_source;
        let cfg = ExtractorConfig::default();
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let clips: Vec<Vec<f64>> = (0..3u64)
            .map(|seed| {
                let c = synth.clip(SpeciesCode::Rwbl, seed);
                let usable = c.samples.len() - c.samples.len() % cfg.record_len;
                c.samples[..usable].to_vec()
            })
            .collect();

        let mut single = Vec::new();
        full_pipeline(cfg, true)
            .run_streaming(
                clips_record_source(clips.clone(), cfg.sample_rate, cfg.record_len),
                &mut single,
            )
            .unwrap();
        assert!(single
            .iter()
            .any(|r| r.kind == RecordKind::Data && r.subtype == subtype::PATTERN));

        for workers in [1usize, 3] {
            let mut sharded = Vec::new();
            let stats = full_pipeline(cfg, true)
                .run_sharded(
                    clips_record_source(clips.clone(), cfg.sample_rate, cfg.record_len),
                    &mut sharded,
                    workers,
                )
                .unwrap();
            assert_eq!(single, sharded, "workers={workers}");
            assert_eq!(stats.sink_records as usize, sharded.len());
        }
    }

    #[test]
    fn end_to_end_pipeline_on_synthetic_clip() {
        let cfg = ExtractorConfig::default();
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let clip = synth.clip(SpeciesCode::Rwbl, 5);
        let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;

        let mut extraction = extraction_segment(cfg);
        let cut = extraction
            .run(clip_to_records(
                &clip.samples[..usable],
                cfg.sample_rate,
                cfg.record_len,
                &[],
            ))
            .unwrap();
        let out = featurization_segment(cfg, false).run(cut).unwrap();
        let patterns = out
            .iter()
            .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::PATTERN)
            .count();
        assert!(patterns > 0, "no patterns from a clip with song bouts");
        for r in out
            .iter()
            .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::PATTERN)
        {
            assert_eq!(r.payload.as_f64().unwrap().len(), 1_050);
        }
        dynamic_river::scope::validate_scopes(&out).unwrap();
    }
}
