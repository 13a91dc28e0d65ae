//! The `saxanomaly` block kernel against fixed references: golden
//! digests of the smoothed score trace, and recovery from non-finite
//! samples.
//!
//! `golden_scores.txt` was rendered at commit `11e5c7f` (the last one
//! with the per-sample `BitmapAnomaly::push` body) from the clips below,
//! one `name samples digest` line per clip: the word-wise FNV-1a digest
//! of every smoothed score's bit pattern. The kernel's contract is that
//! no score moves in any bit, so the file is never regenerated. The
//! trace is read off the `saxanomaly` operator's score records
//! (`extract_with_trace`); every clip here is whole records.

use ensemble_core::prelude::*;

const GOLDEN: &str = include_str!("golden_scores.txt");

/// FNV-1a folded over 64-bit words (river-bench's record digest).
fn digest(scores: impl IntoIterator<Item = f64>) -> u64 {
    scores.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, s| {
        (hash ^ s.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden_clips() -> Vec<(&'static str, Vec<f64>, ExtractorConfig)> {
    let paper = ClipSynthesizer::new(SynthConfig::paper());
    let short = ClipSynthesizer::new(SynthConfig::short_test());
    let global = ExtractorConfig {
        norm_window: 0,
        ..ExtractorConfig::paper()
    };
    vec![
        (
            "rwbl-2007-sliding8400",
            paper.clip(SpeciesCode::Rwbl, 2007).samples,
            ExtractorConfig::paper(),
        ),
        (
            "noca-977-sliding8400",
            paper.clip(SpeciesCode::Noca, 977).samples,
            ExtractorConfig::paper(),
        ),
        (
            "bcch-7-global",
            short.clip(SpeciesCode::Bcch, 7).samples,
            global,
        ),
    ]
}

#[test]
fn smoothed_scores_match_the_parent_commits_digests() {
    let clips = golden_clips();
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), clips.len(), "one golden line per clip");
    for (line, (name, samples, cfg)) in lines.iter().zip(&clips) {
        let trace = EnsembleExtractor::new(*cfg).extract_with_trace(samples);
        let rendered = format!(
            "{name} {} {:016x}",
            trace.scores.len(),
            digest(trace.scores)
        );
        assert_eq!(&rendered, line);
    }
}

fn boundaries(ensembles: &[Ensemble]) -> Vec<(usize, usize)> {
    ensembles.iter().map(|e| (e.start, e.end)).collect()
}

/// One non-finite sample must not blind the detector for the rest of
/// the clip: at the parent commit the running sums went NaN at sample
/// 5,000 and every later score was the constant 6.4e-16 (4 ensembles
/// became 1).
#[test]
fn a_non_finite_sample_does_not_blind_the_detector() {
    let clean = ClipSynthesizer::new(SynthConfig::paper())
        .clip(SpeciesCode::Rwbl, 2007)
        .samples;
    let at = 5_000;
    for norm_window in [8_400, 0] {
        let cfg = ExtractorConfig {
            norm_window,
            ..ExtractorConfig::paper()
        };
        let want = boundaries(&EnsembleExtractor::new(cfg).extract(&clean));
        assert!(want.len() >= 2, "clean run finds the song bouts");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut dirty = clean.clone();
            dirty[at] = bad;
            let trace = EnsembleExtractor::new(cfg).extract_with_trace(&dirty);
            assert!(
                trace.scores.iter().all(|s| s.is_finite()),
                "{bad} under norm_window {norm_window}: non-finite score"
            );
            let got = boundaries(&trace.ensembles);
            assert_eq!(
                got.len(),
                want.len(),
                "{bad} under norm_window {norm_window}: {got:?} vs clean {want:?}"
            );
            // Once the sample has left the normalisation window the two
            // runs may differ by rounding residue only.
            for (g, w) in got.iter().zip(&want) {
                if w.0 > at + 8_400 {
                    assert!(
                        g.0.abs_diff(w.0) <= cfg.anomaly_window
                            && g.1.abs_diff(w.1) <= cfg.anomaly_window,
                        "{bad} under norm_window {norm_window}: {g:?} vs clean {w:?}"
                    );
                }
            }
        }
    }
}
