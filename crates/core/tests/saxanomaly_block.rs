//! The `saxanomaly` block kernel against fixed references: golden
//! digests of the smoothed score trace, and recovery from non-finite
//! samples.
//!
//! `golden_scores.txt` holds one `name samples digest` line per clip
//! below: the word-wise FNV-1a digest of every smoothed score's bit
//! pattern. It was first rendered at commit `11e5c7f` (the last one with
//! the per-sample `BitmapAnomaly::push` body) and re-rendered once when
//! the distance became √(ΣD²/tt) of one exact sum and the smoother's
//! sum one add a sample (DESIGN.md §14): every symbol and count stayed
//! exact, so only the rounding after the counts moved, within the
//! bounds `crates/timeseries/tests/block_kernel.rs` states, and the
//! boundary harness (`boundaries.rs`) showed no ensemble boundary move.
//! A change that moves a digest is a numerics change with its own
//! evidence, not a file to regenerate. The trace is read off the
//! `saxanomaly` operator's score records (`extract_with_trace`); every
//! clip here is whole records.

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
/// the clip: at the commit before the block kernel the running sums
/// went NaN at sample 5,000 and every later score was the constant
/// 6.4e-16 (4 ensembles became 1). Nor may a finite one whose square
/// the sums cannot accumulate: one `1e200` there did the same until the
/// statistics pass took every sample beyond 2⁴⁷⁸ for a non-finite one.
#[test]
fn a_non_finite_sample_does_not_blind_the_detector() {
    let clean = ClipSynthesizer::new(SynthConfig::paper())
        .clip(SpeciesCode::Rwbl, 2007)
        .samples;
    let at = 5_000;
    for norm_window in [8_400, 2_100] {
        let cfg = ExtractorConfig {
            norm_window,
            ..ExtractorConfig::paper()
        };
        let want = boundaries(&EnsembleExtractor::new(cfg).extract(&clean));
        assert!(want.len() >= 2, "clean run finds the song bouts");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200] {
            let mut dirty = clean.clone();
            dirty[at] = bad;
            let trace = EnsembleExtractor::new(cfg).extract_with_trace(&dirty);
            assert!(
                trace.scores.iter().all(|s| s.is_finite()),
                "{bad:e} under norm_window {norm_window}: non-finite score"
            );
            let got = boundaries(&trace.ensembles);
            assert_eq!(
                got.len(),
                want.len(),
                "{bad:e} under norm_window {norm_window}: {got:?} vs clean {want:?}"
            );
            // Once the sample has left the normalisation window the two
            // runs may differ by rounding residue only.
            for (g, w) in got.iter().zip(&want) {
                if w.0 > at + norm_window {
                    assert!(
                        g.0.abs_diff(w.0) <= cfg.anomaly_window
                            && g.1.abs_diff(w.1) <= cfg.anomaly_window,
                        "{bad:e} under norm_window {norm_window}: {g:?} vs clean {w:?}"
                    );
                }
            }
        }
    }
}

/// A 100-sample run of `1e153` — finite, but 8,400 of its squares
/// overflow Σx² — blinded the detector like one NaN (every later score
/// 1.8e-16). It is scored exactly as a run of NaN is. Such a run is a
/// dropout the detector sees as an event, so it may move μ₀ and later
/// boundaries; what it may not do is blind the clip.
#[test]
fn a_run_of_overflowing_samples_is_scored_as_non_finite() {
    let clean = ClipSynthesizer::new(SynthConfig::paper())
        .clip(SpeciesCode::Rwbl, 2007)
        .samples;
    let run = 5_000..5_100;
    for norm_window in [8_400, 2_100] {
        let cfg = ExtractorConfig {
            norm_window,
            ..ExtractorConfig::paper()
        };
        let [huge, nan] = [1e153, f64::NAN].map(|bad| {
            let mut dirty = clean.clone();
            dirty[run.clone()].fill(bad);
            EnsembleExtractor::new(cfg).extract_with_trace(&dirty)
        });
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&huge.scores),
            bits(&nan.scores),
            "norm_window {norm_window}"
        );
        assert_eq!(huge.ensembles, nan.ensembles, "norm_window {norm_window}");
        assert!(huge.scores.iter().all(|s| s.is_finite()));
        assert!(
            huge.ensembles.len() >= 2,
            "norm_window {norm_window}: blinded"
        );
    }
}
