//! The spectrogram columns behind Figures 2 and 3, pinned bit for bit.
//!
//! `fig2_signal` draws a WBNU clip of `SynthConfig::paper()` from
//! `spectrogram_columns` (`reslice` → `spectrum` over one ensemble
//! scope), and `fig3_paa` draws the same columns each reduced by PAA
//! ×10. The digests below were rendered by the STFT loop those binaries
//! ran before the chain drew them: `river_dsp`'s `spectrogram` module,
//! since deleted (840-sample Welch frames at a 420-sample hop through
//! `RealFft::magnitudes_into`, the one-sided 420 bins kept). They hold
//! the operator chain to that path. Never regenerate them: the path
//! that rendered them is gone, and a change that moves them changes
//! Figures 2 and 3.

use ensemble_core::pipeline::spectrogram_columns;
use ensemble_core::prelude::*;
use river_sax::paa::paa_by_factor;

/// FNV-1a folded over 64-bit words (river-bench's record digest).
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, v| {
        (hash ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(seed, spectrogram digest, PAA ×10 digest)` of WBNU clips.
const GOLDEN: [(u64, u64, u64); 2] = [
    (7, 0xe8a6_eb71_a758_7da7, 0xab20_b132_b50e_d83e),
    (2007, 0x1606_7350_adca_f452, 0xe764_db24_5617_f19b),
];

#[test]
fn figure_columns_match_the_golden_digests() {
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let config = ExtractorConfig::paper();
    for (seed, spec, paa) in GOLDEN {
        let clip = synth.clip(SpeciesCode::Wbnu, seed);
        let columns = spectrogram_columns(&clip.samples, &config);
        // 720 records and the 719 overlaps between them.
        assert_eq!(columns.len(), 1_439, "wbnu-{seed}");
        assert!(columns.iter().all(|c| c.len() == 420), "wbnu-{seed}");
        let reduced: Vec<Vec<f64>> = columns
            .iter()
            .map(|c| paa_by_factor(c, config.paa_factor))
            .collect();
        assert!(reduced.iter().all(|c| c.len() == 42), "wbnu-{seed}");
        let got = (
            digest(columns.iter().flatten().copied()),
            digest(reduced.iter().flatten().copied()),
        );
        assert_eq!(got, (spec, paa), "wbnu-{seed}: (spectrogram, paa) digests");
    }
}
