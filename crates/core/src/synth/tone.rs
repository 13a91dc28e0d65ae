//! The test probe for the synthesizer's spectra: one DFT bin's
//! magnitude by the Goertzel recurrence, cheaper than a full transform
//! when a test asks whether a syllable carries energy at a few chosen
//! frequencies.

use std::f64::consts::PI;

/// The DFT magnitude of `samples` at `freq` Hz for sample rate `fs` Hz:
/// `|DFT bin|` when `freq` falls on a bin centre of `samples.len()`
/// points.
pub(crate) fn goertzel_magnitude(samples: &[f64], freq: f64, fs: f64) -> f64 {
    assert!(fs > 0.0, "sample rate must be positive");
    if samples.is_empty() {
        return 0.0;
    }
    // The real target frequency rather than the nearest bin; for on-bin
    // frequencies this is the classic integer-k form.
    let w = 2.0 * PI * freq / fs;
    let coeff = 2.0 * w.cos();
    let mut s_prev = 0.0;
    let mut s_prev2 = 0.0;
    for &x in samples {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let real = s_prev - s_prev2 * w.cos();
    let imag = s_prev2 * w.sin();
    (real * real + imag * imag).sqrt()
}

mod tests {
    use super::*;
    use river_dsp::fft::RealFft;

    #[test]
    fn matches_fft_bin_magnitude() {
        let n = 512;
        let fs = 512.0;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                (2.0 * PI * 40.0 * i as f64 / fs).sin()
                    + 0.3 * (2.0 * PI * 100.0 * i as f64 / fs).cos()
            })
            .collect();
        let spec = RealFft::new(n).forward(&x);
        for &k in &[40usize, 100, 7] {
            let g = goertzel_magnitude(&x, k as f64 * fs / n as f64, fs);
            let f = spec[k].abs();
            assert!((g - f).abs() < 1e-6, "bin {k}: goertzel {g} vs fft {f}");
        }
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(goertzel_magnitude(&[], 100.0, 1_000.0), 0.0);
    }

    #[test]
    fn a_tone_stands_out_of_its_neighbours() {
        let fs = 1_000.0;
        let samples: Vec<f64> = (0..1_000)
            .map(|i| (2.0 * PI * 100.0 * i as f64 / fs).sin())
            .collect();
        let at_tone = goertzel_magnitude(&samples, 100.0, fs);
        let off_tone = goertzel_magnitude(&samples, 300.0, fs);
        assert!(at_tone > 100.0 * off_tone);
    }
}
