//! Goertzel algorithm: single-bin DFT magnitude.
//!
//! Cheaper than a full FFT when only a few frequencies matter — used by
//! tests and by the synthetic-workload validator to confirm that a
//! species' syllables carry energy at the intended frequencies.

use std::f64::consts::PI;

/// Computes the DFT magnitude of `samples` at frequency `freq` Hz given
/// sample rate `fs` Hz, using the Goertzel recurrence.
///
/// The result matches `|DFT bin|` when `freq` falls exactly on a bin
/// center for `samples.len()` points.
///
/// # Panics
///
/// Panics if `fs <= 0`.
///
/// # Example
///
/// ```
/// use river_dsp::goertzel::goertzel_magnitude;
///
/// let fs = 1_000.0;
/// let samples: Vec<f64> = (0..1_000)
///     .map(|i| (2.0 * std::f64::consts::PI * 100.0 * i as f64 / fs).sin())
///     .collect();
/// let at_tone = goertzel_magnitude(&samples, 100.0, fs);
/// let off_tone = goertzel_magnitude(&samples, 300.0, fs);
/// assert!(at_tone > 100.0 * off_tone);
/// ```
pub fn goertzel_magnitude(samples: &[f64], freq: f64, fs: f64) -> f64 {
    assert!(fs > 0.0, "sample rate must be positive");
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len() as f64;
    // Use the real target frequency rather than rounding to a bin; for
    // on-bin frequencies this is identical to the classic integer-k form.
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
    let _ = n;
    (real * real + imag * imag).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::RealFft;
    use std::f64::consts::PI;

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
}
