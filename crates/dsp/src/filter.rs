//! Biquad IIR filters (RBJ audio EQ cookbook forms).
//!
//! The synthetic workload generator shapes noise with these filters: wind
//! is brown-ish noise (cascaded low-pass), the "human activity" band is
//! low-frequency band-passed noise, and bird syllables are band-limited.

use std::f64::consts::PI;

/// A second-order IIR filter section in direct form I.
///
/// # Example
///
/// ```
/// use river_dsp::filter::Biquad;
///
/// let mut lp = Biquad::low_pass(1_000.0, 20_160.0, std::f64::consts::FRAC_1_SQRT_2);
/// let out = lp.process(0.5);
/// assert!(out.is_finite());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl Biquad {
    /// Builds a filter from normalized coefficients (a0 already divided
    /// out).
    pub fn from_coefficients(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Biquad {
            b0,
            b1,
            b2,
            a1,
            a2,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
        }
    }

    fn from_rbj(b0: f64, b1: f64, b2: f64, a0: f64, a1: f64, a2: f64) -> Self {
        Self::from_coefficients(b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0)
    }

    /// Low-pass filter with cutoff `fc` Hz at `fs` Hz sample rate and
    /// quality factor `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc < fs / 2` and `q > 0`.
    pub fn low_pass(fc: f64, fs: f64, q: f64) -> Self {
        let (_sin, cos, alpha) = rbj_prelude(fc, fs, q);
        let b1 = 1.0 - cos;
        let b0 = b1 / 2.0;
        Self::from_rbj(b0, b1, b0, 1.0 + alpha, -2.0 * cos, 1.0 - alpha)
    }

    /// Band-pass filter (constant peak gain) centered at `fc` Hz.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc < fs / 2` and `q > 0`.
    pub fn band_pass(fc: f64, fs: f64, q: f64) -> Self {
        let (_sin, cos, alpha) = rbj_prelude(fc, fs, q);
        Self::from_rbj(alpha, 0.0, -alpha, 1.0 + alpha, -2.0 * cos, 1.0 - alpha)
    }

    /// Processes one sample.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Processes a whole buffer in place.
    pub fn process_buffer(&mut self, samples: &mut [f64]) {
        for s in samples.iter_mut() {
            *s = self.process(*s);
        }
    }

    /// Clears filter memory.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.x2 = 0.0;
        self.y1 = 0.0;
        self.y2 = 0.0;
    }
}

fn rbj_prelude(fc: f64, fs: f64, q: f64) -> (f64, f64, f64) {
    assert!(fc > 0.0 && fc < fs / 2.0, "cutoff must be in (0, fs/2)");
    assert!(q > 0.0, "q must be positive");
    let w0 = 2.0 * PI * fc / fs;
    let sin = w0.sin();
    let cos = w0.cos();
    let alpha = sin / (2.0 * q);
    (sin, cos, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::rms;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * freq * i as f64 / fs).sin())
            .collect()
    }

    /// Measure steady-state gain of a filter at a frequency (skipping the
    /// transient).
    fn gain_at(mut f: Biquad, freq: f64, fs: f64) -> f64 {
        let x = tone(freq, fs, 8_000);
        let y: Vec<f64> = x.iter().map(|&s| f.process(s)).collect();
        rms(&y[4_000..]) / rms(&x[4_000..])
    }

    const FS: f64 = 20_160.0;
    const Q: f64 = std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn low_pass_passes_low_blocks_high() {
        let lp = Biquad::low_pass(1_000.0, FS, Q);
        assert!(gain_at(lp, 100.0, FS) > 0.95);
        assert!(gain_at(lp, 6_000.0, FS) < 0.1);
    }

    #[test]
    fn band_pass_peaks_at_center() {
        let bp = Biquad::band_pass(2_000.0, FS, 2.0);
        let center = gain_at(bp, 2_000.0, FS);
        let below = gain_at(bp, 300.0, FS);
        let above = gain_at(bp, 7_500.0, FS);
        assert!(center > 0.9, "center gain {center}");
        assert!(below < 0.2, "below gain {below}");
        assert!(above < 0.35, "above gain {above}");
    }

    #[test]
    fn reset_clears_state() {
        let mut f = Biquad::low_pass(500.0, FS, Q);
        for i in 0..100 {
            f.process((i as f64).sin());
        }
        f.reset();
        // After reset, a zero input must produce zero output.
        assert_eq!(f.process(0.0), 0.0);
    }

    #[test]
    fn process_buffer_matches_sample_loop() {
        let mut a = Biquad::band_pass(1_500.0, FS, 1.0);
        let mut b = a;
        let x = tone(1_500.0, FS, 256);
        let ys: Vec<f64> = x.iter().map(|&s| a.process(s)).collect();
        let mut buf = x.clone();
        b.process_buffer(&mut buf);
        assert_eq!(ys, buf);
    }

    #[test]
    fn stable_for_long_runs() {
        let mut f = Biquad::low_pass(4_000.0, FS, Q);
        let mut max = 0.0f64;
        for i in 0..100_000 {
            let y = f.process(((i % 97) as f64 / 97.0) - 0.5);
            max = max.max(y.abs());
        }
        assert!(max < 10.0, "unstable: {max}");
    }

    #[test]
    #[should_panic(expected = "cutoff must be in")]
    fn rejects_cutoff_above_nyquist() {
        Biquad::low_pass(11_000.0, FS, Q);
    }
}
