//! Short-time Fourier transform spectrograms.
//!
//! A spectrogram "depicts frequency on the vertical axis and time on the
//! horizontal axis; shading indicates the intensity of the signal at a
//! particular frequency and time" (paper §2, Figure 2). This module
//! computes the column data; rendering (ASCII or PGM) is provided for the
//! figure-regeneration binaries.

use crate::complex::Complex64;
use crate::fft::RealFft;
use crate::window::WindowKind;

/// Configuration for a spectrogram computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrogramConfig {
    /// Samples per analysis frame (the paper's record length, 840).
    pub frame_len: usize,
    /// Samples to advance between frames; `frame_len` for no overlap,
    /// `frame_len / 2` for the pipeline's resliced 50 % overlap.
    pub hop: usize,
    /// Sample rate in Hz, used for axis labeling.
    pub sample_rate: f64,
}

impl SpectrogramConfig {
    /// The pipeline's production geometry: 840-sample frames at 20.16 kHz
    /// with a Welch window and 50 % overlap.
    pub fn production() -> Self {
        SpectrogramConfig {
            frame_len: 840,
            hop: 420,
            sample_rate: 20_160.0,
        }
    }
}

impl Default for SpectrogramConfig {
    fn default() -> Self {
        Self::production()
    }
}

/// A computed spectrogram: magnitude columns over time.
///
/// # Example
///
/// ```
/// use river_dsp::{Spectrogram, SpectrogramConfig};
///
/// let cfg = SpectrogramConfig {
///     frame_len: 128,
///     hop: 64,
///     sample_rate: 1_000.0,
/// };
/// let samples: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.3).sin()).collect();
/// let spec = Spectrogram::compute(&samples, cfg);
/// assert_eq!(spec.bins(), 64); // one-sided spectrum
/// assert!(spec.columns() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Spectrogram {
    config: SpectrogramConfig,
    /// `columns x bins` magnitudes; column-major (each inner Vec is one
    /// time slice).
    data: Vec<Vec<f64>>,
}

impl Spectrogram {
    /// Computes the one-sided magnitude spectrogram of `samples`, each
    /// frame under a Welch window.
    ///
    /// Trailing samples that do not fill a whole frame are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `config.frame_len == 0` or `config.hop == 0`.
    pub fn compute(samples: &[f64], config: SpectrogramConfig) -> Self {
        assert!(config.frame_len > 0, "frame_len must be non-zero");
        assert!(config.hop > 0, "hop must be non-zero");
        let fft = RealFft::new(config.frame_len);
        let coeffs = WindowKind::Welch.coefficients(config.frame_len);
        let bins = config.frame_len / 2;
        let mut data = Vec::new();
        let mut mags = vec![0.0; config.frame_len];
        let mut scratch = vec![Complex64::ZERO; fft.scratch_len()];
        let mut start = 0;
        while start + config.frame_len <= samples.len() {
            // Window, transform, and take magnitudes in one fused pass
            // over reused scratch — one frame's output Vec is the only
            // per-column allocation.
            fft.magnitudes_into(
                &samples[start..start + config.frame_len],
                Some(&coeffs),
                &mut mags,
                &mut scratch,
            );
            data.push(mags[..bins].to_vec());
            start += config.hop;
        }
        Spectrogram { config, data }
    }

    /// Number of time columns.
    pub fn columns(&self) -> usize {
        self.data.len()
    }

    /// Number of frequency bins per column (one-sided).
    pub fn bins(&self) -> usize {
        self.config.frame_len / 2
    }

    /// The configuration this spectrogram was computed with.
    pub fn config(&self) -> &SpectrogramConfig {
        &self.config
    }

    /// Magnitudes of time column `t` (length [`bins`](Self::bins)).
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.columns()`.
    pub fn column(&self, t: usize) -> &[f64] {
        &self.data[t]
    }

    /// All columns, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<f64>> {
        self.data.iter()
    }

    /// Consumes the spectrogram, returning the raw column data.
    pub fn into_inner(self) -> Vec<Vec<f64>> {
        self.data
    }

    /// Frequency in Hz of bin `b`.
    pub fn bin_frequency(&self, b: usize) -> f64 {
        b as f64 * self.config.sample_rate / self.config.frame_len as f64
    }

    /// Returns a new spectrogram with each column reduced by a mapping
    /// function (e.g. PAA); the per-column bin count becomes
    /// `map(column).len()`.
    pub fn map_columns<F>(&self, mut map: F) -> Vec<Vec<f64>>
    where
        F: FnMut(&[f64]) -> Vec<f64>,
    {
        self.data.iter().map(|c| map(c)).collect()
    }

    /// Renders an ASCII-art view with `rows` frequency rows (downsampled,
    /// low frequencies at the bottom like the paper's figures) and one
    /// character per column, using a log-intensity ramp.
    pub fn render_ascii(&self, rows: usize) -> String {
        render_ascii(&self.data, rows)
    }
}

/// Renders arbitrary column data (e.g. a PAA-reduced spectrogram) as
/// ASCII art; `rows` output rows, low frequency at the bottom.
pub fn render_ascii(columns: &[Vec<f64>], rows: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    if columns.is_empty() || rows == 0 {
        return String::new();
    }
    let bins = columns[0].len();
    if bins == 0 {
        return String::new();
    }
    let max = columns
        .iter()
        .flat_map(|c| c.iter())
        .copied()
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut out = String::with_capacity((columns.len() + 1) * rows);
    for row in (0..rows).rev() {
        let lo = row * bins / rows;
        let hi = (((row + 1) * bins) / rows).max(lo + 1).min(bins);
        for col in columns {
            let band_max = col[lo..hi].iter().copied().fold(0.0, f64::max);
            // Log compression over ~4 decades.
            let norm = if band_max <= 0.0 {
                0.0
            } else {
                ((band_max / max).log10() / 4.0 + 1.0).clamp(0.0, 1.0)
            };
            let idx = ((norm * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Serializes column data as a binary PGM (P5) grayscale image, low
/// frequencies at the bottom; suitable for viewing the paper's figures.
pub fn render_pgm(columns: &[Vec<f64>]) -> Vec<u8> {
    let width = columns.len();
    let height = columns.first().map_or(0, Vec::len);
    let mut out = format!("P5\n{width} {height}\n255\n").into_bytes();
    if width == 0 || height == 0 {
        return out;
    }
    let max = columns
        .iter()
        .flat_map(|c| c.iter())
        .copied()
        .fold(f64::MIN_POSITIVE, f64::max);
    for row in (0..height).rev() {
        for col in columns {
            let v = col.get(row).copied().unwrap_or(0.0);
            let norm = if v <= 0.0 {
                0.0
            } else {
                ((v / max).log10() / 4.0 + 1.0).clamp(0.0, 1.0)
            };
            out.push((norm * 255.0) as u8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(freq: f64, rate: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * freq * i as f64 / rate).sin())
            .collect()
    }

    #[test]
    fn tone_energy_appears_in_correct_bin() {
        let cfg = SpectrogramConfig {
            frame_len: 256,
            hop: 256,
            sample_rate: 1_024.0,
        };
        // 128 Hz at 1024 Hz rate -> bin 32 of 256.
        let samples = tone(128.0, 1_024.0, 2_048);
        let spec = Spectrogram::compute(&samples, cfg);
        for t in 0..spec.columns() {
            let col = spec.column(t);
            let peak_bin = col
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(peak_bin, 32, "column {t}");
        }
    }

    #[test]
    fn column_count_respects_hop() {
        let cfg = SpectrogramConfig {
            frame_len: 100,
            hop: 50,
            sample_rate: 1_000.0,
        };
        let spec = Spectrogram::compute(&vec![0.0; 1_000], cfg);
        // Frames start at 0,50,...,900 -> 19 columns.
        assert_eq!(spec.columns(), 19);
        assert_eq!(spec.bins(), 50);
    }

    #[test]
    fn short_input_yields_empty() {
        let spec = Spectrogram::compute(&[0.0; 10], SpectrogramConfig::production());
        assert_eq!(spec.columns(), 0);
    }

    #[test]
    fn axis_mapping() {
        let spec = Spectrogram::compute(&vec![0.0; 1400], SpectrogramConfig::production());
        assert_eq!(spec.bin_frequency(50), 1_200.0);
    }

    #[test]
    fn ascii_render_shape() {
        let cfg = SpectrogramConfig {
            frame_len: 64,
            hop: 64,
            sample_rate: 640.0,
        };
        let samples = tone(100.0, 640.0, 640);
        let spec = Spectrogram::compute(&samples, cfg);
        let art = spec.render_ascii(8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8);
        for l in &lines {
            assert_eq!(l.len(), spec.columns());
        }
    }

    #[test]
    fn ascii_render_empty_input() {
        assert_eq!(render_ascii(&[], 8), "");
        let spec = Spectrogram::compute(&[0.0; 10], SpectrogramConfig::production());
        assert_eq!(spec.render_ascii(0), "");
    }

    #[test]
    fn pgm_header_and_size() {
        let columns = vec![vec![0.0, 1.0], vec![0.5, 0.25], vec![1.0, 0.0]];
        let pgm = render_pgm(&columns);
        let header = b"P5\n3 2\n255\n";
        assert_eq!(&pgm[..header.len()], header);
        assert_eq!(pgm.len(), header.len() + 6);
    }

    #[test]
    fn map_columns_applies_reduction() {
        let cfg = SpectrogramConfig {
            frame_len: 8,
            hop: 8,
            sample_rate: 8.0,
        };
        let spec = Spectrogram::compute(&[1.0; 32], cfg);
        let halved = spec.map_columns(|c| c.iter().step_by(2).copied().collect());
        assert_eq!(halved.len(), spec.columns());
        assert_eq!(halved[0].len(), spec.bins() / 2);
    }

    #[test]
    fn silence_is_all_zero_columns() {
        let spec = Spectrogram::compute(&vec![0.0; 2_100], SpectrogramConfig::production());
        assert!(spec.columns() >= 1);
        assert!(spec.into_inner().iter().flatten().all(|&m| m == 0.0));
    }
}
