//! Pipeline configuration.
//!
//! Defaults reproduce the paper's experimental parameters (§3–4): SAX
//! anomaly window 100 samples, alphabet 8, moving-average window 2250
//! samples, trigger threshold 5σ, cutout ≈[1.2 kHz, 9.6 kHz], optional
//! PAA ×10, patterns of 3 records = 0.125 s = 1050 features.
//!
//! The record geometry (20.16 kHz, 840-sample records, 24 Hz bins) is
//! reverse-engineered from the published feature arithmetic — see
//! `DESIGN.md`.

use river_sax::anomaly::{AnomalyConfig, Normalization};

/// Full configuration for ensemble extraction and featurization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractorConfig {
    /// Audio sample rate in Hz (20 160 in this reproduction).
    pub sample_rate: f64,
    /// Samples per pipeline record (840 ⇒ 24 Hz DFT bins).
    pub record_len: usize,
    /// SAX anomaly window size in samples (paper: 100).
    pub anomaly_window: usize,
    /// SAX alphabet size (paper: 8).
    pub alphabet: usize,
    /// Bitmap n-gram length (Kumar et al. use 1–3; 2 here).
    pub ngram: usize,
    /// Sliding window (samples) for streaming Z-normalization before
    /// symbol quantization; `0` selects whole-stream (global
    /// incremental) normalization. SAX Z-normalizes each subsequence
    /// (paper §2); a sliding window is the streaming equivalent and
    /// keeps the quiet-time score baseline independent of loud events.
    pub norm_window: usize,
    /// Moving-average window over anomaly scores (paper: 2250).
    pub ma_window: usize,
    /// Trigger threshold in standard deviations from μ₀ (paper: 5; "the
    /// number of standard deviations is specific to the particular data
    /// set or application").
    pub trigger_sigmas: f64,
    /// Once fired, the trigger stays high until the score remains
    /// within the band for this many consecutive samples — bridging
    /// syllable gaps inside one song bout.
    pub trigger_hold: usize,
    /// Low edge of the `cutout` band in Hz (paper: ≈1.2 kHz).
    pub cutout_low_hz: f64,
    /// High edge of the `cutout` band in Hz (paper: ≈9.6 kHz).
    pub cutout_high_hz: f64,
    /// PAA reduction factor for the PAA datasets (paper: 10).
    pub paa_factor: usize,
    /// Spectral records merged per pattern (paper: 3 ⇒ 0.125 s).
    pub pattern_records: usize,
    /// Insert 50 %-overlap records (`reslice`) before windowing. The
    /// figure pipelines enable this; the dataset geometry keeps it off
    /// so that 3 records span exactly 0.125 s (see `DESIGN.md`).
    pub reslice: bool,
    /// Apply logarithmic magnitude compression (`ln(1 + 100·x)`) to the
    /// spectral features. This "equalizes similar acoustic patterns that
    /// differ in signal strength" (the paper's stated reason for
    /// Z-normalization, §2) at the pattern level; see `DESIGN.md`.
    pub log_scale: bool,
    /// Minimum ensemble length in samples; shorter trigger bursts are
    /// discarded as noise (as is any burst under one record, which has
    /// no whole record for `cutter` to emit).
    pub min_ensemble_samples: usize,
}

impl ExtractorConfig {
    /// The paper's parameters on the reproduction's 20.16 kHz geometry.
    pub fn paper() -> Self {
        ExtractorConfig {
            sample_rate: 20_160.0,
            record_len: 840,
            anomaly_window: 100,
            alphabet: 8,
            ngram: 2,
            norm_window: 8_400,
            ma_window: 2_250,
            trigger_sigmas: 3.0,
            trigger_hold: 4_200,
            cutout_low_hz: 1_200.0,
            cutout_high_hz: 9_600.0,
            paa_factor: 10,
            pattern_records: 3,
            reslice: false,
            log_scale: true,
            min_ensemble_samples: 840,
        }
    }

    /// The [`AnomalyConfig`] slice of this configuration.
    pub fn anomaly_config(&self) -> AnomalyConfig {
        AnomalyConfig {
            window: self.anomaly_window,
            alphabet: self.alphabet,
            ngram: self.ngram,
            normalization: if self.norm_window == 0 {
                Normalization::Global
            } else {
                Normalization::Sliding(self.norm_window)
            },
        }
    }

    /// DFT bin width in Hz for this geometry.
    pub fn bin_hz(&self) -> f64 {
        self.sample_rate / self.record_len as f64
    }

    /// Index of the first kept DFT bin (`cutout` low edge).
    pub fn cutout_low_bin(&self) -> usize {
        (self.cutout_low_hz / self.bin_hz()).round() as usize
    }

    /// One past the last kept DFT bin (`cutout` high edge).
    pub fn cutout_high_bin(&self) -> usize {
        (self.cutout_high_hz / self.bin_hz()).round() as usize
    }

    /// Kept bins per record after `cutout`.
    pub fn bins_per_record(&self) -> usize {
        self.cutout_high_bin() - self.cutout_low_bin()
    }

    /// Features per merged pattern without PAA (the paper's 1050).
    pub fn pattern_features(&self) -> usize {
        self.bins_per_record() * self.pattern_records
    }

    /// Features per merged pattern with PAA (the paper's 105).
    pub fn paa_pattern_features(&self) -> usize {
        self.bins_per_record().div_ceil(self.paa_factor) * self.pattern_records
    }

    /// Seconds of audio represented by one pattern (the paper's 0.125 s
    /// when `reslice` is off).
    pub fn pattern_seconds(&self) -> f64 {
        (self.pattern_records * self.record_len) as f64 / self.sample_rate
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of range (zero lengths, inverted
    /// cutout band, band beyond Nyquist).
    pub fn validate(&self) {
        assert!(self.sample_rate > 0.0, "sample_rate must be positive");
        assert!(self.record_len > 0, "record_len must be non-zero");
        assert!(self.anomaly_window > 0, "anomaly_window must be non-zero");
        assert!(self.ma_window > 0, "ma_window must be non-zero");
        assert!(self.trigger_sigmas > 0.0, "trigger_sigmas must be positive");
        assert!(
            self.cutout_low_hz < self.cutout_high_hz,
            "cutout band inverted"
        );
        assert!(
            self.cutout_high_hz <= self.sample_rate / 2.0,
            "cutout band beyond Nyquist"
        );
        assert!(self.paa_factor > 0, "paa_factor must be non-zero");
        assert!(self.pattern_records > 0, "pattern_records must be non-zero");
    }
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_reproduces_published_numbers() {
        let c = ExtractorConfig::paper();
        c.validate();
        assert_eq!(c.bin_hz(), 24.0);
        assert_eq!(c.cutout_low_bin(), 50); // 1.2 kHz
        assert_eq!(c.cutout_high_bin(), 400); // 9.6 kHz
        assert_eq!(c.bins_per_record(), 350);
        assert_eq!(c.pattern_features(), 1_050); // paper §4
        assert_eq!(c.paa_pattern_features(), 105); // paper §4
        assert!((c.pattern_seconds() - 0.125).abs() < 1e-12); // paper §4
    }

    #[test]
    fn anomaly_config_mirrors_fields() {
        let c = ExtractorConfig::paper();
        let a = c.anomaly_config();
        assert_eq!(a.window, 100);
        assert_eq!(a.alphabet, 8);
    }

    #[test]
    #[should_panic(expected = "cutout band inverted")]
    fn validate_rejects_inverted_band() {
        let c = ExtractorConfig {
            cutout_low_hz: 9_600.0,
            cutout_high_hz: 1_200.0,
            ..ExtractorConfig::paper()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "beyond Nyquist")]
    fn validate_rejects_band_beyond_nyquist() {
        let c = ExtractorConfig {
            cutout_high_hz: 9_000_000.0,
            ..ExtractorConfig::paper()
        };
        c.validate();
    }
}
