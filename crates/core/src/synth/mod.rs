//! Synthetic acoustic workload generation.
//!
//! This module stands in for the paper's field recordings (Kellogg
//! Biological Station sensor stations): it composes 30-second clips of
//! ambient noise (wind, broadband floor, low-frequency human activity)
//! with song bouts of one of the ten Table 1 species, and records the
//! ground-truth position of every bout so dataset construction can label
//! extracted ensembles the way the paper's human listener did (see
//! `DESIGN.md`, substitutions).

pub mod grammar;
pub mod noise;
pub mod primitives;
#[cfg(test)]
mod tone;

use crate::species::SpeciesCode;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use river_dsp::signal::mix_into;

/// Ground truth for one song bout placed in a clip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SongEvent {
    /// The vocalizing species.
    pub species: SpeciesCode,
    /// First sample of the bout.
    pub start: usize,
    /// One past the last sample of the bout.
    pub end: usize,
}

impl SongEvent {
    /// Number of samples the bout overlaps with `[start, end)`.
    pub fn overlap(&self, start: usize, end: usize) -> usize {
        let lo = self.start.max(start);
        let hi = self.end.min(end);
        hi.saturating_sub(lo)
    }
}

/// A synthesized clip with ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    /// Mono samples in `[-1, 1]`.
    pub samples: Vec<f64>,
    /// Sample rate in Hz.
    pub sample_rate: f64,
    /// Song bouts present, in time order.
    pub events: Vec<SongEvent>,
}

impl Clip {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// The species whose bout overlaps `[start, end)` the most, if any
    /// bout overlaps at all — the synthetic stand-in for the paper's
    /// human listener validating that an ensemble is a bird vocalization
    /// of a particular species.
    pub fn label_for_range(&self, start: usize, end: usize) -> Option<SpeciesCode> {
        self.events
            .iter()
            .map(|e| (e.species, e.overlap(start, end)))
            .filter(|&(_, o)| o > 0)
            .max_by_key(|&(_, o)| o)
            .map(|(s, _)| s)
    }
}

/// Parameters for clip synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Sample rate in Hz (pipeline production rate: 20 160).
    pub sample_rate: f64,
    /// Clip length in seconds (paper: ≈30 s).
    pub clip_seconds: f64,
    /// Minimum song bouts per clip.
    pub min_songs: usize,
    /// Maximum song bouts per clip.
    pub max_songs: usize,
    /// Peak amplitude range for song bouts (randomized per bout).
    pub song_gain: (f64, f64),
    /// Wind level (peak amplitude of the gusting bed).
    pub wind_level: f64,
    /// Broadband noise floor peak amplitude.
    pub floor_level: f64,
    /// Human-activity hum peak amplitude.
    pub activity_level: f64,
}

impl SynthConfig {
    /// Paper-scale clips: 30 s with 2–4 bouts.
    ///
    /// Ambience levels are set so the broadband mic/preamp hiss
    /// (`floor_level`) dominates quiet segments: that is what keeps the
    /// SAX-bitmap anomaly baseline low and stable, exactly as in field
    /// recordings. Wind rumble and human-activity hum sit below or near
    /// the hiss; strong activity bursts can still trip the trigger and
    /// produce non-bird ensembles, which dataset construction rejects
    /// the way the paper's human listener did.
    pub fn paper() -> Self {
        SynthConfig {
            sample_rate: 20_160.0,
            clip_seconds: 30.0,
            min_songs: 2,
            max_songs: 4,
            song_gain: (0.25, 0.55),
            wind_level: 0.002,
            floor_level: 0.010,
            activity_level: 0.004,
        }
    }

    /// Small clips (4 s, 1–2 bouts) for fast tests and doctests.
    pub fn short_test() -> Self {
        SynthConfig {
            clip_seconds: 4.0,
            min_songs: 1,
            max_songs: 2,
            ..Self::paper()
        }
    }

    /// Samples per clip.
    pub fn clip_samples(&self) -> usize {
        (self.clip_seconds * self.sample_rate) as usize
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Deterministic clip synthesizer.
///
/// # Example
///
/// ```
/// use ensemble_core::prelude::*;
///
/// let synth = ClipSynthesizer::new(SynthConfig::short_test());
/// let clip = synth.clip(SpeciesCode::Tuti, 7);
/// assert!(!clip.events.is_empty());
/// assert!(clip.duration() > 3.9);
/// // Same seed, same clip.
/// assert_eq!(synth.clip(SpeciesCode::Tuti, 7), clip);
/// ```
#[derive(Debug, Clone)]
pub struct ClipSynthesizer {
    config: SynthConfig,
}

impl ClipSynthesizer {
    /// Creates a synthesizer.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration (zero rate/length, empty
    /// song-count range).
    pub fn new(config: SynthConfig) -> Self {
        assert!(config.sample_rate > 0.0, "sample_rate must be positive");
        assert!(config.clip_seconds > 0.0, "clip_seconds must be positive");
        assert!(
            config.min_songs <= config.max_songs,
            "min_songs must not exceed max_songs"
        );
        assert!(
            config.song_gain.0 <= config.song_gain.1,
            "song gain range inverted"
        );
        ClipSynthesizer { config }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Synthesizes a clip containing bouts of a single `species`
    /// (matching the paper's datasets, where "each extracted ensemble
    /// contains the vocalization from one of the 10 bird species").
    pub fn clip(&self, species: SpeciesCode, seed: u64) -> Clip {
        // Salt the seed with the species so the same index yields
        // different ambience per species.
        let mut rng = StdRng::seed_from_u64(seed ^ ((species.label() as u64 + 1) << 48));
        let c = &self.config;
        let n = c.clip_samples();
        let fs = c.sample_rate;

        let mut samples = noise::ambient_bed(
            n,
            fs,
            c.wind_level,
            c.floor_level,
            c.activity_level,
            &mut rng,
        );

        let bouts = rng.random_range(c.min_songs..=c.max_songs);
        let mut events: Vec<SongEvent> = Vec::with_capacity(bouts);
        for _ in 0..bouts {
            let song = grammar::song(species, fs, &mut rng);
            if song.len() >= n {
                continue;
            }
            // Try to place without overlapping existing bouts (a small
            // guard band keeps distinct ensembles distinct).
            let guard = (0.5 * fs) as usize;
            // 40 placement attempts; if all clash the clip is too
            // crowded and the bout is skipped.
            for _ in 0..40 {
                let start = rng.random_range(0..n - song.len());
                let end = start + song.len();
                let clash = events
                    .iter()
                    .any(|e| e.overlap(start.saturating_sub(guard), end + guard) > 0);
                if !clash {
                    let gain = rng.random_range(c.song_gain.0..=c.song_gain.1);
                    mix_into(&mut samples, &song, start, gain);
                    events.push(SongEvent {
                        species,
                        start,
                        end,
                    });
                    break;
                }
            }
        }
        events.sort_by_key(|e| e.start);

        // Keep samples within [-1, 1] without altering dynamics unless
        // needed.
        let peak = river_dsp::signal::peak(&samples);
        if peak > 1.0 {
            for s in &mut samples {
                *s /= peak;
            }
        }
        Clip {
            samples,
            sample_rate: fs,
            events,
        }
    }

    /// Synthesizes an ambience-only clip (no bird) — useful as a
    /// negative control.
    pub fn silence_clip(&self, seed: u64) -> Clip {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_A5A5_0000);
        let c = &self.config;
        let samples = noise::ambient_bed(
            c.clip_samples(),
            c.sample_rate,
            c.wind_level,
            c.floor_level,
            c.activity_level,
            &mut rng,
        );
        Clip {
            samples,
            sample_rate: c.sample_rate,
            events: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth() -> ClipSynthesizer {
        ClipSynthesizer::new(SynthConfig::short_test())
    }

    #[test]
    fn clip_has_expected_length_and_events() {
        let clip = synth().clip(SpeciesCode::Noca, 1);
        assert_eq!(clip.samples.len(), SynthConfig::short_test().clip_samples());
        assert!(!clip.events.is_empty());
        for e in &clip.events {
            assert!(e.end <= clip.samples.len());
            assert!(e.start < e.end);
            assert_eq!(e.species, SpeciesCode::Noca);
        }
    }

    #[test]
    fn events_do_not_overlap() {
        let clip = synth().clip(SpeciesCode::Hofi, 3);
        for w in clip.events.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn song_regions_are_louder_than_ambience() {
        let clip = synth().clip(SpeciesCode::Noca, 5);
        let e = clip.events[0];
        let song_rms = river_dsp::signal::rms(&clip.samples[e.start..e.end]);
        // Ambience measured away from all events.
        let mut quiet_rms = None;
        let win = 4_000;
        let mut pos = 0;
        while pos + win <= clip.samples.len() {
            if clip.events.iter().all(|e| e.overlap(pos, pos + win) == 0) {
                quiet_rms = Some(river_dsp::signal::rms(&clip.samples[pos..pos + win]));
                break;
            }
            pos += win;
        }
        let quiet = quiet_rms.expect("a quiet window exists");
        assert!(song_rms > 1.5 * quiet, "song {song_rms} vs quiet {quiet}");
    }

    #[test]
    fn label_for_range_matches_events() {
        let clip = synth().clip(SpeciesCode::Wbnu, 8);
        let e = clip.events[0];
        assert_eq!(
            clip.label_for_range(e.start + 10, e.start + 100),
            Some(SpeciesCode::Wbnu)
        );
        assert_eq!(clip.label_for_range(0, e.start.min(10)), None);
    }

    #[test]
    fn samples_stay_in_unit_range() {
        for s in SpeciesCode::ALL {
            let clip = synth().clip(s, 11);
            assert!(river_dsp::signal::peak(&clip.samples) <= 1.0 + 1e-12, "{s}");
        }
    }

    #[test]
    fn silence_clip_has_no_events() {
        let clip = synth().silence_clip(4);
        assert!(clip.events.is_empty());
        assert!(river_dsp::signal::rms(&clip.samples) > 0.0); // ambience present
    }

    #[test]
    fn different_seeds_differ() {
        let a = synth().clip(SpeciesCode::Amgo, 1);
        let b = synth().clip(SpeciesCode::Amgo, 2);
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    #[should_panic(expected = "min_songs must not exceed")]
    fn rejects_inverted_song_range() {
        ClipSynthesizer::new(SynthConfig {
            min_songs: 5,
            max_songs: 2,
            ..SynthConfig::short_test()
        });
    }
}
