//! # ensemble-core — automated ensemble extraction from acoustic streams
//!
//! The primary contribution of Kasten, McKinley & Gage (DEPSA/ICDCS
//! 2007): "a process that enables detection and extraction of meaningful
//! sequences, called **ensembles**, from acoustic data streams …
//! ensembles are time series sequences that recur, though perhaps
//! rarely. … An anomaly score greater than a specified threshold is
//! considered as indicating the start of an ensemble that continues
//! until the anomaly score falls below the threshold" (§1, §3).
//!
//! ## Contents
//!
//! - [`ops`] — every pipeline operator of the paper's Figure 5:
//!   `wav2rec`, `saxanomaly`, `trigger`, `cutter`, `reslice`,
//!   `welchwindow`, `float2cplx`, `dft`, `cabs`, `cutout`, `paa`,
//!   `rec2vect` (plus `readout`), each a `dynamic_river::Operator`;
//! - [`extract`] — [`extract::EnsembleExtractor`], a convenience API
//!   that runs the extraction operators over raw samples
//!   ([`extract`](extract::EnsembleExtractor::extract)) or any record
//!   source ([`extract_from`](extract::EnsembleExtractor::extract_from))
//!   and reads `cutter`'s ensemble scopes back into
//!   [`extract::Ensemble`] values;
//! - [`pipeline`] — assembles the full Figure 5 operator graph, and
//!   drives its featurization half over one ensemble
//!   ([`pipeline::featurize_ensemble`]);
//! - [`synth`] — the synthetic birdsong workload generator standing in
//!   for the paper's field recordings (see `DESIGN.md` substitutions):
//!   species-specific song grammars for the ten species of Table 1 over
//!   wind/noise ambience;
//! - [`dataset`] — corpus generation and the four experimental datasets
//!   (Pattern, Ensemble, PAA Pattern, PAA Ensemble) of Table 2;
//! - [`reduction`] — the §4 data-reduction accounting (the paper
//!   reports 80.6 %);
//! - [`render`] — text rendering of oscillograms/trigger traces for the
//!   figure-regeneration binaries.
//!
//! ## Quickstart
//!
//! ```
//! use ensemble_core::prelude::*;
//!
//! // Synthesize a 4-second clip of a Northern cardinal over ambience …
//! let clip = ClipSynthesizer::new(SynthConfig::short_test()).clip(SpeciesCode::Noca, 42);
//! // … and extract ensembles from it.
//! let extractor = EnsembleExtractor::new(ExtractorConfig::default());
//! let ensembles = extractor.extract(&clip.samples);
//! // The clip contains song bouts, so some ensembles should be found.
//! assert!(!ensembles.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod config;
pub mod dataset;
pub mod extract;
pub mod ops;
pub mod pipeline;
pub mod reduction;
pub mod render;
pub mod species;
pub mod synth;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use crate::config::ExtractorConfig;
    pub use crate::dataset::{Corpus, CorpusConfig, DatasetBundle};
    pub use crate::extract::{Ensemble, EnsembleExtractor};
    pub use crate::species::SpeciesCode;
    pub use crate::synth::{Clip, ClipSynthesizer, SongEvent, SynthConfig};
}

pub use classify::SpeciesClassifier;
pub use config::ExtractorConfig;
pub use extract::{Ensemble, EnsembleExtractor};
pub use species::SpeciesCode;

/// Record subtypes used by the acoustic pipeline.
pub mod subtype {
    /// Raw audio samples.
    pub const AUDIO: u16 = 1;
    /// Smoothed SAX anomaly scores (output of `saxanomaly`).
    pub const SCORE: u16 = 2;
    /// Trigger values, 0.0 or 1.0 (output of `trigger`).
    pub const TRIGGER: u16 = 3;
    /// Complex spectral values (output of `float2cplx`/`dft`).
    pub const SPECTRUM: u16 = 4;
    /// Power-spectrum magnitudes (output of `cabs` and later stages).
    pub const POWER: u16 = 5;
    /// Merged feature patterns (output of `rec2vect`).
    pub const PATTERN: u16 = 6;
}

/// Scope types used by the acoustic pipeline.
pub mod scope_type {
    /// An acoustic clip ("scope_clip" in the paper).
    pub const CLIP: u16 = 1;
    /// An extracted ensemble ("scope_ensemble" in the paper).
    pub const ENSEMBLE: u16 = 2;
}

/// Context keys attached to `OpenScope` records.
pub mod context_key {
    /// Sample rate in Hz of the audio inside a clip scope.
    pub const SAMPLE_RATE: &str = "sample_rate";
    /// First sample index (within the clip) of an ensemble scope.
    pub const START_SAMPLE: &str = "start_sample";
    /// Ground-truth species code (synthetic corpora only).
    pub const SPECIES: &str = "species";
}
