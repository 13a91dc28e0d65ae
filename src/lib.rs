//! # acoustic-ensembles
//!
//! Facade crate for the reproduction of Kasten, McKinley & Gage,
//! *Automated Ensemble Extraction and Analysis of Acoustic Data Streams*
//! (DEPSA / ICDCS 2007). Re-exports the workspace crates under one roof:
//!
//! - [`dsp`] — signal processing substrate (FFT, windows, WAV, spectrograms)
//! - [`sax`] — PAA / SAX / bitmap anomaly substrate
//! - [`meso`] — the MESO perceptual-memory classifier
//! - [`river`] — the Dynamic River distributed pipeline
//! - [`core`] — ensemble extraction, birdsong synthesis, datasets
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`:
//!
//! ```
//! use acoustic_ensembles::core::prelude::*;
//!
//! let synth = ClipSynthesizer::new(SynthConfig::paper());
//! let clip = synth.clip(SpeciesCode::Noca, 42);
//! let extractor = EnsembleExtractor::new(ExtractorConfig::default());
//! let ensembles = extractor.extract(&clip.samples);
//! assert!(!ensembles.is_empty());
//! println!("{} ensembles", ensembles.len());
//! ```
//!
//! `extract` is the `saxanomaly` → `trigger` → `cutter` operator chain
//! over the clip's records; `EnsembleExtractor::extract_from` runs the
//! same chain over any record `Source` — a live feed, a socket — and
//! hands each ensemble over as its trigger releases.

pub use dynamic_river as river;
pub use ensemble_core as core;
pub use meso;
pub use river_dsp as dsp;
pub use river_sax as sax;
