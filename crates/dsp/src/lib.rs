//! # river-dsp — signal-processing substrate
//!
//! This crate provides the digital signal processing primitives that the
//! acoustic ensemble-extraction pipeline of Kasten, McKinley & Gage
//! (*Automated Ensemble Extraction and Analysis of Acoustic Data Streams*,
//! DEPSA/ICDCS 2007) is built on:
//!
//! - [`Complex64`] arithmetic and the [`fft`] module (mixed-radix FFT for
//!   7-smooth lengths, Bluestein for the rest, and a naive reference DFT)
//!   behind the pipeline's `spectrum` stage (the paper's `dft`);
//! - the [`window`], the **Welch window** that `spectrum` applies (the
//!   paper's `welchwindow`) to minimize record edge effects;
//! - [`wav`], a from-scratch RIFF/WAVE codec standing in for the field
//!   stations' clip format (`wav2rec` operator);
//! - [`spectrogram`], the STFT used to render the paper's Figure 2/3
//!   spectrograms;
//! - [`stats`], streaming statistics (Welford, sliding windows, moving
//!   averages) that the adaptive `trigger` operator and the anomaly
//!   smoother rely on;
//! - [`filter`] utilities used by the synthetic workload generator.
//!
//! Everything is implemented from scratch: no FFT, audio or statistics
//! crates are used.
//!
//! ## Example
//!
//! ```
//! use river_dsp::fft::Fft;
//! use river_dsp::Complex64;
//!
//! // Transform an 840-sample record (the pipeline's production record size).
//! let fft = Fft::new(840);
//! let time: Vec<Complex64> = (0..840)
//!     .map(|i| Complex64::new((i as f64 * 0.1).sin(), 0.0))
//!     .collect();
//! let freq = fft.forward(&time);
//! assert_eq!(freq.len(), 840);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod fft;
pub mod filter;
pub mod signal;
pub mod spectrogram;
pub mod stats;
pub mod wav;
pub mod window;

pub use complex::Complex64;
pub use fft::{Fft, RealFft};
pub use spectrogram::{Spectrogram, SpectrogramConfig};
pub use stats::{MovingAverage, SlidingStats, Welford};
pub use wav::{WavError, WavReader, WavSpec, WavWriter};
pub use window::WindowKind;
