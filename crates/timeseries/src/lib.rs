//! # river-sax — time-series representation substrate
//!
//! Implements the time-series machinery of Kasten, McKinley & Gage
//! (DEPSA/ICDCS 2007, §2):
//!
//! - [`znorm`] — Z-normalization, "equalizing similar acoustic patterns
//!   that differ in signal strength";
//! - [`paa`](mod@paa) — Piecewise Aggregate Approximation (Keogh et al.; Yi &
//!   Faloutsos), which "smoothes intra-signal variation and reduces
//!   pattern dimensionality";
//! - [`sax`] — Symbolic Aggregate approXimation (Lin et al.), mapping PAA
//!   segments to symbols that are equiprobable under a Gaussian
//!   assumption;
//! - [`bitmap`] — SAX bitmaps (Kumar et al.): n-gram frequency matrices
//!   whose Euclidean distance yields an anomaly score;
//! - [`anomaly`] — the **streaming** lag/lead-window bitmap anomaly
//!   detector used by the paper's `saxanomaly` operator (single scan,
//!   O(1) state update per sample).
//!
//! ## Example: streaming anomaly scores
//!
//! ```
//! use river_sax::anomaly::{AnomalyConfig, BitmapAnomaly};
//!
//! let cfg = AnomalyConfig { window: 32, alphabet: 4, ngram: 2, ..AnomalyConfig::default() };
//! let mut detector = BitmapAnomaly::new(cfg);
//! let mut scores = Vec::new();
//! for i in 0..500 {
//!     // Quiet noise with a burst in the middle.
//!     let x = if (250..280).contains(&i) { (i as f64).sin() * 5.0 } else { (i as f64 * 7.7).sin() * 0.1 };
//!     scores.push(detector.push(x));
//! }
//! let burst_peak = scores[250..300].iter().cloned().fold(0.0, f64::max);
//! let quiet_peak = scores[100..200].iter().cloned().fold(0.0, f64::max);
//! assert!(burst_peak > quiet_peak);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod bitmap;
pub mod gaussian;
pub mod paa;
pub mod sax;
pub mod znorm;

pub use anomaly::{AnomalyConfig, BitmapAnomaly};
pub use bitmap::SaxBitmap;
pub use paa::paa;
pub use sax::{SaxEncoder, SaxWord};
pub use znorm::znormalize;
