//! Symbolic Aggregate approXimation (SAX).
//!
//! SAX converts a (Z-normalized, PAA-reduced) sequence to symbols chosen
//! so that each "appears with equal probability based on the assumption
//! that the distribution of time series subsequences is Gaussian" (paper
//! §2, Figure 4). Symbols are small integers `0..alphabet`, matching the
//! paper's use of integers in Figure 4.

use crate::gaussian::sax_breakpoints;
use crate::paa::paa;
use crate::znorm::znormalize;
use std::fmt;

/// A SAX symbol: an index into the alphabet, `0` = lowest amplitude
/// band.
pub type Symbol = u8;

/// A SAX word: the symbol sequence for one subsequence.
///
/// # Example
///
/// ```
/// use river_sax::{SaxEncoder, SaxWord};
///
/// let enc = SaxEncoder::new(5, 9);
/// let series: Vec<f64> = (0..27).map(|i| (i as f64 * 0.7).sin()).collect();
/// let word = enc.encode(&series);
/// assert_eq!(word.len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SaxWord(pub Vec<Symbol>);

impl SaxWord {
    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when the word has no symbols.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The symbols as a slice.
    pub fn symbols(&self) -> &[Symbol] {
        &self.0
    }
}

impl fmt::Display for SaxWord {
    /// Formats as the 1-based integer string used in the paper's
    /// Figure 4, e.g. `2 3 2 4`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in &self.0 {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}", s + 1)?;
            first = false;
        }
        Ok(())
    }
}

impl From<Vec<Symbol>> for SaxWord {
    fn from(v: Vec<Symbol>) -> Self {
        SaxWord(v)
    }
}

/// Encodes sequences into SAX words.
#[derive(Debug, Clone)]
pub struct SaxEncoder {
    alphabet: usize,
    word_len: usize,
    breakpoints: Vec<f64>,
}

impl SaxEncoder {
    /// Creates an encoder with the given alphabet size and output word
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet < 2`, `alphabet > 256`, or `word_len == 0`.
    pub fn new(alphabet: usize, word_len: usize) -> Self {
        assert!((2..=256).contains(&alphabet), "alphabet must be in 2..=256");
        assert!(word_len > 0, "word length must be non-zero");
        SaxEncoder {
            alphabet,
            word_len,
            breakpoints: sax_breakpoints(alphabet),
        }
    }

    /// The alphabet size.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// The output word length.
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Quantizes one already-normalized value to a symbol.
    ///
    /// Values below the first breakpoint map to symbol 0; above the last
    /// to `alphabet - 1`.
    #[inline]
    pub fn quantize(&self, z: f64) -> Symbol {
        // partition_point returns the count of breakpoints <= z, which is
        // exactly the symbol index.
        self.breakpoints.partition_point(|&b| b <= z) as Symbol
    }

    /// Full SAX pipeline for a raw subsequence: Z-normalize → PAA to
    /// `word_len` segments → quantize.
    ///
    /// # Panics
    ///
    /// Panics if `series.len() < self.word_len()`.
    pub fn encode(&self, series: &[f64]) -> SaxWord {
        let z = znormalize(series);
        let reduced = paa(&z, self.word_len);
        SaxWord(reduced.iter().map(|&v| self.quantize(v)).collect())
    }

    /// Encodes an already-normalized, already-reduced PAA vector
    /// (used when the caller manages normalization, e.g. Figure 4's
    /// demonstration, or the streaming symbolizer).
    pub fn encode_paa(&self, reduced: &[f64]) -> SaxWord {
        SaxWord(reduced.iter().map(|&v| self.quantize(v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_respects_breakpoints() {
        let enc = SaxEncoder::new(4, 4);
        // Alphabet 4 breakpoints: [-0.6745, 0, 0.6745]
        assert_eq!(enc.quantize(-2.0), 0);
        assert_eq!(enc.quantize(-0.5), 1);
        assert_eq!(enc.quantize(0.5), 2);
        assert_eq!(enc.quantize(2.0), 3);
    }

    #[test]
    fn quantize_boundary_goes_to_upper_cell() {
        let enc = SaxEncoder::new(4, 4);
        assert_eq!(enc.quantize(0.0), 2);
    }

    #[test]
    fn symbols_roughly_equiprobable_on_gaussian_like_data() {
        // A slowly sweeping sinusoid covers amplitudes smoothly; after
        // Z-normalization the symbol histogram must not be degenerate.
        let enc = SaxEncoder::new(8, 1000);
        let series: Vec<f64> = (0..4000).map(|i| (i as f64 * 0.013).sin()).collect();
        let word = enc.encode(&series[..1000]);
        let mut counts = [0usize; 8];
        for &s in word.symbols() {
            counts[s as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "symbol {i} never used: {counts:?}");
        }
    }

    #[test]
    fn constant_series_maps_to_middle_symbols() {
        let enc = SaxEncoder::new(8, 4);
        let word = enc.encode(&[5.0; 16]);
        // Z-norm of constant = 0s; 0 quantizes to symbol 4 (upper middle of 8).
        assert_eq!(word.symbols(), &[4, 4, 4, 4]);
    }

    #[test]
    fn amplitude_invariance() {
        let enc = SaxEncoder::new(6, 8);
        let base: Vec<f64> = (0..64).map(|i| (i as f64 * 0.41).sin()).collect();
        let loud: Vec<f64> = base.iter().map(|x| x * 50.0 + 7.0).collect();
        assert_eq!(enc.encode(&base), enc.encode(&loud));
    }

    #[test]
    fn display_matches_paper_notation() {
        let w = SaxWord(vec![1, 2, 1, 3]);
        assert_eq!(w.to_string(), "2 3 2 4");
    }

    #[test]
    fn figure4_style_conversion() {
        // Reproduce the shape of the paper's Figure 4: an 18-segment PAA
        // sequence over alphabet 5 yields symbols 1..=5.
        let enc = SaxEncoder::new(5, 18);
        let series: Vec<f64> = (0..180)
            .map(|i| (i as f64 * 0.08).sin() + 0.3 * (i as f64 * 0.31).cos())
            .collect();
        let word = enc.encode(&series);
        assert_eq!(word.len(), 18);
        assert!(word.symbols().iter().all(|&s| s < 5));
    }

    #[test]
    #[should_panic(expected = "alphabet must be in")]
    fn rejects_giant_alphabet() {
        SaxEncoder::new(300, 4);
    }
}
