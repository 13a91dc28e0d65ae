//! Property-based tests for the SAX substrate.

use rand::RngExt;
use river_sax::anomaly::{anomaly_scores, AnomalyConfig, Normalization};
use river_sax::bitmap::SaxBitmap;
use river_sax::gaussian::{inv_norm_cdf, sax_breakpoints};
use river_sax::paa::{paa, paa_by_factor};
use river_sax::sax::SaxEncoder;
use river_sax::znorm::znormalize;

/// CDF of the standard normal distribution: Abramowitz & Stegun 7.1.26
/// for `erf`, |error| < 1.5e-7 — the independent yardstick the
/// breakpoint quantiles are checked against.
fn norm_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * x.abs() / std::f64::consts::SQRT_2);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x / 2.0).exp();
    if x >= 0.0 {
        0.5 * (1.0 + y)
    } else {
        0.5 * (1.0 - y)
    }
}

/// Z-normalization always yields zero mean and unit variance (or all
/// zeros for constant input).
#[test]
fn znorm_invariants() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 2..256, |r| r.random_range(-1e4..1e4));
        let z = znormalize(&xs);
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-6);
        let var: f64 = z.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / z.len() as f64;
        assert!(var < 1.0 + 1e-6);
        // Either unit variance or the degenerate all-zero case.
        assert!((var - 1.0).abs() < 1e-6 || z.iter().all(|&v| v == 0.0));
    });
}

/// PAA preserves the mean of the signal for any segment count.
#[test]
fn paa_preserves_mean() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 4..256, |r| r.random_range(-1e3..1e3));
        let frac = rng.random_range(0.05..1.0);
        let segments = ((xs.len() as f64 * frac) as usize).clamp(1, xs.len());
        let r = paa(&xs, segments);
        assert_eq!(r.len(), segments);
        let mean_x: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let mean_r: f64 = r.iter().sum::<f64>() / r.len() as f64;
        assert!((mean_x - mean_r).abs() < 1e-6 * (1.0 + mean_x.abs()));
    });
}

/// PAA output values always lie within [min, max] of the input.
#[test]
fn paa_within_input_range() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 4..128, |r| r.random_range(-1e3..1e3));
        let frac = rng.random_range(0.05..1.0);
        let segments = ((xs.len() as f64 * frac) as usize).clamp(1, xs.len());
        let lo = xs.iter().copied().fold(f64::MAX, f64::min);
        let hi = xs.iter().copied().fold(f64::MIN, f64::max);
        for v in paa(&xs, segments) {
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    });
}

/// paa_by_factor output length is ceil(n / factor).
#[test]
fn paa_by_factor_length() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 1..300, |r| r.random_range(-1.0..1.0));
        let factor = rng.random_range(1usize..20);
        let r = paa_by_factor(&xs, factor);
        assert_eq!(r.len(), xs.len().div_ceil(factor));
    });
}

/// SAX encoding is invariant under affine amplitude changes
/// (positive scale).
#[test]
fn sax_amplitude_invariance() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 16..128, |r| r.random_range(-100.0..100.0));
        let scale = rng.random_range(0.01..100.0);
        let offset = rng.random_range(-100.0..100.0);
        let alphabet = rng.random_range(2usize..16);
        let word_len = 8.min(xs.len());
        let enc = SaxEncoder::new(alphabet, word_len);
        let transformed: Vec<f64> = xs.iter().map(|x| x * scale + offset).collect();
        assert_eq!(enc.encode(&xs), enc.encode(&transformed));
    });
}

/// All SAX symbols are within the alphabet.
#[test]
fn sax_symbols_in_range() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 8..128, |r| r.random_range(-100.0..100.0));
        let alphabet = rng.random_range(2usize..20);
        let enc = SaxEncoder::new(alphabet, 8.min(xs.len()));
        for &s in enc.encode(&xs).symbols() {
            assert!((s as usize) < alphabet);
        }
    });
}

/// Breakpoints are strictly increasing and equiprobable under the
/// normal CDF.
#[test]
fn breakpoints_equiprobable() {
    seeds::check(0..64, |rng| {
        let alphabet = rng.random_range(2usize..24);
        let b = sax_breakpoints(alphabet);
        let mut prev_cum = 0.0;
        for &bp in &b {
            let cum = norm_cdf(bp);
            assert!((cum - prev_cum - 1.0 / alphabet as f64).abs() < 1e-3);
            prev_cum = cum;
        }
    });
}

/// The breakpoint quantile and the CDF invert each other.
#[test]
fn cdf_inverts_quantile() {
    for i in 1..100 {
        let p = i as f64 / 100.0;
        let z = inv_norm_cdf(p);
        assert!((norm_cdf(z) - p).abs() < 1e-5, "p={p} z={z}");
    }
}

/// The paper-sized alphabets' cells each hold 1/a of the mass.
#[test]
fn breakpoints_yield_equiprobable_cells() {
    for a in [3usize, 5, 8, 10] {
        let b = sax_breakpoints(a);
        let mut prev = 0.0;
        for (i, &bp) in b.iter().enumerate() {
            let cum = norm_cdf(bp);
            let cell = cum - prev;
            assert!(
                (cell - 1.0 / a as f64).abs() < 1e-4,
                "alphabet {a} cell {i}: {cell}"
            );
            prev = cum;
        }
        assert!((1.0 - prev - 1.0 / a as f64).abs() < 1e-4);
    }
}

/// Bitmap frequencies sum to 1 after counting any sequence of
/// sufficient length.
#[test]
fn bitmap_frequencies_normalized() {
    seeds::check(0..64, |rng| {
        let symbols = seeds::vec(rng, 2..200, |r| r.random_range(0u8..4));
        let ngram = rng.random_range(1usize..3);
        let mut bm = SaxBitmap::new(4, ngram);
        bm.count_sequence(&symbols);
        if bm.total() > 0 {
            let sum: f64 = bm.frequencies().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    });
}

/// Incremental add/remove leaves the bitmap exactly as batch counting
/// of the surviving window (sliding-window equivalence).
#[test]
fn bitmap_sliding_equivalence() {
    seeds::check(0..64, |rng| {
        let symbols = seeds::vec(rng, 10..100, |r| r.random_range(0u8..4));
        let window = rng.random_range(4usize..16);
        let ngram = 2;
        let mut inc = SaxBitmap::new(4, ngram);
        for (i, gram) in symbols.windows(ngram).enumerate() {
            inc.add(gram);
            if i >= window {
                inc.remove(&symbols[i - window..i - window + ngram]);
            }
        }
        // Batch count over the last `window` gram start positions.
        let n_grams = symbols.len() - ngram + 1;
        let start = n_grams.saturating_sub(window);
        let mut batch = SaxBitmap::new(4, ngram);
        for i in start..n_grams {
            batch.add(&symbols[i..i + ngram]);
        }
        assert_eq!(inc.total(), batch.total());
        assert!(inc.distance(&batch) < 1e-12);
    });
}

/// Anomaly scores are always finite, non-negative, and bounded by
/// sqrt(2).
#[test]
fn anomaly_scores_bounded() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 1..400, |r| r.random_range(-10.0..10.0));
        let window = rng.random_range(4usize..32);
        let alphabet = rng.random_range(2usize..10);
        let cfg = AnomalyConfig {
            window,
            alphabet,
            ngram: 2.min(window),
            normalization: Normalization::Global,
        };
        for s in anomaly_scores(&xs, cfg) {
            assert!(s.is_finite());
            assert!((0.0..=std::f64::consts::SQRT_2 + 1e-9).contains(&s));
        }
    });
}

/// The detector is amplitude-scale invariant under global
/// normalization: scaling the whole stream leaves scores unchanged.
#[test]
fn anomaly_scale_invariance() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 100..300, |r| r.random_range(-1.0..1.0));
        let scale = rng.random_range(0.1..50.0);
        let cfg = AnomalyConfig {
            window: 16,
            alphabet: 4,
            ngram: 2,
            normalization: Normalization::Global,
        };
        let a = anomaly_scores(&xs, cfg);
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        let b = anomaly_scores(&scaled, cfg);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    });
}
