//! Differential test of the `saxanomaly` block kernel.
//!
//! The oracle is the per-sample algorithm as it stood before the kernel
//! (commit `11e5c7f`), kept verbatim in `reference/mod.rs`. The contract
//! has two parts:
//!
//! - **Blocks are exact.** [`BitmapAnomaly::score_block`] and
//!   [`MovingAverage::smooth_in_place`] give the same scores in every
//!   bit for every way of cutting the stream into blocks, and the same
//!   as one-sample `push` calls.
//! - **The reference is a bound.** Symbols and window counts are exact
//!   in both — the kernel decides a symbol in squares and takes the
//!   reference's own expression for every sample near a breakpoint or
//!   under cancellation — so only the arithmetic after the counts
//!   differs. The kernel takes d = √(ΣD²/tt) from one exact integer ΣD²,
//!   the reference d² = Saa/tt − 2·Sab/tt + Sbb/tt, three roundings of terms
//!   up to 1, 2 and 1. So with u = 2⁻⁵³ their squares differ by at most
//!   about 10u, and as a nonzero ΣD² is at least 2 (ΣD = 0 once warm),
//!   d ≥ √(2/tt): a raw score lies within (5·tt + 4)·u of the reference,
//!   relatively, and is 0 exactly when the reference's is.
//!   The smoother keeps its sum with `sum += x − old` where the
//!   reference had `sum −= old; sum += x`; each step rounds at most
//!   three times at |sum| ≤ W·√2, so after t samples the smoothed
//!   scores differ by at most δ + (4t + 3)·√2·u, δ the largest raw
//!   difference.

use river_dsp::stats::MovingAverage;
use river_sax::anomaly::{anomaly_scores, AnomalyConfig, BitmapAnomaly};

mod reference;

use reference::{RefAnomaly, RefMovingAverage, RefSlidingStats};

// --- the differential ---------------------------------------------------

/// Raw and smoothed reference scores for `xs`, with a `reset()` of
/// detector and smoother before sample `reset_at` (if any).
fn reference(
    xs: &[f64],
    cfg: AnomalyConfig,
    ma_window: usize,
    reset_at: Option<usize>,
) -> (Vec<f64>, Vec<f64>) {
    let mut det = RefAnomaly::new(cfg);
    let mut ma = RefMovingAverage {
        stats: RefSlidingStats::new(ma_window),
    };
    let mut raw = Vec::with_capacity(xs.len());
    let mut smooth = Vec::with_capacity(xs.len());
    for (i, &x) in xs.iter().enumerate() {
        if reset_at == Some(i) {
            det.reset();
            ma.stats.clear();
        }
        let score = det.push(x);
        raw.push(score);
        smooth.push(ma.push(score));
    }
    (raw, smooth)
}

/// Kernel scores for `xs` cut into blocks of `block` samples (the whole
/// of `xs` in one call when `block == 0`), resetting at `reset_at`.
fn kernel(
    xs: &[f64],
    cfg: AnomalyConfig,
    ma_window: usize,
    block: usize,
    reset_at: Option<usize>,
) -> (Vec<f64>, Vec<f64>) {
    let mut det = BitmapAnomaly::new(cfg);
    let mut ma = MovingAverage::new(ma_window);
    let mut raw = vec![f64::NAN; xs.len()];
    let mut smooth = vec![f64::NAN; xs.len()];
    let block = if block == 0 { xs.len().max(1) } else { block };
    let split = reset_at.unwrap_or(xs.len());
    let mut start = 0;
    for part in [&xs[..split], &xs[split..]] {
        if start > 0 {
            det.reset();
            ma.clear();
        }
        for chunk in part.chunks(block) {
            let end = start + chunk.len();
            det.score_block(chunk, &mut raw[start..end]);
            smooth[start..end].copy_from_slice(&raw[start..end]);
            ma.smooth_in_place(&mut smooth[start..end]);
            start = end;
        }
    }
    (raw, smooth)
}

fn assert_bits_equal(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: sample {i}: {g:e} vs {w:e}"
        );
    }
}

/// u = 2⁻⁵³, the unit roundoff of `f64`.
const U: f64 = f64::EPSILON / 2.0;

/// The stated bounds of the module docs, sample by sample: raw scores
/// relatively within (5·tt + 4)·u, smoothed scores within δ + (4t +
/// 3)·√2·u, t counted from the last reset.
fn assert_within_bounds(
    what: &str,
    cfg: AnomalyConfig,
    (raw, smooth): (&[f64], &[f64]),
    (want_raw, want_smooth): (&[f64], &[f64]),
    reset_at: Option<usize>,
) {
    let grams = (cfg.window - cfg.ngram + 1) as f64;
    let raw_rel = (5.0 * grams * grams + 4.0) * U;
    let mut delta: f64 = 0.0;
    for (i, (&k, &r)) in raw.iter().zip(want_raw).enumerate() {
        assert!(
            (k - r).abs() <= raw_rel * k,
            "{what}: raw sample {i}: kernel {k:e} vs reference {r:e}, bound {raw_rel:e} relative"
        );
        delta = delta.max((k - r).abs());
    }
    let restart = |i: usize| reset_at.filter(|&at| i >= at).unwrap_or(0);
    for (i, (&k, &r)) in smooth.iter().zip(want_smooth).enumerate() {
        let t = (i - restart(i) + 1) as f64;
        let bound = delta + (4.0 * t + 3.0) * std::f64::consts::SQRT_2 * U;
        assert!(
            (k - r).abs() <= bound,
            "{what}: smoothed sample {i}: kernel {k:e} vs reference {r:e}, bound {bound:e}"
        );
    }
}

/// Deterministic hiss with a tone burst every 3,000 samples — quiet
/// stretches and events, like a clip.
fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let hiss = ((i.wrapping_mul(2_654_435_761) % 10_000) as f64 / 10_000.0 - 0.5) * 0.02;
            let burst = if i % 3_000 < 400 {
                (i as f64 * 0.35).sin() * 0.3
            } else {
                0.0
            };
            hiss + burst
        })
        .collect()
}

const BLOCKS: [usize; 4] = [7, 840, 1_025, 0];

/// Every block cut is the one-sample cut in every bit, and that is the
/// reference within the stated bounds.
fn check(what: &str, xs: &[f64], cfg: AnomalyConfig, ma_window: usize, reset_at: Option<usize>) {
    let what = format!("{what}, {cfg:?}");
    let want = reference(xs, cfg, ma_window, reset_at);
    let (raw, smooth) = kernel(xs, cfg, ma_window, 1, reset_at);
    assert_within_bounds(&what, cfg, (&raw, &smooth), (&want.0, &want.1), reset_at);
    for block in BLOCKS {
        let (raw_b, smooth_b) = kernel(xs, cfg, ma_window, block, reset_at);
        let what = format!("{what}, blocks of {block} against blocks of 1");
        assert_bits_equal(&format!("{what}: raw"), &raw_b, &raw);
        assert_bits_equal(&format!("{what}: smoothed"), &smooth_b, &smooth);
    }
}

fn paper(norm_window: usize) -> AnomalyConfig {
    AnomalyConfig {
        norm_window,
        ..AnomalyConfig::default()
    }
}

/// The shipped normalisation window, and one that wraps within a tile.
const NORM_WINDOWS: [usize; 2] = [8_400, 50];

/// The paper's geometry (window 100, alphabet 8, bigrams, MA 2,250)
/// over a stream long enough to wrap the 8,400-sample normalisation
/// ring and the 2,250-sample smoother several times; every block
/// length straddles warm-up (t < 200), the rings' fill points and
/// their wraps somewhere.
#[test]
fn paper_geometry_matches_the_reference_within_the_bound() {
    let xs = signal(30_000);
    for norm_window in NORM_WINDOWS {
        check("signal", &xs, paper(norm_window), 2_250, None);
    }
}

#[test]
fn every_ngram_and_alphabet_matches_the_reference() {
    let xs = signal(6_000);
    for norm_window in NORM_WINDOWS {
        for ngram in 1..=3 {
            for alphabet in [2, 6, 8, 256] {
                if alphabet == 256 && ngram == 3 {
                    continue; // 2²⁴ cells a window: a test of the allocator
                }
                let cfg = AnomalyConfig {
                    window: 60,
                    alphabet,
                    ngram,
                    norm_window,
                };
                check("signal", &xs, cfg, 500, None);
            }
        }
    }
}

#[test]
fn degenerate_input_matches_the_reference() {
    for norm_window in NORM_WINDOWS {
        check("all-zero", &vec![0.0; 3_000], paper(norm_window), 700, None);
        check(
            "constant",
            &vec![0.25; 3_000],
            paper(norm_window),
            700,
            None,
        );
        // A step: σ leaves zero mid-stream.
        let mut step = vec![1e9 + 0.1; 1_500];
        step.extend(signal(1_500));
        check("step", &step, paper(norm_window), 700, None);
    }
}

#[test]
fn short_streams_and_tiny_windows_match_the_reference() {
    let xs = signal(700);
    for len in [0, 1, 2, 3, 199, 200, 201, 255, 256, 257, 700] {
        check("prefix", &xs[..len], paper(50), 64, None);
    }
    for (window, ngram) in [(1, 1), (2, 2), (3, 3), (5, 2)] {
        let cfg = AnomalyConfig {
            window,
            alphabet: 4,
            ngram,
            norm_window: 7,
        };
        check("tiny windows", &xs, cfg, 3, None);
    }
    // A window far wider than a tile: the gram history outgrows it.
    let wide = AnomalyConfig {
        window: 700,
        ..paper(300)
    };
    check("wide window", &signal(5_000), wide, 100, None);
}

#[test]
fn reset_mid_stream_matches_the_reference() {
    let xs = signal(12_000);
    for norm_window in NORM_WINDOWS {
        // Mid-tile, mid-record, before and after the rings have wrapped.
        for reset_at in [130, 5_003, 9_100] {
            check("reset", &xs, paper(norm_window), 2_250, Some(reset_at));
        }
    }
}

#[test]
fn batch_helper_and_one_sample_calls_are_the_kernel() {
    let xs = signal(5_000);
    let cfg = paper(8_400);
    let (want, _) = kernel(&xs, cfg, 1, 0, None);
    assert_bits_equal("anomaly_scores", &anomaly_scores(&xs, cfg), &want);
    let mut det = BitmapAnomaly::new(cfg);
    let pushed: Vec<f64> = xs.iter().map(|&x| det.push(x)).collect();
    assert_bits_equal("push", &pushed, &want);
    assert_eq!(det.samples_seen(), 5_000);
    let mut ma = MovingAverage::new(700);
    let smoothed: Vec<f64> = want.iter().map(|&s| ma.push(s)).collect();
    assert_bits_equal(
        "MovingAverage::push",
        &smoothed,
        &kernel(&xs, cfg, 700, 0, None).1,
    );
}
