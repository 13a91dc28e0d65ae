//! Bit-exact differential test of the `saxanomaly` block kernel.
//!
//! The reference below is the per-sample algorithm as it stood before
//! the kernel (commit `11e5c7f`), moved here verbatim: a symbol ring
//! indexed by `u64 %`, a [`SaxBitmap`] pair maintained through its
//! bounds-checked index calls, `SlidingStats` and `MovingAverage` over
//! a `VecDeque`, a `partition_point` quantiser, everything in one loop
//! body. It is the oracle, not a second implementation: nothing outside
//! this file calls it. [`BitmapAnomaly::score_block`] and
//! [`MovingAverage::smooth_in_place`] must reproduce it in every bit
//! for every way of cutting the stream into blocks.

use river_dsp::stats::{MovingAverage, Welford};
use river_sax::anomaly::{anomaly_scores, AnomalyConfig, BitmapAnomaly, Normalization};
use river_sax::gaussian::sax_breakpoints;
use river_sax::sax::Symbol;
use river_sax::SaxBitmap;
use std::collections::VecDeque;

// --- the reference ------------------------------------------------------

fn znorm_value(x: f64, mean: f64, std: f64) -> f64 {
    if std <= 0.0 || !std.is_finite() {
        0.0
    } else {
        (x - mean) / std
    }
}

struct RefSlidingStats {
    window: VecDeque<f64>,
    capacity: usize,
    sum: f64,
    sum_sq: f64,
}

impl RefSlidingStats {
    fn new(capacity: usize) -> Self {
        RefSlidingStats {
            window: VecDeque::with_capacity(capacity),
            capacity,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    fn push(&mut self, x: f64) {
        if self.window.len() == self.capacity {
            let old = self.window.pop_front().expect("window non-empty");
            self.sum -= old;
            self.sum_sq -= old * old;
        }
        self.window.push_back(x);
        self.sum += x;
        self.sum_sq += x * x;
    }

    fn mean(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.sum / self.window.len() as f64
        }
    }

    fn population_variance(&self) -> f64 {
        let n = self.window.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / n as f64 - mean * mean).max(0.0)
    }

    fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    fn clear(&mut self) {
        self.window.clear();
        self.sum = 0.0;
        self.sum_sq = 0.0;
    }
}

struct RefMovingAverage {
    stats: RefSlidingStats,
}

impl RefMovingAverage {
    fn push(&mut self, x: f64) -> f64 {
        self.stats.push(x);
        self.stats.mean()
    }
}

struct RefAnomaly {
    config: AnomalyConfig,
    breakpoints: Vec<f64>,
    ring: Vec<Symbol>,
    t: u64,
    lead: SaxBitmap,
    lag: SaxBitmap,
    saa: u64,
    sbb: u64,
    sab: u64,
    global_stats: Welford,
    sliding_stats: Option<RefSlidingStats>,
}

impl RefAnomaly {
    fn new(config: AnomalyConfig) -> Self {
        let ring_len = 2 * config.window + config.ngram;
        let sliding_stats = match config.normalization {
            Normalization::Sliding(w) => Some(RefSlidingStats::new(w)),
            Normalization::Global => None,
        };
        RefAnomaly {
            breakpoints: sax_breakpoints(config.alphabet),
            ring: vec![0; ring_len],
            t: 0,
            lead: SaxBitmap::new(config.alphabet, config.ngram),
            lag: SaxBitmap::new(config.alphabet, config.ngram),
            saa: 0,
            sbb: 0,
            sab: 0,
            global_stats: Welford::new(),
            sliding_stats,
            config,
        }
    }

    fn warmed_up(&self) -> bool {
        self.t >= 2 * self.config.window as u64
    }

    fn quantize(&self, z: f64) -> Symbol {
        self.breakpoints.partition_point(|&b| b <= z) as Symbol
    }

    fn ring_get(&self, abs: u64) -> Symbol {
        self.ring[(abs % self.ring.len() as u64) as usize]
    }

    fn gram_index_at(&self, start: u64) -> usize {
        let mut idx = 0usize;
        for i in 0..self.config.ngram as u64 {
            idx = idx * self.config.alphabet + self.ring_get(start + i) as usize;
        }
        idx
    }

    fn lead_enter(&mut self, start: u64) {
        let idx = self.gram_index_at(start);
        let old = self.lead.add_index(idx);
        self.saa += 2 * old + 1;
        self.sab += self.lag.count_at(idx);
    }

    fn lead_leave(&mut self, start: u64) {
        let idx = self.gram_index_at(start);
        let old = self.lead.remove_index(idx);
        self.saa -= 2 * old - 1;
        self.sab -= self.lag.count_at(idx);
    }

    fn lag_enter(&mut self, start: u64) {
        let idx = self.gram_index_at(start);
        let old = self.lag.add_index(idx);
        self.sbb += 2 * old + 1;
        self.sab += self.lead.count_at(idx);
    }

    fn lag_leave(&mut self, start: u64) {
        let idx = self.gram_index_at(start);
        let old = self.lag.remove_index(idx);
        self.sbb -= 2 * old - 1;
        self.sab -= self.lead.count_at(idx);
    }

    fn push(&mut self, x: f64) -> f64 {
        let (mean, std) = if let Some(s) = &mut self.sliding_stats {
            s.push(x);
            (s.mean(), s.population_std_dev())
        } else {
            self.global_stats.push(x);
            (
                self.global_stats.mean(),
                self.global_stats.population_std_dev(),
            )
        };
        let symbol = self.quantize(znorm_value(x, mean, std));

        let t = self.t;
        let w = self.config.window as u64;
        let n = self.config.ngram as u64;
        let ring_len = self.ring.len() as u64;
        self.ring[(t % ring_len) as usize] = symbol;

        if t + 1 >= n {
            self.lead_enter(t + 1 - n);
        }
        if t >= w {
            self.lead_leave(t - w);
            if t + 1 >= w + n {
                self.lag_enter(t + 1 - w - n);
            }
        }
        if t >= 2 * w {
            self.lag_leave(t - 2 * w);
        }

        self.t += 1;
        if self.warmed_up() {
            let ta = self.lead.total().max(1) as f64;
            let tb = self.lag.total().max(1) as f64;
            let d2 = self.saa as f64 / (ta * ta) - 2.0 * self.sab as f64 / (ta * tb)
                + self.sbb as f64 / (tb * tb);
            d2.max(0.0).sqrt()
        } else {
            0.0
        }
    }

    fn reset(&mut self) {
        self.ring.fill(0);
        self.t = 0;
        self.lead.clear();
        self.lag.clear();
        self.saa = 0;
        self.sbb = 0;
        self.sab = 0;
        self.global_stats.reset();
        if let Some(s) = &mut self.sliding_stats {
            s.clear();
        }
    }
}

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
            "{what}: sample {i}: kernel {g:e} vs reference {w:e}"
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

const BLOCKS: [usize; 5] = [1, 7, 840, 1_025, 0];

fn check(what: &str, xs: &[f64], cfg: AnomalyConfig, ma_window: usize, reset_at: Option<usize>) {
    let (want_raw, want_smooth) = reference(xs, cfg, ma_window, reset_at);
    for block in BLOCKS {
        let (raw, smooth) = kernel(xs, cfg, ma_window, block, reset_at);
        let what = format!("{what}, {cfg:?}, blocks of {block}");
        assert_bits_equal(&format!("{what}: raw"), &raw, &want_raw);
        assert_bits_equal(&format!("{what}: smoothed"), &smooth, &want_smooth);
    }
}

fn paper(normalization: Normalization) -> AnomalyConfig {
    AnomalyConfig {
        normalization,
        ..AnomalyConfig::default()
    }
}

const NORMALIZATIONS: [Normalization; 3] = [
    Normalization::Sliding(8_400),
    Normalization::Sliding(50),
    Normalization::Global,
];

/// The paper's geometry (window 100, alphabet 8, bigrams, MA 2,250)
/// over a stream long enough to wrap the 8,400-sample normalisation
/// ring and the 2,250-sample smoother several times; every block
/// length straddles warm-up (t < 200), the rings' fill points and
/// their wraps somewhere.
#[test]
fn paper_geometry_matches_the_reference_in_every_bit() {
    let xs = signal(30_000);
    for normalization in NORMALIZATIONS {
        check("signal", &xs, paper(normalization), 2_250, None);
    }
}

#[test]
fn every_ngram_and_alphabet_matches_the_reference() {
    let xs = signal(6_000);
    for normalization in NORMALIZATIONS {
        for ngram in 1..=3 {
            for alphabet in [2, 6, 8, 256] {
                if alphabet == 256 && ngram == 3 {
                    continue; // 2²⁴ cells a window: a test of the allocator
                }
                let cfg = AnomalyConfig {
                    window: 60,
                    alphabet,
                    ngram,
                    normalization,
                };
                check("signal", &xs, cfg, 500, None);
            }
        }
    }
}

#[test]
fn degenerate_input_matches_the_reference() {
    for normalization in NORMALIZATIONS {
        check(
            "all-zero",
            &vec![0.0; 3_000],
            paper(normalization),
            700,
            None,
        );
        check(
            "constant",
            &vec![0.25; 3_000],
            paper(normalization),
            700,
            None,
        );
        // A step: σ leaves zero mid-stream.
        let mut step = vec![1e9 + 0.1; 1_500];
        step.extend(signal(1_500));
        check("step", &step, paper(normalization), 700, None);
    }
}

#[test]
fn short_streams_and_tiny_windows_match_the_reference() {
    let xs = signal(700);
    for len in [0, 1, 2, 3, 199, 200, 201, 255, 256, 257, 700] {
        check(
            "prefix",
            &xs[..len],
            paper(Normalization::Sliding(50)),
            64,
            None,
        );
    }
    for (window, ngram) in [(1, 1), (2, 2), (3, 3), (5, 2)] {
        let cfg = AnomalyConfig {
            window,
            alphabet: 4,
            ngram,
            normalization: Normalization::Sliding(7),
        };
        check("tiny windows", &xs, cfg, 3, None);
    }
    // A window far wider than a tile: the gram history outgrows it.
    let wide = AnomalyConfig {
        window: 700,
        ..paper(Normalization::Sliding(300))
    };
    check("wide window", &signal(5_000), wide, 100, None);
}

#[test]
fn reset_mid_stream_matches_the_reference() {
    let xs = signal(12_000);
    for normalization in NORMALIZATIONS {
        // Mid-tile, mid-record, before and after the rings have wrapped.
        for reset_at in [130, 5_003, 9_100] {
            check("reset", &xs, paper(normalization), 2_250, Some(reset_at));
        }
    }
}

#[test]
fn batch_helper_and_one_sample_calls_are_the_kernel() {
    let xs = signal(5_000);
    let cfg = paper(Normalization::Sliding(8_400));
    let (want, _) = reference(&xs, cfg, 1, None);
    assert_bits_equal("anomaly_scores", &anomaly_scores(&xs, cfg), &want);
    let mut det = BitmapAnomaly::new(cfg);
    let pushed: Vec<f64> = xs.iter().map(|&x| det.push(x)).collect();
    assert_bits_equal("push", &pushed, &want);
    assert_eq!(det.samples_seen(), 5_000);
}
