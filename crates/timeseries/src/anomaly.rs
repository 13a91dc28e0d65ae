//! Streaming SAX-bitmap anomaly scoring — the algorithm inside the
//! paper's `saxanomaly` operator.
//!
//! Two adjacent windows of SAX symbols slide over the stream: a *lag*
//! window (older history) and a *lead* window (the most recent samples).
//! Each window maintains an n-gram count matrix; the anomaly score at
//! time `t` is the Euclidean distance between the two frequency
//! matrices ([`SaxBitmap::distance`](crate::bitmap::SaxBitmap::distance)).
//! "The SAX anomaly window size specifies the number of samples to use
//! for constructing each concatenated matrix" (§3); the paper's acoustic
//! experiments use window 100 and alphabet 8.
//!
//! The detector is single-scan with O(1) work per sample and no
//! allocation after [`BitmapAnomaly::new`]: count maintenance touches at
//! most four cells, and the Euclidean distance is maintained
//! incrementally from one exact integer running sum, Σ(lead − lag)²
//! over the cells, rather than re-scanning all alphabetⁿ cells —
//! satisfying the paper's requirement of "processor and memory
//! efficient techniques" (§5).
//!
//! Scoring is a **block kernel** ([`BitmapAnomaly::score_block`],
//! DESIGN.md §14): a record is walked in private tiles, and within a
//! tile the work is split by kind. The true recurrences — the running
//! normalisation sums and the n-gram counts — run as short sequential
//! passes over flat buffers; everything that depends on one sample
//! alone (mean/σ/z, quantisation, gram cell indices, the distance and
//! its square root) runs as separate loops the compiler can pack. Every
//! step keeps the expression and the operation order of the one-sample
//! definition, so a score does not depend on how the stream was cut
//! into blocks, down to the last bit. Symbols and counts are exact; the
//! one rounding after them is √(ΣD²/tt), within 1.5 ulp of the true
//! distance.

use crate::gaussian::sax_breakpoints;
use crate::sax::Symbol;
use crate::znorm::znorm_value;
use river_dsp::stats::{SlidingStats, Welford};

/// How incoming samples are Z-normalized before symbol quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Incrementally estimated mean/σ over the whole stream so far
    /// (Welford). Stable for stationary noise floors; the default.
    #[default]
    Global,
    /// Mean/σ over a trailing window of the given size. Adapts to slow
    /// drift (e.g. changing wind levels) at the cost of partially
    /// normalizing away long events.
    Sliding(usize),
}

/// Configuration for [`BitmapAnomaly`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyConfig {
    /// Samples per bitmap window (the paper's "SAX anomaly window size";
    /// 100 in its experiments).
    pub window: usize,
    /// SAX alphabet size (8 in the paper's experiments).
    pub alphabet: usize,
    /// Bitmap subsequence length (1–3 per Kumar et al.; 2 by default).
    pub ngram: usize,
    /// Sample normalization mode.
    pub normalization: Normalization,
}

impl Default for AnomalyConfig {
    /// The paper's acoustic-pipeline parameters: window 100, alphabet 8,
    /// bigram bitmaps, global normalization.
    fn default() -> Self {
        AnomalyConfig {
            window: 100,
            alphabet: 8,
            ngram: 2,
            normalization: Normalization::Global,
        }
    }
}

/// Samples per private tile of [`BitmapAnomaly::score_block`]. A tile's
/// working set (input, output, two `f64` lanes, symbols and gram cells:
/// 37 bytes a sample) stays well inside L1 beside the normalisation
/// ring that streams through it, and the packed loops spend their time
/// in the vector body rather than in prologues.
const TILE: usize = 256;

/// The largest magnitude a sample may have to enter the normalisation
/// statistics: 2⁴⁷⁸ ≈ 7.8·10¹⁴³. At most that, even 2⁶⁴ samples cannot
/// push a running Σx² (sliding) or Welford's Σ(x − μ)² (global, whose
/// deviations reach twice it) past `f64::MAX`. A larger sample is
/// scored like a non-finite one (DESIGN.md §14).
const MAX_STATISTIC_SAMPLE: f64 = 7.804_371_375_789_981e143;

/// The running mean/σ estimate samples are normalised against.
#[derive(Debug, Clone)]
enum Normalizer {
    Global(Welford),
    Sliding(SlidingStats),
}

impl Normalizer {
    /// Pushes `xs` in order, writing the mean and population σ after
    /// each push.
    #[inline]
    fn push_block(&mut self, xs: &[f64], mean: &mut [f64], std: &mut [f64]) {
        match self {
            Normalizer::Sliding(s) => s.push_block(xs, mean, std),
            // Welford's mean update divides inside the recurrence, so
            // this mode is one latency-bound chain whatever the layout.
            Normalizer::Global(w) => {
                for ((&x, m), s) in xs.iter().zip(mean).zip(std) {
                    w.push(x);
                    *m = w.mean();
                    *s = w.population_std_dev();
                }
            }
        }
    }

    /// The current mean; `0.0` while empty.
    fn mean(&self) -> f64 {
        match self {
            Normalizer::Global(w) => w.mean(),
            Normalizer::Sliding(s) => s.mean(),
        }
    }

    fn reset(&mut self) {
        match self {
            Normalizer::Global(w) => w.reset(),
            Normalizer::Sliding(s) => s.clear(),
        }
    }
}

/// A cell's lead − lag difference goes up by one (a gram enters the
/// lead window or leaves the lag window); returns the change of ΣD².
#[inline]
fn rise(d: &mut i32) -> i64 {
    let change = 1 + 2 * i64::from(*d);
    *d += 1;
    change
}

/// A cell's lead − lag difference goes down by one (a gram leaves the
/// lead window or enters the lag window); returns the change of ΣD².
#[inline]
fn fall(d: &mut i32) -> i64 {
    let change = 1 - 2 * i64::from(*d);
    *d -= 1;
    change
}

/// Streaming lag/lead bitmap anomaly detector.
///
/// # Example
///
/// ```
/// use river_sax::anomaly::{AnomalyConfig, BitmapAnomaly};
///
/// let mut det = BitmapAnomaly::new(AnomalyConfig::default());
/// let mut max_score: f64 = 0.0;
/// for i in 0..5_000 {
///     let noise = ((i * 2654435761_usize % 1000) as f64 / 1000.0 - 0.5) * 0.02;
///     let event = if i > 3_000 { ((i as f64) * 0.9).sin() } else { 0.0 };
///     max_score = max_score.max(det.push(noise + event));
/// }
/// assert!(max_score > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BitmapAnomaly {
    config: AnomalyConfig,
    breakpoints: Vec<f64>,
    normalizer: Normalizer,
    /// Samples consumed so far.
    t: u64,
    /// `[ngram − 1 symbols of history | tile]`: the symbols a tile's
    /// gram cells are computed from, contiguous so a gram that starts
    /// in the previous tile needs no special case.
    symbols: Vec<Symbol>,
    /// Flattened cell index (row-major, as
    /// [`SaxBitmap::index_of`](crate::bitmap::SaxBitmap::index_of)) of
    /// the n-gram *ending* at each sample, `[history | tile]`:
    /// `cells[..filled]` ends with the grams of the last `2·window`
    /// samples, which is as far back as a gram leaving the lag window
    /// reaches, and a tile appends at `filled`. Each index is computed
    /// once and read at its four window crossings by plain offset; when
    /// the buffer is full the history moves back to the front (at most
    /// one cell copied per sample, amortised).
    cells: Vec<u32>,
    filled: usize,
    /// Per cell, D = lead count − lag count: the one number of a cell
    /// the distance reads, so each window crossing is one update.
    diffs: Vec<i32>,
    /// ΣD² over all cells, exact (|D| is bounded by the window size).
    /// Once both windows are warm each holds the same number of grams,
    /// ta = tb = window − ngram + 1, and the Euclidean distance between
    /// the two frequency matrices is d = √(Σ(a/ta − b/tb)²) = √(ΣD²/ta²).
    sum_sq: i64,
    /// Two tile-long `f64` lanes: (mean, σ) out of the normalisation
    /// pass. The third lane is the caller's output tile, which carries
    /// z, then ΣD², then the score.
    lane_a: Vec<f64>,
    lane_b: Vec<f64>,
}

// `push` is the kernel with a trip count of one. Forcing the tile passes
// into both callers lets the compiler fold that count through every
// loop (35 ns a one-sample call; 42 ns when the passes stay calls).
#[allow(clippy::inline_always)]
impl BitmapAnomaly {
    /// Creates a detector. Every buffer the detector will ever use is
    /// sized here; scoring never allocates, whatever the block length.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `ngram == 0`, `ngram > window`, the
    /// alphabet is outside `2..=256`, or the count matrix would exceed
    /// 2²⁴ cells (e.g. alphabet 256 with ngram 3).
    pub fn new(config: AnomalyConfig) -> Self {
        assert!(config.window > 0, "window must be non-zero");
        assert!(
            (2..=256).contains(&config.alphabet),
            "alphabet must be in 2..=256"
        );
        assert!(
            config.ngram >= 1 && config.ngram <= config.window,
            "ngram must be in 1..=window"
        );
        let cell_count = config
            .alphabet
            .checked_pow(config.ngram as u32)
            .filter(|&c| c <= 1 << 24)
            .expect("bitmap too large: alphabet^ngram must be <= 2^24");
        let normalizer = match config.normalization {
            Normalization::Sliding(w) => {
                assert!(w > 0, "sliding normalization window must be non-zero");
                Normalizer::Sliding(SlidingStats::new(w))
            }
            Normalization::Global => Normalizer::Global(Welford::new()),
        };
        let history = 2 * config.window;
        BitmapAnomaly {
            breakpoints: sax_breakpoints(config.alphabet),
            normalizer,
            t: 0,
            symbols: vec![0; config.ngram - 1 + TILE],
            cells: vec![0; history + history.max(TILE)],
            filled: history,
            diffs: vec![0; cell_count],
            sum_sq: 0,
            lane_a: vec![0.0; TILE],
            lane_b: vec![0.0; TILE],
            config,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AnomalyConfig {
        &self.config
    }

    /// Number of samples consumed.
    pub fn samples_seen(&self) -> u64 {
        self.t
    }

    /// `true` once both windows are fully populated and scores are
    /// meaningful.
    pub fn warmed_up(&self) -> bool {
        self.t >= 2 * self.config.window as u64
    }

    /// Consumes one sample and returns the current anomaly score
    /// (`0.0` until warm-up completes): a one-sample
    /// [`score_block`](Self::score_block).
    pub fn push(&mut self, x: f64) -> f64 {
        let mut score = [0.0];
        self.score_tile(&[x], &mut score);
        score[0]
    }

    /// Consumes `xs` in order and writes each sample's anomaly score
    /// (`0.0` until warm-up completes) to `out`. The scores are the same,
    /// bit for bit, however the stream is cut into blocks.
    ///
    /// A non-finite sample, or one whose square the running sums could
    /// not accumulate without overflow (|x| > 2⁴⁷⁸), is scored as z = 0
    /// (the middle of the alphabet) and enters the normalisation
    /// statistics as their current mean, so it cannot poison the running
    /// sums for the samples after it.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    pub fn score_block(&mut self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "one score per sample");
        for (xs, out) in xs.chunks(TILE).zip(out.chunks_mut(TILE)) {
            self.score_tile(xs, out);
        }
    }

    /// Scores at most [`TILE`] samples.
    #[inline(always)]
    fn score_tile(&mut self, xs: &[f64], out: &mut [f64]) {
        self.normalize_tile(xs, out);
        self.index_tile(out);
        self.count_tile(out);
        self.distance_tile(out);
        self.t += xs.len() as u64;
    }

    /// Tile pass 1: `z[i]` of every sample against the statistics that
    /// include it. The statistics are a recurrence (`Normalizer`); z is
    /// pure. A sample the statistics cannot hold (non-finite, or beyond
    /// [`MAX_STATISTIC_SAMPLE`]) enters them as their mean.
    #[inline(always)]
    fn normalize_tile(&mut self, xs: &[f64], z: &mut [f64]) {
        let k = xs.len();
        let (mean, std) = (&mut self.lane_a[..k], &mut self.lane_b[..k]);
        let mut at = 0;
        while at < k {
            let run = xs[at..]
                .iter()
                .position(|x| x.is_nan() || x.abs() > MAX_STATISTIC_SAMPLE)
                .map_or(k, |p| at + p);
            self.normalizer
                .push_block(&xs[at..run], &mut mean[at..run], &mut std[at..run]);
            at = run;
            if at < k {
                let stand_in = [self.normalizer.mean()];
                self.normalizer
                    .push_block(&stand_in, &mut mean[at..=at], &mut std[at..=at]);
                // z = 0 whatever the statistics say: x − μ is not a
                // number, or not one they can hold.
                std[at] = 0.0;
                at += 1;
            }
        }
        for (((z, &x), &mean), &std) in z.iter_mut().zip(xs).zip(&*mean).zip(&*std) {
            *z = znorm_value(x, mean, std);
        }
    }

    /// Tile pass 2 (pure): z to symbols — the number of breakpoints
    /// ≤ z, which is the partition point of the sorted breakpoints as a
    /// packed count (measured against `partition_point` itself, DESIGN.md
    /// §14) — and symbols to the cell index of the gram ending at each
    /// sample, appended to `cells`.
    #[inline(always)]
    fn index_tile(&mut self, z: &[f64]) {
        let k = z.len();
        let n = self.config.ngram;
        for (symbol, &z) in self.symbols[n - 1..].iter_mut().zip(z) {
            *symbol = self.breakpoints.iter().filter(|&&b| b <= z).count() as Symbol;
        }

        let history = 2 * self.config.window;
        if self.filled + k > self.cells.len() {
            self.cells
                .copy_within(self.filled - history..self.filled, 0);
            self.filled = history;
        }
        let alphabet = self.config.alphabet as u32;
        let cells = &mut self.cells[self.filled..self.filled + k];
        for (cell, &symbol) in cells.iter_mut().zip(&self.symbols[..k]) {
            *cell = u32::from(symbol);
        }
        for j in 1..n {
            for (cell, &symbol) in cells.iter_mut().zip(&self.symbols[j..j + k]) {
                *cell = *cell * alphabet + u32::from(symbol);
            }
        }
        for j in 0..n - 1 {
            self.symbols[j] = self.symbols[k + j];
        }
    }

    /// Tile pass 3 (recurrence): slides both windows over the tile's
    /// grams, leaving ΣD² after each sample in `sum_sq_out`. Each of the
    /// four window crossings is one ±1 on one cell's D.
    #[inline(always)]
    fn count_tile(&mut self, sum_sq_out: &mut [f64]) {
        let (w, n) = (self.config.window, self.config.ngram);
        let (w64, n64) = (w as u64, n as u64);
        let mut sum_sq = self.sum_sq;
        for (i, out) in sum_sq_out.iter_mut().enumerate() {
            let t = self.t + i as u64; // absolute index of this sample
            let at = self.filled + i;
            // Newest gram (ending at t) enters the lead window.
            if t + 1 >= n64 {
                sum_sq += rise(&mut self.diffs[self.cells[at] as usize]);
            }
            // The gram starting at t-w slides out of the lead window.
            if t >= w64 {
                sum_sq += fall(&mut self.diffs[self.cells[at - w + n - 1] as usize]);
                // It is fully inside the lag window once its end crosses
                // the boundary: the gram ending at t-w enters lag.
                if t + 1 >= w64 + n64 {
                    sum_sq += fall(&mut self.diffs[self.cells[at - w] as usize]);
                }
            }
            // The gram starting at t-2w slides out of the lag window.
            if t >= 2 * w64 {
                sum_sq += rise(&mut self.diffs[self.cells[at - 2 * w + n - 1] as usize]);
            }
            *out = sum_sq as f64;
        }
        self.filled += sum_sq_out.len();
        self.sum_sq = sum_sq;
    }

    /// Tile pass 4 (pure): the same Euclidean distance as
    /// [`SaxBitmap::distance`](crate::bitmap::SaxBitmap::distance), from
    /// the exact ΣD²: one division and one square root, each correctly
    /// rounded. Once warm, each window holds exactly `window − ngram +
    /// 1` grams.
    #[inline(always)]
    fn distance_tile(&self, out: &mut [f64]) {
        let (w, n) = (self.config.window, self.config.ngram);
        let cold = (2 * w as u64 - 1)
            .saturating_sub(self.t)
            .min(out.len() as u64) as usize;
        let (cold, warm) = out.split_at_mut(cold);
        cold.fill(0.0);
        let grams = (w - n + 1) as f64;
        let tt = grams * grams;
        for d in warm {
            *d = (*d / tt).sqrt();
        }
    }

    /// Resets all stream state (windows, counters and normalization).
    pub fn reset(&mut self) {
        self.normalizer.reset();
        self.t = 0;
        self.symbols.fill(0);
        self.cells.fill(0);
        self.filled = 2 * self.config.window;
        self.diffs.fill(0);
        self.sum_sq = 0;
    }
}

/// Batch helper: anomaly score for every sample of `series` under
/// `config` (single scan, same output as feeding [`BitmapAnomaly`]
/// sample by sample).
pub fn anomaly_scores(series: &[f64], config: AnomalyConfig) -> Vec<f64> {
    let mut scores = vec![0.0; series.len()];
    BitmapAnomaly::new(config).score_block(series, &mut scores);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::SaxBitmap;

    fn noise(i: usize) -> f64 {
        // Deterministic pseudo-noise in [-0.05, 0.05].
        (((i.wrapping_mul(2654435761)) % 10_000) as f64 / 10_000.0 - 0.5) * 0.1
    }

    fn small_cfg() -> AnomalyConfig {
        AnomalyConfig {
            window: 50,
            alphabet: 6,
            ngram: 2,
            normalization: Normalization::Global,
        }
    }

    #[test]
    fn warmup_scores_are_zero() {
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        // The first 2*window - 1 samples cannot fill both windows.
        for i in 0..(2 * cfg.window - 1) {
            let s = det.push(noise(i));
            assert_eq!(s, 0.0, "sample {i} before warm-up");
        }
        assert!(!det.warmed_up());
        det.push(noise(2 * cfg.window));
        assert!(det.warmed_up());
    }

    #[test]
    fn stationary_noise_scores_low_event_scores_high() {
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        let mut quiet_max: f64 = 0.0;
        // Long stationary stretch.
        for i in 0..3_000 {
            let s = det.push(noise(i));
            if i > 1_000 {
                quiet_max = quiet_max.max(s);
            }
        }
        // Structured loud event: a tone sweep.
        let mut event_max: f64 = 0.0;
        for i in 0..500 {
            let x = (i as f64 * 0.35).sin() * 2.0;
            event_max = event_max.max(det.push(x + noise(i)));
        }
        assert!(
            event_max > 2.0 * quiet_max,
            "event {event_max} vs quiet {quiet_max}"
        );
    }

    #[test]
    fn score_falls_after_event_ends() {
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        for i in 0..2_000 {
            det.push(noise(i));
        }
        let mut during: f64 = 0.0;
        for i in 0..400 {
            during = during.max(det.push((i as f64 * 0.5).sin() * 3.0));
        }
        // Return to noise; after both windows re-fill with noise the score
        // must come back down.
        let mut tail = 0.0f64;
        for i in 0..2_000 {
            let s = det.push(noise(i + 7));
            if i > 500 {
                tail = tail.max(s);
            }
        }
        assert!(tail < during / 2.0, "tail {tail} vs during {during}");
    }

    /// Both windows' bitmaps rebuilt from scratch out of the gram
    /// history: once warm, the lead window is the newest
    /// `window − ngram + 1` grams and the lag window the same number
    /// ending `window` samples earlier.
    fn window_bitmaps(det: &BitmapAnomaly) -> (SaxBitmap, SaxBitmap) {
        let AnomalyConfig {
            window,
            alphabet,
            ngram,
            ..
        } = det.config;
        let grams = window - ngram + 1;
        let rebuild = |end: usize| {
            let mut bitmap = SaxBitmap::new(alphabet, ngram);
            for &cell in &det.cells[end - grams..end] {
                bitmap.add_index(cell as usize);
            }
            bitmap
        };
        (rebuild(det.filled), rebuild(det.filled - window))
    }

    #[test]
    fn incremental_distance_matches_full_recompute() {
        // The O(1) running-sum score must agree with a from-scratch
        // Euclidean distance over the full matrices at every step,
        // through warm-up, events, and recovery — and the running
        // differences and ΣD² exactly with the windows they claim to
        // describe.
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        for i in 0..3_000usize {
            let x = noise(i)
                + if i % 700 < 80 {
                    (i as f64 * 0.4).sin() * 2.0
                } else {
                    0.0
                };
            let s = det.push(x);
            if det.warmed_up() {
                let (lead, lag) = window_bitmaps(&det);
                let mut sum_sq = 0;
                for (idx, &d) in det.diffs.iter().enumerate() {
                    let (a, b) = (lead.count_at(idx) as i64, lag.count_at(idx) as i64);
                    assert_eq!(i64::from(d), a - b, "sample {i}: D[{idx}]");
                    sum_sq += (a - b) * (a - b);
                }
                assert_eq!(det.sum_sq, sum_sq, "sample {i}: ΣD²");
                let full = lead.distance(&lag);
                assert!(
                    (s - full).abs() <= 1e-12 * full.max(1.0),
                    "sample {i}: incremental {s} vs full {full}"
                );
            } else {
                assert_eq!(s, 0.0);
            }
        }
    }

    #[test]
    fn batch_matches_streaming() {
        let cfg = small_cfg();
        let series: Vec<f64> = (0..1_000)
            .map(|i| noise(i) + if i > 600 { (i as f64 * 0.4).sin() } else { 0.0 })
            .collect();
        let batch = anomaly_scores(&series, cfg);
        let mut det = BitmapAnomaly::new(cfg);
        let streamed: Vec<f64> = series.iter().map(|&x| det.push(x)).collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let cfg = small_cfg();
        let series: Vec<f64> = (0..500).map(noise).collect();
        let mut det = BitmapAnomaly::new(cfg);
        let first: Vec<f64> = series.iter().map(|&x| det.push(x)).collect();
        det.reset();
        let second: Vec<f64> = series.iter().map(|&x| det.push(x)).collect();
        assert_eq!(first, second);
        assert_eq!(det.samples_seen(), 500);
    }

    #[test]
    fn sliding_normalization_mode_works() {
        let cfg = AnomalyConfig {
            normalization: Normalization::Sliding(200),
            ..small_cfg()
        };
        let mut det = BitmapAnomaly::new(cfg);
        let mut max: f64 = 0.0;
        for i in 0..2_000 {
            let x = noise(i)
                + if i > 1_500 {
                    (i as f64 * 0.45).sin()
                } else {
                    0.0
                };
            max = max.max(det.push(x));
        }
        assert!(max > 0.0);
    }

    #[test]
    fn scores_are_bounded_by_sqrt_two() {
        // Frequencies are probability vectors, so the distance can never
        // exceed sqrt(2).
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        for i in 0..5_000 {
            let x = if i % 997 < 100 { 5.0 } else { noise(i) };
            let s = det.push(x);
            assert!(s <= std::f64::consts::SQRT_2 + 1e-12, "score {s}");
        }
    }

    #[test]
    fn trigram_bitmaps_supported() {
        let cfg = AnomalyConfig {
            ngram: 3,
            ..small_cfg()
        };
        let mut det = BitmapAnomaly::new(cfg);
        for i in 0..1_000 {
            det.push(noise(i));
        }
        assert!(det.warmed_up());
    }

    #[test]
    fn unigram_bitmaps_supported() {
        let cfg = AnomalyConfig {
            ngram: 1,
            ..small_cfg()
        };
        let scores = anomaly_scores(&(0..500).map(noise).collect::<Vec<_>>(), cfg);
        assert_eq!(scores.len(), 500);
    }

    #[test]
    fn the_statistics_bound_is_two_to_the_478() {
        assert_eq!(MAX_STATISTIC_SAMPLE, 2f64.powi(478));
        // 2⁶⁴ squared deviations of twice the bound stay finite.
        let deviation = 2.0 * MAX_STATISTIC_SAMPLE;
        assert!((deviation * deviation * 2f64.powi(64)).is_finite());
    }

    #[test]
    fn paper_defaults() {
        let cfg = AnomalyConfig::default();
        assert_eq!(cfg.window, 100);
        assert_eq!(cfg.alphabet, 8);
    }

    #[test]
    #[should_panic(expected = "ngram must be in")]
    fn rejects_ngram_larger_than_window() {
        BitmapAnomaly::new(AnomalyConfig {
            window: 2,
            ngram: 3,
            ..AnomalyConfig::default()
        });
    }
}
