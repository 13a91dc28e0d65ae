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
//! most three cells, and the Euclidean distance is maintained
//! incrementally from one exact integer running sum rather than by
//! re-scanning all alphabetⁿ cells — satisfying the paper's requirement
//! of "processor and memory efficient techniques" (§5).
//!
//! Scoring is a **block kernel** ([`BitmapAnomaly::score_block`],
//! DESIGN.md §14): a record is walked in private tiles, and within a
//! tile the work is split by kind. The true recurrences — the running
//! normalisation sums and the n-gram counts — run as sequential passes
//! over flat buffers, each carrying the per-sample work that hangs off
//! its chain; the quantiser and the gram cell indices run as loops the
//! compiler packs. Every step keeps the expression and the operation
//! order of the one-sample definition, so a score does not depend on how
//! the stream was cut into blocks, down to the last bit.
//!
//! Each sample is Z-normalised against the mean and σ of the trailing
//! [`norm_window`](AnomalyConfig::norm_window) samples, itself included
//! — the streaming form of SAX's per-subsequence normalisation (§2),
//! kept as running sums by [`SlidingStats`].
//!
//! Symbols are decided **in squares**: with the window's running sums
//! S = Σx and Q = Σx² over n samples, z = d/√v for d = n·x − S and
//! v = n·Q − S², and z lies on the same side of a breakpoint b as d² of
//! b²·v, so the common sample pays no division and no square root. A
//! sample whose z² falls within a relative 2⁻²⁴ of some b², or whose d
//! or v cancels (DESIGN.md §14 states the bound), takes the exact
//! expression instead — μ = S/n, σ = √max(Q/n − μ², 0), [`znorm_value`]
//! and the count of breakpoints ≤ z — so every symbol, and with it every
//! count, is the exact expression's. The one rounding after the counts
//! is √(ΣD²/tt), within 1.5 ulp of the true distance.

use crate::gaussian::sax_breakpoints;
use crate::sax::Symbol;
use crate::znorm::znorm_value;
use river_dsp::stats::SlidingStats;

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
    /// Samples in the trailing window whose mean and σ Z-normalise each
    /// sample — the streaming form of SAX's per-subsequence
    /// normalisation (paper §2). It adapts to slow drift (e.g. changing
    /// wind levels) at the cost of partially normalising away long
    /// events.
    pub norm_window: usize,
}

impl Default for AnomalyConfig {
    /// The paper's acoustic-pipeline parameters: window 100, alphabet 8,
    /// bigram bitmaps, normalised over the trailing 8,400 samples (the
    /// shipped chain's `norm_window`).
    fn default() -> Self {
        AnomalyConfig {
            window: 100,
            alphabet: 8,
            ngram: 2,
            norm_window: 8_400,
        }
    }
}

/// Samples per private tile of [`BitmapAnomaly::score_block`]. A tile's
/// working set (input, output, the `f64` lanes, symbols and gram cells)
/// stays inside L1 beside the normalisation ring that streams through
/// it, and the packed loops spend their time in the vector body rather
/// than in prologues.
const TILE: usize = 256;

/// The largest magnitude a sample may have to enter the normalisation
/// statistics: 2⁴⁷⁸ ≈ 7.8·10¹⁴³. At most that, even 2⁶⁴ samples cannot
/// push the running Σx² past `f64::MAX`, with a factor of 16 to spare.
/// A larger sample is scored like a non-finite one (DESIGN.md §14).
const MAX_STATISTIC_SAMPLE: f64 = 7.804_371_375_789_981e143;

/// Samples the quantiser decides together, their counts held in
/// registers while it walks the thresholds.
const BLOCK: usize = 8;

/// The breakpoints as the quantiser reads them.
#[derive(Debug, Clone)]
struct Quantiser {
    /// The `alphabet` − 1 breakpoints, ascending: the exact expression
    /// counts those ≤ z.
    breakpoints: Vec<f64>,
    /// b²·(1 ∓ ρ) of each positive breakpoint b, ascending: a z² outside
    /// the bands crosses an even number of them, twice the positive
    /// breakpoints below |z|; one within ρ of a b² crosses an odd
    /// number.
    thresholds: Vec<f64>,
    /// Breakpoints < 0 (as many as > 0), and breakpoints ≤ 0.
    negative: u32,
    non_positive: u32,
}

/// ρ = 2⁻²⁴, the relative half-width of the band around each b² inside
/// which the exact expression decides. It has to cover how far d²/v and
/// the exact expression's z² can lie apart, at most 14u/κ + 5u ≈
/// 1.0·10⁻¹⁰ relatively (u = 2⁻⁵³), and how far a negative breakpoint's
/// square lies from its positive mirror's, which the quantiser compares
/// both signs against: 0 at alphabet 8, at most 2.3·10⁻¹³ (alphabet
/// 233) over 2..=256 (DESIGN.md §14).
const BAND: f64 = 1.0 / (1u64 << 24) as f64;

/// κ = 2⁻¹⁶: the fast path takes a sample only when |d| exceeds κ times
/// the terms it is the difference of, and v κ times its terms; then
/// their rounding, and the exact expression's, is at most 2u/κ and 4u/κ
/// of them. Below that the subtraction cancels, and the exact expression
/// decides.
const CANCELLATION: f64 = 1.0 / (1u64 << 16) as f64;

// `decide` runs inside the kernel's tile passes, which force their
// callees inline (see the note on `BitmapAnomaly`'s methods).
#[allow(clippy::inline_always)]
impl Quantiser {
    fn new(alphabet: usize) -> Self {
        let breakpoints = sax_breakpoints(alphabet);
        let negative = breakpoints.iter().filter(|&&b| b < 0.0).count();
        let positive: Vec<f64> = breakpoints.iter().copied().filter(|&b| b > 0.0).collect();
        assert_eq!(negative, positive.len(), "breakpoints mirror around 0");
        let thresholds: Vec<f64> = positive
            .iter()
            .flat_map(|b| [b * b * (1.0 - BAND), b * b * (1.0 + BAND)])
            .collect();
        assert!(thresholds.is_sorted(), "bands around the squares overlap");
        Quantiser {
            negative: negative as u32,
            non_positive: (breakpoints.len() - positive.len()) as u32,
            thresholds,
            breakpoints,
        }
    }

    /// Decides `L` samples from v and the signed d² (NaN: in doubt),
    /// holding the crossing counts in registers while it walks the
    /// thresholds — `f64` counts, so the walk is not reassociated into a
    /// reduction over the thresholds and the `L` samples pack instead.
    /// Returns how many it left to the exact expression (marked by a
    /// NaN in `sdd`).
    #[inline(always)]
    fn decide<const L: usize>(&self, v: &[f64], sdd: &mut [f64], symbols: &mut [Symbol]) -> u32 {
        let mut dd = [0.0; L];
        for j in 0..L {
            dd[j] = sdd[j].abs();
        }
        let mut crossed = [0.0f64; L];
        for &threshold in &self.thresholds {
            for j in 0..L {
                crossed[j] += if threshold * v[j] > dd[j] { 0.0 } else { 1.0 };
            }
        }
        let mut doubtful = 0;
        for j in 0..L {
            // An integer below 2⁵² added to 2⁵² lands in the low bits
            // of the mantissa: a conversion that packs.
            let crossed = (crossed[j] + 4_503_599_627_370_496.0).to_bits() as u32;
            let (half, odd) = (crossed >> 1, crossed & 1 == 1 || sdd[j].is_nan());
            let symbol = if sdd[j] > 0.0 {
                self.non_positive + half
            } else {
                self.negative.wrapping_sub(half)
            };
            symbols[j] = symbol as Symbol;
            if odd {
                sdd[j] = f64::NAN;
            }
            doubtful += u32::from(odd);
        }
        doubtful
    }

    /// The symbol of z: the number of breakpoints ≤ z.
    #[inline]
    fn exact(&self, z: f64) -> Symbol {
        self.breakpoints.iter().filter(|&&b| b <= z).count() as Symbol
    }
}

/// Tile-long `f64` lanes between the passes.
#[derive(Debug, Clone)]
struct Lanes {
    /// Out of the statistics pass: Σx and Σx², and the samples they
    /// are over. A NaN in `b` marks a sample the statistics could not
    /// hold.
    a: Vec<f64>,
    b: Vec<f64>,
    n: Vec<f64>,
    /// v and the signed d² of each sample; NaN in `sdd` marks one the
    /// exact expression decides.
    v: Vec<f64>,
    sdd: Vec<f64>,
}

impl Lanes {
    fn new() -> Self {
        let lane = || vec![0.0; TILE];
        Lanes {
            a: lane(),
            b: lane(),
            n: lane(),
            v: lane(),
            sdd: lane(),
        }
    }
}

/// A cell's lead − lag difference goes up by one (a gram enters the
/// lead window or leaves the lag window); returns the change of ΣE².
#[inline]
fn rise(e: &mut i32) -> i64 {
    let change = 1 + 2 * i64::from(*e);
    *e += 1;
    change
}

/// A gram leaves the lead window and enters the lag window in the same
/// step: its cell's difference goes down by two; returns the change of
/// ΣE².
#[inline]
fn cross(e: &mut i32) -> i64 {
    let change = 4 - 4 * i64::from(*e);
    *e -= 2;
    change
}

/// ΣD² − ΣE²: the grams in `straddling` (cell indices, the last the
/// one that crossed this step) have left the lead window but not yet
/// entered the true lag window, so each still counts one less against
/// its cell than E says. Adding them back one by one, the r-th copy of a
/// cell adds 2·(E + r) + 1. Out of line: the count loop reads the
/// bigram case itself, and inlining the general loop slowed it.
#[inline(never)]
fn straddle(straddling: &[u32], diffs: &[i32]) -> i64 {
    let Some((&last, older)) = straddling.split_last() else {
        return 0;
    };
    let mut extra = 2 * i64::from(diffs[last as usize]) + 1;
    for (j, &cell) in older.iter().enumerate() {
        let copies = older[..j].iter().filter(|&&c| c == cell).count() + usize::from(cell == last);
        extra += 2 * (i64::from(diffs[cell as usize]) + copies as i64) + 1;
    }
    extra
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
    quantiser: Quantiser,
    /// The trailing window samples are normalised against.
    stats: SlidingStats,
    /// Samples consumed so far.
    t: u64,
    /// Samples whose symbol the exact expression decided since `new`
    /// or `reset` (DESIGN.md §14 measures the rate).
    exact_symbols: u64,
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
    /// once and read by plain offset; when the buffer is full the
    /// history moves back to the front (at most one cell copied per
    /// sample, amortised).
    cells: Vec<u32>,
    filled: usize,
    /// Per cell, E = lead count − count in the lag window *widened* by
    /// the `ngram − 1` grams that straddle the boundary between the
    /// two: a gram enters it at the step it leaves the lead window, so
    /// each sample moves three cells, not four.
    diffs: Vec<i32>,
    /// ΣE² over all cells, exact (|E| is bounded by the window size).
    /// With the straddling grams added back, ΣD² for D = lead − lag;
    /// once both windows are warm each holds ta = tb = window − ngram +
    /// 1 grams, and the Euclidean distance between the two frequency
    /// matrices is d = √(Σ(a/ta − b/tb)²) = √(ΣD²/ta²).
    sum_sq: i64,
    lanes: Lanes,
}

// `push` is the kernel with a trip count of one. Forcing the tile passes
// into both callers lets the compiler fold that count through every
// loop.
#[allow(clippy::inline_always)]
impl BitmapAnomaly {
    /// Creates a detector. Every buffer the detector will ever use is
    /// sized here; scoring never allocates, whatever the block length.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `norm_window == 0`, `ngram == 0`,
    /// `ngram > window`, the alphabet is outside `2..=256`, or the count
    /// matrix would exceed 2²⁴ cells (e.g. alphabet 256 with ngram 3).
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
        assert!(config.norm_window > 0, "norm_window must be non-zero");
        let history = 2 * config.window;
        BitmapAnomaly {
            quantiser: Quantiser::new(config.alphabet),
            stats: SlidingStats::new(config.norm_window),
            t: 0,
            exact_symbols: 0,
            symbols: vec![0; config.ngram - 1 + TILE],
            cells: vec![0; history + history.max(TILE)],
            filled: history,
            diffs: vec![0; cell_count],
            sum_sq: 0,
            lanes: Lanes::new(),
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
        self.statistics_tile(xs);
        self.quantise_tile(xs);
        self.index_tile(xs.len());
        self.count_tile(out);
        self.t += xs.len() as u64;
    }

    /// Tile pass 1 (recurrence): the running sums that include each
    /// sample, and in the shadow of their chain each sample in squares.
    /// A sample the statistics cannot hold (non-finite, or
    /// beyond [`MAX_STATISTIC_SAMPLE`]) enters them as their mean, is
    /// marked with a NaN in lane `b` and left to the exact expression.
    #[inline(always)]
    fn statistics_tile(&mut self, xs: &[f64]) {
        let k = xs.len();
        let l = &mut self.lanes;
        let (a, b, n) = (&mut l.a[..k], &mut l.b[..k], &mut l.n[..k]);
        let (v, sdd) = (&mut l.v[..k], &mut l.sdd[..k]);
        // One packed test for the common tile, with nothing to stand in.
        let clean = !xs.iter().fold(false, |bad, x| {
            bad | x.is_nan() | (x.abs() > MAX_STATISTIC_SAMPLE)
        });
        let mut at = 0;
        while at < k {
            let run = if clean {
                k
            } else {
                xs[at..]
                    .iter()
                    .position(|x| x.is_nan() || x.abs() > MAX_STATISTIC_SAMPLE)
                    .map_or(k, |p| at + p)
            };
            let stand_in = [self.stats.mean()];
            let block = if at < run {
                &xs[at..run]
            } else {
                &stand_in[..]
            };
            self.stats.push_sums(block, |i, sum, sum_sq, count| {
                let i = at + i;
                a[i] = sum;
                b[i] = sum_sq;
                n[i] = count;
                // In squares at scale n: z = d/√v in exact arithmetic for
                // d = n·x − Σx and v = n·Σx² − (Σx)². The magnitudes of
                // the terms each is the difference of bound its rounding,
                // and the exact expression's (DESIGN.md §14, "Symbols in
                // squares").
                let (nx, nq, ss) = (count * xs[i], count * sum_sq, sum * sum);
                let (d, var) = (nx - sum, nq - ss);
                v[i] = var;
                let certain = d.abs() > CANCELLATION * (nx.abs() + sum.abs())
                    && var > CANCELLATION * (nq.abs() + ss);
                sdd[i] = if certain { d * d.abs() } else { f64::NAN };
            });
            if at == run {
                b[at] = f64::NAN;
                sdd[at] = f64::NAN;
                at += 1;
            } else {
                at = run;
            }
        }
    }

    /// Tile pass 2 (pure): symbols decided in squares, packed [`BLOCK`]
    /// samples at a time, and each sample left in doubt by the exact
    /// expression — μ and σ by [`SlidingStats::moments`] from the
    /// statistics lanes, z = `znorm_value(x, μ, σ)` and the count of
    /// breakpoints ≤ z.
    #[inline(always)]
    fn quantise_tile(&mut self, xs: &[f64]) {
        let k = xs.len();
        let n = self.config.ngram;
        let q = &self.quantiser;
        let l = &mut self.lanes;
        let symbols = &mut self.symbols[n - 1..n - 1 + k];
        let (v, sdd) = (&l.v[..k], &mut l.sdd[..k]);
        let whole = k - k % BLOCK;
        let mut doubtful = 0;
        for ((v, sdd), symbols) in v[..whole]
            .chunks_exact(BLOCK)
            .zip(sdd[..whole].chunks_exact_mut(BLOCK))
            .zip(symbols[..whole].chunks_exact_mut(BLOCK))
        {
            doubtful += q.decide::<BLOCK>(v, sdd, symbols);
        }
        for ((v, sdd), symbol) in v[whole..]
            .chunks_exact(1)
            .zip(sdd[whole..].chunks_exact_mut(1))
            .zip(symbols[whole..].chunks_exact_mut(1))
        {
            doubtful += q.decide::<1>(v, sdd, symbol);
        }
        if doubtful > 0 {
            for (i, symbol) in symbols.iter_mut().enumerate() {
                if sdd[i].is_nan() {
                    let (a, b, n) = (l.a[i], l.b[i], l.n[i]);
                    let (mean, std) = if b.is_nan() {
                        (0.0, 0.0)
                    } else {
                        SlidingStats::moments(a, b, n)
                    };
                    *symbol = q.exact(znorm_value(xs[i], mean, std));
                }
            }
            self.exact_symbols += u64::from(doubtful);
        }
    }

    /// Tile pass 3 (pure): symbols to the cell index of the gram ending
    /// at each sample, appended to `cells`.
    #[inline(always)]
    fn index_tile(&mut self, k: usize) {
        let n = self.config.ngram;
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

    /// Tile pass 4 (recurrence): slides both windows over the tile's
    /// grams and writes each sample's score. Three cells move a sample
    /// — the newest gram enters the lead window, the gram leaving it
    /// enters the widened lag window, the oldest leaves that — and
    /// once warm the score is the same Euclidean distance as
    /// [`SaxBitmap::distance`](crate::bitmap::SaxBitmap::distance),
    /// √(ΣD²/tt) from the exact ΣD² = ΣE² plus the straddling grams:
    /// one division and one square root, each correctly rounded, off
    /// the recurrence's chain.
    #[inline(always)]
    fn count_tile(&mut self, scores: &mut [f64]) {
        if self.t >= 2 * self.config.window as u64 {
            self.count_run::<true>(scores);
        } else {
            self.count_run::<false>(scores);
        }
    }

    /// [`count_tile`](Self::count_tile) with every window crossing
    /// tested (`WARM` false) or known to happen (`WARM`: the tile starts
    /// past warm-up).
    #[inline(always)]
    fn count_run<const WARM: bool>(&mut self, scores: &mut [f64]) {
        let (w, n) = (self.config.window, self.config.ngram);
        let (w64, n64) = (w as u64, n as u64);
        let grams = (w - n + 1) as f64;
        let tt = grams * grams;
        let mut sum_sq = self.sum_sq;
        let cells = &self.cells;
        let diffs = &mut self.diffs;
        for (i, score) in scores.iter_mut().enumerate() {
            let t = self.t + i as u64; // absolute index of this sample
            let at = self.filled + i; // `cells[at]`: the gram ending at t
            if WARM || t + 1 >= n64 {
                sum_sq += rise(&mut diffs[cells[at] as usize]);
            }
            // The gram ending at t − w + n − 1 (starting at t − w).
            if WARM || t >= w64 {
                sum_sq += cross(&mut diffs[cells[at - w + n - 1] as usize]);
            }
            // The gram starting at t − 2w leaves the lag window.
            if WARM || t >= 2 * w64 {
                sum_sq += rise(&mut diffs[cells[at - 2 * w + n - 1] as usize]);
            }
            *score = if WARM || t + 1 >= 2 * w64 {
                // One straddling gram (bigrams, the paper's) is the
                // general sum with one term, read without the loop.
                let total = sum_sq
                    + match n {
                        1 => 0,
                        2 => 2 * i64::from(diffs[cells[at + 1 - w] as usize]) + 1,
                        _ => straddle(&cells[at + 1 - w..at + n - w], diffs),
                    };
                (total as f64 / tt).sqrt()
            } else {
                0.0
            };
        }
        self.filled += scores.len();
        self.sum_sq = sum_sq;
    }

    /// Resets all stream state (windows, counters and normalisation).
    pub fn reset(&mut self) {
        self.stats.clear();
        self.t = 0;
        self.exact_symbols = 0;
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
            norm_window: 8_400,
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

    /// The bitmap of the grams ending in the `from..to` samples before
    /// the newest one (0 = the newest), rebuilt from the gram history.
    fn rebuild(det: &BitmapAnomaly, from: usize, to: usize) -> SaxBitmap {
        let mut bitmap = SaxBitmap::new(det.config.alphabet, det.config.ngram);
        for &cell in &det.cells[det.filled - to..det.filled - from] {
            bitmap.add_index(cell as usize);
        }
        bitmap
    }

    #[test]
    fn incremental_distance_matches_full_recompute() {
        // At every step, through warm-up, events and recovery: E
        // exactly against the lead window minus the widened lag window,
        // ΣE², ΣD² (the straddling grams added back) against the true
        // windows, and the score against a from-scratch Euclidean
        // distance over the full matrices.
        let mut geometries = vec![(50, 2)];
        for window in [1, 2, 3, 5] {
            geometries.extend((1..=3.min(window)).map(|ngram| (window, ngram)));
        }
        for (window, ngram) in geometries {
            let cfg = AnomalyConfig {
                window,
                ngram,
                ..small_cfg()
            };
            let grams = window - ngram + 1;
            let mut det = BitmapAnomaly::new(cfg);
            for i in 0..3_000usize {
                let x = noise(i)
                    + if i % 700 < 80 {
                        (i as f64 * 0.4).sin() * 2.0
                    } else {
                        0.0
                    };
                let s = det.push(x);
                let what = format!("window {window}, ngram {ngram}, sample {i}");
                if !det.warmed_up() {
                    assert_eq!(s, 0.0, "{what}");
                    continue;
                }
                let lead = rebuild(&det, 0, grams);
                let widened = rebuild(&det, grams, grams + window);
                let lag = rebuild(&det, window, window + grams);
                let (mut sum_sq_e, mut sum_sq_d) = (0, 0);
                for (idx, &e) in det.diffs.iter().enumerate() {
                    let a = lead.count_at(idx) as i64;
                    let widened = widened.count_at(idx) as i64;
                    assert_eq!(i64::from(e), a - widened, "{what}: E[{idx}]");
                    sum_sq_e += (a - widened) * (a - widened);
                    let d = a - lag.count_at(idx) as i64;
                    sum_sq_d += d * d;
                }
                assert_eq!(det.sum_sq, sum_sq_e, "{what}: ΣE²");
                let straddling = &det.cells[det.filled - window..det.filled - window + ngram - 1];
                assert_eq!(
                    det.sum_sq + straddle(straddling, &det.diffs),
                    sum_sq_d,
                    "{what}: ΣD²"
                );
                let full = lead.distance(&lag);
                assert!(
                    (s - full).abs() <= 1e-12 * full.max(1.0),
                    "{what}: incremental {s} vs full {full}"
                );
            }
        }
    }

    /// The exact expression, run beside a detector: the symbol of each
    /// pushed sample from the accessors of a twin `SlidingStats`.
    #[derive(Clone)]
    struct Exact {
        stats: SlidingStats,
        breakpoints: Vec<f64>,
    }

    impl Exact {
        fn new(cfg: AnomalyConfig) -> Self {
            Exact {
                stats: SlidingStats::new(cfg.norm_window),
                breakpoints: sax_breakpoints(cfg.alphabet),
            }
        }

        fn push(&mut self, x: f64) -> Symbol {
            self.stats.push(x);
            let (mean, std) = (self.stats.mean(), self.stats.population_std_dev());
            let z = znorm_value(x, mean, std);
            self.breakpoints.iter().filter(|&&b| b <= z).count() as Symbol
        }
    }

    /// The symbol a unigram detector gave the sample it was last pushed.
    fn last_symbol(det: &BitmapAnomaly) -> Symbol {
        det.cells[det.filled - 1] as Symbol
    }

    /// f64s in order as integers, so bisection can walk adjacent floats.
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }

    fn unordered(k: i64) -> f64 {
        f64::from_bits(if k < 0 { i64::MIN - k } else { k } as u64)
    }

    #[test]
    fn symbols_at_breakpoint_ties_are_the_exact_expressions() {
        // A window held at μ = offset, σ = 1 exactly by alternating
        // offset ± 1; then, for every breakpoint, the float at which the
        // exact expression's symbol steps over it and the two floats on
        // either side. Every such sample lies within the band and must
        // take the exact path. Offsets make d and v cancel partly — 150
        // is near the most the fast path accepts, (Σx)² about 2·10⁴
        // times v — and a window of 50 (no power of two) makes n·x and
        // n·Σx² round, so d²/v carries rounding of ~10⁻¹² of z² that
        // the band has to cover.
        let mut ties = 0;
        for alphabet in [2, 3, 8, 64, 256] {
            for offset in [0.0, 100.0, 150.0] {
                let cfg = AnomalyConfig {
                    window: 4,
                    alphabet,
                    ngram: 1,
                    norm_window: 50,
                };
                let (mut det, mut exact) = (BitmapAnomaly::new(cfg), Exact::new(cfg));
                for i in 0..50 {
                    let x = offset + if i % 2 == 0 { 1.0 } else { -1.0 };
                    det.push(x);
                    exact.push(x);
                }
                for k in 0..alphabet - 1 {
                    // The first float whose symbol is above k.
                    let above = |x: f64| usize::from(exact.clone().push(x)) > k;
                    let (mut lo, mut hi) = (ordered(offset - 10.0), ordered(offset + 10.0));
                    assert!(!above(unordered(lo)) && above(unordered(hi)));
                    while i128::from(hi) - i128::from(lo) > 1 {
                        let mid = lo.midpoint(hi);
                        if above(unordered(mid)) {
                            hi = mid;
                        } else {
                            lo = mid;
                        }
                    }
                    for step in -2..=2 {
                        let x = unordered(hi + step);
                        let mut tried = det.clone();
                        tried.push(x);
                        let what = format!("alphabet {alphabet}, offset {offset}, b[{k}], x {x:e}");
                        assert_eq!(last_symbol(&tried), exact.clone().push(x), "{what}");
                        assert_eq!(
                            tried.exact_symbols,
                            det.exact_symbols + 1,
                            "{what}: fast path"
                        );
                        ties += 1;
                    }
                }
            }
        }
        assert_eq!(ties, 5 * 3 * (1 + 2 + 7 + 63 + 255));
    }

    #[test]
    fn cancelling_streams_take_the_exact_expression() {
        // Offsets that swamp the signal, a constant and silence: d or v
        // cancels, and every symbol must still be the exact expression's.
        type Stream = (&'static str, fn(usize) -> f64);
        let streams: [Stream; 3] = [
            ("1e9 + signal", |i| {
                1e9 + noise(i) + (i as f64 * 0.3).sin() * 0.2
            }),
            ("constant", |_| 0.25),
            ("all-zero", |_| 0.0),
        ];
        for (name, stream) in streams {
            for norm_window in [50, 8_400] {
                for alphabet in [3, 8, 256] {
                    let cfg = AnomalyConfig {
                        window: 4,
                        alphabet,
                        ngram: 1,
                        norm_window,
                    };
                    let (mut det, mut exact) = (BitmapAnomaly::new(cfg), Exact::new(cfg));
                    for i in 0..2_000 {
                        let x = stream(i);
                        det.push(x);
                        let what = format!(
                            "{name}, norm_window {norm_window}, alphabet {alphabet}, sample {i}"
                        );
                        assert_eq!(last_symbol(&det), exact.push(x), "{what}");
                    }
                    assert!(det.exact_symbols > 0, "{name}: the exact path never ran");
                }
            }
        }
    }

    #[test]
    fn the_band_covers_rounding_and_breakpoint_asymmetry() {
        // How far a negative breakpoint lies from its positive mirror,
        // worst over every alphabet, and where; their squares differ by
        // twice that, relatively.
        let (mut worst, mut at) = (0.0, 0);
        for alphabet in 2..=256 {
            let b = sax_breakpoints(alphabet);
            for (neg, pos) in b.iter().zip(b.iter().rev()).take(b.len() / 2) {
                let asymmetry = (neg + pos).abs() / pos;
                if asymmetry > worst {
                    (worst, at) = (asymmetry, alphabet);
                }
            }
        }
        assert!(
            worst < 2.4e-13 && at == 233,
            "asymmetry {worst:e} at alphabet {at}"
        );
        let symmetric = sax_breakpoints(8);
        assert!(symmetric
            .iter()
            .zip(symmetric.iter().rev())
            .all(|(n, p)| -n == *p));
        // d²/v against the exact expression's z², and the asymmetry,
        // well inside ρ.
        let u = f64::EPSILON / 2.0;
        let rounding = 14.0 * u / CANCELLATION + 5.0 * u;
        assert!(rounding < 1.1e-10);
        assert!(4.0 * (rounding + 2.0 * worst) < BAND);
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
            norm_window: 200,
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
        // 2⁶⁴ squares of twice the bound stay finite: the running Σx²
        // has room to spare.
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
