//! Streaming statistics.
//!
//! The adaptive `trigger` operator "incrementally computes an estimate of
//! the mean anomaly score, μ₀, for values when the trigger value is 0"
//! (paper §3) — over its warm-up that estimator is [`Welford`], after it
//! sums shifted by the warm-up mean. The `saxanomaly` operator
//! smooths scores with a moving average over 2250 samples — that is
//! [`MovingAverage`]. [`SlidingStats`] provides exact windowed mean and
//! variance for the streaming Z-normalization used by SAX symbolization.

/// Welford's online algorithm for mean and variance over an unbounded
/// stream.
///
/// Numerically stable; O(1) per update.
///
/// # Example
///
/// ```
/// use river_dsp::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`); `0.0` for fewer than one
    /// observation.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n - 1`); `0.0` for fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Merges another estimator into this one (parallel Welford/Chan).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
    }
}

/// Flat ring of the most recent samples under [`SlidingStats`] and
/// [`MovingAverage`], allocated once. While it fills, samples land at
/// `buf[len]` and `head` stays 0; once full, `head` is the oldest sample
/// and the next slot to overwrite, so a block walks the ring as
/// contiguous runs with no per-sample wrap test.
#[derive(Debug, Clone)]
struct Ring {
    buf: Vec<f64>,
    len: usize,
    head: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be non-zero");
        Ring {
            buf: vec![0.0; capacity],
            len: 0,
            head: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// Samples a block can still push before the ring is full.
    fn room(&self) -> usize {
        self.buf.len() - self.len
    }

    /// Stores `x`, returning the sample it evicts once the ring is full.
    #[inline]
    fn replace(&mut self, x: f64) -> Option<f64> {
        if self.is_full() {
            let old = std::mem::replace(&mut self.buf[self.head], x);
            self.head += 1;
            if self.head == self.buf.len() {
                self.head = 0;
            }
            Some(old)
        } else {
            self.buf[self.len] = x;
            self.len += 1;
            None
        }
    }

    /// Of a full ring: the next contiguous run of at most `want` slots,
    /// oldest first. The caller overwrites every slot of the run with a
    /// new sample.
    fn take_run(&mut self, want: usize) -> &mut [f64] {
        debug_assert!(self.is_full());
        let start = self.head;
        let run = want.min(self.buf.len() - start);
        self.head = if start + run == self.buf.len() {
            0
        } else {
            start + run
        };
        &mut self.buf[start..start + run]
    }

    /// Oldest first.
    fn iter(&self) -> impl Iterator<Item = &f64> {
        let (newer, older) = self.buf[..self.len].split_at(self.head);
        older.iter().chain(newer)
    }

    fn clear(&mut self) {
        self.len = 0;
        self.head = 0;
    }
}

/// Exact mean and variance over a fixed-size sliding window.
///
/// Maintains running sums over a flat ring: O(1) per sample, O(window)
/// memory, allocated in [`new`](Self::new). Used for streaming
/// Z-normalization in the SAX symbolizer.
///
/// # Example
///
/// ```
/// use river_dsp::SlidingStats;
///
/// let mut s = SlidingStats::new(3);
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// // Window now holds [2, 3, 4].
/// assert_eq!(s.mean(), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingStats {
    ring: Ring,
    sum: f64,
    sum_sq: f64,
}

/// Population variance of `n` samples from their running sums, clamped
/// at zero against rounding.
#[inline]
fn variance_of(sum_sq: f64, n: f64, mean: f64) -> f64 {
    (sum_sq / n - mean * mean).max(0.0)
}

impl SlidingStats {
    /// Creates a window of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        SlidingStats {
            ring: Ring::new(capacity),
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Pushes a sample, evicting the oldest if the window is full. Returns
    /// the evicted sample, if any.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        let evicted = self.ring.replace(x);
        if let Some(old) = evicted {
            self.sum -= old;
            self.sum_sq -= old * old;
        }
        self.sum += x;
        self.sum_sq += x * x;
        evicted
    }

    /// Pushes every sample of `xs` in order, calling `each(i, Σx, Σx²,
    /// n)` after the i-th push with the window's running sums and the
    /// samples it then holds: [`moments`](Self::moments)`(Σx, Σx², n)`
    /// is bit for bit what [`mean`](Self::mean) and
    /// [`population_std_dev`](Self::population_std_dev) return at that
    /// point.
    ///
    /// The sums are a recurrence, two dependent adds a sample each;
    /// whatever `each` derives from one sample's sums is off that chain
    /// and runs in its shadow.
    #[inline]
    pub fn push_sums(&mut self, xs: &[f64], mut each: impl FnMut(usize, f64, f64, f64)) {
        // Still filling: nothing is evicted, and n grows.
        let filling = self.ring.room().min(xs.len());
        for (i, &x) in xs[..filling].iter().enumerate() {
            self.push(x);
            each(i, self.sum, self.sum_sq, self.ring.len as f64);
        }
        let n = self.ring.len as f64;
        let (mut sum, mut sum_sq) = (self.sum, self.sum_sq);
        let mut done = filling;
        while done < xs.len() {
            let slots = self.ring.take_run(xs.len() - done);
            for (i, (slot, &x)) in (done..).zip(slots.iter_mut().zip(&xs[done..])) {
                let old = std::mem::replace(slot, x);
                sum -= old;
                sum_sq -= old * old;
                sum += x;
                sum_sq += x * x;
                each(i, sum, sum_sq, n);
            }
            done += slots.len();
        }
        self.sum = sum;
        self.sum_sq = sum_sq;
    }

    /// The mean and population standard deviation of `n > 0` samples
    /// with running sums `sum` and `sum_sq`, by the expressions the
    /// accessors use: μ = Σx/n and σ = √max(Σx²/n − μ², 0).
    #[inline]
    pub fn moments(sum: f64, sum_sq: f64, n: f64) -> (f64, f64) {
        let mean = sum / n;
        (mean, variance_of(sum_sq, n, mean).sqrt())
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.ring.len
    }

    /// Returns `true` if no samples are held.
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// Returns `true` when the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.ring.is_full()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.ring.buf.len()
    }

    /// Mean of the samples in the window; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum / self.len() as f64
        }
    }

    /// Population variance of the window, clamped at zero against rounding.
    pub fn population_variance(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        variance_of(self.sum_sq, self.len() as f64, self.mean())
    }

    /// Population standard deviation of the window.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Iterates over the samples currently in the window, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &f64> {
        self.ring.iter()
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.sum = 0.0;
        self.sum_sq = 0.0;
    }
}

/// A simple moving average over a fixed window — the smoother applied to
/// SAX anomaly scores (2250 samples in the paper's experiments).
///
/// # Example
///
/// ```
/// use river_dsp::MovingAverage;
///
/// let mut ma = MovingAverage::new(2);
/// assert_eq!(ma.push(1.0), 1.0);       // [1]
/// assert_eq!(ma.push(3.0), 2.0);       // [1,3]
/// assert_eq!(ma.push(5.0), 4.0);       // [3,5]
/// ```
#[derive(Debug, Clone)]
pub struct MovingAverage {
    ring: Ring,
    sum: f64,
}

impl MovingAverage {
    /// Creates a moving average over `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        MovingAverage {
            ring: Ring::new(window),
            sum: 0.0,
        }
    }

    /// Pushes a sample and returns the current mean. Until the window
    /// fills, the mean is over the samples seen so far (warm-up behaviour).
    pub fn push(&mut self, x: f64) -> f64 {
        let old = self.ring.replace(x).unwrap_or(0.0);
        self.sum += x - old;
        self.current()
    }

    /// Pushes every sample of `xs` in order and replaces it with the
    /// mean after its push — bit for bit what [`push`](Self::push)
    /// returns sample by sample. The sliding sum is walked as a
    /// recurrence of one add per sample (`sum += x − old`, the
    /// difference off the chain); once the window is full the
    /// multiplication by 1/window is a separate loop the compiler packs.
    pub fn smooth_in_place(&mut self, xs: &mut [f64]) {
        let filling = self.ring.room().min(xs.len());
        for x in &mut xs[..filling] {
            *x = self.push(*x);
        }
        let xs = &mut xs[filling..];

        let mut sum = self.sum;
        let mut done = 0;
        while done < xs.len() {
            let slots = self.ring.take_run(xs.len() - done);
            let end = done + slots.len();
            for (slot, x) in slots.iter_mut().zip(&mut xs[done..end]) {
                sum += *x - std::mem::replace(slot, *x);
                *x = sum;
            }
            done = end;
        }
        self.sum = sum;

        let inv = 1.0 / self.ring.len as f64;
        for x in xs {
            *x *= inv;
        }
    }

    /// The current mean without pushing: the sum divided by the samples
    /// held while the window fills, then times 1/window (the expression
    /// [`smooth_in_place`](Self::smooth_in_place) packs).
    pub fn current(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else if self.ring.is_full() {
            self.sum * (1.0 / self.len() as f64)
        } else {
            self.sum / self.len() as f64
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.ring.len
    }

    /// Returns `true` if no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.ring.buf.len()
    }

    /// Clears all state.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn welford_matches_batch() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.13).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (mean, var) = batch_mean_var(&xs);
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.population_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn welford_single_observation() {
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.77).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..200] {
            left.push(x);
        }
        for &x in &xs[200..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.population_variance() - all.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut b = Welford::new();
        b.merge(&before);
        assert_eq!(b, before);
    }

    #[test]
    fn welford_reset() {
        let mut w = Welford::new();
        w.push(5.0);
        w.reset();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn sliding_stats_matches_batch_over_window() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.9).cos() * 3.0).collect();
        let w = 16;
        let mut s = SlidingStats::new(w);
        for (i, &x) in xs.iter().enumerate() {
            s.push(x);
            let lo = (i + 1).saturating_sub(w);
            let window = &xs[lo..=i];
            let (mean, var) = batch_mean_var(window);
            assert!((s.mean() - mean).abs() < 1e-9, "at {i}");
            assert!((s.population_variance() - var).abs() < 1e-9, "at {i}");
        }
    }

    #[test]
    fn sliding_stats_eviction_order() {
        let mut s = SlidingStats::new(2);
        assert_eq!(s.push(1.0), None);
        assert_eq!(s.push(2.0), None);
        assert_eq!(s.push(3.0), Some(1.0));
        assert_eq!(s.push(4.0), Some(2.0));
        assert!(s.is_full());
    }

    #[test]
    fn sliding_stats_variance_never_negative() {
        // Constant stream with rounding pressure.
        let mut s = SlidingStats::new(8);
        for _ in 0..100 {
            s.push(1e9 + 0.1);
            assert!(s.population_variance() >= 0.0);
        }
    }

    #[test]
    fn sliding_stats_clear() {
        let mut s = SlidingStats::new(4);
        s.push(1.0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    /// Block lengths that straddle the fill point and the ring's wrap
    /// several times over.
    const BLOCKS: [usize; 6] = [1, 2, 5, 16, 17, 200];

    #[test]
    fn sliding_stats_block_pass_equals_pushes_bit_for_bit() {
        let xs: Vec<f64> = (0..200).map(|i| (i as f64 * 0.9).cos() * 3.0).collect();
        for cap in [1, 3, 16, 64, 500] {
            let mut one = SlidingStats::new(cap);
            let want: Vec<(u64, u64)> = xs
                .iter()
                .map(|&x| {
                    one.push(x);
                    (one.mean().to_bits(), one.population_std_dev().to_bits())
                })
                .collect();
            for block in BLOCKS {
                let mut s = SlidingStats::new(cap);
                let mut got = Vec::new();
                for xs in xs.chunks(block) {
                    s.push_sums(xs, |_, sum, sum_sq, n| {
                        let (m, s) = SlidingStats::moments(sum, sum_sq, n);
                        got.push((m.to_bits(), s.to_bits()));
                    });
                }
                assert_eq!(got, want, "capacity {cap}, blocks of {block}");
                assert!(s.iter().eq(one.iter()), "capacity {cap}, blocks of {block}");
                assert_eq!(s.len(), one.len());
            }
        }
    }

    #[test]
    fn sliding_stats_iterates_oldest_first_across_the_wrap() {
        let mut s = SlidingStats::new(3);
        for x in [1.0, 2.0] {
            s.push(x);
        }
        assert!(s.iter().eq(&[1.0, 2.0]));
        for x in [3.0, 4.0, 5.0] {
            s.push(x);
        }
        assert!(s.iter().eq(&[3.0, 4.0, 5.0]));
        s.push(6.0);
        assert!(s.iter().eq(&[4.0, 5.0, 6.0]));
    }

    #[test]
    fn moving_average_block_pass_equals_pushes_bit_for_bit() {
        let xs: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        for window in [1, 3, 16, 64, 500] {
            let mut one = MovingAverage::new(window);
            let want: Vec<u64> = xs.iter().map(|&x| one.push(x).to_bits()).collect();
            for block in BLOCKS {
                let mut ma = MovingAverage::new(window);
                let mut smoothed = xs.clone();
                for chunk in smoothed.chunks_mut(block) {
                    ma.smooth_in_place(chunk);
                }
                let got: Vec<u64> = smoothed.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "window {window}, blocks of {block}");
                assert_eq!(ma.current().to_bits(), one.current().to_bits());
                assert_eq!(ma.len(), one.len());
            }
        }
    }

    #[test]
    fn moving_average_warmup_then_steady() {
        let mut ma = MovingAverage::new(3);
        assert_eq!(ma.push(3.0), 3.0);
        assert_eq!(ma.push(6.0), 4.5);
        assert_eq!(ma.push(9.0), 6.0);
        assert_eq!(ma.push(12.0), 9.0); // [6,9,12]
        assert_eq!(ma.current(), 9.0);
        assert_eq!(ma.window(), 3);
    }

    #[test]
    fn moving_average_constant_signal() {
        let mut ma = MovingAverage::new(100);
        for _ in 0..500 {
            assert_eq!(ma.push(7.0), 7.0);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn sliding_stats_rejects_zero_capacity() {
        SlidingStats::new(0);
    }
}
