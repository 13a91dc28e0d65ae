//! The `saxanomaly` front end as it stood before the block kernel
//! (commit `11e5c7f`), moved out of `block_kernel.rs` verbatim but for
//! visibility: a symbol ring indexed by `u64 %`, a [`SaxBitmap`] pair
//! maintained through its bounds-checked index calls, `SlidingStats` and
//! `MovingAverage` over a `VecDeque`, a `partition_point` quantiser, the
//! distance as Saa/ta² − 2·Sab/(ta·tb) + Sbb/tb², everything in one loop
//! body. It is the oracle, not a second implementation: one copy, read
//! by `block_kernel.rs` here and by `ensemble-core`'s boundary harness
//! (`crates/core/tests/boundaries.rs`) through a `#[path]` module. Its
//! whole-stream (Welford) normalisation went when the detector kept
//! only the sliding window.

// Each test binary uses the part it needs.
#![allow(dead_code)]

use river_sax::anomaly::AnomalyConfig;
use river_sax::gaussian::sax_breakpoints;
use river_sax::sax::Symbol;
use river_sax::SaxBitmap;
use std::collections::VecDeque;

pub fn znorm_value(x: f64, mean: f64, std: f64) -> f64 {
    if std <= 0.0 || !std.is_finite() {
        0.0
    } else {
        (x - mean) / std
    }
}

pub struct RefSlidingStats {
    window: VecDeque<f64>,
    capacity: usize,
    sum: f64,
    sum_sq: f64,
}

impl RefSlidingStats {
    pub fn new(capacity: usize) -> Self {
        RefSlidingStats {
            window: VecDeque::with_capacity(capacity),
            capacity,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    pub fn push(&mut self, x: f64) {
        if self.window.len() == self.capacity {
            let old = self.window.pop_front().expect("window non-empty");
            self.sum -= old;
            self.sum_sq -= old * old;
        }
        self.window.push_back(x);
        self.sum += x;
        self.sum_sq += x * x;
    }

    pub fn mean(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.sum / self.window.len() as f64
        }
    }

    pub fn population_variance(&self) -> f64 {
        let n = self.window.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / n as f64 - mean * mean).max(0.0)
    }

    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    pub fn clear(&mut self) {
        self.window.clear();
        self.sum = 0.0;
        self.sum_sq = 0.0;
    }
}

pub struct RefMovingAverage {
    pub stats: RefSlidingStats,
}

impl RefMovingAverage {
    pub fn push(&mut self, x: f64) -> f64 {
        self.stats.push(x);
        self.stats.mean()
    }
}

pub struct RefAnomaly {
    config: AnomalyConfig,
    breakpoints: Vec<f64>,
    ring: Vec<Symbol>,
    t: u64,
    lead: SaxBitmap,
    lag: SaxBitmap,
    saa: u64,
    sbb: u64,
    sab: u64,
    sliding_stats: RefSlidingStats,
}

impl RefAnomaly {
    pub fn new(config: AnomalyConfig) -> Self {
        let ring_len = 2 * config.window + config.ngram;
        RefAnomaly {
            breakpoints: sax_breakpoints(config.alphabet),
            ring: vec![0; ring_len],
            t: 0,
            lead: SaxBitmap::new(config.alphabet, config.ngram),
            lag: SaxBitmap::new(config.alphabet, config.ngram),
            saa: 0,
            sbb: 0,
            sab: 0,
            sliding_stats: RefSlidingStats::new(config.norm_window),
            config,
        }
    }

    pub fn warmed_up(&self) -> bool {
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

    pub fn push(&mut self, x: f64) -> f64 {
        let s = &mut self.sliding_stats;
        s.push(x);
        let (mean, std) = (s.mean(), s.population_std_dev());
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

    pub fn reset(&mut self) {
        self.ring.fill(0);
        self.t = 0;
        self.lead.clear();
        self.lag.clear();
        self.saa = 0;
        self.sbb = 0;
        self.sab = 0;
        self.sliding_stats.clear();
    }
}
