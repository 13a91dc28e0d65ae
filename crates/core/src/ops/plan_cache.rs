//! Bounded per-record-length plan caches for the spectral operators.
//!
//! `spectrum` precomputes per-length state (the real-FFT plan and the
//! Welch coefficient table) and reuses it for every record of that
//! length. Record lengths come off the wire, though, so an unbounded
//! `HashMap` would let a pathological stream of varying lengths grow
//! operator memory without limit. [`PlanCache`] caps the entry count
//! with FIFO eviction: the production workload uses one length (840;
//! `reslice`'s overlap records are whole records too), so any small cap
//! keeps the hot path a single hash probe while bounding the worst
//! case.

use std::collections::{HashMap, VecDeque};

/// Default entry cap for spectral plan caches — far above any real
/// record-geometry mix, small enough that even a hostile stream of
/// unique lengths holds only a handful of plans.
pub const DEFAULT_PLAN_CACHE_CAP: usize = 16;

/// A bounded map from record length to a precomputed plan, with FIFO
/// eviction at capacity.
///
/// # Example
///
/// ```
/// use ensemble_core::ops::plan_cache::PlanCache;
///
/// let mut cache: PlanCache<Vec<f64>> = PlanCache::new(2);
/// cache.get_or_insert_with(8, |n| vec![0.0; n]);
/// cache.get_or_insert_with(16, |n| vec![0.0; n]);
/// cache.get_or_insert_with(32, |n| vec![0.0; n]); // evicts 8
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PlanCache<V> {
    cap: usize,
    map: HashMap<usize, V>,
    /// Insertion order, oldest first.
    order: VecDeque<usize>,
}

impl<V> PlanCache<V> {
    /// Creates a cache holding at most `cap` plans.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "plan cache capacity must be non-zero");
        PlanCache {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured entry cap.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Returns the plan for length `n`, building it with `build` on a
    /// miss (evicting the oldest entry first when at capacity).
    pub fn get_or_insert_with(&mut self, n: usize, build: impl FnOnce(usize) -> V) -> &mut V {
        if !self.map.contains_key(&n) {
            if self.map.len() >= self.cap {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
            self.map.insert(n, build(n));
            self.order.push_back(n);
        }
        self.map.get_mut(&n).expect("entry just ensured")
    }
}

impl<V> Default for PlanCache<V> {
    fn default() -> Self {
        Self::new(DEFAULT_PLAN_CACHE_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_rebuilds_nothing_on_hits() {
        let mut cache: PlanCache<usize> = PlanCache::new(4);
        let mut builds = 0;
        for &n in &[8, 16, 8, 16, 8] {
            cache.get_or_insert_with(n, |n| {
                builds += 1;
                n
            });
        }
        assert_eq!(builds, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut cache: PlanCache<usize> = PlanCache::new(2);
        cache.get_or_insert_with(1, |n| n);
        cache.get_or_insert_with(2, |n| n);
        cache.get_or_insert_with(3, |n| n);
        assert_eq!(cache.len(), 2);
        // 1 was evicted: re-requesting it rebuilds (and evicts 2).
        let mut rebuilt = false;
        cache.get_or_insert_with(1, |n| {
            rebuilt = true;
            n
        });
        assert!(rebuilt);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn pathological_length_stream_stays_bounded() {
        let mut cache: PlanCache<Vec<f64>> = PlanCache::default();
        for n in 1..10_000usize {
            cache.get_or_insert_with(n, |n| vec![0.0; n.min(4)]);
        }
        assert_eq!(cache.len(), DEFAULT_PLAN_CACHE_CAP);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::<usize>::new(0);
    }
}
