//! The workspace's property runner: a test body run once per numbered
//! seed, each case drawing its inputs from its own
//! `StdRng::seed_from_u64(seed)`.
//!
//! A case is a pure function of its seed number, so a failure names the
//! seed and nothing else is needed to replay it: change the range to
//! `N..N + 1`. There is no strategy trait and no shrinking; inputs are
//! drawn by plain functions of `&mut StdRng`.
//!
//! ```
//! use rand::RngExt;
//!
//! seeds::check(0..64, |rng| {
//!     let xs = seeds::vec(rng, 1..20, |r| r.random_range(-1.0..1.0));
//!     assert!(xs.iter().all(|x| (-1.0..1.0).contains(x)));
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// Runs `body` once per seed in `seeds`, in order, each time with a
/// fresh `StdRng::seed_from_u64(seed)`.
///
/// A case that panics fails the test with `failing seed: N: ` before
/// its own message, so the seed is in the test's failure itself.
pub fn check(seeds: Range<u64>, mut body: impl FnMut(&mut StdRng)) {
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(cause) = panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng))) {
            let message = cause
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| cause.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a panic without a message");
            panic!("failing seed: {seed}: {message}");
        }
    }
}

/// A vector whose length is drawn from `len` and whose elements come
/// from `draw`.
pub fn vec<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut draw: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.random_range(len);
    (0..n).map(|_| draw(rng)).collect()
}

/// How many seeds or rounds a fuzz battery runs: `FUZZ_ITERS` if it is
/// set to a number, else 256.
pub fn fuzz_iters() -> u64 {
    std::env::var("FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// The first draw of `seed`'s generator.
    fn first_draw(seed: u64) -> u64 {
        StdRng::seed_from_u64(seed).next_u64()
    }

    /// Every case's first 16 draws, in the order the cases ran.
    fn draws(seeds: Range<u64>) -> Vec<Vec<u64>> {
        let mut cases = Vec::new();
        check(seeds, |rng| {
            cases.push((0..16).map(|_| rng.next_u64()).collect());
        });
        cases
    }

    #[test]
    #[should_panic(expected = "failing seed: 3: drew seed 3's first word")]
    fn a_failing_case_names_its_seed() {
        check(0..8, |rng| {
            assert!(rng.next_u64() != first_draw(3), "drew seed 3's first word");
        });
    }

    #[test]
    fn a_seed_replays_identical_draws() {
        let all = draws(0..8);
        assert_eq!(draws(5..6), [all[5].clone()]);
        assert_eq!(draws(0..8), all);
        assert_ne!(all[4], all[5]);
    }

    #[test]
    fn the_range_is_exactly_the_seeds_run() {
        let firsts: Vec<u64> = draws(5..9).iter().map(|case| case[0]).collect();
        let want: Vec<u64> = (5..9).map(first_draw).collect();
        assert_eq!(firsts, want);
        assert!(draws(4..4).is_empty());
    }

    #[test]
    fn vec_draws_its_length_from_the_range() {
        let mut lengths = [false; 4];
        check(0..64, |rng| {
            let xs = vec(rng, 2..6, |r| r.random_range(10..20u8));
            lengths[xs.len() - 2] = true;
            assert!(xs.iter().all(|x| (10..20).contains(x)));
        });
        assert_eq!(lengths, [true; 4]);
    }
}
