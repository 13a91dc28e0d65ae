//! Cross-validation protocols from the paper's assessment (§4):
//! leave-one-out and resubstitution, with ensemble grouping and voting.
//!
//! "A voting approach is used for testing each ensemble, specifically
//! each pattern belonging to a given ensemble is tested independently
//! and represents a 'vote' for the species indicated by the test. The
//! species with the most votes is returned as the recognized species."

use crate::classifier::{Meso, MesoConfig, PatternId};
use crate::confusion::ConfusionMatrix;
use crate::dataset::{Dataset, Label};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// How leave-one-out holds a group out of the trained memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LooMode {
    /// Train once per iteration, then hold each group out of it
    /// ([`Meso::hold_out`]) while its patterns are queried; the default.
    /// A hold-out removes the group's counts, labels and sums, but
    /// neither δ's running mean nor which spheres later patterns founded
    /// or joined, so it approximates the memory without the group
    /// (`DESIGN.md` §8 gives the difference) at a fraction of the cost.
    /// The memory comes back bit for bit after each group.
    #[default]
    Removal,
    /// Retrain a fresh memory from scratch for every held-out group —
    /// the paper's literal procedure (MESO "is trained and tested 9,460
    /// times" for the ensemble set). Slower by a factor of the dataset
    /// size.
    Retrain,
}

/// Configuration for the cross-validation harnesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossValConfig {
    /// Number of repetitions (`n` in the paper: 20 for leave-one-out,
    /// 100 for resubstitution).
    pub iterations: usize,
    /// RNG seed for dataset randomization.
    pub seed: u64,
    /// Leave-one-out strategy.
    pub loo_mode: LooMode,
    /// Classifier configuration.
    pub meso: MesoConfig,
}

impl Default for CrossValConfig {
    fn default() -> Self {
        CrossValConfig {
            iterations: 1,
            seed: 0,
            loo_mode: LooMode::default(),
            meso: MesoConfig::default(),
        }
    }
}

/// Aggregate result of a cross-validation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Accuracy of each iteration.
    pub accuracies: Vec<f64>,
    /// Confusion accumulated over all iterations.
    pub confusion: ConfusionMatrix,
    /// Total time spent training memories.
    pub train_time: Duration,
    /// Total time spent testing (including the hold-outs of
    /// [`LooMode::Removal`]).
    pub test_time: Duration,
}

impl RunStats {
    /// Mean accuracy across iterations; `0.0` when empty.
    pub fn mean_accuracy(&self) -> f64 {
        if self.accuracies.is_empty() {
            0.0
        } else {
            self.accuracies.iter().sum::<f64>() / self.accuracies.len() as f64
        }
    }

    /// Sample standard deviation of the per-iteration accuracies
    /// (`0.0` for fewer than two iterations) — the ± column of Table 2.
    pub fn std_accuracy(&self) -> f64 {
        let n = self.accuracies.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_accuracy();
        let var = self
            .accuracies
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }
}

/// Majority vote across per-pattern predictions; ties break toward the
/// label with the smallest id (deterministic).
pub fn vote(predictions: &[Label]) -> Option<Label> {
    let &max_label = predictions.iter().max()?;
    let mut counts = vec![0usize; max_label + 1];
    for &p in predictions {
        counts[p] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(label, _)| label)
}

fn shuffled_group_order(ds: &Dataset, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ds.group_count()).collect();
    order.shuffle(rng);
    order
}

/// Leave-one-out cross-validation over *groups* (ensembles); for
/// pattern-level datasets every pattern is its own group, giving the
/// paper's pattern protocol.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn leave_one_out(ds: &Dataset, cfg: &CrossValConfig) -> RunStats {
    assert!(!ds.is_empty(), "dataset must not be empty");
    let classes = ds.label_count();
    let mut stats = RunStats {
        accuracies: Vec::with_capacity(cfg.iterations),
        confusion: ConfusionMatrix::new(classes),
        train_time: Duration::ZERO,
        test_time: Duration::ZERO,
    };
    let members = ds.group_members();

    for iter in 0..cfg.iterations {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(iter as u64));
        let order = shuffled_group_order(ds, &mut rng);
        match cfg.loo_mode {
            LooMode::Removal => {
                // Train the full memory once, in randomized group order.
                let t0 = Instant::now();
                let mut memory = Meso::new(ds.dim(), cfg.meso);
                let mut ids: Vec<Vec<PatternId>> = vec![Vec::new(); ds.group_count()];
                for &g in &order {
                    for &p in &members[g] {
                        ids[g].push(memory.train(ds.features(p), ds.label(p)));
                    }
                }
                stats.train_time += t0.elapsed();

                let t1 = Instant::now();
                let mut correct = 0usize;
                let mut tested = 0usize;
                for &g in &order {
                    if members[g].is_empty() {
                        continue;
                    }
                    let predictions: Vec<Label> = memory.hold_out(&ids[g], |memory| {
                        members[g]
                            .iter()
                            .filter_map(|&p| memory.classify(ds.features(p)))
                            .collect()
                    });
                    if let (Some(predicted), Some(actual)) = (vote(&predictions), ds.group_label(g))
                    {
                        stats.confusion.record(actual, predicted);
                        tested += 1;
                        if predicted == actual {
                            correct += 1;
                        }
                    }
                }
                stats.test_time += t1.elapsed();
                stats.accuracies.push(if tested == 0 {
                    0.0
                } else {
                    correct as f64 / tested as f64
                });
            }
            LooMode::Retrain => {
                let mut correct = 0usize;
                let mut tested = 0usize;
                for &held in &order {
                    if members[held].is_empty() {
                        continue;
                    }
                    let t0 = Instant::now();
                    let mut memory = Meso::new(ds.dim(), cfg.meso);
                    for &g in &order {
                        if g == held {
                            continue;
                        }
                        for &p in &members[g] {
                            memory.train(ds.features(p), ds.label(p));
                        }
                    }
                    stats.train_time += t0.elapsed();

                    let t1 = Instant::now();
                    let predictions: Vec<Label> = members[held]
                        .iter()
                        .filter_map(|&p| memory.classify(ds.features(p)))
                        .collect();
                    if let (Some(predicted), Some(actual)) =
                        (vote(&predictions), ds.group_label(held))
                    {
                        stats.confusion.record(actual, predicted);
                        tested += 1;
                        if predicted == actual {
                            correct += 1;
                        }
                    }
                    stats.test_time += t1.elapsed();
                }
                stats.accuracies.push(if tested == 0 {
                    0.0
                } else {
                    correct as f64 / tested as f64
                });
            }
        }
    }
    stats
}

/// Resubstitution: train and test on the entire dataset. "Although
/// lacking statistical independence between training and testing data,
/// resubstitution affords an estimate of the maximum classification
/// accuracy expected for a particular data set" (§4).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn resubstitution(ds: &Dataset, cfg: &CrossValConfig) -> RunStats {
    assert!(!ds.is_empty(), "dataset must not be empty");
    let classes = ds.label_count();
    let mut stats = RunStats {
        accuracies: Vec::with_capacity(cfg.iterations),
        confusion: ConfusionMatrix::new(classes),
        train_time: Duration::ZERO,
        test_time: Duration::ZERO,
    };
    let members = ds.group_members();

    for iter in 0..cfg.iterations {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(iter as u64));
        let order = shuffled_group_order(ds, &mut rng);

        let t0 = Instant::now();
        let mut memory = Meso::new(ds.dim(), cfg.meso);
        for &g in &order {
            for &p in &members[g] {
                memory.train(ds.features(p), ds.label(p));
            }
        }
        stats.train_time += t0.elapsed();

        let t1 = Instant::now();
        let mut correct = 0usize;
        let mut tested = 0usize;
        for &g in &order {
            if members[g].is_empty() {
                continue;
            }
            let predictions: Vec<Label> = members[g]
                .iter()
                .filter_map(|&p| memory.classify(ds.features(p)))
                .collect();
            if let (Some(predicted), Some(actual)) = (vote(&predictions), ds.group_label(g)) {
                stats.confusion.record(actual, predicted);
                tested += 1;
                if predicted == actual {
                    correct += 1;
                }
            }
        }
        stats.test_time += t1.elapsed();
        stats.accuracies.push(if tested == 0 {
            0.0
        } else {
            correct as f64 / tested as f64
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Three well-separated 2-D blobs, grouped three patterns per group.
    fn blob_dataset(per_class: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let mut ds = Dataset::new(2);
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..per_class / 3 {
                let g = ds.push_group();
                for _ in 0..3 {
                    let x = cx + rng.random_range(-1.0..1.0);
                    let y = cy + rng.random_range(-1.0..1.0);
                    ds.push(vec![x, y], label, g);
                }
            }
        }
        ds
    }

    #[test]
    fn vote_majority_and_ties() {
        assert_eq!(vote(&[1, 1, 2]), Some(1));
        assert_eq!(vote(&[2, 1]), Some(1)); // tie -> smaller label
        assert_eq!(vote(&[]), None);
        assert_eq!(vote(&[5]), Some(5));
    }

    #[test]
    fn loo_removal_high_accuracy_on_separated_blobs() {
        let ds = blob_dataset(18, 7);
        let cfg = CrossValConfig {
            iterations: 3,
            seed: 42,
            loo_mode: LooMode::Removal,
            meso: MesoConfig::default(),
        };
        let stats = leave_one_out(&ds, &cfg);
        assert_eq!(stats.accuracies.len(), 3);
        assert!(
            stats.mean_accuracy() > 0.9,
            "accuracy {}",
            stats.mean_accuracy()
        );
        assert_eq!(stats.confusion.total(), 3 * 18);
    }

    #[test]
    fn loo_retrain_matches_removal_closely() {
        let ds = blob_dataset(12, 3);
        let base = CrossValConfig {
            iterations: 2,
            seed: 11,
            loo_mode: LooMode::Removal,
            meso: MesoConfig::default(),
        };
        let removal = leave_one_out(&ds, &base);
        let retrain = leave_one_out(
            &ds,
            &CrossValConfig {
                loo_mode: LooMode::Retrain,
                ..base
            },
        );
        assert!(
            (removal.mean_accuracy() - retrain.mean_accuracy()).abs() < 0.2,
            "removal {} vs retrain {}",
            removal.mean_accuracy(),
            retrain.mean_accuracy()
        );
    }

    #[test]
    fn resubstitution_at_least_as_accurate_as_loo() {
        let ds = blob_dataset(18, 5);
        let cfg = CrossValConfig {
            iterations: 3,
            seed: 1,
            loo_mode: LooMode::Removal,
            meso: MesoConfig::default(),
        };
        let loo = leave_one_out(&ds, &cfg);
        let resub = resubstitution(&ds, &cfg);
        assert!(resub.mean_accuracy() >= loo.mean_accuracy() - 0.05);
        assert!(resub.mean_accuracy() > 0.9);
    }

    #[test]
    fn pattern_level_protocol_via_ungrouped() {
        let ds = blob_dataset(18, 9).ungrouped();
        let cfg = CrossValConfig {
            iterations: 2,
            seed: 2,
            loo_mode: LooMode::Removal,
            meso: MesoConfig::default(),
        };
        let stats = leave_one_out(&ds, &cfg);
        assert!(stats.mean_accuracy() > 0.85);
    }

    #[test]
    fn stats_mean_and_std() {
        let stats = RunStats {
            accuracies: vec![0.8, 1.0],
            confusion: ConfusionMatrix::new(2),
            train_time: Duration::ZERO,
            test_time: Duration::ZERO,
        };
        assert!((stats.mean_accuracy() - 0.9).abs() < 1e-12);
        assert!((stats.std_accuracy() - (0.02f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = blob_dataset(12, 21);
        let cfg = CrossValConfig {
            iterations: 2,
            seed: 77,
            loo_mode: LooMode::Removal,
            meso: MesoConfig::default(),
        };
        let a = leave_one_out(&ds, &cfg);
        let b = leave_one_out(&ds, &cfg);
        assert_eq!(a.accuracies, b.accuracies);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn rejects_empty_dataset() {
        leave_one_out(&Dataset::new(2), &CrossValConfig::default());
    }
}
