//! Property-based tests for the MESO classifier.

use meso::classifier::{Meso, MesoConfig};
use meso::crossval::vote;
use meso::ConfusionMatrix;
use rand::rngs::StdRng;
use rand::RngExt;

/// A `dim`-dimensional point with coordinates in ±`span`.
fn point(rng: &mut StdRng, dim: usize, span: f64) -> Vec<f64> {
    (0..dim).map(|_| rng.random_range(-span..span)).collect()
}

/// 1 to `max - 1` labelled patterns: `dim` features in ±100, labels 0–4.
fn pattern_set(rng: &mut StdRng, dim: usize, max: usize) -> Vec<(Vec<f64>, usize)> {
    seeds::vec(rng, 1..max, |r| {
        (point(r, dim, 100.0), r.random_range(0usize..5))
    })
}

/// Every live pattern is accounted for in exactly one sphere, and
/// sphere member counts sum to the live pattern count.
#[test]
fn sphere_counts_partition_patterns() {
    seeds::check(0..48, |rng| {
        let data = pattern_set(rng, 3, 60);
        let mut m = Meso::new(3, MesoConfig::default());
        for (f, l) in &data {
            m.train(f, *l);
        }
        let total: usize = m.spheres().iter().map(meso::SensitivitySphere::len).sum();
        assert_eq!(total, data.len());
        assert_eq!(m.pattern_count(), data.len());
    });
}

/// Classification always returns a label that was trained.
#[test]
fn classify_returns_trained_label() {
    seeds::check(0..48, |rng| {
        let data = pattern_set(rng, 2, 40);
        let query = point(rng, 2, 200.0);
        let mut m = Meso::new(2, MesoConfig::default());
        let mut labels = std::collections::HashSet::new();
        for (f, l) in &data {
            m.train(f, *l);
            labels.insert(*l);
        }
        let predicted = m.classify(&query).unwrap();
        assert!(labels.contains(&predicted));
    });
}

/// A hold-out gives the memory back bit for bit: every sphere's sum,
/// center and label list (in order), δ and the pattern count. `Debug`
/// prints each f64 in its shortest round-trip form, so equal text is
/// equal bits.
#[test]
fn remove_restore_identity() {
    seeds::check(0..48, |rng| {
        let data = pattern_set(rng, 2, 40);
        let victims = seeds::vec(rng, 1..6, |r| r.random_range(0usize..40));
        let query = point(rng, 2, 50.0);
        let mut m = Meso::new(2, MesoConfig::default());
        let ids: Vec<_> = data.iter().map(|(f, l)| m.train(f, *l)).collect();
        let before = format!("{m:?}");
        let classified = m.classify(&query);
        let mut held: Vec<_> = victims.iter().map(|v| ids[v % ids.len()]).collect();
        held.sort_unstable();
        held.dedup();
        let remaining = m.hold_out(&held, Meso::pattern_count);
        assert_eq!(remaining, data.len() - held.len());
        assert_eq!(format!("{m:?}"), before);
        assert_eq!(m.classify(&query), classified);
    });
}

/// With a single trained label, every query predicts that label.
#[test]
fn single_label_memory_always_predicts_it() {
    seeds::check(0..48, |rng| {
        let features = seeds::vec(rng, 1..40, |r| point(r, 2, 100.0));
        let label = rng.random_range(0usize..7);
        let query = point(rng, 2, 500.0);
        let mut m = Meso::new(2, MesoConfig::default());
        for f in &features {
            m.train(f, label);
        }
        assert_eq!(m.classify(&query), Some(label));
    });
}

/// vote() always returns the modal label.
#[test]
fn vote_returns_mode() {
    seeds::check(0..48, |rng| {
        let preds = seeds::vec(rng, 1..30, |r| r.random_range(0usize..6));
        let winner = vote(&preds).unwrap();
        let count = |l: usize| preds.iter().filter(|&&p| p == l).count();
        for l in 0..6 {
            assert!(count(winner) >= count(l));
        }
    });
}

/// Confusion-matrix accuracy equals manual correct/total.
#[test]
fn confusion_accuracy_consistent() {
    seeds::check(0..48, |rng| {
        let outcomes = seeds::vec(rng, 1..100, |r| {
            (r.random_range(0usize..4), r.random_range(0usize..4))
        });
        let mut cm = ConfusionMatrix::new(4);
        let mut correct = 0usize;
        for &(a, p) in &outcomes {
            cm.record(a, p);
            if a == p {
                correct += 1;
            }
        }
        assert_eq!(cm.total(), outcomes.len() as u64);
        assert!((cm.accuracy() - correct as f64 / outcomes.len() as f64).abs() < 1e-12);
    });
}
