//! The paper's protocols pinned to the last count: leave-one-out in
//! both modes and resubstitution over one seeded grouped dataset with
//! several labels and overlapping clusters, at the δ factor the tables
//! run (0.35). Every per-iteration accuracy and every confusion cell is
//! exact, so a change to training, removal, querying or voting that
//! moves any table cell fails here first.

use meso::classifier::MesoConfig;
use meso::crossval::LooMode;
use meso::{leave_one_out, resubstitution, CrossValConfig, Dataset, RunStats};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The tables' classifier configuration: δ = 0.35 × the running mean
/// nearest-sphere distance.
fn paper_config() -> MesoConfig {
    MesoConfig { delta_factor: 0.35 }
}

/// Four labels in five dimensions, twelve groups per label of two to
/// six patterns. Class centers sit 2 apart on a line and each group
/// sits at its own offset of up to ±2.5 per axis, so neighbouring
/// classes overlap and many groups are misread. A group's patterns lie
/// within ±0.15 of its offset, close enough to share spheres, so the
/// training order (the iteration's shuffle) moves the result.
fn grouped_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(2007);
    let mut ds = Dataset::new(5);
    for group in 0..48 {
        let label = group % 4;
        let g = ds.push_group();
        let offset: Vec<f64> = (0..5)
            .map(|d| {
                let center = if d == 0 { 2.0 * label as f64 } else { 0.0 };
                center + rng.random_range(-2.5..2.5)
            })
            .collect();
        for _ in 0..rng.random_range(2usize..7) {
            let x = offset
                .iter()
                .map(|&o| o + rng.random_range(-0.15..0.15))
                .collect();
            ds.push(x, label, g);
        }
    }
    // Four groups that repeat an earlier group's patterns under the next
    // label: their patterns share spheres with the originals, so even
    // resubstitution misreads some of them.
    for copied in [0, 5, 10, 15] {
        let label = (copied % 4 + 1) % 4;
        let g = ds.push_group();
        let members = ds.group_members()[copied].clone();
        for p in members {
            ds.push(ds.features(p).to_vec(), label, g);
        }
    }
    ds
}

/// Three iterations, each training in its own shuffled group order.
fn config(loo_mode: LooMode) -> CrossValConfig {
    CrossValConfig {
        iterations: 3,
        seed: 11,
        loo_mode,
        meso: paper_config(),
    }
}

/// `stats`' confusion as rows of counts, actual label by predicted.
fn counts(stats: &RunStats) -> Vec<Vec<u64>> {
    let c = &stats.confusion;
    (0..c.classes())
        .map(|a| (0..c.classes()).map(|p| c.count(a, p)).collect())
        .collect()
}

/// Removal-LOO: train once, then remove, query and restore each group.
#[test]
fn leave_one_out_by_removal_is_pinned() {
    let s = leave_one_out(&grouped_dataset(), &config(LooMode::Removal));
    assert_eq!(s.accuracies, [18.0 / 52.0, 19.0 / 52.0, 17.0 / 52.0]);
    assert_eq!(
        counts(&s),
        [[27, 9, 0, 3], [15, 4, 17, 3], [3, 21, 6, 9], [3, 9, 10, 17]]
    );
}

/// Retrain-LOO, the paper's literal procedure: one fresh memory per
/// held-out group. It differs from removal in one group of the first
/// iteration, because removal rewinds neither δ nor which spheres
/// later patterns founded or joined.
#[test]
fn leave_one_out_by_retraining_is_pinned() {
    let s = leave_one_out(&grouped_dataset(), &config(LooMode::Retrain));
    assert_eq!(s.accuracies, [19.0 / 52.0, 19.0 / 52.0, 17.0 / 52.0]);
    assert_eq!(
        counts(&s),
        [[27, 9, 0, 3], [15, 4, 17, 3], [3, 21, 6, 9], [3, 9, 9, 18]]
    );
}

/// Resubstitution: train and test on everything. Only a copied group
/// and its original are misread: they tie in their shared spheres, and
/// a tie goes to the smaller label.
#[test]
fn resubstitution_is_pinned() {
    let s = resubstitution(&grouped_dataset(), &config(LooMode::default()));
    assert_eq!(s.accuracies, [48.0 / 52.0; 3]);
    assert_eq!(
        counts(&s),
        [[39, 0, 0, 0], [3, 36, 0, 0], [0, 3, 36, 0], [3, 0, 3, 33]]
    );
}
