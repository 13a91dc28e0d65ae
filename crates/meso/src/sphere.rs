//! Sensitivity spheres: MESO's "small agglomerative clusters … that
//! aggregate similar training patterns" (DEPSA paper §2).
//!
//! A sphere holds the running mean of its member patterns (its center)
//! and a per-label member count, and supports O(dim) incremental
//! insertion *and removal* so the classifier can hold patterns out for
//! cheap leave-one-out evaluation.

use crate::dataset::Label;

/// One sensitivity sphere.
///
/// # Example
///
/// ```
/// use meso::SensitivitySphere;
///
/// let mut s = SensitivitySphere::new(&[1.0, 1.0], 0);
/// s.insert(&[3.0, 3.0], 0);
/// assert_eq!(s.center(), &[2.0, 2.0]);
/// assert_eq!(s.majority_label(), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivitySphere {
    /// Component-wise sum of member features.
    sum: Vec<f64>,
    /// Cached center (`sum / count`).
    center: Vec<f64>,
    /// Member count per label (sparse: `(label, count)` pairs — spheres
    /// aggregate *similar* patterns, so few distinct labels appear).
    label_counts: Vec<(Label, usize)>,
    count: usize,
}

impl SensitivitySphere {
    /// Creates a sphere seeded with one pattern.
    pub fn new(features: &[f64], label: Label) -> Self {
        SensitivitySphere {
            sum: features.to_vec(),
            center: features.to_vec(),
            label_counts: vec![(label, 1)],
            count: 1,
        }
    }

    /// The sphere center: the mean of its member patterns.
    pub fn center(&self) -> &[f64] {
        &self.center
    }

    /// Number of member patterns.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when all members have been removed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.sum.len()
    }

    /// Adds a member pattern, updating the center incrementally.
    ///
    /// # Panics
    ///
    /// Panics if the feature dimension differs from the sphere's.
    pub fn insert(&mut self, features: &[f64], label: Label) {
        assert_eq!(features.len(), self.dim(), "dimension mismatch");
        for (s, &x) in self.sum.iter_mut().zip(features) {
            *s += x;
        }
        self.count += 1;
        match self.label_counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => self.label_counts.push((label, 1)),
        }
        self.refresh_center();
    }

    /// Removes a member pattern: its count, its label and, by
    /// subtraction, its feature sum. [`Meso::hold_out`] puts a sphere
    /// back by copy, never by re-inserting.
    ///
    /// [`Meso::hold_out`]: crate::Meso::hold_out
    ///
    /// # Panics
    ///
    /// Panics if the sphere has no member with this label, or on
    /// dimension mismatch — both indicate corrupted caller bookkeeping.
    pub fn remove(&mut self, features: &[f64], label: Label) {
        assert_eq!(features.len(), self.dim(), "dimension mismatch");
        let slot = self
            .label_counts
            .iter_mut()
            .find(|(l, c)| *l == label && *c > 0)
            .expect("removing pattern with label not present in sphere");
        slot.1 -= 1;
        self.label_counts.retain(|&(_, c)| c > 0);
        self.count -= 1;
        for (s, &x) in self.sum.iter_mut().zip(features) {
            *s -= x;
        }
        self.refresh_center();
    }

    fn refresh_center(&mut self) {
        if self.count == 0 {
            self.center.fill(0.0);
        } else {
            // Plain division (not multiplication by a reciprocal) keeps the
            // center exact when all members are identical, e.g. 49.0/49.0.
            let n = self.count as f64;
            for (c, &s) in self.center.iter_mut().zip(&self.sum) {
                *c = s / n;
            }
        }
    }

    /// The label held by the most members; ties break toward the smaller
    /// label id. `None` for an empty sphere.
    pub fn majority_label(&self) -> Option<Label> {
        self.label_counts
            .iter()
            .filter(|&&(_, c)| c > 0)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|&(l, _)| l)
    }

    /// Count of members carrying `label`.
    pub fn label_count(&self, label: Label) -> usize {
        self.label_counts
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |&(_, c)| c)
    }

    /// Iterates `(label, count)` pairs.
    pub fn labels(&self) -> impl Iterator<Item = (Label, usize)> + '_ {
        self.label_counts.iter().copied()
    }

    /// Squared Euclidean distance from the center to `features`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[inline]
    pub fn distance_sq(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.dim(), "dimension mismatch");
        self.center
            .iter()
            .zip(features)
            .map(|(&c, &x)| {
                let d = c - x;
                d * d
            })
            .sum()
    }

    /// Euclidean distance from the center to `features`.
    #[inline]
    pub fn distance(&self, features: &[f64]) -> f64 {
        self.distance_sq(features).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_is_member_mean() {
        let mut s = SensitivitySphere::new(&[0.0, 0.0], 0);
        s.insert(&[2.0, 4.0], 0);
        s.insert(&[4.0, 8.0], 1);
        assert_eq!(s.center(), &[2.0, 4.0]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn insert_remove_round_trip_restores_center() {
        let mut s = SensitivitySphere::new(&[1.0, 2.0], 0);
        let before = s.clone();
        s.insert(&[10.0, -3.0], 1);
        s.remove(&[10.0, -3.0], 1);
        assert_eq!(s.len(), 1);
        for (a, b) in s.center().iter().zip(before.center()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(s.majority_label(), Some(0));
    }

    #[test]
    fn majority_label_follows_counts() {
        let mut s = SensitivitySphere::new(&[0.0], 3);
        s.insert(&[0.0], 7);
        s.insert(&[0.0], 7);
        assert_eq!(s.majority_label(), Some(7));
        assert_eq!(s.label_count(7), 2);
        assert_eq!(s.label_count(3), 1);
        assert_eq!(s.label_count(0), 0);
    }

    #[test]
    fn majority_tie_breaks_to_smaller_label() {
        let mut s = SensitivitySphere::new(&[0.0], 5);
        s.insert(&[0.0], 2);
        assert_eq!(s.majority_label(), Some(2));
    }

    #[test]
    fn empty_after_removing_all() {
        let mut s = SensitivitySphere::new(&[1.0], 0);
        s.remove(&[1.0], 0);
        assert!(s.is_empty());
        assert_eq!(s.majority_label(), None);
    }

    #[test]
    fn distances() {
        let s = SensitivitySphere::new(&[0.0, 0.0], 0);
        assert_eq!(s.distance(&[3.0, 4.0]), 5.0);
        assert_eq!(s.distance_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn labels_iterator() {
        let mut s = SensitivitySphere::new(&[0.0], 1);
        s.insert(&[0.0], 2);
        let mut pairs: Vec<_> = s.labels().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 1), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "label not present")]
    fn remove_missing_label_panics() {
        let mut s = SensitivitySphere::new(&[0.0], 0);
        s.remove(&[0.0], 9);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn insert_wrong_dim_panics() {
        let mut s = SensitivitySphere::new(&[0.0, 1.0], 0);
        s.insert(&[0.0], 0);
    }
}
