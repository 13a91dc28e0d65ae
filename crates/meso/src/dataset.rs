//! Labeled pattern datasets for training and evaluation.

/// A class label: a small integer index. Callers keep their own mapping
/// from labels to names (e.g. the ten four-letter species codes of the
/// paper's Table 1).
pub type Label = usize;

/// A labeled, optionally grouped collection of fixed-dimension patterns.
///
/// Groups model the paper's *ensembles*: each ensemble contributes one
/// or more patterns, and ensemble-level recognition votes across the
/// patterns of a group (§4, "a voting approach is used for testing each
/// ensemble"). For pattern-level datasets every pattern is its own
/// group.
///
/// # Example
///
/// ```
/// use meso::Dataset;
///
/// let mut ds = Dataset::new(3);
/// let g0 = ds.push_group();
/// ds.push(vec![0.0, 0.0, 1.0], 0, g0);
/// ds.push(vec![0.1, 0.0, 0.9], 0, g0);
/// let g1 = ds.push_group();
/// ds.push(vec![5.0, 5.0, 5.0], 1, g1);
/// assert_eq!(ds.len(), 3);
/// assert_eq!(ds.group_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    dim: usize,
    features: Vec<Vec<f64>>,
    labels: Vec<Label>,
    groups: Vec<usize>,
    group_count: usize,
}

impl Dataset {
    /// Creates an empty dataset of the given feature dimension.
    pub fn new(dim: usize) -> Self {
        Dataset {
            dim,
            features: Vec::new(),
            labels: Vec::new(),
            groups: Vec::new(),
            group_count: 0,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Returns `true` when the dataset holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of groups (ensembles) allocated.
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Allocates a new group id (one per ensemble).
    pub fn push_group(&mut self) -> usize {
        self.group_count += 1;
        self.group_count - 1
    }

    /// Adds a pattern with its label and group.
    ///
    /// # Panics
    ///
    /// Panics if the feature length differs from [`dim`](Self::dim) or
    /// the group id has not been allocated.
    pub fn push(&mut self, features: Vec<f64>, label: Label, group: usize) {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        assert!(group < self.group_count, "group {group} not allocated");
        self.features.push(features);
        self.labels.push(label);
        self.groups.push(group);
    }

    /// Adds a pattern as its own group (pattern-level dataset).
    pub fn push_ungrouped(&mut self, features: Vec<f64>, label: Label) {
        let g = self.push_group();
        self.push(features, label, g);
    }

    /// Features of pattern `i`.
    pub fn features(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// Label of pattern `i`.
    pub fn label(&self, i: usize) -> Label {
        self.labels[i]
    }

    /// Group of pattern `i`.
    pub fn group(&self, i: usize) -> usize {
        self.groups[i]
    }

    /// Iterates `(features, label, group)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], Label, usize)> {
        self.features
            .iter()
            .zip(&self.labels)
            .zip(&self.groups)
            .map(|((f, &l), &g)| (f.as_slice(), l, g))
    }

    /// Pattern indices of every group, indexed by group id.
    pub fn group_members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.group_count];
        for (i, &g) in self.groups.iter().enumerate() {
            members[g].push(i);
        }
        members
    }

    /// The label of a group (taken from its first pattern; the paper's
    /// ensembles are single-species by construction).
    ///
    /// Returns `None` for an empty group.
    pub fn group_label(&self, group: usize) -> Option<Label> {
        self.groups
            .iter()
            .position(|&g| g == group)
            .map(|i| self.labels[i])
    }

    /// Number of distinct labels (`max label + 1`); `0` when empty.
    pub fn label_count(&self) -> usize {
        self.labels.iter().max().map_or(0, |&m| m + 1)
    }

    /// Derives a pattern-level dataset (each pattern its own group),
    /// discarding ensemble structure — how the paper builds its
    /// "pattern data sets" from the ensemble data sets (§4).
    pub fn ungrouped(&self) -> Dataset {
        let mut ds = Dataset::new(self.dim);
        for (f, l, _) in self.iter() {
            ds.push_ungrouped(f.to_vec(), l);
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut ds = Dataset::new(2);
        let g0 = ds.push_group();
        ds.push(vec![1.0, 2.0], 0, g0);
        ds.push(vec![1.1, 2.1], 0, g0);
        let g1 = ds.push_group();
        ds.push(vec![5.0, 6.0], 1, g1);
        ds
    }

    #[test]
    fn basic_accessors() {
        let ds = sample();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.label(2), 1);
        assert_eq!(ds.group(1), 0);
        assert_eq!(ds.label_count(), 2);
    }

    #[test]
    fn group_members_partition_patterns() {
        let ds = sample();
        let members = ds.group_members();
        assert_eq!(members, vec![vec![0, 1], vec![2]]);
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn group_label_from_first_member() {
        let ds = sample();
        assert_eq!(ds.group_label(0), Some(0));
        assert_eq!(ds.group_label(1), Some(1));
        assert_eq!(ds.group_label(7), None);
    }

    #[test]
    fn ungrouped_flattens_groups() {
        let flat = sample().ungrouped();
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.group_count(), 3);
        for i in 0..flat.len() {
            assert_eq!(flat.group(i), i);
        }
    }

    #[test]
    fn iter_round_trip() {
        let ds = sample();
        let collected: Vec<_> = ds.iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2].1, 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dim() {
        let mut ds = Dataset::new(2);
        let g = ds.push_group();
        ds.push(vec![1.0], 0, g);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn rejects_unallocated_group() {
        let mut ds = Dataset::new(1);
        ds.push(vec![1.0], 0, 0);
    }
}
