//! The MESO classifier: leader–follower training into sensitivity
//! spheres, with scoped hold-outs for cheap leave-one-out.

use crate::dataset::Label;
use crate::sphere::SensitivitySphere;

/// Configuration for [`Meso`]: the sensitivity δ, the radius within
/// which a new training pattern joins its nearest sphere rather than
/// founding a new one.
///
/// δ is `delta_factor` × the running mean of the nearest-sphere
/// distances seen in training, so it adapts to the data's scale without
/// tuning. The TKDE paper grows δ as training progresses and the DEPSA
/// paper only summarizes it; this rule reproduces the qualitative
/// behaviour and is documented in `DESIGN.md` as an approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MesoConfig {
    /// Fraction of the running mean nearest-sphere distance. The
    /// default is 0.75; the paper's tables run 0.35.
    pub delta_factor: f64,
}

impl Default for MesoConfig {
    fn default() -> Self {
        MesoConfig { delta_factor: 0.75 }
    }
}

/// Identifier of a stored training pattern, returned by
/// [`Meso::train`]; names the patterns of a [`Meso::hold_out`].
pub type PatternId = usize;

#[derive(Debug, Clone)]
struct StoredPattern {
    features: Vec<f64>,
    label: Label,
    sphere: usize,
    alive: bool,
}

/// Result of a detailed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Predicted label.
    pub label: Label,
    /// Index of the nearest sphere.
    pub sphere: usize,
    /// Euclidean distance from the query to that sphere's center.
    pub distance: f64,
    /// `(label, member count)` pairs of the nearest sphere.
    pub votes: Vec<(Label, usize)>,
}

/// The MESO perceptual memory.
///
/// # Example
///
/// ```
/// use meso::{Meso, MesoConfig};
///
/// let mut m = Meso::new(1, MesoConfig::default());
/// let id = m.train(&[0.0], 0);
/// m.train(&[0.2], 0);
/// m.train(&[10.0], 1);
/// assert_eq!(m.classify(&[0.1]), Some(0));
///
/// // Leave-one-out by removal: hold the pattern out, query, and get
/// // the memory back exactly as it was.
/// let before = m.clone();
/// let held_out = m.hold_out(&[id], |m| m.classify(&[0.0]));
/// assert_eq!(held_out, Some(0)); // neighbor at 0.2 remains
/// assert_eq!(m.spheres(), before.spheres());
/// ```
#[derive(Debug, Clone)]
pub struct Meso {
    dim: usize,
    config: MesoConfig,
    spheres: Vec<SensitivitySphere>,
    patterns: Vec<StoredPattern>,
    live_patterns: usize,
    delta: f64,
    /// Running mean of nearest-sphere distances.
    dist_mean: f64,
    dist_count: u64,
}

impl Meso {
    /// Creates an empty memory for patterns of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or if the δ factor is not positive and
    /// finite.
    pub fn new(dim: usize, config: MesoConfig) -> Self {
        assert!(dim > 0, "pattern dimension must be non-zero");
        let factor = config.delta_factor;
        assert!(factor.is_finite() && factor > 0.0, "factor must be > 0");
        Meso {
            dim,
            config,
            spheres: Vec::new(),
            patterns: Vec::new(),
            live_patterns: 0,
            delta: 0.0,
            dist_mean: 0.0,
            dist_count: 0,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MesoConfig {
        &self.config
    }

    /// Current sensitivity δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of non-empty sensitivity spheres.
    pub fn sphere_count(&self) -> usize {
        self.spheres.iter().filter(|s| !s.is_empty()).count()
    }

    /// Number of live (not removed) training patterns.
    pub fn pattern_count(&self) -> usize {
        self.live_patterns
    }

    /// Direct access to the spheres (empty spheres included), for
    /// inspection and rendering.
    pub fn spheres(&self) -> &[SensitivitySphere] {
        &self.spheres
    }

    /// Index of the nearest non-empty sphere and its center distance.
    fn nearest_sphere(&self, features: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in self.spheres.iter().enumerate() {
            if s.is_empty() {
                continue;
            }
            let d = s.distance_sq(features);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, d)| (i, d.sqrt()))
    }

    fn update_delta(&mut self, observed: f64) {
        self.dist_count += 1;
        self.dist_mean += (observed - self.dist_mean) / self.dist_count as f64;
        self.delta = self.config.delta_factor * self.dist_mean;
    }

    /// Trains on one labeled pattern (leader–follower step) and returns
    /// its [`PatternId`].
    ///
    /// # Panics
    ///
    /// Panics if the feature dimension is wrong or any value is
    /// non-finite.
    pub fn train(&mut self, features: &[f64], label: Label) -> PatternId {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        assert!(
            features.iter().all(|x| x.is_finite()),
            "features must be finite"
        );
        let id = self.patterns.len();
        let sphere = match self.nearest_sphere(features) {
            None => self.new_sphere(features, label),
            Some((nearest, d)) => {
                self.update_delta(d);
                if d <= self.delta {
                    self.spheres[nearest].insert(features, label);
                    nearest
                } else {
                    self.new_sphere(features, label)
                }
            }
        };
        self.patterns.push(StoredPattern {
            features: features.to_vec(),
            label,
            sphere,
            alive: true,
        });
        self.live_patterns += 1;
        id
    }

    fn new_sphere(&mut self, features: &[f64], label: Label) -> usize {
        self.spheres.push(SensitivitySphere::new(features, label));
        self.spheres.len() - 1
    }

    /// Holds the patterns `ids` out of memory while `query` runs, and
    /// returns what it returns.
    ///
    /// While they are out, their spheres lack their counts, labels and
    /// feature sums. δ and the spheres that later patterns founded or
    /// joined stay as they are, so a hold-out approximates a memory
    /// trained without the patterns (`DESIGN.md` §8). Afterwards every
    /// sphere the patterns touched is copied back from a snapshot taken
    /// before they left, so the memory is bit-identical to what it was.
    ///
    /// # Panics
    ///
    /// Panics if an id is unknown or named twice.
    pub fn hold_out<R>(&mut self, ids: &[PatternId], query: impl FnOnce(&Meso) -> R) -> R {
        let mut touched: Vec<usize> = ids.iter().map(|&id| self.patterns[id].sphere).collect();
        touched.sort_unstable();
        touched.dedup();
        let snapshot: Vec<SensitivitySphere> =
            touched.iter().map(|&s| self.spheres[s].clone()).collect();
        for &id in ids {
            let p = &mut self.patterns[id];
            assert!(p.alive, "pattern {id} held out twice");
            p.alive = false;
            self.spheres[p.sphere].remove(&p.features, p.label);
        }
        self.live_patterns -= ids.len();
        let result = query(self);
        for (s, sphere) in touched.into_iter().zip(snapshot) {
            self.spheres[s] = sphere;
        }
        for &id in ids {
            self.patterns[id].alive = true;
        }
        self.live_patterns += ids.len();
        result
    }

    /// Classifies a query pattern; `None` when the memory is empty.
    ///
    /// # Panics
    ///
    /// Panics on feature-dimension mismatch.
    pub fn classify(&self, features: &[f64]) -> Option<Label> {
        self.query(features).map(|r| r.label)
    }

    /// Classifies with full detail (nearest sphere, distance, votes).
    ///
    /// # Panics
    ///
    /// Panics on feature-dimension mismatch.
    pub fn query(&self, features: &[f64]) -> Option<QueryResult> {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        let (sphere, distance) = self.nearest_sphere(features)?;
        Some(self.result_for_sphere(sphere, distance))
    }

    fn result_for_sphere(&self, sphere: usize, distance: f64) -> QueryResult {
        let s = &self.spheres[sphere];
        QueryResult {
            label: s.majority_label().expect("non-empty sphere"),
            sphere,
            distance,
            votes: s.labels().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_memory() -> Meso {
        let mut m = Meso::new(2, MesoConfig::default());
        for i in 0..10 {
            let t = i as f64 * 0.01;
            m.train(&[t, -t], 0);
            m.train(&[5.0 + t, 5.0 - t], 1);
        }
        m
    }

    #[test]
    fn classifies_two_well_separated_clusters() {
        let m = two_cluster_memory();
        assert_eq!(m.classify(&[0.02, 0.0]), Some(0));
        assert_eq!(m.classify(&[5.1, 5.0]), Some(1));
        assert!(m.sphere_count() >= 2);
        assert_eq!(m.pattern_count(), 20);
    }

    #[test]
    fn empty_memory_returns_none() {
        let m = Meso::new(3, MesoConfig::default());
        assert_eq!(m.classify(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn first_pattern_founds_first_sphere() {
        let mut m = Meso::new(1, MesoConfig::default());
        m.train(&[1.0], 7);
        assert_eq!(m.sphere_count(), 1);
        assert_eq!(m.classify(&[100.0]), Some(7));
    }

    #[test]
    fn identical_patterns_share_one_sphere() {
        let mut m = Meso::new(2, MesoConfig::default());
        for _ in 0..50 {
            m.train(&[1.0, 1.0], 0);
        }
        assert_eq!(m.sphere_count(), 1);
        assert_eq!(m.spheres()[0].len(), 50);
    }

    #[test]
    fn distant_patterns_found_new_spheres() {
        let mut m = Meso::new(1, MesoConfig::default());
        m.train(&[0.0], 0);
        m.train(&[0.1], 0);
        m.train(&[1000.0], 1);
        assert!(m.sphere_count() >= 2, "spheres: {}", m.sphere_count());
    }

    #[test]
    fn remove_then_restore_is_identity() {
        let mut m = two_cluster_memory();
        let lens =
            |m: &Meso| -> Vec<usize> { m.spheres().iter().map(SensitivitySphere::len).collect() };
        let spheres_before = lens(&m);
        let id = m.train(&[0.005, 0.005], 0);
        let trained = format!("{m:?}");
        let spheres_held_out = m.hold_out(&[id], |m| {
            assert_eq!(m.pattern_count(), 20);
            lens(m)
        });
        // Holding out the just-added pattern rewinds counts exactly (a
        // new sphere may exist but must be empty).
        for (i, &n) in spheres_before.iter().enumerate() {
            assert_eq!(spheres_held_out[i], n);
        }
        // Afterwards the memory is the trained one, bit for bit.
        assert_eq!(format!("{m:?}"), trained);
        assert_eq!(m.pattern_count(), 21);
        assert_eq!(m.classify(&[0.005, 0.005]), Some(0));
    }

    #[test]
    fn loo_removal_changes_prediction_when_isolated() {
        // A lone pattern of label 9 far away: removing it must flip the
        // local prediction to the remaining data.
        let mut m = two_cluster_memory();
        let id = m.train(&[100.0, 100.0], 9);
        assert_eq!(m.classify(&[100.0, 100.0]), Some(9));
        let pred = m.hold_out(&[id], |m| m.classify(&[100.0, 100.0])).unwrap();
        assert_ne!(pred, 9);
        assert_eq!(m.classify(&[100.0, 100.0]), Some(9));
    }

    #[test]
    fn query_reports_votes_and_distance() {
        let m = two_cluster_memory();
        let r = m.query(&[0.0, 0.0]).unwrap();
        assert_eq!(r.label, 0);
        assert!(r.distance < 1.0);
        assert!(!r.votes.is_empty());
    }

    #[test]
    #[should_panic(expected = "held out twice")]
    fn double_remove_panics() {
        let mut m = Meso::new(1, MesoConfig::default());
        let id = m.train(&[0.0], 0);
        m.train(&[0.0], 0);
        m.hold_out(&[id, id], |_| ());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan_features() {
        let mut m = Meso::new(1, MesoConfig::default());
        m.train(&[f64::NAN], 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_query_dim() {
        let m = two_cluster_memory();
        m.classify(&[1.0]);
    }
}
