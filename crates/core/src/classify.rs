//! Species classification glue: the MESO configuration used by the
//! paper-reproduction experiments, and a convenience classifier that
//! trains on a dataset bundle and recognizes whole ensembles by voting.

use crate::config::ExtractorConfig;
use crate::pipeline::featurize_ensemble;
use crate::species::SpeciesCode;
use meso::classifier::{Meso, MesoConfig};
use meso::crossval::vote;
use meso::Dataset;

/// The MESO configuration calibrated for the acoustic datasets
/// (sensitivity δ at 0.35 of the running mean nearest-sphere
/// distance). Used by every table/figure harness.
pub fn paper_meso_config() -> MesoConfig {
    MesoConfig { delta_factor: 0.35 }
}

/// A trained species recognizer over ensembles.
///
/// # Example
///
/// ```no_run
/// use ensemble_core::classify::SpeciesClassifier;
/// use ensemble_core::prelude::*;
///
/// let corpus = Corpus::build(CorpusConfig::test_scale());
/// let bundle = DatasetBundle::build(&corpus);
/// let clf = SpeciesClassifier::train(&bundle.paa_ensemble, *corpus.config());
/// let clip = ClipSynthesizer::new(SynthConfig::paper()).clip(SpeciesCode::Noca, 999);
/// let extractor = EnsembleExtractor::new(ExtractorConfig::default());
/// for ensemble in extractor.extract(&clip.samples) {
///     if let Some(species) = clf.recognize(&ensemble.samples) {
///         println!("heard {species}");
///     }
/// }
/// ```
#[derive(Debug)]
pub struct SpeciesClassifier {
    memory: Meso,
    extractor: ExtractorConfig,
    with_paa: bool,
}

impl SpeciesClassifier {
    /// Trains a recognizer on a labeled dataset (patterns labeled by
    /// [`SpeciesCode::label`]). The dataset's feature dimension decides
    /// whether ensembles are featurized with PAA.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its dimension matches neither
    /// the raw nor the PAA pattern geometry of `corpus_config`.
    pub fn train(dataset: &Dataset, corpus_config: crate::dataset::CorpusConfig) -> Self {
        assert!(!dataset.is_empty(), "dataset must not be empty");
        let ext = corpus_config.extractor;
        let with_paa = if dataset.dim() == ext.paa_pattern_features() {
            true
        } else if dataset.dim() == ext.pattern_features() {
            false
        } else {
            panic!(
                "dataset dimension {} matches neither raw ({}) nor PAA ({}) geometry",
                dataset.dim(),
                ext.pattern_features(),
                ext.paa_pattern_features()
            );
        };
        let mut memory = Meso::new(dataset.dim(), paper_meso_config());
        for (features, label, _) in dataset.iter() {
            memory.train(features, label);
        }
        SpeciesClassifier {
            memory,
            extractor: ext,
            with_paa,
        }
    }

    /// Number of sensitivity spheres in the trained memory.
    pub fn sphere_count(&self) -> usize {
        self.memory.sphere_count()
    }

    /// Recognizes the species of one ensemble (vote across its
    /// patterns); `None` when the ensemble is too short to featurize.
    pub fn recognize(&self, ensemble_samples: &[f64]) -> Option<SpeciesCode> {
        let patterns = featurize_ensemble(ensemble_samples, &self.extractor, self.with_paa);
        let votes: Vec<usize> = patterns
            .iter()
            .filter_map(|p| self.memory.classify(p))
            .collect();
        vote(&votes).and_then(SpeciesCode::from_label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Corpus, CorpusConfig, DatasetBundle};
    use crate::extract::EnsembleExtractor;
    use crate::synth::ClipSynthesizer;

    #[test]
    fn paper_config_shape() {
        assert_eq!(paper_meso_config().delta_factor, 0.35);
    }

    #[test]
    fn classifier_recognizes_training_species_better_than_chance() {
        let corpus_cfg = CorpusConfig::test_scale();
        let corpus = Corpus::build(corpus_cfg);
        let bundle = DatasetBundle::build(&corpus);
        let clf = SpeciesClassifier::train(&bundle.paa_ensemble, corpus_cfg);
        assert!(clf.sphere_count() > 0);

        // Recognize fresh clips (unseen seeds).
        let synth = ClipSynthesizer::new(corpus_cfg.synth);
        let extractor = EnsembleExtractor::new(corpus_cfg.extractor);
        let mut correct = 0usize;
        let mut total = 0usize;
        for &species in &SpeciesCode::ALL {
            let clip = synth.clip(species, 987_654);
            for ensemble in extractor.extract(&clip.samples) {
                if clip.label_for_range(ensemble.start, ensemble.end) != Some(species) {
                    continue; // reject non-bird ensembles like the listener
                }
                if let Some(predicted) = clf.recognize(&ensemble.samples) {
                    total += 1;
                    if predicted == species {
                        correct += 1;
                    }
                }
            }
        }
        assert!(total > 0, "no ensembles recognized at all");
        let accuracy = correct as f64 / total as f64;
        assert!(
            accuracy > 0.3,
            "accuracy {accuracy:.2} not better than chance ({correct}/{total})"
        );
    }

    #[test]
    #[should_panic(expected = "matches neither")]
    fn rejects_foreign_dimension() {
        let mut ds = Dataset::new(7);
        ds.push_ungrouped(vec![0.0; 7], 0);
        SpeciesClassifier::train(&ds, CorpusConfig::test_scale());
    }
}
