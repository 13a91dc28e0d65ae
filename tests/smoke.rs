//! Smoke test: the facade quickstart path, end to end.
//!
//! Mirrors the `examples/quickstart.rs` flow through the public facade
//! re-exports so any break in the cross-crate DAG (dsp → timeseries →
//! core → river/meso → facade) fails tier-1 immediately.

use acoustic_ensembles::core::pipeline::featurize_ensemble;
use acoustic_ensembles::core::prelude::*;

#[test]
fn quickstart_extracts_ensembles_from_a_paper_scale_clip() {
    // Synthesize the same clip the crate-level docs use: 30 s of
    // ambience with Northern cardinal song bouts.
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let clip = synth.clip(SpeciesCode::Noca, 42);
    assert!(!clip.events.is_empty(), "clip should contain song bouts");
    assert!(clip.duration() > 29.0, "paper clips are 30 s");

    // Extract ensembles with the default (paper) parameters.
    let extractor = EnsembleExtractor::new(ExtractorConfig::default());
    let ensembles = extractor.extract(&clip.samples);
    assert!(
        !ensembles.is_empty(),
        "a clip with song bouts must yield at least one ensemble"
    );

    // Ensembles are whole records, ordered, disjoint and in-bounds (up
    // to the last record's zero padding).
    let record_len = ExtractorConfig::default().record_len;
    let mut prev_end = 0usize;
    for e in &ensembles {
        assert!(e.start >= prev_end, "ensembles out of order");
        assert!(
            e.end <= clip.samples.len() + record_len / 2,
            "ensemble exceeds the clip"
        );
        assert!(!e.is_empty() && e.len() % record_len == 0);
        prev_end = e.end;
    }

    // Featurization produces finite, correctly sized PAA patterns for
    // at least one ensemble (short ones may produce none).
    let cfg = ExtractorConfig::default();
    let patterns: Vec<Vec<f64>> = ensembles
        .iter()
        .flat_map(|e| featurize_ensemble(&e.samples, &cfg, true))
        .collect();
    assert!(!patterns.is_empty(), "no ensemble produced a pattern");
    for p in &patterns {
        assert_eq!(p.len(), 105, "PAA patterns are 105-dimensional");
        assert!(p.iter().all(|x| x.is_finite()));
    }
}

#[test]
fn facade_reexports_cover_every_subsystem() {
    use acoustic_ensembles::river::prelude::*;

    // One call into each re-exported crate, so a broken re-export (not
    // just a broken implementation) is caught here.
    let fft = acoustic_ensembles::dsp::Fft::new(8);
    let spectrum = fft.forward(&[acoustic_ensembles::dsp::Complex64::new(1.0, 0.0); 8]);
    assert_eq!(spectrum.len(), 8);

    let z = acoustic_ensembles::sax::znormalize(&[1.0, 2.0, 3.0, 4.0]);
    assert_eq!(z.len(), 4);

    let mut memory =
        acoustic_ensembles::meso::Meso::new(2, acoustic_ensembles::meso::MesoConfig::default());
    memory.train(&[0.0, 0.0], 0);
    assert_eq!(memory.classify(&[0.1, 0.1]), Some(0));

    let mut pipeline = Pipeline::new();
    pipeline.add(acoustic_ensembles::river::ops::ScopeRepair::new());
    let out = pipeline
        .run(vec![Record::open_scope(1, vec![]), Record::close_scope(1)])
        .expect("trivial pipeline");
    assert_eq!(out.len(), 2);
}
