//! Static chain verification over the Figure 5 pipelines (DESIGN.md
//! §15): the real chains check clean, deliberately broken chains are
//! refused pre-flight with a diagnostic naming the offending operator.

mod common;

use common::{oracle_featurization_segment, oracle_full_pipeline};
use dynamic_river::analyze::{CheckOptions, DiagnosticKind, PayloadKind, RecordClass, Severity};
use dynamic_river::prelude::*;
use dynamic_river::{ScopeEffect, Signature};
use ensemble_core::ops::{clip_to_records, Cutter, Readout, Rec2Vect, SaxAnomaly, TriggerOp};
use ensemble_core::pipeline::{extraction_segment, featurization_segment, full_pipeline};
use ensemble_core::{scope_type, subtype, ExtractorConfig};

/// The analysis profile of every Figure 5 chain: audio records (F64
/// payloads) arriving inside clip scopes.
fn audio_input() -> CheckOptions {
    CheckOptions {
        input: vec![RecordClass::of(subtype::AUDIO, PayloadKind::F64)],
        input_scope_types: Some(vec![scope_type::CLIP]),
        ..CheckOptions::default()
    }
}

#[test]
fn every_figure5_chain_checks_clean() {
    let cfg = ExtractorConfig::default();
    let mut chains = vec![("extraction", extraction_segment(cfg))];
    for with_paa in [false, true] {
        chains.push(("full", full_pipeline(cfg, with_paa)));
        chains.push(("fused", featurization_segment(cfg, with_paa)));
        chains.push(("full/oracle", oracle_full_pipeline(cfg, with_paa)));
        chains.push(("oracle", oracle_featurization_segment(cfg, with_paa)));
    }
    for (label, chain) in chains {
        let diags = chain.check_with(&audio_input());
        assert!(
            diags.is_empty(),
            "chain {label} {:?} not clean: {diags:?}",
            chain.names()
        );
    }
}

#[test]
fn mis_ordered_chain_names_the_dead_operator() {
    // Featurization placed before extraction: `spectrum` turns the
    // audio into power spectra, so `cutter` never sees audio or
    // triggers again — a dead stage, named.
    let cfg = ExtractorConfig::default();
    let mut p = Pipeline::new();
    p.extend(featurization_segment(cfg, false));
    p.extend(extraction_segment(cfg));
    let diags = p.check_with(&audio_input());
    let dead: Vec<_> = diags
        .iter()
        .filter(|d| d.kind == DiagnosticKind::DeadStage && d.severity == Severity::Error)
        .collect();
    assert!(
        dead.iter().any(|d| d.operator == "cutter"),
        "expected a dead-stage error naming cutter, got {diags:?}"
    );
}

#[test]
fn runner_refuses_a_provably_dead_chain_preflight() {
    // `cutter` drops every data record it does not consume, so even
    // under completely unknown input (the runner's pre-flight seed) the
    // abstract set narrows to audio — placing `trigger` after it is
    // provably dead and the run is refused before any record flows.
    let cfg = ExtractorConfig::default();
    let mut p = Pipeline::new();
    p.add(Cutter::new(cfg));
    p.add(TriggerOp::new(cfg));
    let records = clip_to_records(&[0.01; 840 * 2], 20_160.0, 840, &[]);
    let err = p.run(records).unwrap_err();
    assert!(matches!(err, PipelineError::Analysis(_)), "{err}");
    assert!(err.to_string().contains("trigger"), "{err}");
}

#[test]
fn trigger_before_saxanomaly_is_dead() {
    let cfg = ExtractorConfig::default();
    let mut p = Pipeline::new();
    p.add(TriggerOp::new(cfg));
    p.add(SaxAnomaly::new(cfg));
    p.add(Cutter::new(cfg));
    let diags = p.check_with(&audio_input());
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::DeadStage && d.operator == "trigger"),
        "{diags:?}"
    );
}

#[test]
fn rec2vect_without_spectra_is_dead() {
    let cfg = ExtractorConfig::default();
    let mut p = extraction_segment(cfg);
    p.add(Rec2Vect::new(cfg.pattern_records));
    let diags = p.check_with(&audio_input());
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::DeadStage && d.operator == "rec2vect"),
        "{diags:?}"
    );
}

/// An operator that net-opens scopes it never closes.
struct LeakyOpener;

impl Operator for LeakyOpener {
    fn name(&self) -> &'static str {
        "leaky-opener"
    }
    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        out.push(record)
    }
    fn signature(&self) -> Option<Signature> {
        Some(Signature::passthrough().with_scope(ScopeEffect::Opens {
            scope_type: scope_type::ENSEMBLE,
        }))
    }
    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(LeakyOpener))
    }
}

#[test]
fn scope_unbalanced_chain_names_the_opener() {
    let cfg = ExtractorConfig::default();
    let mut p = extraction_segment(cfg);
    p.add(LeakyOpener);
    let diags = p.check_with(&audio_input());
    let imbalance: Vec<_> = diags
        .iter()
        .filter(|d| d.kind == DiagnosticKind::ScopeImbalance)
        .collect();
    assert_eq!(imbalance.len(), 1, "{diags:?}");
    assert_eq!(imbalance[0].operator, "leaky-opener");
    assert_eq!(imbalance[0].severity, Severity::Error);

    // Pre-flight refusal, naming the operator.
    let err = p.run(Vec::new()).unwrap_err();
    assert!(err.to_string().contains("leaky-opener"), "{err}");
}

#[test]
fn sharded_run_with_readout_fails_preflight_naming_it() {
    let cfg = ExtractorConfig::default();
    let mut p = full_pipeline(cfg, false);
    p.add(Readout::new(Vec::new()));
    let records = clip_to_records(&[0.01; 840 * 2], 20_160.0, 840, &[]);
    let err = p
        .run_sharded(records.into_iter(), &mut NullSink, 2)
        .unwrap_err();
    let PipelineError::Analysis(diags) = &err else {
        panic!("expected an analysis error, got {err}");
    };
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::ShardUnsafe && d.operator == "readout"),
        "{diags:?}"
    );
    // The streaming driver accepts the same chain (shardability is a
    // warning there, not an error).
    let records = clip_to_records(&[0.01; 840 * 2], 20_160.0, 840, &[]);
    p.run(records).unwrap();
}
