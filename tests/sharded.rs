//! End-to-end integration of the scope-sharded runtime through the
//! facade crate: real synthetic clips through the complete Figure 5
//! graph, plus deterministic fault-injection scenarios driving
//! `FailAfter` / `DropCloses`-shaped streams through the sharded
//! runner.

use acoustic_ensembles::core::ops::{clip_to_records, clips_record_source};
use acoustic_ensembles::core::pipeline::full_pipeline;
use acoustic_ensembles::core::prelude::*;
use acoustic_ensembles::river::fault::{DropCloses, FailAfter, TruncateAfter};
use acoustic_ensembles::river::ops::ScopeRepair;
use acoustic_ensembles::river::scope::validate_scopes;
use acoustic_ensembles::river::{Pipeline, PipelineError, Record, RecordKind};

fn archive_clips(n: u64) -> Vec<Vec<f64>> {
    let cfg = ExtractorConfig::default();
    let synth = ClipSynthesizer::new(SynthConfig::short_test());
    (0..n)
        .map(|seed| {
            let c = synth.clip(SpeciesCode::Hofi, seed);
            let usable = c.samples.len() - c.samples.len() % cfg.record_len;
            c.samples[..usable].to_vec()
        })
        .collect()
}

/// Real birdsong clips through the complete Figure 5 graph: the sharded
/// path reproduces the single-lane output byte for byte, with real
/// ensembles and patterns in the stream.
#[test]
fn figure5_archive_sharded_equals_streaming() {
    let cfg = ExtractorConfig::default();
    let clips = archive_clips(4);

    let mut single = Vec::new();
    full_pipeline(cfg, true)
        .run_streaming(
            clips_record_source(clips.clone(), cfg.sample_rate, cfg.record_len),
            &mut single,
        )
        .unwrap();
    validate_scopes(&single).unwrap();

    for workers in [2usize, 3] {
        let mut sharded = Vec::new();
        full_pipeline(cfg, true)
            .run_sharded(
                clips_record_source(clips.clone(), cfg.sample_rate, cfg.record_len),
                &mut sharded,
                workers,
            )
            .unwrap();
        assert_eq!(single, sharded, "workers={workers}");
    }
}

/// A producer that drops clip closes (`DropCloses`) leaves scopes
/// dangling; the per-shard `ScopeRepair` must synthesize exactly the
/// `BadCloseScope` records the single-lane path emits — same records,
/// same positions.
#[test]
fn dropped_closes_repair_identically_under_sharding() {
    let cfg = ExtractorConfig::default();
    let mut archive = Vec::new();
    for clip in archive_clips(3) {
        archive.extend(clip_to_records(
            &clip[..cfg.record_len * 4],
            cfg.sample_rate,
            cfg.record_len,
            &[],
        ));
    }

    // Fault upstream of both runners: every second close vanishes.
    let mut injector = Pipeline::new();
    injector.add(DropCloses::every(2));
    let damaged = injector.run(archive).unwrap();

    let build = || {
        let mut p = Pipeline::new();
        p.add(ScopeRepair::new());
        p
    };
    let mut single = Vec::new();
    build()
        .run_streaming(damaged.clone().into_iter(), &mut single)
        .unwrap();
    for workers in [1usize, 2, 4] {
        let mut sharded = Vec::new();
        build()
            .run_sharded(damaged.clone().into_iter(), &mut sharded, workers)
            .unwrap();
        assert_eq!(single, sharded, "workers={workers}");
        validate_scopes(&sharded).unwrap();
        let bad = sharded
            .iter()
            .filter(|r| r.kind == RecordKind::BadCloseScope)
            .count();
        assert!(bad > 0, "repair emitted no BadCloseScope records");
    }
}

/// A truncated stream (producer vanished mid-clip) repairs identically:
/// the dangling scope's `BadCloseScope` lands at the very end of the
/// merged output, exactly where the single-lane flush puts it.
#[test]
fn truncated_stream_repairs_identically_under_sharding() {
    let cfg = ExtractorConfig::default();
    let mut archive = Vec::new();
    for clip in archive_clips(3) {
        archive.extend(clip_to_records(
            &clip[..cfg.record_len * 4],
            cfg.sample_rate,
            cfg.record_len,
            &[],
        ));
    }
    let keep = archive.len() as u64 - 2; // cut inside the last clip
    let mut injector = Pipeline::new();
    injector.add(TruncateAfter::new(keep));
    let damaged = injector.run(archive).unwrap();

    let build = || {
        let mut p = Pipeline::new();
        p.add(ScopeRepair::new());
        p
    };
    let mut single = Vec::new();
    build()
        .run_streaming(damaged.clone().into_iter(), &mut single)
        .unwrap();
    assert_eq!(single.last().unwrap().kind, RecordKind::BadCloseScope);
    for workers in [2usize, 3] {
        let mut sharded = Vec::new();
        build()
            .run_sharded(damaged.clone().into_iter(), &mut sharded, workers)
            .unwrap();
        assert_eq!(single, sharded, "workers={workers}");
    }
}

/// A crashing operator (`FailAfter`) aborts the sharded run with the
/// same operator error as the single lane, and the records delivered
/// before the abort are a prefix of the single-lane output.
#[test]
fn crashing_operator_aborts_sharded_run() {
    let cfg = ExtractorConfig::default();
    let clip = &archive_clips(1)[0];
    let records = clip_to_records(
        &clip[..cfg.record_len * 6],
        cfg.sample_rate,
        cfg.record_len,
        &[],
    );
    let build = || {
        let mut p = Pipeline::new();
        p.add(FailAfter::new(3));
        p
    };
    let mut single: Vec<Record> = Vec::new();
    let single_err = build()
        .run_streaming(records.clone().into_iter(), &mut single)
        .unwrap_err();
    let mut sharded: Vec<Record> = Vec::new();
    let sharded_err = build()
        .run_sharded(records.into_iter(), &mut sharded, 2)
        .unwrap_err();
    assert!(matches!(single_err, PipelineError::Operator { .. }));
    assert!(matches!(sharded_err, PipelineError::Operator { .. }));
    // One clip = one unit = one shard: the failure point is identical.
    assert_eq!(single, sharded);
}
