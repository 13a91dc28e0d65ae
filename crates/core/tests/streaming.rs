//! Streaming-executor integration tests for the Figure 5 graph:
//! stage-at-a-time/streaming equivalence on real synthetic clips, and
//! the constant-memory guarantee over streams far longer than any clip.

#[path = "../../river/tests/testkit/mod.rs"]
mod testkit;

use dynamic_river::prelude::*;
use dynamic_river::scope::validate_scopes;
use ensemble_core::ops::{
    clip_record_source, clip_to_records, Cutout, Cutter, LogScale, PaaOp, Rec2Vect, SaxAnomaly,
    Spectrum, TriggerOp,
};
use ensemble_core::pipeline::{extraction_segment, full_pipeline};
use ensemble_core::prelude::*;
use ensemble_core::subtype;
use testkit::{pipeline, stage_at_a_time};

/// The Figure 5 chain under the default configuration, built from the
/// operators' public constructors.
fn figure5_stages(cfg: ExtractorConfig, with_paa: bool) -> Vec<Box<dyn Operator>> {
    let mut stages: Vec<Box<dyn Operator>> = vec![
        Box::new(SaxAnomaly::new(cfg)),
        Box::new(TriggerOp::new(cfg)),
        Box::new(Cutter::new(cfg)),
        Box::new(Spectrum::new()),
        Box::new(Cutout::new(
            cfg.cutout_low_hz,
            cfg.cutout_high_hz,
            cfg.sample_rate,
        )),
    ];
    if with_paa {
        stages.push(Box::new(PaaOp::new(cfg.paa_factor)));
    }
    stages.push(Box::new(LogScale::new()));
    stages.push(Box::new(Rec2Vect::new(cfg.pattern_records)));
    stages
}

/// The fused streaming driver and the stage-at-a-time reference
/// produce record-for-record identical output for the complete
/// Figure 5 pipeline over a clip with real song bouts.
#[test]
fn figure5_streaming_equals_batch() {
    let cfg = ExtractorConfig::default();
    let synth = ClipSynthesizer::new(SynthConfig::short_test());
    let clip = synth.clip(SpeciesCode::Rwbl, 42);
    let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
    let records = clip_to_records(
        &clip.samples[..usable],
        cfg.sample_rate,
        cfg.record_len,
        &[],
    );

    for with_paa in [false, true] {
        assert_eq!(
            pipeline(figure5_stages(cfg, with_paa)).names(),
            full_pipeline(cfg, with_paa).names(),
            "the reference chain drifted from the library's"
        );
        let batch = stage_at_a_time(figure5_stages(cfg, with_paa), records.clone()).unwrap();
        let mut streamed = Vec::new();
        let stats = full_pipeline(cfg, with_paa)
            .run_streaming(records.clone().into_iter(), &mut streamed)
            .unwrap();
        assert_eq!(batch, streamed, "with_paa={with_paa}");
        validate_scopes(&streamed).unwrap();
        assert_eq!(stats.source_records as usize, records.len());
        assert_eq!(stats.sink_records as usize, streamed.len());
    }
}

/// The lazy clip source feeds the pipeline the same stream as the
/// materialized record vector.
#[test]
fn clip_record_source_matches_clip_to_records() {
    let cfg = ExtractorConfig::default();
    let synth = ClipSynthesizer::new(SynthConfig::short_test());
    let clip = synth.clip(SpeciesCode::Bcch, 7);
    let materialized = clip_to_records(&clip.samples, cfg.sample_rate, cfg.record_len, &[]);

    let mut streamed = Vec::new();
    Pipeline::new()
        .run_streaming(
            clip_record_source(
                clip.samples.iter().copied(),
                cfg.sample_rate,
                cfg.record_len,
                &[],
            ),
            &mut streamed,
        )
        .unwrap();
    assert_eq!(streamed, materialized);
}

/// A cheap deterministic "sensor stream": a quiet noise floor with a
/// loud tonal burst for one second out of every ten — enough to open
/// real ensembles without paying for the full birdsong synthesizer at
/// 100-clip scale.
fn sensor_stream(total: usize, sample_rate: f64) -> impl Iterator<Item = f64> {
    let second = sample_rate as usize;
    (0..total).map(move |i| {
        let noise = (((i.wrapping_mul(2_654_435_761)) % 997) as f64 / 997.0 - 0.5) * 0.02;
        let in_burst = (i / second) % 10 == 3;
        let burst = if in_burst {
            (i as f64 * 0.7).sin() * 0.5
        } else {
            0.0
        };
        noise + burst
    })
}

/// The acceptance test for the fused executor: a synthetic stream of
/// 100× the default clip length flows through the complete Figure 5
/// pipeline via `run_streaming`, and the per-stage counters prove the
/// driver never buffered more than a small constant burst of records —
/// peak buffering is operator-internal state, not stream length.
#[test]
fn unbounded_stream_runs_in_constant_memory() {
    let cfg = ExtractorConfig::default();
    // 100× the default clip. Debug builds run the extraction chain ~60×
    // slower than release, so they scale the clip to the short test
    // length (still an 8-million-sample stream); release builds use the
    // full 30 s default clip — 60.48 M samples.
    let clip_samples = if cfg!(debug_assertions) {
        SynthConfig::short_test().clip_samples()
    } else {
        SynthConfig::default().clip_samples()
    };
    let total = 100 * clip_samples;
    let records_expected = (total / cfg.record_len) as u64;

    let run = |n: usize| {
        let mut p = full_pipeline(cfg, true);
        let mut sink = CountingSink::default();
        let stats = p
            .run_streaming(
                clip_record_source(
                    sensor_stream(n, cfg.sample_rate),
                    cfg.sample_rate,
                    cfg.record_len,
                    &[],
                ),
                &mut sink,
            )
            .unwrap();
        (stats, sink)
    };

    let (stats, sink) = run(total);

    // The whole stream went through: open + audio records + close.
    assert_eq!(stats.source_records, records_expected + 2);
    assert_eq!(stats.stages[0].records_in, records_expected + 2);

    // The bursts actually exercised the back half: patterns reached the
    // sink.
    let rec2vect = stats.stages.last().unwrap();
    assert_eq!(rec2vect.name, "rec2vect");
    assert!(
        rec2vect.records_out > 100,
        "only {} records left rec2vect",
        rec2vect.records_out
    );
    assert!(sink.records > 100);

    // The constant-memory claim. Every stage's peak burst — the most
    // records that ever left it for one input, i.e. the most the driver
    // ever had in flight below it — is a small constant: saxanomaly
    // pairs each audio record with a score record (2), cutter drains
    // its proved-long-enough buffer (1 + min_ensemble_samples /
    // record_len + 1 = 3 at paper geometry), everything downstream is
    // record-at-a-time. Compare: the batch runner would materialize all
    // ~72 000 records between every pair of stages at release scale.
    let bound = 2 + (cfg.min_ensemble_samples / cfg.record_len + 2) as u64;
    for stage in &stats.stages {
        assert!(
            stage.peak_burst <= bound,
            "stage {} peak burst {} exceeds constant bound {bound}",
            stage.name,
            stage.peak_burst
        );
        assert!(
            stage.records_in < 4 * records_expected,
            "stage {} saw {} records for {} inputs",
            stage.name,
            stage.records_in,
            records_expected
        );
    }

    // And the bound does not move with stream length: a 10× shorter
    // stream shows the same per-stage peaks.
    let (short_stats, _) = run(total / 10);
    for (long, short) in stats.stages.iter().zip(&short_stats.stages) {
        assert!(
            long.peak_burst <= short.peak_burst.max(bound),
            "stage {} burst grew with stream length: {} vs {}",
            long.name,
            long.peak_burst,
            short.peak_burst
        );
    }
}

/// The acceptance test for the sharded runtime: a many-clip archive
/// stream (100 clips in release, scaled down in debug like the
/// constant-memory test above) flows through the complete Figure 5
/// graph via `run_sharded`, and the output is **byte-identical** to
/// the single-lane `run_streaming` path while every shard's peak burst
/// stays within the same constant bound — data-parallelism without any
/// change in observable behavior.
#[test]
fn sharded_archive_matches_single_lane_with_constant_burst() {
    use ensemble_core::ops::clips_record_source;

    let cfg = ExtractorConfig::default();
    let clip_samples = SynthConfig::short_test().clip_samples();
    let clips = if cfg!(debug_assertions) { 8 } else { 100 };
    let clip: Vec<f64> = sensor_stream(clip_samples, cfg.sample_rate).collect();
    let archive = || {
        clips_record_source(
            std::iter::repeat_with(|| clip.clone()).take(clips),
            cfg.sample_rate,
            cfg.record_len,
        )
    };

    let mut single = Vec::new();
    let single_stats = full_pipeline(cfg, true)
        .run_streaming(archive(), &mut single)
        .unwrap();
    validate_scopes(&single).unwrap();
    assert!(
        single
            .iter()
            .any(|r| r.kind == RecordKind::Data && r.subtype == subtype::PATTERN),
        "archive produced no patterns"
    );

    let bound = 2 + (cfg.min_ensemble_samples / cfg.record_len + 2) as u64;
    for workers in [2usize, 4] {
        let mut sharded = Vec::new();
        let stats = full_pipeline(cfg, true)
            .run_sharded(archive(), &mut sharded, workers)
            .unwrap();
        assert_eq!(single, sharded, "workers={workers}");
        assert_eq!(stats.source_records, single_stats.source_records);
        assert_eq!(stats.sink_records, single_stats.sink_records);
        // `StreamStats::merge` keeps the max over shards, so this bounds
        // *every* shard's buffering, not an average.
        for stage in &stats.stages {
            assert!(
                stage.peak_burst <= bound,
                "workers={workers} stage {} peak burst {} exceeds constant bound {bound}",
                stage.name,
                stage.peak_burst
            );
        }
    }
}

/// The streaming driver's `sink_records` over a discarding sink must
/// agree with the collected output's length without keeping it.
#[test]
fn sink_records_agrees_with_run_on_extraction() {
    let cfg = ExtractorConfig::default();
    let synth = ClipSynthesizer::new(SynthConfig::short_test());
    let clip = synth.clip(SpeciesCode::Noca, 3);
    let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
    let records = clip_to_records(
        &clip.samples[..usable],
        cfg.sample_rate,
        cfg.record_len,
        &[],
    );

    let collected = extraction_segment(cfg).run(records.clone()).unwrap();
    let stats = extraction_segment(cfg)
        .run_streaming(records.into_iter(), &mut NullSink)
        .unwrap();
    assert_eq!(stats.sink_records as usize, collected.len());
    assert!(collected
        .iter()
        .any(|r| r.kind == RecordKind::Data && r.subtype == subtype::AUDIO));
}
