//! Telemetry overhead guard for the fused Figure 5 chain.
//!
//! With [`TelemetryConfig::Off`] the executor's only telemetry cost is
//! a per-stage latency histogram `Option` that is `None` (never taken)
//! plus one disabled-event check — strictly less work than
//! [`TelemetryConfig::Counters`], which takes that branch and pays the
//! clock reads and the histogram's bucket adds. The pre-telemetry executor is
//! no longer in-tree to diff against, so this guard bounds the Off-mode
//! overhead *a fortiori*: it runs the full fused Figure 5 chain with
//! telemetry Off and with Counters and requires the **enabled** mode to
//! stay within 5% ns/record of Off. Whatever the dead branch costs is
//! necessarily below that.
//!
//! The two configs are timed in alternation, eleven pairs over six 30 s
//! clips, and the verdict is the **median of the per-pair ratios** (as
//! river-bench's `telemetry.counters_overhead_ratio` judges it): one
//! disturbed pair moves one ratio out of eleven instead of deciding a
//! minimum. Within a pair the sides alternate **clip by clip** (~20 ms
//! a clip optimised), and each side's ns/record is summed over the six
//! clips. The shared host's speed drifts by tens of percent from one
//! tenth of a second to the next, so a whole six-clip pass a side left
//! the two sides of a pair in different weather: their ratios spread
//! 0.62–1.46, and the median crossed the bound in about one release run
//! of fourteen — in two of nine with each side the fastest of three
//! passes in a row, in two of six with four interleaved rounds of
//! whole passes. Two runs of one clip, back to back, see the same host;
//! summed over six clips, 40 such pairs read 0.95–1.19, median 1.026,
//! quartiles 1.018 and 1.034. The chain's per-record work (SAX anomaly
//! scoring, fused spectra) dwarfs the timer's clock reads, so the
//! honest Counters cost (~2.6 % on the 2-core reference VM) sits inside
//! the budget. The file holds a single `#[test]` so no sibling test
//! competes for the core inside the measured window.

use dynamic_river::{CountingSink, TelemetryConfig};
use ensemble_core::ops::clips_record_source;
use ensemble_core::pipeline::full_pipeline;
use ensemble_core::prelude::*;
use std::time::Instant;

/// One timed pass of the fused Figure 5 chain over `clips` under
/// `config`, returning ns per source record.
fn ns_per_record(cfg: ExtractorConfig, clips: &[Vec<f64>], config: TelemetryConfig) -> f64 {
    let mut p = full_pipeline(cfg, true);
    p.set_telemetry(config);
    let mut sink = CountingSink::default();
    let source = clips_record_source(clips.to_vec(), cfg.sample_rate, cfg.record_len);
    let t0 = Instant::now();
    let stats = p.run_streaming(source, &mut sink).expect("chain run");
    let dt = t0.elapsed().as_secs_f64();
    dt / stats.source_records as f64 * 1e9
}

/// Counters over Off, ns/record, of `pairs` pairs, sorted. A pair
/// times each clip under both configs back to back, the side that goes
/// first alternating from clip to clip, and compares the two sides'
/// sums over the clips.
fn pair_ratios(cfg: ExtractorConfig, clips: &[Vec<f64>], pairs: usize) -> Vec<f64> {
    let time = |clip, config| ns_per_record(cfg, clip, config);
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|pair| {
            let (mut off, mut counters) = (0.0, 0.0);
            for (k, clip) in clips.chunks(1).enumerate() {
                if (pair + k) % 2 == 0 {
                    off += time(clip, TelemetryConfig::Off);
                    counters += time(clip, TelemetryConfig::Counters);
                } else {
                    counters += time(clip, TelemetryConfig::Counters);
                    off += time(clip, TelemetryConfig::Off);
                }
            }
            counters / off
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios
}

#[test]
fn telemetry_off_overhead_stays_under_five_percent() {
    let cfg = ExtractorConfig::paper();
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    // An unoptimised build only runs the functional halves below, so it
    // times the short form.
    let (clip_count, pairs) = if cfg!(debug_assertions) {
        (1, 7)
    } else {
        (6, 11)
    };
    let clips: Vec<Vec<f64>> = [SpeciesCode::Noca, SpeciesCode::Amgo, SpeciesCode::Bcch]
        .into_iter()
        .cycle()
        .zip(5..)
        .take(clip_count)
        .map(|(species, seed)| {
            let clip = synth.clip(species, seed);
            let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
            clip.samples[..usable].to_vec()
        })
        .collect();

    // One throwaway pass warms caches and the allocator.
    let _ = ns_per_record(cfg, &clips, TelemetryConfig::Off);

    let ratios = pair_ratios(cfg, &clips, pairs);
    let median = ratios[ratios.len() / 2];
    eprintln!("telemetry overhead: counters/off per pair {ratios:.3?}, median {median:.3}");

    if cfg!(debug_assertions) {
        // An unoptimized build times the executor's debug scaffolding,
        // not the shipped hot path, and on a one-core CI host that
        // noise alone exceeds the budget. The 5% gate is enforced on
        // the release build (`ci.sh release-tests` runs it optimized).
        eprintln!("debug build: timing budget not enforced");
    } else {
        assert!(
            median <= 1.05,
            "telemetry Counters mode cost {median:.3}x the ns/record of telemetry off (median of \
             {ratios:.3?}) — over the 5% budget, so the Off-mode dead branch cannot be cheap either"
        );
    }

    // Functional halves of the same guard: Off registers nothing (the
    // hot-path branch is a None), Counters populates every stage's
    // histogram but traces no events (that is Full's job).
    let source = || clips_record_source(clips.clone(), cfg.sample_rate, cfg.record_len);

    let mut p = full_pipeline(cfg, true);
    let mut sink = CountingSink::default();
    p.run_streaming(source(), &mut sink).expect("off run");
    let snap = p.telemetry_snapshot();
    assert!(snap.stages.is_empty());
    assert!(snap.events.is_empty());

    let mut p = full_pipeline(cfg, true);
    p.set_telemetry(TelemetryConfig::Counters);
    let mut sink = CountingSink::default();
    p.run_streaming(source(), &mut sink).expect("counters run");
    let snap = p.telemetry_snapshot();
    assert!(!snap.stages.is_empty());
    assert!(snap.stages.iter().all(|s| s.latency.count > 0));
    assert!(snap.events.is_empty());
}
