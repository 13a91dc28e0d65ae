//! Telemetry overhead guard for the fused Figure 5 chain (ISSUE 9
//! satellite 4).
//!
//! With [`TelemetryConfig::Off`] the executor's only telemetry cost is
//! a per-stage `Option<Arc<StageTimer>>` that is `None` (never taken)
//! plus one disabled-event check — strictly less work than
//! [`TelemetryConfig::Counters`], which takes that branch and pays the
//! clock reads and atomic bucket updates. The pre-telemetry executor is
//! no longer in-tree to diff against, so this guard bounds the Off-mode
//! overhead *a fortiori*: it runs the full fused Figure 5 chain with
//! telemetry Off and with Counters and requires the **enabled** mode to
//! stay within 5% ns/record of Off. Whatever the dead branch costs is
//! necessarily below that.
//!
//! The two configs are timed in alternation, seven back-to-back pairs,
//! and the verdict is the **median of the per-pair ratios** (as
//! river-bench's `telemetry.counters_overhead_ratio` judges it): slow
//! drift on a loaded CI host (a background build, a noisy neighbor)
//! hits both sides of a pair alike, and one disturbed pass moves one
//! ratio out of seven instead of deciding a minimum. The chain's
//! per-record work (SAX anomaly scoring, fused spectra) dwarfs the
//! timer's clock reads by an order of magnitude, so the honest Counters
//! cost sits well inside the budget. The file holds a single `#[test]`
//! so no sibling test competes for the core inside the measured window.

use dynamic_river::{CountingSink, TelemetryConfig};
use ensemble_core::ops::clips_record_source;
use ensemble_core::pipeline::full_pipeline;
use ensemble_core::prelude::*;
use std::time::Instant;

/// One timed pass of the fused Figure 5 chain under `config`,
/// returning ns per source record.
fn ns_per_record(cfg: ExtractorConfig, samples: &[f64], config: TelemetryConfig) -> f64 {
    let mut p = full_pipeline(cfg, true);
    p.set_telemetry(config);
    let mut sink = CountingSink::default();
    let source = clips_record_source(
        std::iter::once(samples.to_vec()),
        cfg.sample_rate,
        cfg.record_len,
    );
    let t0 = Instant::now();
    let stats = p.run_streaming(source, &mut sink).expect("chain run");
    let dt = t0.elapsed().as_secs_f64();
    dt / stats.source_records as f64 * 1e9
}

/// Counters over Off, ns/record, of seven alternating pairs, sorted.
fn pair_ratios(cfg: ExtractorConfig, samples: &[f64]) -> [f64; 7] {
    let mut ratios = [0.0; 7];
    for ratio in &mut ratios {
        let off = ns_per_record(cfg, samples, TelemetryConfig::Off);
        let counters = ns_per_record(cfg, samples, TelemetryConfig::Counters);
        *ratio = counters / off;
    }
    ratios.sort_by(f64::total_cmp);
    ratios
}

#[test]
fn telemetry_off_overhead_stays_under_five_percent() {
    let cfg = ExtractorConfig::paper();
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let clip = synth.clip(SpeciesCode::Noca, 5);
    let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
    let samples = &clip.samples[..usable];

    // One throwaway pass warms caches and the allocator.
    let _ = ns_per_record(cfg, samples, TelemetryConfig::Off);

    let ratios = pair_ratios(cfg, samples);
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
    let source = || {
        clips_record_source(
            std::iter::once(samples.to_vec()),
            cfg.sample_rate,
            cfg.record_len,
        )
    };

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
