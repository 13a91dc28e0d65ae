//! Parallel archive survey: the scope-sharded runtime driving the
//! complete Figure 5 graph over an archive of clips — the Orchive-style
//! workload where throughput comes from data-parallelism across clips,
//! not from the operators themselves.
//!
//! ```text
//! cargo run --release --example parallel_archive [workers [clips]]
//! ```
//!
//! Runs the archive through the single-lane fused executor and through
//! `run_sharded` at the requested worker count, verifies the outputs
//! are byte-identical, and reports both throughputs.

use acoustic_ensembles::core::ops::clips_record_source;
use acoustic_ensembles::core::pipeline::full_pipeline;
use acoustic_ensembles::core::prelude::*;
use acoustic_ensembles::river::{Record, TelemetryConfig};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let clips: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);

    let cfg = ExtractorConfig::default();
    let synth = ClipSynthesizer::new(SynthConfig::short_test());
    println!("synthesizing {clips} clips...");
    let archive: Vec<Vec<f64>> = (0..clips as u64)
        .map(|seed| {
            let c = synth.clip(
                SpeciesCode::ALL[(seed as usize) % SpeciesCode::ALL.len()],
                seed,
            );
            let usable = c.samples.len() - c.samples.len() % cfg.record_len;
            c.samples[..usable].to_vec()
        })
        .collect();
    let total_samples: usize = archive.iter().map(Vec::len).sum();

    // Single lane: one core drives every clip through the whole chain.
    let mut single: Vec<Record> = Vec::new();
    let t0 = Instant::now();
    full_pipeline(cfg, true)
        .run_streaming(
            clips_record_source(archive.clone(), cfg.sample_rate, cfg.record_len),
            &mut single,
        )
        .unwrap();
    let single_secs = t0.elapsed().as_secs_f64();

    // Sharded: whole clip scopes fan out to worker chains, outputs
    // merge back in archive order. Workers record into the pipeline's
    // telemetry registry, so the snapshot taken after the run is already
    // the archive-wide per-stage latency distribution (DESIGN.md §16).
    let mut sharded: Vec<Record> = Vec::new();
    let t0 = Instant::now();
    let mut pipeline = full_pipeline(cfg, true);
    pipeline.set_telemetry(TelemetryConfig::Counters);
    let stats = pipeline
        .run_sharded(
            clips_record_source(archive.clone(), cfg.sample_rate, cfg.record_len),
            &mut sharded,
            workers,
        )
        .unwrap();
    let sharded_secs = t0.elapsed().as_secs_f64();

    assert_eq!(single, sharded, "sharded output diverged from single lane");
    println!(
        "figure 5 over {clips} clips ({:.1} M samples): single lane {:.2} s, {workers} shards {:.2} s ({:.2}x); \
         outputs byte-identical ({} records), peak per-shard burst {}",
        total_samples as f64 / 1e6,
        single_secs,
        sharded_secs,
        single_secs / sharded_secs,
        sharded.len(),
        stats.max_peak_burst(),
    );
    println!(
        "\nper-stage latency, merged across {workers} shards:\n{}",
        pipeline.telemetry_snapshot().render_table()
    );
}
