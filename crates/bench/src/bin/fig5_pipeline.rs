//! Regenerates **Figure 5** of the paper as an executable artifact: the
//! block diagram of pipeline operators for converting acoustic clips
//! into ensembles, with per-stage record statistics from a real run of
//! the streaming executor.
//!
//! ```text
//! cargo run -p ensemble-bench --release --bin fig5_pipeline [-- --seed N]
//! ```
//!
//! One synthesized clip goes through the full Figure 5 graph on the
//! single-lane driver (`run_streaming`); the driver's own per-stage
//! statistics are what the figure annotates. Throughput, per-stage cost
//! and shard scaling are river-bench's to report
//! (`crates/bench/src/bin/river-bench/README.md`), not this binary's.

use dynamic_river::CountingSink;
use ensemble_bench::{header, Scale};
use ensemble_core::ops::clips_record_source;
use ensemble_core::pipeline::full_pipeline;
use ensemble_core::prelude::*;

fn main() {
    let scale = Scale::from_args();
    let cfg = ExtractorConfig::paper();
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let mut samples = synth.clip(SpeciesCode::Noca, scale.seed).samples;
    samples.truncate(samples.len() - samples.len() % cfg.record_len);

    let mut sink = CountingSink::default();
    let stats = full_pipeline(cfg, true)
        .run_streaming(
            clips_record_source([samples], cfg.sample_rate, cfg.record_len),
            &mut sink,
        )
        .expect("pipeline run");

    header("Figure 5: pipeline operators converting acoustic clips into ensembles");
    println!("sensor platform -> readout -> storage -> wav2rec -> (this run starts here)\n");
    println!(
        "{:<14} {:>10} {:>12} {:>8}   (records/bytes leaving the stage)",
        "operator", "records", "data bytes", "burst"
    );
    println!("{:<14} {:>10} {:>12}", "input", stats.source_records, "");
    for s in &stats.stages {
        println!(
            "{:<14} {:>10} {:>12} {:>8}",
            s.name, s.records_out, s.bytes_out, s.peak_burst
        );
    }
    println!(
        "\nfinal output: {} records ({} bytes) -> MESO; {}-dim patterns; peak burst {}",
        sink.records,
        sink.bytes,
        cfg.paa_pattern_features(),
        stats.max_peak_burst()
    );
}
