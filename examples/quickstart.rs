//! Quickstart: synthesize a field clip, stream it through ensemble
//! extraction record by record, featurize what was found, and run the
//! full Figure 5 record pipeline with per-stage statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use acoustic_ensembles::core::ops::clip_record_source;
use acoustic_ensembles::core::pipeline::{featurize_ensemble, full_pipeline};
use acoustic_ensembles::core::prelude::*;
use acoustic_ensembles::river::prelude::*;

fn main() {
    // A 30-second "field recording": ambience plus a few Northern
    // cardinal song bouts.
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let clip = synth.clip(SpeciesCode::Noca, 42);
    println!(
        "clip: {:.0} s at {:.1} kHz, {} song bout(s) hidden in the noise",
        clip.duration(),
        clip.sample_rate / 1e3,
        clip.events.len()
    );

    // Extract ensembles with the paper's parameters (SAX window 100,
    // alphabet 8, moving average 2250, adaptive 3-sigma trigger) — the
    // `saxanomaly` → `trigger` → `cutter` chain fed records lazily, as a
    // sensor stream would deliver them. Each ensemble pops out the
    // moment its trigger releases.
    let config = ExtractorConfig::default();
    let extractor = EnsembleExtractor::new(config);
    let feed = || {
        clip_record_source(
            clip.samples.iter().copied(),
            config.sample_rate,
            config.record_len,
            &[],
        )
    };
    let mut ensembles = Vec::new();
    extractor
        .extract_from(feed(), |e| ensembles.push(e))
        .expect("extraction run");

    println!(
        "\nextracted {} ensemble(s) while streaming:",
        ensembles.len()
    );
    let mut kept = 0usize;
    for (i, e) in ensembles.iter().enumerate() {
        kept += e.len();
        let truth = clip.label_for_range(e.start, e.end).map_or_else(
            || "no bird (noise event)".to_string(),
            |s| format!("{} ({})", s.code(), s.common_name()),
        );
        let patterns = featurize_ensemble(&e.samples, &config, true);
        println!(
            "  #{:<2} {:>6.2}s..{:<6.2}s  {:>6} samples  {:>3} patterns  ground truth: {}",
            i + 1,
            e.start as f64 / clip.sample_rate,
            e.end as f64 / clip.sample_rate,
            e.len(),
            patterns.len(),
            truth
        );
    }
    println!(
        "\ndata reduction: {:.1}% of the clip was discarded as non-event",
        100.0 * (1.0 - kept as f64 / clip.samples.len() as f64)
    );

    // The same analysis as a record pipeline: the complete Figure 5
    // operator graph, run by the fused streaming executor. The source
    // chunks samples lazily, each record flows depth-first through all
    // ten operators, and the driver reports per-stage traffic.
    let mut pipeline = full_pipeline(config, true);
    let mut sink = CountingSink::default();
    let stats = pipeline
        .run_streaming(feed(), &mut sink)
        .expect("pipeline run");

    println!(
        "\nFigure 5 pipeline (streaming executor): {} source records -> {} sink records",
        stats.source_records, stats.sink_records
    );
    println!(
        "  {:<12} {:>10} {:>12} {:>10} {:>12} {:>6}",
        "stage", "rec in", "bytes in", "rec out", "bytes out", "burst"
    );
    for s in &stats.stages {
        println!(
            "  {:<12} {:>10} {:>12} {:>10} {:>12} {:>6}",
            s.name, s.records_in, s.bytes_in, s.records_out, s.bytes_out, s.peak_burst
        );
    }
    println!(
        "peak burst {} record(s): buffering is operator state, not stream length",
        stats.max_peak_burst()
    );
}
