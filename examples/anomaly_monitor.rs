//! Continuous anomaly monitor: feeds a long acoustic stream through the
//! extraction chain (`saxanomaly` → `trigger` → `cutter`) record by
//! record — the "timely, automated processing of continuous streams"
//! the paper targets (§5) — and reports each ensemble the moment its
//! trigger releases.
//!
//! The chain's state is the SAX/normalization windows, the
//! moving-average window, the trigger estimate, and the currently open
//! ensemble: O(window), however long the stream runs.
//!
//! ```text
//! cargo run --release --example anomaly_monitor
//! ```

use acoustic_ensembles::core::ops::clip_record_source;
use acoustic_ensembles::core::prelude::*;

fn main() {
    let cfg = ExtractorConfig::default();
    let synth = ClipSynthesizer::new(SynthConfig::paper());

    // A "continuous" stream: several clips of different species back to
    // back, as a sensor station would deliver them — one unbroken
    // sample iterator, each clip synthesized only when the chain has
    // consumed the one before it.
    let sequence = [
        (SpeciesCode::Noca, 1u64),
        (SpeciesCode::Dowo, 2),
        (SpeciesCode::Modo, 3),
    ];
    let mut fed = 0usize;
    let stream = sequence.into_iter().flat_map(|(species, seed)| {
        let clip = synth.clip(species, seed);
        println!(
            "-- clip of {} arrives ({} bouts at {:?})",
            species.code(),
            clip.events.len(),
            clip.events
                .iter()
                .map(|e| format!("{:.1}s", e.start as f64 / clip.sample_rate))
                .collect::<Vec<_>>()
        );
        fed += clip.samples.len();
        clip.samples
    });

    println!("monitoring stream (single scan, O(window) state)...\n");
    // Record-sized reads, each ensemble reported as soon as `cutter`
    // closes it — no per-clip batch, no buffering beyond the open
    // ensemble. One still open when the stream ends is closed with it.
    let mut events = 0usize;
    EnsembleExtractor::new(cfg)
        .extract_from(
            clip_record_source(stream, cfg.sample_rate, cfg.record_len, &[]),
            |e| {
                events += 1;
                println!(
                    "   EVENT {events}: {:.1}s..{:.1}s ({:.2}s, {} samples)",
                    e.start as f64 / cfg.sample_rate,
                    e.end as f64 / cfg.sample_rate,
                    e.duration(cfg.sample_rate),
                    e.len(),
                );
            },
        )
        .expect("monitoring run");
    println!(
        "\nmonitored {:.0} s of audio, detected {events} events; chain state stayed O(window).",
        fed as f64 / cfg.sample_rate
    );
}
