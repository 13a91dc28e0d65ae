//! Regenerates **Figure 2** of the paper: the oscillogram (top) and
//! spectrogram (bottom) of an acoustic clip.
//!
//! ```text
//! cargo run -p ensemble-bench --release --bin fig2_signal [-- --seed N]
//! ```
//!
//! The spectrogram is Figure 5's own `reslice` → `spectrum` over the
//! clip's records ([`spectrogram_columns`]): 840-sample Welch frames at
//! 50 % overlap. Also writes `fig2_spectrogram.pgm` (grayscale image)
//! to the current directory for viewing with any image tool.

use ensemble_bench::{header, Scale};
use ensemble_core::pipeline::spectrogram_columns;
use ensemble_core::prelude::*;
use ensemble_core::render::{ascii_oscillogram, render_ascii, render_pgm, seconds_ruler};

fn main() {
    let scale = Scale::from_args();
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let clip = synth.clip(SpeciesCode::Wbnu, scale.seed);

    header("Figure 2: oscillogram (top) and spectrogram (bottom) of an acoustic signal");
    println!(
        "clip: {:.0} s of {} with {} song bout(s), {:.1} kHz",
        clip.duration(),
        SpeciesCode::Wbnu.common_name(),
        clip.events.len(),
        clip.sample_rate / 1e3
    );

    println!("\nAmplitude (normalized)");
    print!("{}", ascii_oscillogram(&clip.samples, 96, 13));
    println!("{}", seconds_ruler(clip.duration(), 96, 5.0));

    let columns = spectrogram_columns(&clip.samples, &ExtractorConfig::paper());
    println!("\nkHz (0 at bottom, {:.1} at top)", clip.sample_rate / 2e3);
    print!("{}", render_ascii(&columns, 20));
    println!(
        "{}",
        seconds_ruler(clip.duration(), columns.len().min(96), 5.0)
    );

    std::fs::write("fig2_spectrogram.pgm", render_pgm(&columns)).expect("write pgm");
    println!(
        "\nwrote fig2_spectrogram.pgm ({} x {} px)",
        columns.len(),
        columns.first().map_or(0, Vec::len)
    );
}
