//! Regenerates **Figure 3** of the paper: the same spectrogram as
//! Figure 2 after conversion to PAA representation ("constructed by
//! applying PAA to the frequency data comprising each column of the
//! original spectrogram"): Figure 2's `reslice` → `spectrum` columns,
//! each reduced by PAA.
//!
//! ```text
//! cargo run -p ensemble-bench --release --bin fig3_paa [-- --seed N]
//! ```

use ensemble_bench::{header, Scale};
use ensemble_core::pipeline::spectrogram_columns;
use ensemble_core::prelude::*;
use ensemble_core::render::{render_ascii, render_pgm, seconds_ruler};
use river_sax::paa::paa_by_factor;

fn main() {
    let scale = Scale::from_args();
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let clip = synth.clip(SpeciesCode::Wbnu, scale.seed);

    let config = ExtractorConfig::paper();
    let columns = spectrogram_columns(&clip.samples, &config);
    let factor = config.paa_factor;
    let reduced: Vec<Vec<f64>> = columns
        .iter()
        .map(|col| paa_by_factor(col, factor))
        .collect();

    header("Figure 3: spectrogram after conversion to PAA representation");
    println!(
        "columns: {}  bins/column: {} -> {} (PAA x{factor})",
        columns.len(),
        columns.first().map_or(0, Vec::len),
        reduced.first().map_or(0, Vec::len),
    );
    print!("{}", render_ascii(&reduced, 20));
    println!(
        "{}",
        seconds_ruler(clip.duration(), columns.len().min(96), 5.0)
    );

    std::fs::write("fig3_paa_spectrogram.pgm", render_pgm(&reduced)).expect("write pgm");
    println!("\nwrote fig3_paa_spectrogram.pgm");
    println!("(compare against fig2_spectrogram.pgm: structure is preserved under PAA)");
}
