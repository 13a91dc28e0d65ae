//! `river-lint`: static chain verification over every pipeline this
//! repository ships (DESIGN.md §15).
//!
//! ```text
//! cargo run -p ensemble-bench --release --bin river-lint
//! ```
//!
//! Each chain is checked with [`Pipeline::check_with`] under the
//! profile every Figure 5 chain actually runs with — audio records
//! (`F64` payloads) arriving inside clip scopes — and every diagnostic
//! is printed in rustc style (`error[RL0002]: … --> stage 2: operator
//! `trigger``). The lint set covers the full Figure 5 chain, with and
//! without PAA, plus the extraction and featurization segments on
//! their own — which between them are the chains built by every
//! example (`quickstart`, `parallel_archive`, `anomaly_monitor`,
//! `distributed_pipeline`, `species_survey` all compose
//! `full_pipeline` / `EnsembleExtractor`) — and the `reslice` →
//! `spectrum` chain that draws Figures 2 and 3 (`fig2_signal` and
//! `fig3_paa` run it through `spectrogram_columns`). The test oracle's
//! chain, with its complex-FFT stage in `spectrum`'s place, is linted
//! where it is composed, in `crates/core/tests/analyze.rs`.
//!
//! Exit status is non-zero if any chain produces an `error`-severity
//! diagnostic; warnings are reported but do not fail the lint.

use dynamic_river::analyze::{CheckOptions, Severity};
use dynamic_river::{PayloadKind, Pipeline, RecordClass};
use ensemble_core::pipeline::{
    extraction_segment, featurization_segment, full_pipeline, spectrogram_segment,
};
use ensemble_core::{scope_type, subtype, ExtractorConfig};
use std::time::Instant;

/// The analysis profile shared by every chain in this repository:
/// audio records with `F64` sample payloads, delivered inside clip
/// scopes by `clip_to_records` / `wav2rec`.
fn audio_input() -> CheckOptions {
    CheckOptions {
        input: vec![RecordClass::of(subtype::AUDIO, PayloadKind::F64)],
        input_scope_types: Some(vec![scope_type::CLIP]),
        ..CheckOptions::default()
    }
}

/// Every chain the repository ships, labeled for the report.
fn chains(cfg: ExtractorConfig) -> Vec<(String, Pipeline)> {
    let mut out = vec![("extraction-segment".to_string(), extraction_segment(cfg))];
    for with_paa in [false, true] {
        let paa = if with_paa { "+paa" } else { "-paa" };
        out.push((format!("full-pipeline{paa}"), full_pipeline(cfg, with_paa)));
        out.push((
            format!("featurization-segment{paa}"),
            featurization_segment(cfg, with_paa),
        ));
    }
    out.push(("figure-spectrogram".to_string(), spectrogram_segment()));
    out
}

fn main() {
    let t0 = Instant::now();
    let opts = audio_input();

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let all = chains(ExtractorConfig::default());
    let total = all.len();
    for (label, chain) in all {
        let diags = chain.check_with(&opts);
        let stages = chain.names().len();
        let verdict = if diags.iter().any(|d| d.severity == Severity::Error) {
            "FAIL"
        } else if diags.is_empty() {
            "ok"
        } else {
            "ok (warnings)"
        };
        println!("river-lint: {label} ({stages} stages): {verdict}");
        for d in &diags {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
            println!("{}", d.render());
        }
    }

    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "river-lint: {total} chains, {errors} error(s), {warnings} warning(s) \
         in {elapsed_ms:.1} ms"
    );
    if errors > 0 {
        std::process::exit(1);
    }
}
