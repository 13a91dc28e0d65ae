//! The JSON export of a real Figure 5 run (DESIGN.md §16): the
//! snapshot `full_pipeline` leaves behind under
//! [`TelemetryConfig::Full`] is well-formed, carries one stage object
//! per chain stage in chain order, and a non-empty event log.

use dynamic_river::{CountingSink, TelemetryConfig};
use ensemble_core::ops::clips_record_source;
use ensemble_core::pipeline::full_pipeline;
use ensemble_core::prelude::*;

/// Asserts that brackets and braces nest and balance outside string
/// literals, and that every string literal is closed.
fn assert_balanced(json: &str) {
    let mut open = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for (at, c) in json.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => open.push(c),
            '}' => assert_eq!(open.pop(), Some('{'), "stray '}}' at byte {at}"),
            ']' => assert_eq!(open.pop(), Some('['), "stray ']' at byte {at}"),
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string");
    assert!(open.is_empty(), "unclosed {open:?}");
}

#[test]
fn figure5_snapshot_json_is_well_formed_and_carries_stages_and_events() {
    let cfg = ExtractorConfig::paper();
    let mut samples = ClipSynthesizer::new(SynthConfig::paper())
        .clip(SpeciesCode::Noca, 5)
        .samples;
    samples.truncate(samples.len() - samples.len() % cfg.record_len);

    let mut p = full_pipeline(cfg, true);
    p.set_telemetry(TelemetryConfig::Full);
    let mut sink = CountingSink::default();
    p.run_streaming(
        clips_record_source([samples], cfg.sample_rate, cfg.record_len),
        &mut sink,
    )
    .expect("figure 5 run");
    let json = p.telemetry_snapshot().to_json();

    assert_balanced(&json);
    assert!(json.starts_with("{\"stages\": [{"), "{json}");

    // One `{"stage": "<name>", "p50_ns": N, "p99_ns": N, …` object per
    // chain stage, in chain order.
    let is_number = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let objects: Vec<&str> = json.split("{\"stage\": \"").skip(1).collect();
    assert_eq!(objects.len(), p.names().len(), "{json}");
    for (object, name) in objects.iter().zip(p.names()) {
        let fields: Vec<&str> = object.splitn(3, ", ").collect();
        assert_eq!(fields[0], format!("{name}\""), "stage out of chain order");
        let p50 = fields[1].strip_prefix("\"p50_ns\": ");
        let p99 = fields[2]
            .strip_prefix("\"p99_ns\": ")
            .and_then(|rest| rest.split(',').next());
        assert!(p50.is_some_and(is_number), "{name}: {object}");
        assert!(p99.is_some_and(is_number), "{name}: {object}");
    }

    assert!(json.contains("\"events\": [{"), "event log is empty");
    assert!(json.contains("\"events_dropped\": "));
}
