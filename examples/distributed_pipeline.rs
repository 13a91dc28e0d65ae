//! Distributed pipeline: one analysis host serving a fleet of sensor
//! clients over real TCP sockets — the Dynamic River composition of the
//! paper's Figure 5 run as a **multi-session service**. Several sensor
//! hosts stream their clips concurrently; the server runs each session
//! through its own clone of the analysis chain, repairs sessions whose
//! sensors crash mid-clip, and reports per-session plus aggregate
//! statistics on graceful shutdown — including full telemetry: each
//! session's wall-clock/idle split and the fleet-wide merged per-stage
//! latency table (DESIGN.md §16).
//!
//! ```text
//! cargo run --release --example distributed_pipeline
//! ```

use acoustic_ensembles::core::ops::clip_to_records;
use acoustic_ensembles::core::pipeline::full_pipeline;
use acoustic_ensembles::core::prelude::*;
use acoustic_ensembles::river::net::{send_all_with, StreamOut};
use acoustic_ensembles::river::operator::SharedSink;
use acoustic_ensembles::river::prelude::*;
use acoustic_ensembles::river::telemetry::EventKind;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread;

const SENSORS: u64 = 4;
const MAX_SESSIONS: usize = 3; // fewer slots than sensors: backpressure

fn sensor_clip(cfg: &ExtractorConfig, seed: u64) -> Vec<Record> {
    let synth = ClipSynthesizer::new(SynthConfig {
        clip_seconds: 10.0,
        ..SynthConfig::paper()
    });
    let clip = synth.clip(SpeciesCode::Rwbl, seed);
    let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
    clip_to_records(
        &clip.samples[..usable],
        cfg.sample_rate,
        cfg.record_len,
        &[],
    )
}

fn main() {
    let cfg = ExtractorConfig::default();

    // ---- The analysis host -------------------------------------------
    // One server, one Figure 5 chain per session, per-session sinks
    // registered in a shared map so we can inspect each stream after.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let outputs: Arc<Mutex<Vec<(u64, String, SharedSink)>>> = Arc::new(Mutex::new(Vec::new()));
    let registry = Arc::clone(&outputs);
    let mut server = PipelineServer::from_factory(move |_session| full_pipeline(cfg, true));
    server
        .set_max_sessions(MAX_SESSIONS)
        .set_telemetry(TelemetryConfig::Full);
    let handle = server
        .start(listener, move |info| {
            let sink = SharedSink::new();
            registry
                .lock()
                .unwrap()
                .push((info.id, info.peer.clone(), sink.clone()));
            Box::new(sink)
        })
        .unwrap();
    let addr = handle.local_addr();
    println!(
        "analysis host: serving the Figure 5 chain on {addr} ({MAX_SESSIONS} concurrent session slots)"
    );

    // ---- The sensor fleet --------------------------------------------
    // Four sensor hosts push their clips concurrently; with only three
    // session slots, the fourth waits in the accept backlog until a
    // slot frees (accept-time backpressure, not half-service). The
    // fleet mixes sample encodings: even sensors send lossless f64
    // frames, odd sensors the compact f32 ones (about half the wire
    // bytes) — the server reads the encoding off each frame.
    let clients: Vec<_> = (0..SENSORS)
        .map(|s| {
            thread::spawn(move || {
                let cfg = ExtractorConfig::default();
                let records = sensor_clip(&cfg, 11 + s);
                let format = WireFormat::V2(if s % 2 == 0 {
                    SampleEncoding::F64
                } else {
                    SampleEncoding::F32
                });
                let sent = send_all_with(addr, &records, format).unwrap();
                println!("sensor {s}: streamout sent {sent} records ({format:?} wire)");
                sent
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    // ---- A crashing sensor -------------------------------------------
    // Dies mid-clip without CloseScope or sentinel: only its session is
    // repaired (BadCloseScope through its own chain); the fleet's
    // sessions are untouched.
    let crash_records = sensor_clip(&cfg, 99);
    thread::spawn(move || {
        let mut out = StreamOut::connect(addr).unwrap();
        for r in crash_records.iter().take(5) {
            out.on_record(r.clone(), &mut NullSink).unwrap();
        }
        // Dropped here (which flushes): simulated crash.
    })
    .join()
    .unwrap();

    // ---- Graceful shutdown -------------------------------------------
    handle.wait_for_completed(SENSORS + 1);
    let report = handle.shutdown().unwrap();
    println!(
        "\nanalysis host: served {} sessions ({} clean, {} repaired)",
        report.sessions.len(),
        report.clean_sessions(),
        report.repaired_sessions()
    );
    for s in &report.sessions {
        println!(
            "  session {} [{}]: {} records in, {} wire bytes, \
             {:.1} ms wall ({:.0}% idle on the socket), ended {:?}{}",
            s.id,
            s.peer,
            s.received,
            s.wire_bytes,
            s.duration.as_secs_f64() * 1e3,
            100.0 * s.idle.as_secs_f64() / s.duration.as_secs_f64().max(1e-9),
            s.end,
            s.error
                .as_deref()
                .map(|e| format!(" ({e})"))
                .unwrap_or_default()
        );
    }
    println!(
        "aggregate: {} records in -> {} records out ({} bytes) across all sessions",
        report.aggregate.source_records, report.aggregate.sink_records, report.aggregate.sink_bytes
    );

    // Fleet-wide telemetry: per-stage latency percentiles merged across
    // every session (the event trace is summarized — the shared ring
    // retains up to 1024 structured events).
    let mut stage_view = report.telemetry.clone();
    let events = std::mem::take(&mut stage_view.events);
    println!(
        "\nmerged stage latency across the fleet:\n{}",
        stage_view.render_table()
    );
    let count_kind = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count();
    println!(
        "event trace: {} events retained ({} session accepts, {} drains, {} errored)",
        events.len(),
        count_kind(EventKind::SessionAccept),
        count_kind(EventKind::SessionDrain),
        count_kind(EventKind::SessionError),
    );

    // Every session's output — including the crashed one — is
    // scope-balanced, and ensembles were extracted per session.
    for (id, peer, sink) in outputs.lock().unwrap().iter() {
        let records = sink.take();
        acoustic_ensembles::river::scope::validate_scopes(&records)
            .expect("session output is scope-balanced");
        let ensembles = records
            .iter()
            .filter(|r| {
                r.kind == RecordKind::OpenScope
                    && r.scope_type == acoustic_ensembles::core::scope_type::ENSEMBLE
            })
            .count();
        let repaired = records.iter().any(|r| r.kind == RecordKind::BadCloseScope);
        println!(
            "session {id} [{peer}]: {} output records, {ensembles} ensembles{}",
            records.len(),
            if repaired {
                " (scope repaired after sensor crash)"
            } else {
                ""
            }
        );
    }
    println!("\nall session outputs pass scope validation");
}
