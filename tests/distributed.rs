//! Integration tests for the distributed pipeline: TCP composition,
//! fault recovery and segment relocation by redirect, driven by the
//! acoustic operators.

#[path = "../crates/river/tests/testkit/mod.rs"]
mod testkit;

use acoustic_ensembles::core::ops::clip_to_records;
use acoustic_ensembles::core::pipeline::{extraction_segment, full_pipeline};
use acoustic_ensembles::core::prelude::*;
use acoustic_ensembles::core::{scope_type, subtype};
use acoustic_ensembles::river::net::{send_all, StreamEnd, StreamOut};
use acoustic_ensembles::river::operator::{NullSink, Operator, SharedSink};
use acoustic_ensembles::river::ops::ScopeRepair;
use acoustic_ensembles::river::prelude::*;
use acoustic_ensembles::river::scope::validate_scopes;
use acoustic_ensembles::river::segment::run_network_segment;
use acoustic_ensembles::river::serve::PipelineServer;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use testkit::{serve_once, DropCloses, TruncateAfter};

fn clip_records(cfg: &ExtractorConfig, seed: u64) -> Vec<Record> {
    let synth = ClipSynthesizer::new(SynthConfig {
        clip_seconds: 10.0,
        ..SynthConfig::paper()
    });
    let clip = synth.clip(SpeciesCode::Blja, seed);
    let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
    clip_to_records(
        &clip.samples[..usable],
        cfg.sample_rate,
        cfg.record_len,
        &[],
    )
}

/// The acceptance run for the multi-session service layer: four
/// concurrent sensor clients push distinct clips through one
/// [`PipelineServer`] running the complete Figure 5 chain, a fifth
/// client crashes mid-clip, and the server is then shut down
/// gracefully. Every surviving session's output must be
/// **byte-identical** to running that client's records through the
/// single-lane streaming driver, and the crash must surface as a
/// `BadCloseScope` repair in its own session only.
#[test]
fn concurrent_sessions_through_one_server_match_single_lane() {
    let cfg = ExtractorConfig::default();
    let synth = ClipSynthesizer::new(SynthConfig {
        clip_seconds: 6.0,
        ..SynthConfig::paper()
    });
    let clip_records = |seed: u64| {
        let clip = synth.clip(SpeciesCode::Noca, seed);
        let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
        clip_to_records(
            &clip.samples[..usable],
            cfg.sample_rate,
            cfg.record_len,
            &[],
        )
    };
    let clips: Vec<Vec<Record>> = (20..24u64).map(clip_records).collect();
    // Single-lane reference: what the fused streaming driver produces
    // for each client's records on a fresh Figure 5 chain.
    let expected: Vec<Vec<Record>> = clips
        .iter()
        .map(|records| {
            let mut out = Vec::new();
            full_pipeline(cfg, true)
                .run_streaming(records.clone().into_iter(), &mut out)
                .unwrap();
            out
        })
        .collect();

    // One server, session outputs registered by peer address.
    let outputs: Arc<Mutex<HashMap<String, SharedSink>>> = Arc::new(Mutex::new(HashMap::new()));
    let registry = Arc::clone(&outputs);
    let mut server = PipelineServer::from_factory(move |_session| full_pipeline(cfg, true));
    server.set_max_sessions(4);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = server
        .start(listener, move |info| {
            let sink = SharedSink::new();
            registry
                .lock()
                .unwrap()
                .insert(info.peer.clone(), sink.clone());
            Box::new(sink)
        })
        .unwrap();
    let addr = handle.local_addr();

    // Four clients connect first, then all send concurrently.
    let barrier = Arc::new(Barrier::new(4));
    let clients: Vec<_> = clips
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, records)| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let peer = stream.local_addr().unwrap().to_string();
                let mut out = StreamOut::new(stream);
                barrier.wait();
                let mut devnull = NullSink;
                for r in &records {
                    out.on_record(r.clone(), &mut devnull).unwrap();
                }
                out.on_eos(&mut devnull).unwrap();
                (i, peer)
            })
        })
        .collect();
    let peers: Vec<(usize, String)> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    handle.wait_for_completed(4);

    // A fifth client dies mid-clip: open scope, a few records, gone.
    let crashing = clip_records(42);
    let crash_peer = thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let peer = stream.local_addr().unwrap().to_string();
        let mut out = StreamOut::new(stream);
        for r in crashing.iter().take(8) {
            out.on_record(r.clone(), &mut NullSink).unwrap();
        }
        peer
        // Dropped (which flushes): no CloseScope, no sentinel.
    })
    .join()
    .unwrap();
    handle.wait_for_completed(5);

    let report = handle.shutdown().unwrap();
    assert_eq!(report.sessions.len(), 5);
    assert_eq!(report.clean_sessions(), 4);
    assert_eq!(report.repaired_sessions(), 1);

    let outputs = outputs.lock().unwrap();
    // Each healthy session's output is byte-identical to its client's
    // single-lane reference.
    for (i, peer) in &peers {
        let got = outputs.get(peer).expect("session output registered").take();
        assert_eq!(
            got, expected[*i],
            "session for client {i} diverged from the single-lane run"
        );
    }
    // The crashed session — and only it — was scope-repaired.
    let crashed = report
        .sessions
        .iter()
        .find(|s| s.peer == crash_peer)
        .expect("crashed session reported");
    assert_eq!(crashed.end, StreamEnd::Unclean { repaired_scopes: 1 });
    assert_eq!(crashed.received, 8);
    let crashed_out = outputs.get(&crash_peer).unwrap().take();
    validate_scopes(&crashed_out).unwrap();
    assert_eq!(crashed_out.last().unwrap().kind, RecordKind::BadCloseScope);
    for s in &report.sessions {
        if s.peer != crash_peer {
            assert_eq!(s.end, StreamEnd::Clean, "session {} disturbed", s.id);
        }
    }
    // Aggregate statistics fold every session's counters.
    let total_received: u64 = report.sessions.iter().map(|s| s.received).sum();
    assert_eq!(report.aggregate.source_records, total_received);
    assert_eq!(
        total_received as usize,
        clips.iter().map(Vec::len).sum::<usize>() + 8
    );
}

/// Mixed sample encodings through one server: lossless F64 sensors and
/// compact F32 and I16 ones drive the same Figure 5 [`PipelineServer`]
/// concurrently. The server reads the encoding off each frame, so
/// nothing is negotiated. Every session's output must be byte-identical
/// to the single-lane streaming driver over the records *as decoded*
/// from that session's own wire (the lossy encodings change the samples
/// at the sender, not the pipeline).
#[test]
fn mixed_wire_encodings_interoperate_through_one_server() {
    use acoustic_ensembles::river::codec::{SampleEncoding, WireFormat};
    use acoustic_ensembles::river::net::StreamIn;
    use std::io::Write;

    let cfg = ExtractorConfig::default();
    let synth = ClipSynthesizer::new(SynthConfig {
        clip_seconds: 4.0,
        ..SynthConfig::paper()
    });
    // Each lane: its encoding, the wire image of one clip in it, and
    // the single-lane output over what that wire decodes to.
    let lanes: Vec<(SampleEncoding, Vec<u8>, Vec<Record>)> = [
        (SampleEncoding::F64, 31),
        (SampleEncoding::F32, 35),
        (SampleEncoding::I16, 33),
    ]
    .into_iter()
    .map(|(enc, seed)| {
        let clip = synth.clip(SpeciesCode::Bcch, seed);
        let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
        let records = clip_to_records(
            &clip.samples[..usable],
            cfg.sample_rate,
            cfg.record_len,
            &[],
        );
        let mut wire = Vec::new();
        {
            let mut out = StreamOut::new(&mut wire).with_format(WireFormat::V2(enc));
            for r in &records {
                out.on_record(r.clone(), &mut NullSink).unwrap();
            }
            out.on_eos(&mut NullSink).unwrap();
        }
        let mut decoded = Vec::new();
        let end = StreamIn::new(wire.as_slice()).pump(&mut decoded).unwrap();
        assert_eq!(end, StreamEnd::Clean);
        // Only the lossless encoding hands the pipeline the sender's
        // very samples.
        assert_eq!(decoded == records, enc == SampleEncoding::F64, "{enc:?}");
        let mut expected = Vec::new();
        full_pipeline(cfg, true)
            .run_streaming(decoded.into_iter(), &mut expected)
            .unwrap();
        (enc, wire, expected)
    })
    .collect();

    let outputs: Arc<Mutex<HashMap<String, SharedSink>>> = Arc::new(Mutex::new(HashMap::new()));
    let registry = Arc::clone(&outputs);
    let mut server = PipelineServer::from_factory(move |_session| full_pipeline(cfg, true));
    server.set_max_sessions(lanes.len());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = server
        .start(listener, move |info| {
            let sink = SharedSink::new();
            registry
                .lock()
                .unwrap()
                .insert(info.peer.clone(), sink.clone());
            Box::new(sink)
        })
        .unwrap();
    let addr = handle.local_addr();

    let clients: Vec<_> = lanes
        .iter()
        .map(|(_, wire, _)| {
            let wire = wire.clone();
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&wire).unwrap();
                stream.local_addr().unwrap().to_string()
            })
        })
        .collect();
    let peers: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    handle.wait_for_completed(lanes.len() as u64);
    let report = handle.shutdown().unwrap();
    assert_eq!(report.clean_sessions(), lanes.len());

    let outputs = outputs.lock().unwrap();
    for (peer, (enc, wire, expected)) in peers.iter().zip(&lanes) {
        let got = outputs.get(peer).expect("session output registered").take();
        assert_eq!(
            &got, expected,
            "{enc:?} session diverged from the single-lane run"
        );
        validate_scopes(&got).unwrap();
        assert!(
            got.iter()
                .any(|r| r.kind == RecordKind::Data && r.subtype == subtype::PATTERN),
            "{enc:?} clip still yields pattern output"
        );
        let session = report
            .sessions
            .iter()
            .find(|s| s.peer == *peer)
            .expect("session reported");
        assert_eq!(session.wire_bytes, wire.len() as u64);
    }
    // The compact encodings are what they are for: fewer wire bytes.
    assert!(lanes[1].1.len() * 2 < lanes[0].1.len() + lanes[0].1.len() / 50);
    assert!(lanes[2].1.len() * 4 < lanes[0].1.len() + lanes[0].1.len() / 20);
}

#[test]
fn acoustic_pipeline_across_tcp_hosts() {
    let cfg = ExtractorConfig::default();
    let records = clip_records(&cfg, 1);

    let seg_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let seg_addr = seg_listener.local_addr().unwrap();
    let sink_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let sink_addr = sink_listener.local_addr().unwrap();

    let sink = thread::spawn(move || {
        let mut out: Vec<Record> = Vec::new();
        let (end, received) = serve_once(&sink_listener, &mut out).unwrap();
        assert_eq!(received as usize, out.len());
        (end, out)
    });
    let segment = thread::spawn(move || {
        run_network_segment(&seg_listener, sink_addr, extraction_segment(cfg)).unwrap()
    });
    let sent = send_all(seg_addr, &records, WireFormat::default()).unwrap();
    assert_eq!(sent as usize, records.len());

    assert_eq!(segment.join().unwrap(), StreamEnd::Clean);
    let (end, received) = sink.join().unwrap();
    assert_eq!(end, StreamEnd::Clean);
    validate_scopes(&received).unwrap();
    // The clip scope survived the hop; the data inside is ensemble audio.
    assert!(received
        .iter()
        .any(|r| r.kind == RecordKind::OpenScope && r.scope_type == scope_type::CLIP));
    for r in received.iter().filter(|r| r.kind == RecordKind::Data) {
        assert_eq!(r.subtype, subtype::AUDIO);
    }
}

#[test]
fn crash_mid_clip_yields_balanced_stream_downstream() {
    let cfg = ExtractorConfig::default();
    let records = clip_records(&cfg, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    thread::spawn(move || {
        let mut out = StreamOut::connect(addr).unwrap();
        for r in records.iter().take(20) {
            out.on_record(r.clone(), &mut NullSink).unwrap();
        }
        // Crash (the drop flushes): no CloseScope, no EOS sentinel.
    });

    let mut received: Vec<Record> = Vec::new();
    let (end, streamin_received) = serve_once(&listener, &mut received).unwrap();
    assert_eq!(end, StreamEnd::Unclean { repaired_scopes: 1 });
    assert_eq!(streamin_received, 20);
    validate_scopes(&received).unwrap();
    assert_eq!(
        received.last().unwrap().kind,
        RecordKind::BadCloseScope,
        "stream must end with the synthesized BadCloseScope"
    );
}

#[test]
fn dropped_closes_are_repaired_before_analysis() {
    let cfg = ExtractorConfig::default();
    let mut records = clip_records(&cfg, 4);
    records.extend(clip_records(&cfg, 5));

    let mut p = Pipeline::new();
    p.add(DropCloses::every(1)); // drop every clip CloseScope
    p.add(ScopeRepair::new());
    let out = p.run(records).unwrap();
    validate_scopes(&out).unwrap();
    let bad = out
        .iter()
        .filter(|r| r.kind == RecordKind::BadCloseScope)
        .count();
    assert_eq!(bad, 2, "one repair per dropped clip close");
}

#[test]
fn truncated_stream_keeps_extraction_alive() {
    let cfg = ExtractorConfig::default();
    let records = clip_records(&cfg, 6);
    let n = records.len();

    let mut p = Pipeline::new();
    p.add(TruncateAfter::new((n / 2) as u64));
    p.add(ScopeRepair::new());
    // Extraction must cope with the repaired (BadCloseScope) clip.
    p.add(acoustic_ensembles::core::ops::SaxAnomaly::new(cfg));
    p.add(acoustic_ensembles::core::ops::TriggerOp::new(cfg));
    p.add(acoustic_ensembles::core::ops::Cutter::new(cfg));
    let out = p.run(records).unwrap();
    validate_scopes(&out).unwrap();
}

/// Single-lane reference: one extraction chain over `records`.
fn extract_single_lane(cfg: ExtractorConfig, records: &[Record]) -> Vec<Record> {
    let mut out = Vec::new();
    extraction_segment(cfg)
        .run_streaming(records.iter().cloned(), &mut out)
        .unwrap();
    out
}

/// Streams `records` from one `StreamOut` that opens on server 1 of two
/// `PipelineServer`s running `extraction_segment`. Before record `at` of
/// each `(at, to)` in `redirects`, the sender asks to move to server
/// `to`. Checks that every session on both servers ended clean and
/// returns the session outputs in the order the sender connected.
fn relay_with_redirects(
    cfg: ExtractorConfig,
    records: &[Record],
    redirects: &[(usize, usize)],
) -> Vec<Vec<Record>> {
    let outputs: Arc<Mutex<HashMap<String, SharedSink>>> = Arc::new(Mutex::new(HashMap::new()));
    let servers: Vec<_> = (0..2)
        .map(|_| {
            let registry = Arc::clone(&outputs);
            PipelineServer::from_factory(move |_session| extraction_segment(cfg))
                .start(TcpListener::bind("127.0.0.1:0").unwrap(), move |info| {
                    let sink = SharedSink::new();
                    registry
                        .lock()
                        .unwrap()
                        .insert(info.peer.clone(), sink.clone());
                    Box::new(sink)
                })
                .unwrap()
        })
        .collect();
    let mut peers = Vec::new();
    let mut sessions = [0u64; 2];
    let mut connect = |server: usize| {
        let stream = TcpStream::connect(servers[server].local_addr()).unwrap();
        peers.push(stream.local_addr().unwrap().to_string());
        sessions[server] += 1;
        stream
    };

    let mut out = StreamOut::new(connect(1));
    let mut redirects = redirects.iter().peekable();
    for (i, r) in records.iter().enumerate() {
        while let Some(&(_, to)) = redirects.next_if(|&&(at, _)| at == i) {
            out.redirect(connect(to)).unwrap();
        }
        out.on_record(r.clone(), &mut NullSink).unwrap();
    }
    assert!(redirects.next().is_none(), "a redirect past the stream");
    out.on_eos(&mut NullSink).unwrap();
    drop(out);

    for (handle, n) in servers.into_iter().zip(sessions) {
        handle.wait_for_completed(n);
        let report = handle.shutdown().unwrap();
        assert_eq!(report.sessions.len() as u64, n);
        assert_eq!(report.clean_sessions() as u64, n);
    }
    let outputs = outputs.lock().unwrap();
    peers.iter().map(|peer| outputs[peer].take()).collect()
}

/// A move requested mid-clip waits for the clip to close: the first
/// server's session runs the whole first clip, a newer request replaces
/// the pending one (whose server then sees an empty clean session), and
/// the last session runs the whole second clip.
#[test]
fn relocation_during_acoustic_stream() {
    let cfg = ExtractorConfig::default();
    let first = clip_records(&cfg, 7);
    let second = clip_records(&cfg, 8);
    let records: Vec<Record> = first.iter().chain(&second).cloned().collect();

    let mid = first.len() / 2;
    let sessions = relay_with_redirects(cfg, &records, &[(mid, 0), (mid + 1, 1)]);
    assert_eq!(sessions.len(), 3);
    assert_eq!(sessions[0], extract_single_lane(cfg, &first));
    assert!(
        sessions[1].is_empty(),
        "the replaced writer got only a sentinel"
    );
    assert_eq!(sessions[2], extract_single_lane(cfg, &second));
    validate_scopes(&sessions.concat()).unwrap();
}

/// Moving a segment between hosts is a redirect at a balanced point:
/// the sender moves its stream to the other of two servers before every
/// clip, so each session runs a fresh extraction chain over whole clips.
/// Every Figure 5 chain is scope-local (DESIGN.md §11), so the session
/// outputs, joined in redirect order, equal the single-lane run record
/// for record.
#[test]
fn relocated_extraction_equals_single_lane() {
    let cfg = ExtractorConfig::default();
    let clips: Vec<Vec<Record>> = (30..34u64).map(|seed| clip_records(&cfg, seed)).collect();
    let records = clips.concat();
    let expected = extract_single_lane(cfg, &records);
    assert!(expected
        .iter()
        .any(|r| r.kind == RecordKind::OpenScope && r.scope_type == scope_type::ENSEMBLE));

    // The stream opens on server 1, so the first redirect leaves an
    // empty session there; clips then go to servers 0, 1, 0, 1.
    let mut redirects = Vec::new();
    let mut start = 0;
    for (i, clip) in clips.iter().enumerate() {
        redirects.push((start, i % 2));
        start += clip.len();
    }
    let sessions = relay_with_redirects(cfg, &records, &redirects);
    assert_eq!(sessions.len(), 1 + clips.len());
    assert_eq!(sessions.concat(), expected);
}
