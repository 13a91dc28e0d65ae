//! End-to-end coverage of the event-driven service layer (DESIGN.md
//! §12): many slow clients multiplexed over a small worker pool, idle
//! reaping vs. keepalive, and byte-identity with the single-lane
//! streaming driver.
//!
//! These tests drive [`PipelineServer`] exactly the way an archive
//! deployment would — fleets of mostly-idle sensors dripping framed
//! records at their own pace — and hold the server to the strongest
//! available oracle: each session's sink output must be *identical* to
//! running that client's records through
//! [`Pipeline::run_streaming`] on a single lane.

mod testkit;

use dynamic_river::codec::{encode_into, write_eos, write_keepalive};
use dynamic_river::net::StreamEnd;
use dynamic_river::prelude::*;
use dynamic_river::serve::PipelineServer;
use dynamic_river::telemetry::{EventKind, TelemetryConfig};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use testkit::MapPayload;

/// The chain under service: tags every sample so output provenance is
/// visible, and is cheap enough that 100 sessions finish promptly.
fn doubling_chain() -> Pipeline {
    let mut p = Pipeline::new();
    p.add(MapPayload::new("double", |v: &mut [f64]| {
        v.iter_mut().for_each(|x| *x *= 2.0);
    }));
    p
}

/// One client's clip: a scope around `n` tagged data records.
fn clip(tag: f64, n: usize) -> Vec<Record> {
    let mut v = vec![Record::open_scope(1, vec![])];
    for i in 0..n {
        v.push(
            Record::data(0, Payload::f64(vec![tag, i as f64, tag + i as f64])).with_seq(i as u64),
        );
    }
    v.push(Record::close_scope(1));
    v
}

/// The frames of `records`, back to back (no sentinel).
fn frames(records: &[Record]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for r in records {
        encode_into(r, WireFormat::default(), &mut bytes);
    }
    bytes
}

/// The full wire image of a clip: every frame plus the EOS sentinel.
fn wire_image(records: &[Record]) -> Vec<u8> {
    let mut bytes = frames(records);
    write_eos(&mut bytes).unwrap();
    bytes
}

/// What the single-lane streaming driver produces for these records —
/// the byte-identity oracle for every multiplexed session.
fn single_lane(records: &[Record]) -> Vec<Record> {
    let mut expected = Vec::new();
    doubling_chain()
        .run_streaming(records.iter().cloned(), &mut expected)
        .unwrap();
    expected
}

type Outputs = Arc<Mutex<Vec<(u64, SharedSink)>>>;

fn start_collecting(server: PipelineServer, listener: TcpListener) -> (ServerHandle, Outputs) {
    let outputs: Outputs = Arc::new(Mutex::new(Vec::new()));
    let registry = Arc::clone(&outputs);
    let handle = server
        .start(listener, move |info| {
            let sink = SharedSink::new();
            registry.lock().unwrap().push((info.id, sink.clone()));
            Box::new(sink)
        })
        .unwrap();
    (handle, outputs)
}

/// Shuts the server down and checks what every report holds: each
/// session reached the pool at least once.
fn shutdown_checked(handle: ServerHandle) -> ServerReport {
    let report = handle.shutdown().unwrap();
    for s in &report.sessions {
        assert!(s.jobs >= 1, "session {} took no job", s.id);
    }
    report
}

/// A reaped session's reap is its last job: it took at least the job
/// that read its bytes and then the reap, and after its
/// `SessionTimeout` its lane shows only the repair drain's scope closes
/// and the closing error — nothing was read again.
fn assert_reap_was_last_job(s: &SessionReport) {
    assert!(
        s.jobs >= 2,
        "session {}: {} job(s), not a read and a reap",
        s.id,
        s.jobs
    );
    let events = &s.telemetry.events;
    let reap = events
        .iter()
        .position(|e| e.kind == EventKind::SessionTimeout)
        .expect("a reaped session has a SessionTimeout event");
    let after: Vec<EventKind> = events[reap + 1..].iter().map(|e| e.kind).collect();
    let (last, drain) = after.split_last().expect("events after the reap");
    assert_eq!(*last, EventKind::SessionError, "after the reap: {after:?}");
    assert!(
        drain.iter().all(|k| *k == EventKind::ScopeClose),
        "after the reap: {after:?}"
    );
}

#[test]
fn hundred_slow_drip_clients_multiplex_over_four_workers() {
    const CLIENTS: usize = 100;
    const WORKERS: usize = 4;

    let mut server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
    server.set_max_sessions(CLIENTS + 8).set_workers(WORKERS);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (handle, outputs) = start_collecting(server, listener);
    let addr = handle.local_addr();

    // Every client connects up front (forcing genuine multiplexing:
    // far more open sockets than workers), then drips its wire image
    // in small ragged chunks with pauses — the mostly-idle sensor
    // shape the event loop exists for.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let records = clip(c as f64 + 1.0, 4 + c % 3);
                let image = wire_image(&records);
                let mut stream = TcpStream::connect(addr).unwrap();
                // Chunk size varies per client so frame boundaries land
                // everywhere in the decode state machine.
                for chunk in image.chunks(5 + c % 11) {
                    stream.write_all(chunk).unwrap();
                    stream.flush().unwrap();
                    thread::sleep(Duration::from_micros(300));
                }
                records
            })
        })
        .collect();
    let sent: Vec<Vec<Record>> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    handle.wait_for_completed(CLIENTS as u64);
    let report = shutdown_checked(handle);

    assert_eq!(report.sessions.len(), CLIENTS);
    assert_eq!(report.clean_sessions(), CLIENTS);
    // Capacity and pool width are reported separately — M sessions
    // really were multiplexed over N=4 workers.
    assert_eq!(report.workers, WORKERS);
    assert_eq!(report.session_capacity, CLIENTS + 8);
    assert!(
        report.peak_sessions > WORKERS,
        "peak {} should exceed the {} workers",
        report.peak_sessions,
        WORKERS
    );

    // Byte-identity per session: output equals the single-lane
    // streaming driver on exactly one client's records.
    let expected: Vec<Vec<Record>> = sent.iter().map(|r| single_lane(r)).collect();
    let outputs = outputs.lock().unwrap();
    assert_eq!(outputs.len(), CLIENTS);
    let mut matched = [false; CLIENTS];
    for (id, sink) in outputs.iter() {
        let got = sink.take();
        let hit = expected
            .iter()
            .enumerate()
            .find(|(i, e)| !matched[*i] && **e == got);
        let (i, _) = hit.unwrap_or_else(|| panic!("session {id} output matches no client"));
        matched[i] = true;
    }
    let total: u64 = report.sessions.iter().map(|s| s.received).sum();
    assert_eq!(total as usize, sent.iter().map(Vec::len).sum::<usize>());
}

#[test]
fn one_byte_drip_is_byte_identical_to_single_lane() {
    let mut server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
    server.set_workers(1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (handle, outputs) = start_collecting(server, listener);
    let addr = handle.local_addr();

    // The pathological fragmentation case: every read the event loop
    // sees is a single byte, so every header, varint, payload and CRC
    // boundary is split.
    let records = clip(42.0, 6);
    let image = wire_image(&records);
    let mut stream = TcpStream::connect(addr).unwrap();
    for byte in &image {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
    }
    drop(stream);

    handle.wait_for_completed(1);
    let report = shutdown_checked(handle);
    assert_eq!(report.clean_sessions(), 1);
    assert_eq!(report.sessions[0].wire_bytes, image.len() as u64);
    let outputs = outputs.lock().unwrap();
    assert_eq!(outputs[0].1.take(), single_lane(&records));
}

#[test]
fn idle_session_is_reaped_while_keepalive_pinger_survives() {
    let mut pipeline = doubling_chain();
    pipeline.set_telemetry(TelemetryConfig::Full);
    let mut server = PipelineServer::from_pipeline(&pipeline).unwrap();
    server
        .set_max_sessions(4)
        .set_workers(2)
        .set_idle_timeout(Duration::from_millis(400));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (handle, outputs) = start_collecting(server, listener);
    let addr = handle.local_addr();

    // Session 1 goes silent mid-clip: open scope, one record, then
    // nothing — but the socket stays open, so only the idle reaper
    // (not disconnect repair) can end it.
    let mut silent = TcpStream::connect(addr).unwrap();
    let opening = [
        Record::open_scope(9, vec![]),
        Record::data(0, Payload::f64(vec![5.0])),
    ];
    silent.write_all(&frames(&opening)).unwrap();

    // Session 2 is dormant-but-alive: it pings keepalives through a
    // stretch far longer than the idle timeout, then finishes its clip
    // cleanly.
    let pinger = thread::spawn(move || {
        let records = vec![
            Record::open_scope(3, vec![]),
            Record::data(0, Payload::f64(vec![7.0])),
            Record::close_scope(3),
        ];
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&frames(&records[..2])).unwrap();
        for _ in 0..10 {
            thread::sleep(Duration::from_millis(80));
            write_keepalive(&mut stream).unwrap();
        }
        stream.write_all(&frames(&records[2..])).unwrap();
        write_eos(&mut stream).unwrap();
        stream.flush().unwrap();
        records
    });

    // Both sessions complete: the pinger by its own EOS, the silent
    // one by the reaper (without the reaper this wait would hang).
    handle.wait_for_completed(2);
    let pinger_records = pinger.join().unwrap();
    let report = shutdown_checked(handle);
    drop(silent);

    assert_eq!(report.sessions.len(), 2);
    let reaped = report
        .sessions
        .iter()
        .find(|s| s.error.is_some())
        .expect("one session should have been reaped");
    let alive = report
        .sessions
        .iter()
        .find(|s| s.error.is_none())
        .expect("one session should have survived");

    // The silent session: reaped with an idle-timeout error, its open
    // scope repaired through its chain, and the timeout visible in its
    // telemetry lane alongside the session error.
    let err = reaped.error.as_deref().unwrap();
    assert!(err.contains("idle timeout"), "got: {err}");
    assert_eq!(reaped.end, StreamEnd::Unclean { repaired_scopes: 1 });
    assert_eq!(reaped.received, 2);
    assert!(reaped
        .telemetry
        .events
        .iter()
        .any(|e| e.kind == EventKind::SessionTimeout));
    assert!(reaped
        .telemetry
        .events
        .iter()
        .any(|e| e.kind == EventKind::SessionError));
    assert_reap_was_last_job(reaped);

    // The pinger: clean, with its keepalives counted and reported, and
    // no timeout events in its lane.
    assert!(alive.is_clean(), "pinger should survive: {:?}", alive.error);
    assert!(alive.keepalives >= 5, "keepalives: {}", alive.keepalives);
    assert!(alive
        .telemetry
        .events
        .iter()
        .any(|e| e.kind == EventKind::SessionKeepalive));
    assert!(alive
        .telemetry
        .events
        .iter()
        .all(|e| e.kind != EventKind::SessionTimeout));

    // Scope hygiene in both sinks: the reaped session's output ends
    // with the synthesized BadCloseScope; the pinger's output matches
    // the single-lane driver exactly, with no trace of its keepalives
    // (they are wire liveness, not records).
    for (id, sink) in outputs.lock().unwrap().iter() {
        let got = sink.take();
        dynamic_river::scope::validate_scopes(&got).unwrap();
        if *id == reaped.id {
            assert_eq!(got.last().unwrap().kind, RecordKind::BadCloseScope);
        } else {
            assert_eq!(got, single_lane(&pinger_records));
        }
    }
}

#[test]
fn capacity_and_workers_are_reported_separately() {
    let mut server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
    server.set_max_sessions(64).set_workers(3);
    assert_eq!(server.max_sessions(), 64);
    assert_eq!(server.workers(), 3);
    assert_eq!(server.idle_timeout(), None);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = server.start(listener, |_| Box::new(NullSink)).unwrap();
    let report = shutdown_checked(handle);
    assert_eq!(report.session_capacity, 64);
    assert_eq!(report.workers, 3);
    assert_eq!(report.peak_sessions, 0);
    assert!(report.sessions.is_empty());
}

#[test]
fn peer_stalled_mid_frame_is_reaped_and_holds_no_worker() {
    let mut pipeline = doubling_chain();
    pipeline.set_telemetry(TelemetryConfig::Full);
    let mut server = PipelineServer::from_pipeline(&pipeline).unwrap();
    server
        .set_max_sessions(2)
        .set_workers(1)
        .set_idle_timeout(Duration::from_millis(400));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (handle, outputs) = start_collecting(server, listener);
    let addr = handle.local_addr();

    // Session 1 opens a scope, sends half a data frame and goes silent
    // with its socket open: the one worker reads what there is and must
    // then be free again — only the reaper can end this session.
    let mut stalled = TcpStream::connect(addr).unwrap();
    let mut image = frames(&[Record::open_scope(9, vec![])]);
    let whole = image.len();
    image.extend(frames(&[Record::data(0, Payload::f64(vec![5.0; 64]))]));
    image.truncate(whole + (image.len() - whole) / 2);
    stalled.write_all(&image).unwrap();

    // Session 2 sends a whole clip meanwhile.
    let records = clip(7.0, 40);
    let mut neighbour = TcpStream::connect(addr).unwrap();
    neighbour.write_all(&wire_image(&records)).unwrap();

    handle.wait_for_completed(2);
    let report = shutdown_checked(handle);
    drop(stalled);

    assert_eq!(report.sessions.len(), 2);
    let (reaped, served) = (&report.sessions[0], &report.sessions[1]);
    let err = reaped.error.as_deref().expect("session 1 is reaped");
    assert!(err.contains("idle timeout"), "got: {err}");
    assert_eq!(reaped.end, StreamEnd::Unclean { repaired_scopes: 1 });
    assert_eq!(reaped.received, 1);
    assert_eq!(reaped.wire_bytes, image.len() as u64);
    assert_reap_was_last_job(reaped);
    assert!(served.is_clean(), "neighbour: {:?}", served.error);

    // The neighbour drained before the stalled session timed out: with
    // one worker, that is only possible if the stall held none.
    let at = |kind: EventKind, lane: u64| {
        report
            .telemetry
            .events
            .iter()
            .position(|e| e.kind == kind && e.lane == lane)
            .unwrap_or_else(|| panic!("no {kind:?} event on lane {lane}"))
    };
    assert!(at(EventKind::SessionDrain, served.id) < at(EventKind::SessionTimeout, reaped.id));

    for (id, sink) in outputs.lock().unwrap().iter() {
        let got = sink.take();
        if *id == reaped.id {
            assert_eq!(got.len(), 2);
            assert_eq!(got[1].kind, RecordKind::BadCloseScope);
        } else {
            assert_eq!(got, single_lane(&records));
        }
    }
}
