//! Golden wire frames: the exact bytes the encoder must produce, for
//! one record of each payload kind in each sample encoding — and, from
//! the same file, what a receiver must refuse.
//!
//! `golden_frames.txt` was rendered at commit `0b7481e` (the last one
//! with the two-buffer encoders) from the records below, one
//! `name format hex` line per record and format. The wire format is a
//! compatibility contract, so the file is never regenerated: a new
//! payload kind or encoding appends lines. Its `v1` lines are frames of
//! the retired fixed-header format, kept as inputs: every one of them
//! must stop at the version gate.

use dynamic_river::buf::SampleBuf;
use dynamic_river::codec::{encode_into, write_eos, Decoder, SampleEncoding, WireFormat};
use dynamic_river::net::{send_all, StreamEnd, StreamIn, StreamOut};
use dynamic_river::operator::{NullSink, Operator, SharedSink};
use dynamic_river::ops::MapPayload;
use dynamic_river::record::{Payload, Record, RecordKind};
use dynamic_river::scope::validate_scopes;
use dynamic_river::serve::PipelineServer;
use dynamic_river::{Pipeline, PipelineError};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

const GOLDEN: &str = include_str!("golden_frames.txt");

fn records() -> Vec<(&'static str, Record)> {
    let backing = SampleBuf::from(
        (0..16)
            .map(|i| f64::from(i) * 0.5 - 3.0)
            .collect::<Vec<f64>>(),
    );
    vec![
        ("empty", Record::data(1, Payload::Empty)),
        (
            "f64",
            Record::data(2, Payload::f64(vec![1.5, -2.5, 0.0, 1e-3, -7.25e4])).with_seq(99),
        ),
        (
            "complex",
            Record::data(3, Payload::complex(vec![1.0, 2.0, -0.5, 0.25])).with_seq(128),
        ),
        (
            "bytes",
            Record::data(4, Payload::Bytes(b"hello\x00\xff".to_vec().into())),
        ),
        ("text", Record::data(5, Payload::Text("héllo wörld".into()))),
        (
            "pairs",
            Record::open_scope(
                7,
                vec![
                    ("sample_rate".into(), "20160".into()),
                    ("site".into(), "kbs".into()),
                    (String::new(), String::new()),
                ],
            )
            .with_depth(1),
        ),
        ("close", Record::close_scope(7).with_seq(17_000)),
        ("bad_close", Record::bad_close_scope(9).with_depth(3)),
        // Multi-byte varints in every v2 header field.
        (
            "wide_header",
            Record::data(300, Payload::f64(vec![0.125; 20]))
                .with_depth(70_000)
                .with_seq(u64::MAX - 1),
        ),
        // Not representable as i16: v2/I16 falls back to the f64 block.
        (
            "i16_fallback",
            Record::data(2, Payload::f64(vec![1.0, f64::INFINITY, -3.0])).with_seq(5),
        ),
        ("all_zero", Record::data(2, Payload::f64(vec![0.0; 6]))),
        // A non-zero-offset view frames only the viewed samples.
        (
            "offset_view",
            Record::data(2, Payload::F64(backing.slice(5..11))).with_seq(3),
        ),
        (
            "offset_view_complex",
            Record::data(3, Payload::Complex(backing.slice(2..8))).with_seq(4),
        ),
    ]
}

const FORMATS: [(&str, WireFormat); 3] = [
    ("v2-f64", WireFormat::V2(SampleEncoding::F64)),
    ("v2-f32", WireFormat::V2(SampleEncoding::F32)),
    ("v2-i16", WireFormat::V2(SampleEncoding::I16)),
];

/// The golden frame for `name` in `format`, as bytes.
fn golden(name: &str, format: &str) -> Vec<u8> {
    let line = GOLDEN
        .lines()
        .find(|l| {
            let mut f = l.split(' ');
            f.next() == Some(name) && f.next() == Some(format)
        })
        .unwrap_or_else(|| panic!("no golden line for {name} {format}"));
    let digits = line.rsplit(' ').next().unwrap();
    (0..digits.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn every_encode_entry_point_produces_the_golden_bytes() {
    // One line per record for each encoding, plus its retired v1 line.
    assert_eq!(
        GOLDEN.lines().count(),
        records().len() * (FORMATS.len() + 1)
    );
    for (name, record) in records() {
        for (label, format) in FORMATS {
            let want = golden(name, label);
            let ctx = format!("{name} {label}");

            // encode_into appends: what is already in the buffer stays.
            let mut appended = b"prefix".to_vec();
            encode_into(&record, format, &mut appended);
            assert_eq!(&appended[..6], b"prefix", "{ctx}");
            assert_eq!(&appended[6..], want, "{ctx}: encode_into");

            // StreamOut, twice through one operator: the reused frame
            // buffer must not leak one record's bytes into the next.
            let mut wire = Vec::new();
            {
                let mut out = StreamOut::new(&mut wire).with_format(format);
                out.on_record(record.clone(), &mut NullSink).unwrap();
                out.on_record(record.clone(), &mut NullSink).unwrap();
            }
            assert_eq!(wire, [want.clone(), want].concat(), "{ctx}: StreamOut");
        }

        // The default format is the lossless one.
        let mut wire = Vec::new();
        StreamOut::new(&mut wire)
            .on_record(record, &mut NullSink)
            .unwrap();
        assert_eq!(wire, golden(name, "v2-f64"), "{name}: default format");
    }
}

/// `records` as frames in the default format, back to back.
fn frames(records: &[Record]) -> Vec<u8> {
    let mut wire = Vec::new();
    for r in records {
        encode_into(r, WireFormat::default(), &mut wire);
    }
    wire
}

/// A healthy opening, then the golden v1 frame `name`, then traffic
/// that must never be trusted.
fn wire_with_v1_frame(name: &str) -> Vec<u8> {
    let mut wire = frames(&[
        Record::open_scope(3, vec![]),
        Record::data(0, Payload::f64(vec![1.0])),
    ]);
    wire.extend_from_slice(&golden(name, "v1"));
    wire.extend_from_slice(&frames(&[Record::close_scope(3)]));
    write_eos(&mut wire).unwrap();
    wire
}

fn names_version_1(err: &PipelineError) -> bool {
    matches!(err, PipelineError::Codec(m) if m.contains("version 1"))
}

#[test]
fn v1_golden_frames_stop_at_the_version_gate() {
    for (name, _) in records() {
        // The bare frame, through the decoder: an error naming the
        // version, never a record.
        let mut events = Vec::new();
        let err = Decoder::new()
            .feed(&golden(name, "v1"), &mut events)
            .unwrap_err();
        assert!(names_version_1(&err), "{name}: {err}");
        assert!(events.is_empty(), "{name}");

        // Mid-stream, through `streamin`: the records before it are
        // delivered first, and the standard repair balances the session.
        let wire = wire_with_v1_frame(name);
        let mut streamin = StreamIn::new(wire.as_slice());
        let mut delivered = vec![
            streamin.next_record().unwrap().unwrap(),
            streamin.next_record().unwrap().unwrap(),
        ];
        let err = streamin.next_record().unwrap_err();
        assert!(names_version_1(&err), "{name}: {err}");
        delivered.extend(streamin.abort_repair());
        assert_eq!(delivered.len(), 3, "{name}");
        assert_eq!(delivered[2].kind, RecordKind::BadCloseScope, "{name}");
        validate_scopes(&delivered).unwrap();
        assert_eq!(
            streamin.end(),
            Some(StreamEnd::Unclean { repaired_scopes: 1 })
        );
    }
}

#[test]
fn v1_sessions_are_repaired_beside_a_healthy_neighbour() {
    let chain = || {
        let mut p = Pipeline::new();
        p.add(MapPayload::new("double", |v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x *= 2.0);
        }));
        p
    };
    let v1_sessions = records().len();
    let mut server = PipelineServer::from_pipeline(&chain()).unwrap();
    server.set_max_sessions(v1_sessions + 1);
    let outputs: Arc<Mutex<Vec<(u64, SharedSink)>>> = Arc::default();
    let registry = Arc::clone(&outputs);
    let handle = server
        .start(TcpListener::bind("127.0.0.1:0").unwrap(), move |info| {
            let sink = SharedSink::new();
            registry.lock().unwrap().push((info.id, sink.clone()));
            Box::new(sink)
        })
        .unwrap();
    let addr = handle.local_addr();

    for (name, _) in records() {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&wire_with_v1_frame(name)).unwrap();
    }
    let mut healthy = vec![Record::open_scope(1, vec![])];
    healthy.extend((0..40).map(|i| Record::data(2, Payload::f64(vec![f64::from(i); 8]))));
    healthy.push(Record::close_scope(1));
    send_all(addr, &healthy).unwrap();

    handle.wait_for_completed(v1_sessions as u64 + 1);
    let report = handle.shutdown().unwrap();
    assert_eq!(report.clean_sessions(), 1);
    assert_eq!(report.repaired_sessions(), v1_sessions);

    let mut expected = Vec::new();
    chain()
        .run_streaming(healthy.into_iter(), &mut expected)
        .unwrap();
    for session in &report.sessions {
        let outputs = outputs.lock().unwrap();
        let (_, sink) = outputs.iter().find(|(id, _)| *id == session.id).unwrap();
        let got = sink.take();
        if session.is_clean() {
            assert_eq!(got, expected, "the v2 neighbour is untouched");
            continue;
        }
        // Only its own session is poisoned: the error names the
        // version, nothing after the v1 frame was trusted, and the
        // output is open + data + the synthesized close.
        let err = session.error.as_deref().unwrap();
        assert!(err.contains("version 1"), "{err}");
        assert_eq!(session.end, StreamEnd::Unclean { repaired_scopes: 1 });
        assert_eq!(session.received, 2);
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].kind, RecordKind::BadCloseScope);
        validate_scopes(&got).unwrap();
    }
}
