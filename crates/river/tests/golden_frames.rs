//! Golden wire frames: the exact bytes every encoder entry point must
//! produce, for one record of each payload kind in each wire format.
//!
//! `golden_frames.txt` was rendered at commit `0b7481e` (the last one
//! with the two-buffer `encode_frame`/`encode_frame_v2` encoders) from
//! the records below, one `name format hex` line per record and format.
//! The wire format is a compatibility contract, so the file is never
//! regenerated: a new payload kind or format appends lines.

use dynamic_river::buf::SampleBuf;
use dynamic_river::codec::{
    encode_frame, encode_frame_v2, encode_frame_with, encode_into, write_record, write_record_with,
    SampleEncoding, WireFormat,
};
use dynamic_river::net::StreamOut;
use dynamic_river::operator::{NullSink, Operator};
use dynamic_river::record::{Payload, Record};

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

const FORMATS: [(&str, WireFormat); 4] = [
    ("v1", WireFormat::V1),
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
    assert_eq!(GOLDEN.lines().count(), records().len() * FORMATS.len());
    for (name, record) in records() {
        for (label, format) in FORMATS {
            let want = golden(name, label);
            let ctx = format!("{name} {label}");
            assert_eq!(encode_frame_with(&record, format), want, "{ctx}");

            // encode_into appends: what is already in the buffer stays.
            let mut appended = b"prefix".to_vec();
            encode_into(&record, format, &mut appended);
            assert_eq!(&appended[..6], b"prefix", "{ctx}");
            assert_eq!(&appended[6..], want, "{ctx}: encode_into");

            let mut written = Vec::new();
            write_record_with(&mut written, &record, format).unwrap();
            assert_eq!(written, want, "{ctx}: write_record_with");

            match format {
                WireFormat::V1 => {
                    assert_eq!(encode_frame(&record), want, "{ctx}: encode_frame");
                    let mut written = Vec::new();
                    write_record(&mut written, &record).unwrap();
                    assert_eq!(written, want, "{ctx}: write_record");
                }
                WireFormat::V2(enc) => {
                    assert_eq!(
                        encode_frame_v2(&record, enc),
                        want,
                        "{ctx}: encode_frame_v2"
                    );
                }
            }

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
    }
}
