//! Property-based tests for Dynamic River: codec round trips, scope
//! repair invariants, and pipeline equivalence (stage-at-a-time vs
//! streaming vs sharded).

mod testkit;

use dynamic_river::codec::{
    encode_into, write_eos, DecodeEvent, Decoder, SampleEncoding, WireFormat,
};
use dynamic_river::net::StreamIn;
use dynamic_river::ops::ScopeRepair;
use dynamic_river::prelude::*;
use dynamic_river::scope::validate_scopes;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt};
use std::ops::Range;
use testkit::{
    pipeline, stage_at_a_time, DropCloses, FailAfter, MapPayload, RecordFilter, ScopeSum,
    TruncateAfter,
};

/// `rec` as one frame in the given sample encoding.
fn frame(rec: &Record, enc: SampleEncoding) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(rec, WireFormat::V2(enc), &mut out);
    out
}

/// What a fresh decoder makes of `bytes` fed in one piece: the record
/// of a complete frame, `None` while more bytes are awaited.
fn decode(bytes: &[u8]) -> Result<Option<Record>, PipelineError> {
    let mut events = Vec::new();
    Decoder::new().feed(bytes, &mut events)?;
    Ok(events.pop().map(|event| match event {
        DecodeEvent::Record(rec) => rec,
        other => panic!("expected a record, got {other:?}"),
    }))
}

/// Sample buffers in every representation the payload model allows:
/// owned (offset 0) and non-trivial views (non-zero offset and/or a
/// length shorter than the backing allocation) — the codec must frame
/// both identically.
fn arb_sample_buf(rng: &mut StdRng) -> SampleBuf {
    let buf = SampleBuf::from(seeds::vec(rng, 0..64, |r| r.random_range(-1e9..1e9)));
    let start = rng.random_range(0..16usize).min(buf.len());
    let end = buf.len() - rng.random_range(0..16usize).min(buf.len() - start);
    buf.slice(start..end)
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const DIGITS: &str = "0123456789";

/// A string of characters picked from `classes` (multi-byte ones
/// included), its length in characters drawn from `len`.
fn text(rng: &mut StdRng, classes: &[&str], len: Range<usize>) -> String {
    let chars: Vec<char> = classes.iter().flat_map(|c| c.chars()).collect();
    seeds::vec(rng, len, |r| chars[r.random_range(0..chars.len())])
        .into_iter()
        .collect()
}

fn arb_payload(rng: &mut StdRng) -> Payload {
    match rng.random_range(0..4) {
        0 => Payload::Empty,
        1 => Payload::F64(arb_sample_buf(rng)),
        2 => Payload::Bytes(seeds::vec(rng, 0..128, |r| r.next_u64() as u8).into()),
        // Values carry multi-byte UTF-8, which the pairs block must
        // frame by byte length, not character count.
        _ => Payload::Pairs(seeds::vec(rng, 0..6, |r| {
            (
                text(r, &[LOWER], 1..9),
                text(r, &[LOWER, UPPER, DIGITS, " äöü"], 0..41),
            )
        })),
    }
}

fn arb_record(rng: &mut StdRng) -> Record {
    Record {
        kind: RecordKind::from_tag(rng.random_range(0..4)).expect("tag in range"),
        subtype: rng.random_range(0..=u16::MAX),
        scope_depth: rng.random_range(0..64),
        scope_type: rng.random_range(0..=u16::MAX),
        seq: rng.next_u64(),
        payload: arb_payload(rng),
    }
}

/// A random but *structurally plausible* stream, data, opens and
/// closes drawn 3 : 1 : 1: opens and closes are arbitrary, so scope
/// repair has real work to do.
fn arb_stream(rng: &mut StdRng) -> Vec<Record> {
    seeds::vec(rng, 0..60, |r| match r.random_range(0..5) {
        0..3 => {
            let samples = seeds::vec(r, 0..8, |r| r.random_range(-100.0..100.0));
            Record::data(r.random_range(0..=u16::MAX), Payload::f64(samples))
        }
        3 => Record::open_scope(r.random_range(0..4), vec![]),
        _ => Record::close_scope(r.random_range(0..4)),
    })
}

/// Any record round-trips exactly through the wire codec.
#[test]
fn codec_round_trip() {
    seeds::check(0..64, |rng| {
        let rec = arb_record(rng);
        let decoded = decode(&frame(&rec, SampleEncoding::F64)).unwrap();
        assert_eq!(decoded, Some(rec));
    });
}

/// Encoding is canonical byte-for-byte: whatever the payload variant
/// — including `SampleBuf` views with non-zero offsets — decoding a
/// frame and re-encoding the result reproduces the identical bytes,
/// so views and owned buffers are indistinguishable on the wire.
#[test]
fn codec_reencode_is_byte_identical() {
    seeds::check(0..64, |rng| {
        let rec = arb_record(rng);
        let wire = frame(&rec, SampleEncoding::F64);
        let decoded = decode(&wire).unwrap().unwrap();
        assert_eq!(frame(&decoded, SampleEncoding::F64), wire);
    });
}

/// Every prefix of a frame asks for more bytes rather than erroring
/// or mis-decoding.
#[test]
fn codec_prefix_safe() {
    seeds::check(0..64, |rng| {
        let rec = arb_record(rng);
        let frac = rng.random_range(0.0..1.0);
        let frame = frame(&rec, SampleEncoding::F64);
        let cut = ((frame.len() as f64) * frac) as usize;
        if cut < frame.len() {
            assert!(decode(&frame[..cut]).unwrap().is_none());
        }
    });
}

/// Single-bit corruption anywhere in the frame is always detected
/// (CRC or structural check) — decode never silently returns a
/// different record.
#[test]
fn codec_detects_bit_flips() {
    seeds::check(0..64, |rng| {
        let rec = arb_record(rng);
        let bit = rng.random_range(0u8..8);
        let mut frame = frame(&rec, SampleEncoding::I16);
        let idx = rng.random_range(0..frame.len());
        frame[idx] ^= 1 << bit;
        // Ok(None) (length field corrupted upward, more bytes
        // requested) and Err (corruption detected) both pass.
        assert!(
            !matches!(decode(&frame), Ok(Some(_))),
            "corruption went unnoticed"
        );
    });
}

/// Concatenated frames decode back to the original sequence.
#[test]
fn codec_stream_round_trip() {
    seeds::check(0..64, |rng| {
        let records = seeds::vec(rng, 0..20, arb_record);
        let mut buf = Vec::new();
        for r in &records {
            encode_into(r, WireFormat::default(), &mut buf);
        }
        write_eos(&mut buf).unwrap();
        let mut events = Vec::new();
        Decoder::new().feed(&buf, &mut events).unwrap();
        assert_eq!(events.pop(), Some(DecodeEvent::CleanEnd));
        let expected: Vec<_> = records.into_iter().map(DecodeEvent::Record).collect();
        assert_eq!(events, expected);
    });
}

/// ScopeRepair output always passes scope validation, whatever the
/// input stream looks like.
#[test]
fn scope_repair_always_balances() {
    seeds::check(0..64, |rng| {
        let stream = arb_stream(rng);
        let mut p = Pipeline::new();
        p.add(ScopeRepair::new());
        let out = p.run(stream).unwrap();
        assert!(validate_scopes(&out).is_ok());
    });
}

/// StreamIn + repair over a randomly truncated byte stream always
/// yields a balanced record sequence.
#[test]
fn streamin_repairs_truncated_streams() {
    seeds::check(0..64, |rng| {
        let stream = arb_stream(rng);
        let keep_frac = rng.random_range(0.0..1.0);
        // Sanitize the stream first so it is well-formed at the sender.
        let mut p = Pipeline::new();
        p.add(ScopeRepair::new());
        let clean = p.run(stream).unwrap();

        let mut buf = Vec::new();
        for r in &clean {
            encode_into(r, WireFormat::default(), &mut buf);
        }
        write_eos(&mut buf).unwrap();
        let cut = ((buf.len() as f64) * keep_frac) as usize;
        let truncated = &buf[..cut];

        let mut sink: Vec<Record> = Vec::new();
        let mut si = StreamIn::new(truncated);
        // Truncation may land mid-frame; that is an unclean end, not an
        // error.
        let _ = si.pump(&mut sink).unwrap();
        assert!(validate_scopes(&sink).is_ok());
    });
}

/// The fused streaming driver agrees record-for-record with the
/// stage-at-a-time reference for arbitrary record streams — including
/// scope records and operators that buffer until end-of-stream — and
/// its counters account for every record.
#[test]
fn streaming_equals_batch() {
    /// Holds everything until EOS, then replays — the worst case
    /// for flush-order equivalence.
    struct Buffering(Vec<Record>);
    impl Operator for Buffering {
        fn name(&self) -> &'static str {
            "buffering"
        }
        fn on_record(&mut self, r: Record, _out: &mut dyn Sink) -> Result<(), PipelineError> {
            self.0.push(r);
            Ok(())
        }
        fn on_eos(&mut self, out: &mut dyn Sink) -> Result<(), PipelineError> {
            for r in self.0.drain(..) {
                out.push(r)?;
            }
            Ok(())
        }
    }

    seeds::check(0..64, |rng| {
        let stream = arb_stream(rng);
        let gain = rng.random_range(-3.0..3.0);
        let keep_even = rng.random_bool(0.5);
        let build = move || {
            let mut stages: Vec<Box<dyn Operator>> = vec![
                Box::new(MapPayload::new("gain", move |v: &mut [f64]| {
                    v.iter_mut().for_each(|x| *x *= gain);
                })),
                Box::new(Buffering(Vec::new())),
            ];
            if keep_even {
                stages.push(Box::new(RecordFilter::new("evens", |r: &Record| {
                    r.seq.is_multiple_of(2)
                })));
            }
            stages
        };
        let batch = stage_at_a_time(build(), stream.clone()).unwrap();
        let mut streamed = Vec::new();
        let stats = pipeline(build())
            .run_streaming(stream.clone().into_iter(), &mut streamed)
            .unwrap();
        assert_eq!(&batch, &streamed);
        assert_eq!(stats.source_records as usize, stream.len());
        assert_eq!(stats.sink_records as usize, streamed.len());
        assert_eq!(stats.stages[0].records_in as usize, stream.len());
        // The buffering stage's burst is its whole holdings — exactly
        // what the batch path would have materialized.
        assert_eq!(stats.stages[1].peak_burst as usize, stream.len());
    });
}

/// `run` (the streaming wrapper) and the streaming driver's sink
/// count agree with the stage-at-a-time reference for arbitrary
/// streams.
#[test]
fn run_and_sink_records_match_batch() {
    seeds::check(0..64, |rng| {
        let stream = arb_stream(rng);
        let keep_even = rng.random_bool(0.5);
        let build = move || {
            let mut stages: Vec<Box<dyn Operator>> = Vec::new();
            if keep_even {
                stages.push(Box::new(RecordFilter::new("evens", |r: &Record| {
                    r.seq.is_multiple_of(2)
                })));
            }
            stages.push(Box::new(MapPayload::new("id", |_: &mut [f64]| {})));
            stages
        };
        let batch = stage_at_a_time(build(), stream.clone()).unwrap();
        assert_eq!(&pipeline(build()).run(stream.clone()).unwrap(), &batch);
        let stats = pipeline(build())
            .run_streaming(stream.into_iter(), &mut NullSink)
            .unwrap();
        assert_eq!(stats.sink_records as usize, batch.len());
    });
}

/// The scope-sharded runner agrees record-for-record with the
/// single-lane streaming driver — scope open/close ordering
/// included — for random scope-local chains (stateless maps and
/// filters plus a per-scope stateful summarizer) over arbitrary
/// record streams, at every worker count from 1 to 8.
#[test]
fn sharded_equals_streaming() {
    seeds::check(0..64, |rng| {
        let stream = arb_stream(rng);
        let gain = rng.random_range(-3.0..3.0);
        let keep_even = rng.random_bool(0.5);
        let with_sum = rng.random_bool(0.5);
        let workers = rng.random_range(1usize..9);
        let build = move || {
            let mut p = Pipeline::new();
            p.add(MapPayload::new("gain", move |v: &mut [f64]| {
                v.iter_mut().for_each(|x| *x *= gain);
            }));
            if keep_even {
                p.add(RecordFilter::new("evens", |r: &Record| {
                    r.seq.is_multiple_of(2)
                }));
            }
            if with_sum {
                p.add(ScopeSum::new(999));
            }
            p
        };
        let mut single = Vec::new();
        let single_stats = build()
            .run_streaming(stream.clone().into_iter(), &mut single)
            .unwrap();
        let mut sharded = Vec::new();
        let sharded_stats = build()
            .run_sharded(stream.into_iter(), &mut sharded, workers)
            .unwrap();
        assert_eq!(&single, &sharded);
        assert_eq!(single_stats.source_records, sharded_stats.source_records);
        assert_eq!(single_stats.sink_records, sharded_stats.sink_records);
        assert_eq!(single_stats.sink_bytes, sharded_stats.sink_bytes);
    });
}

/// Fault injection through the sharded runner: a `DropCloses` or
/// `TruncateAfter` upstream fault leaves scopes dangling, and the
/// per-shard `ScopeRepair` must synthesize exactly the
/// `BadCloseScope` records the single-lane path emits — same
/// records, same positions.
#[test]
fn sharded_scope_repair_matches_single_lane() {
    seeds::check(0..64, |rng| {
        let stream = arb_stream(rng);
        let drop_every = rng.random_range(1u64..4);
        let truncate = rng.random_bool(0.5);
        let keep = rng.random_range(0usize..64);
        let workers = rng.random_range(1usize..9);
        // Sanitize, then inject the fault upstream of both runners so
        // they see the identical damaged stream.
        let mut sanitize = Pipeline::new();
        sanitize.add(ScopeRepair::new());
        let clean = sanitize.run(stream).unwrap();
        let mut injector = Pipeline::new();
        if truncate {
            injector.add(TruncateAfter::new(keep as u64));
        } else {
            injector.add(DropCloses::every(drop_every));
        }
        let damaged = injector.run(clean).unwrap();

        let build = || {
            let mut p = Pipeline::new();
            p.add(ScopeRepair::new());
            p.add(ScopeSum::new(999));
            p
        };
        let mut single = Vec::new();
        build()
            .run_streaming(damaged.clone().into_iter(), &mut single)
            .unwrap();
        let mut sharded = Vec::new();
        build()
            .run_sharded(damaged.into_iter(), &mut sharded, workers)
            .unwrap();
        assert_eq!(&single, &sharded);
        assert!(validate_scopes(&sharded).is_ok());
        let single_bad = single
            .iter()
            .filter(|r| r.kind == RecordKind::BadCloseScope)
            .count();
        let sharded_bad = sharded
            .iter()
            .filter(|r| r.kind == RecordKind::BadCloseScope)
            .count();
        assert_eq!(single_bad, sharded_bad);
    });
}

/// The f32 encoding loses exactly the bits `f64 → f32 → f64` loses,
/// nothing more: each decoded sample equals its f32-rounded source.
#[test]
fn v2_f32_samples_round_to_f32_exactly() {
    seeds::check(0..64, |rng| {
        let rec = arb_record(rng);
        let decoded = decode(&frame(&rec, SampleEncoding::F32)).unwrap().unwrap();
        if let (Some(orig), Some(got)) = (rec.payload.as_f64(), decoded.payload.as_f64()) {
            assert_eq!(orig.len(), got.len());
            for (a, b) in orig.iter().zip(got.iter()) {
                assert_eq!(f64::from(*a as f32).to_bits(), b.to_bits());
            }
        } else {
            // Non-sample payloads are lossless under every encoding.
            assert_eq!(decoded, rec);
        }
    });
}

/// The i16 encoding's absolute error is bounded by `scale / 2` with
/// `scale = max|x| / 32767`, per record.
#[test]
fn v2_i16_error_stays_within_half_scale() {
    seeds::check(0..64, |rng| {
        let rec = arb_record(rng);
        let decoded = decode(&frame(&rec, SampleEncoding::I16)).unwrap().unwrap();
        if let (Some(orig), Some(got)) = (rec.payload.as_f64(), decoded.payload.as_f64()) {
            assert_eq!(orig.len(), got.len());
            let max = orig.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            let bound = max / f64::from(i16::MAX) / 2.0 * (1.0 + 1e-9);
            for (a, b) in orig.iter().zip(got.iter()) {
                assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
            }
        } else {
            assert_eq!(decoded, rec);
        }
    });
}

/// Chunking invariance: however a mixed-encoding byte stream is
/// split, the incremental decoder yields the identical record
/// sequence and clean end.
#[test]
fn decoder_chunking_invariant() {
    seeds::check(0..64, |rng| {
        let records = seeds::vec(rng, 0..12, arb_record);
        let enc_pick = rng.random_range(0..3usize);
        let mut wire = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let enc = match (i + enc_pick) % 3 {
                0 => SampleEncoding::F64,
                1 => SampleEncoding::F32,
                _ => SampleEncoding::I16,
            };
            encode_into(r, WireFormat::V2(enc), &mut wire);
        }
        write_eos(&mut wire).unwrap();

        // Reference: one whole-stream feed.
        let mut reference = Vec::new();
        Decoder::new().feed(&wire, &mut reference).unwrap();

        // Arbitrary split points (duplicates and 0 collapse harmlessly).
        let mut points = seeds::vec(rng, 0..9, |r| r.random_range(0..=wire.len()));
        points.push(0);
        points.push(wire.len());
        points.sort_unstable();
        let mut chunked = Vec::new();
        let mut dec = Decoder::new();
        for pair in points.windows(2) {
            dec.feed(&wire[pair[0]..pair[1]], &mut chunked).unwrap();
        }
        assert_eq!(&chunked, &reference);
        assert_eq!(chunked.len(), records.len() + 1);
        assert!(matches!(chunked.last(), Some(DecodeEvent::CleanEnd)));
    });
}

/// Single-bit corruption in a frame is always detected — decode
/// never silently yields a different record, and every failure is a
/// recoverable `Codec` error (never a panic, never `Io`).
#[test]
fn v2_detects_bit_flips_recoverably() {
    seeds::check(0..64, |rng| {
        let rec = arb_record(rng);
        let bit = rng.random_range(0u8..8);
        let mut frame = frame(&rec, SampleEncoding::F64);
        let idx = rng.random_range(0..frame.len());
        frame[idx] ^= 1 << bit;
        match decode(&frame) {
            Ok(Some(decoded)) => assert_eq!(decoded, rec, "corruption went unnoticed"),
            Ok(None) => {} // length field corrupted upward: more bytes requested
            Err(e) => assert!(
                matches!(e, PipelineError::Codec(_)),
                "non-codec error from pure bytes: {e}"
            ),
        }
    });
}

/// A crashing operator (`FailAfter`) aborts the sharded run with an
/// operator error, like the single-lane driver.
#[test]
fn sharded_fail_after_aborts() {
    seeds::check(0..64, |rng| {
        let stream = arb_stream(rng);
        let fail_at = rng.random_range(0u64..32);
        let workers = rng.random_range(1usize..5);
        // Only meaningful when the fault actually fires.
        if stream.len() as u64 <= fail_at {
            return;
        }
        let build = || {
            let mut p = Pipeline::new();
            p.add(FailAfter::new(fail_at));
            p
        };
        let single_err = build()
            .run_streaming(stream.clone().into_iter(), &mut NullSink)
            .unwrap_err();
        assert!(matches!(single_err, PipelineError::Operator { .. }));
        // Sharded: each worker's FailAfter counts its own shard's
        // records, so with several workers the countdown may never
        // elapse on any one shard. With one worker it must abort
        // exactly like the single lane; with more, a completed run
        // means every record flowed.
        match build().run_sharded(stream.clone().into_iter(), &mut NullSink, workers) {
            Err(e) => assert!(matches!(e, PipelineError::Operator { .. })),
            Ok(stats) => {
                assert!(workers > 1);
                assert_eq!(stats.source_records as usize, stream.len());
            }
        }
    });
}
