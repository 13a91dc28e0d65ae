//! Property-based tests for Dynamic River: codec round trips, scope
//! repair invariants, and pipeline equivalence (batch vs streaming vs
//! sharded).

use bytes::Bytes;
use dynamic_river::codec::{
    encode_into, write_eos, DecodeEvent, Decoder, SampleEncoding, WireFormat,
};
use dynamic_river::fault::{DropCloses, FailAfter, TruncateAfter};
use dynamic_river::net::StreamIn;
use dynamic_river::ops::{ScopeRepair, ScopeSum};
use dynamic_river::prelude::*;
use dynamic_river::scope::validate_scopes;
use proptest::prelude::*;

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
fn arb_sample_buf() -> impl Strategy<Value = SampleBuf> {
    (
        prop::collection::vec(-1e9f64..1e9, 0..64),
        0usize..16,
        0usize..16,
    )
        .prop_map(|(v, skip_front, skip_back)| {
            let buf = SampleBuf::from(v);
            let start = skip_front.min(buf.len());
            let end = buf.len() - skip_back.min(buf.len() - start);
            buf.slice(start..end)
        })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Empty),
        arb_sample_buf().prop_map(Payload::F64),
        // Complex payloads are interleaved (re, im) pairs by contract:
        // the codec rejects odd f64 counts on decode, so the strategy
        // trims views to an even length.
        arb_sample_buf().prop_map(|b| {
            let even = b.len() & !1;
            Payload::Complex(b.slice(..even))
        }),
        prop::collection::vec(any::<u8>(), 0..128).prop_map(|b| Payload::Bytes(Bytes::from(b))),
        "[a-zA-Z0-9 äöü]{0,40}".prop_map(Payload::Text),
        prop::collection::vec(("[a-z]{1,8}", "[a-z0-9]{0,12}"), 0..6).prop_map(|pairs| {
            Payload::Pairs(
                pairs
                    .into_iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            )
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        0u8..4,
        any::<u16>(),
        0u32..64,
        any::<u16>(),
        any::<u64>(),
        arb_payload(),
    )
        .prop_map(|(kind, subtype, depth, scope_type, seq, payload)| Record {
            kind: RecordKind::from_tag(kind).expect("tag in range"),
            subtype,
            scope_depth: depth,
            scope_type,
            seq,
            payload,
        })
}

/// A random but *structurally plausible* stream: opens and closes are
/// arbitrary, so scope repair has real work to do.
fn arb_stream() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        prop_oneof![
            3 => (any::<u16>(), prop::collection::vec(-100.0f64..100.0, 0..8))
                .prop_map(|(st, v)| Record::data(st, Payload::f64(v))),
            1 => (0u16..4).prop_map(|t| Record::open_scope(t, vec![])),
            1 => (0u16..4).prop_map(Record::close_scope),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any record round-trips exactly through the wire codec.
    #[test]
    fn codec_round_trip(rec in arb_record()) {
        let decoded = decode(&frame(&rec, SampleEncoding::F64)).unwrap();
        prop_assert_eq!(decoded, Some(rec));
    }

    /// Encoding is canonical byte-for-byte: whatever the payload variant
    /// — including `SampleBuf` views with non-zero offsets — decoding a
    /// frame and re-encoding the result reproduces the identical bytes,
    /// so views and owned buffers are indistinguishable on the wire.
    #[test]
    fn codec_reencode_is_byte_identical(rec in arb_record()) {
        let wire = frame(&rec, SampleEncoding::F64);
        let decoded = decode(&wire).unwrap().unwrap();
        prop_assert_eq!(frame(&decoded, SampleEncoding::F64), wire);
    }

    /// Every prefix of a frame asks for more bytes rather than erroring
    /// or mis-decoding.
    #[test]
    fn codec_prefix_safe(rec in arb_record(), frac in 0.0f64..1.0) {
        let frame = frame(&rec, SampleEncoding::F64);
        let cut = ((frame.len() as f64) * frac) as usize;
        if cut < frame.len() {
            prop_assert!(decode(&frame[..cut]).unwrap().is_none());
        }
    }

    /// Single-bit corruption anywhere in the frame is always detected
    /// (CRC or structural check) — decode never silently returns a
    /// different record.
    #[test]
    fn codec_detects_bit_flips(rec in arb_record(), byte_idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut frame = frame(&rec, SampleEncoding::I16);
        let idx = byte_idx.index(frame.len());
        frame[idx] ^= 1 << bit;
        // Ok(None) (length field corrupted upward, more bytes
        // requested) and Err (corruption detected) both pass.
        prop_assert!(!matches!(decode(&frame), Ok(Some(_))), "corruption went unnoticed");
    }

    /// Concatenated frames decode back to the original sequence.
    #[test]
    fn codec_stream_round_trip(records in prop::collection::vec(arb_record(), 0..20)) {
        let mut buf = Vec::new();
        for r in &records {
            encode_into(r, WireFormat::default(), &mut buf);
        }
        write_eos(&mut buf).unwrap();
        let mut events = Vec::new();
        Decoder::new().feed(&buf, &mut events).unwrap();
        prop_assert_eq!(events.pop(), Some(DecodeEvent::CleanEnd));
        let expected: Vec<_> = records.into_iter().map(DecodeEvent::Record).collect();
        prop_assert_eq!(events, expected);
    }

    /// ScopeRepair output always passes scope validation, whatever the
    /// input stream looks like.
    #[test]
    fn scope_repair_always_balances(stream in arb_stream()) {
        let mut p = Pipeline::new();
        p.add(ScopeRepair::new());
        let out = p.run(stream).unwrap();
        prop_assert!(validate_scopes(&out).is_ok());
    }

    /// StreamIn + repair over a randomly truncated byte stream always
    /// yields a balanced record sequence.
    #[test]
    fn streamin_repairs_truncated_streams(
        stream in arb_stream(),
        keep_frac in 0.0f64..1.0,
    ) {
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
        prop_assert!(validate_scopes(&sink).is_ok());
    }

    /// The fused streaming driver agrees record-for-record with the
    /// batch (stage-barrier) runner for arbitrary record streams —
    /// including scope records and operators that buffer until
    /// end-of-stream — and its counters account for every record.
    #[test]
    fn streaming_equals_batch(
        stream in arb_stream(),
        gain in -3.0f64..3.0,
        keep_even in any::<bool>(),
    ) {
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
        let build = move || {
            let mut p = Pipeline::new();
            p.add(MapPayload::new("gain", move |v: &mut [f64]| {
                v.iter_mut().for_each(|x| *x *= gain);
            }));
            p.add(Buffering(Vec::new()));
            if keep_even {
                p.add(RecordFilter::new("evens", |r: &Record| r.seq.is_multiple_of(2)));
            }
            p
        };
        let batch = build().run_batch(stream.clone()).unwrap();
        let mut streamed = Vec::new();
        let stats = build()
            .run_streaming(stream.clone().into_iter(), &mut streamed)
            .unwrap();
        prop_assert_eq!(&batch, &streamed);
        prop_assert_eq!(stats.source_records as usize, stream.len());
        prop_assert_eq!(stats.sink_records as usize, streamed.len());
        prop_assert_eq!(stats.stages[0].records_in as usize, stream.len());
        // The buffering stage's burst is its whole holdings — exactly
        // what the batch path would have materialized.
        prop_assert_eq!(stats.stages[1].peak_burst as usize, stream.len());
    }

    /// `run` (the streaming wrapper) and the streaming driver's sink
    /// count agree with the batch reference for arbitrary streams.
    #[test]
    fn run_and_sink_records_match_batch(stream in arb_stream(), keep_even in any::<bool>()) {
        let build = move || {
            let mut p = Pipeline::new();
            if keep_even {
                p.add(RecordFilter::new("evens", |r: &Record| r.seq.is_multiple_of(2)));
            }
            p.add(MapPayload::new("id", |_: &mut [f64]| {}));
            p
        };
        let batch = build().run_batch(stream.clone()).unwrap();
        prop_assert_eq!(&build().run(stream.clone()).unwrap(), &batch);
        let stats = build().run_streaming(stream.into_iter(), &mut NullSink).unwrap();
        prop_assert_eq!(stats.sink_records as usize, batch.len());
    }

    /// The scope-sharded runner agrees record-for-record with the
    /// single-lane streaming driver — scope open/close ordering
    /// included — for random scope-local chains (stateless maps and
    /// filters plus a per-scope stateful summarizer) over arbitrary
    /// record streams, at every worker count from 1 to 8.
    #[test]
    fn sharded_equals_streaming(
        stream in arb_stream(),
        gain in -3.0f64..3.0,
        keep_even in any::<bool>(),
        with_sum in any::<bool>(),
        workers in 1usize..9,
    ) {
        let build = move || {
            let mut p = Pipeline::new();
            p.add(MapPayload::new("gain", move |v: &mut [f64]| {
                v.iter_mut().for_each(|x| *x *= gain);
            }));
            if keep_even {
                p.add(RecordFilter::new("evens", |r: &Record| r.seq.is_multiple_of(2)));
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
        prop_assert_eq!(&single, &sharded);
        prop_assert_eq!(single_stats.source_records, sharded_stats.source_records);
        prop_assert_eq!(single_stats.sink_records, sharded_stats.sink_records);
        prop_assert_eq!(single_stats.sink_bytes, sharded_stats.sink_bytes);
    }

    /// Fault injection through the sharded runner: a `DropCloses` or
    /// `TruncateAfter` upstream fault leaves scopes dangling, and the
    /// per-shard `ScopeRepair` must synthesize exactly the
    /// `BadCloseScope` records the single-lane path emits — same
    /// records, same positions.
    #[test]
    fn sharded_scope_repair_matches_single_lane(
        stream in arb_stream(),
        drop_every in 1u64..4,
        truncate in any::<bool>(),
        keep in 0usize..64,
        workers in 1usize..9,
    ) {
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
        prop_assert_eq!(&single, &sharded);
        prop_assert!(validate_scopes(&sharded).is_ok());
        let single_bad = single.iter().filter(|r| r.kind == RecordKind::BadCloseScope).count();
        let sharded_bad = sharded.iter().filter(|r| r.kind == RecordKind::BadCloseScope).count();
        prop_assert_eq!(single_bad, sharded_bad);
    }

    /// The f32 encoding loses exactly the bits `f64 → f32 → f64` loses,
    /// nothing more: each decoded sample equals its f32-rounded source.
    #[test]
    fn v2_f32_samples_round_to_f32_exactly(rec in arb_record()) {
        let decoded = decode(&frame(&rec, SampleEncoding::F32)).unwrap().unwrap();
        let pairs = |p: &Payload| -> Option<(Vec<f64>, Vec<f64>)> {
            match p {
                Payload::F64(b) | Payload::Complex(b) => Some((b.to_vec(), Vec::new())),
                _ => None,
            }
        };
        if let (Some((orig, _)), Some((got, _))) = (pairs(&rec.payload), pairs(&decoded.payload)) {
            prop_assert_eq!(orig.len(), got.len());
            for (a, b) in orig.iter().zip(got.iter()) {
                prop_assert_eq!(f64::from(*a as f32).to_bits(), b.to_bits());
            }
        } else {
            // Non-sample payloads are lossless under every encoding.
            prop_assert_eq!(decoded, rec);
        }
    }

    /// The i16 encoding's absolute error is bounded by `scale / 2` with
    /// `scale = max|x| / 32767`, per record.
    #[test]
    fn v2_i16_error_stays_within_half_scale(rec in arb_record()) {
        let decoded = decode(&frame(&rec, SampleEncoding::I16)).unwrap().unwrap();
        let samples = |p: &Payload| -> Option<Vec<f64>> {
            match p {
                Payload::F64(b) | Payload::Complex(b) => Some(b.to_vec()),
                _ => None,
            }
        };
        if let (Some(orig), Some(got)) = (samples(&rec.payload), samples(&decoded.payload)) {
            prop_assert_eq!(orig.len(), got.len());
            let max = orig.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            let bound = max / f64::from(i16::MAX) / 2.0 * (1.0 + 1e-9);
            for (a, b) in orig.iter().zip(got.iter()) {
                prop_assert!((a - b).abs() <= bound, "{} vs {} (bound {})", a, b, bound);
            }
        } else {
            prop_assert_eq!(decoded, rec);
        }
    }

    /// Chunking invariance: however a mixed-encoding byte stream is
    /// split, the incremental decoder yields the identical record
    /// sequence and clean end.
    #[test]
    fn decoder_chunking_invariant(
        records in prop::collection::vec(arb_record(), 0..12),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..9),
        enc_pick in any::<u8>(),
    ) {
        let mut wire = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let enc = match (i + enc_pick as usize) % 3 {
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
        let mut points: Vec<usize> = cuts.iter().map(|c| c.index(wire.len() + 1)).collect();
        points.push(0);
        points.push(wire.len());
        points.sort_unstable();
        let mut chunked = Vec::new();
        let mut dec = Decoder::new();
        for pair in points.windows(2) {
            dec.feed(&wire[pair[0]..pair[1]], &mut chunked).unwrap();
        }
        prop_assert_eq!(&chunked, &reference);
        prop_assert_eq!(chunked.len(), records.len() + 1);
        prop_assert!(matches!(chunked.last(), Some(DecodeEvent::CleanEnd)));
    }

    /// Single-bit corruption in a frame is always detected — decode
    /// never silently yields a different record, and every failure is a
    /// recoverable `Codec` error (never a panic, never `Io`).
    #[test]
    fn v2_detects_bit_flips_recoverably(
        rec in arb_record(),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut frame = frame(&rec, SampleEncoding::F64);
        let idx = byte_idx.index(frame.len());
        frame[idx] ^= 1 << bit;
        match decode(&frame) {
            Ok(Some(decoded)) => prop_assert_eq!(decoded, rec, "corruption went unnoticed"),
            Ok(None) => {} // length field corrupted upward: more bytes requested
            Err(e) => {
                let is_codec = matches!(e, PipelineError::Codec(_));
                prop_assert!(is_codec, "non-codec error from pure bytes: {}", e);
            }
        }
    }

    /// A crashing operator (`FailAfter`) aborts the sharded run with an
    /// operator error, like the single-lane driver.
    #[test]
    fn sharded_fail_after_aborts(
        stream in arb_stream(),
        fail_at in 0u64..32,
        workers in 1usize..5,
    ) {
        // Only meaningful when the fault actually fires (the shim has
        // no prop_assume; a plain guard serves).
        if stream.len() as u64 > fail_at {
            let build = || {
                let mut p = Pipeline::new();
                p.add(FailAfter::new(fail_at));
                p
            };
            let single_err = build()
                .run_streaming(stream.clone().into_iter(), &mut NullSink)
                .unwrap_err();
            // Bound to a name first: the assert macro embeds the
            // expression in a format string, where `{ .. }` is invalid.
            let single_is_operator_error = matches!(single_err, PipelineError::Operator { .. });
            prop_assert!(single_is_operator_error);
            // Sharded: each worker's FailAfter counts its own shard's
            // records, so with several workers the countdown may never
            // elapse on any one shard. With one worker it must abort
            // exactly like the single lane; with more, a completed run
            // means every record flowed.
            match build().run_sharded(stream.clone().into_iter(), &mut NullSink, workers) {
                Err(e) => {
                    let is_operator_error = matches!(e, PipelineError::Operator { .. });
                    prop_assert!(is_operator_error);
                }
                Ok(stats) => {
                    prop_assert!(workers > 1);
                    prop_assert_eq!(stats.source_records as usize, stream.len());
                }
            }
        }
    }
}
