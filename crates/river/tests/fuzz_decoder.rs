//! Fuzz battery for the incremental wire decoder (ISSUE satellite 1).
//!
//! Plain `cargo test` runs a bounded, fully deterministic number of
//! iterations; set `FUZZ_ITERS` to raise the budget (ci.sh runs a
//! fixed-seed smoke pass). Two input families are exercised:
//!
//! 1. **Arbitrary bytes** — pure noise fed to [`Decoder`] in random
//!    chunk sizes. The decoder must never panic and every failure must
//!    be a recoverable [`PipelineError::Codec`].
//! 2. **Mutated-valid streams** — well-formed mixed-encoding wires run
//!    through [`WireMangler`] (bit flips, truncation, garbage
//!    insertion, frame duplication/deletion), fed to both the raw
//!    [`Decoder`] and a full [`StreamIn`] session. The session layer
//!    must always terminate with balanced scopes (repairs included) and
//!    may only surface `Codec` errors.

mod testkit;

use dynamic_river::codec::{crc32, encode_into, write_eos, Decoder, SampleEncoding, WireFormat};
use dynamic_river::net::StreamIn;
use dynamic_river::record::{Payload, Record, RecordKind};
use dynamic_river::PipelineError;
use seeds::fuzz_iters;
use testkit::WireMangler;

/// Asserts an error is the recoverable kind the decoder contract
/// promises for in-band byte corruption.
fn assert_codec(err: &PipelineError, context: &str) {
    assert!(
        matches!(err, PipelineError::Codec(_)),
        "{context}: expected Codec error, got {err}"
    );
}

/// Feeds `wire` to a fresh decoder in chunk sizes drawn from `rng`,
/// stopping at the first error (the decoder poisons itself). Returns
/// how many records decoded before the stream ended or failed.
fn drive_decoder(rng: &mut WireMangler, wire: &[u8], context: &str) -> usize {
    let mut dec = Decoder::new();
    let mut events = Vec::new();
    let mut records = 0usize;
    let mut rest = wire;
    while !rest.is_empty() {
        let n = (rng.next_u64() as usize % 64 + 1).min(rest.len());
        let (chunk, tail) = rest.split_at(n);
        rest = tail;
        events.clear();
        match dec.feed(chunk, &mut events) {
            Ok(()) => records += events.len(),
            Err(e) => {
                assert_codec(&e, context);
                // Poisoned decoders must keep failing, not panic.
                let again = dec.feed(tail, &mut events).unwrap_err();
                assert_codec(&again, context);
                return records;
            }
        }
    }
    if let Err(e) = dec.end_of_input() {
        assert!(
            matches!(e, PipelineError::Disconnected(_)),
            "{context}: end_of_input may only report truncation, got {e}"
        );
    }
    records
}

/// The three sample encodings a sender can pick.
const ENCODINGS: [SampleEncoding; 3] = [
    SampleEncoding::F64,
    SampleEncoding::F32,
    SampleEncoding::I16,
];

/// Builds a small, deterministic, well-formed stream mixing scopes,
/// payload shapes, and the three sample encodings.
fn valid_wire(rng: &mut WireMangler) -> Vec<u8> {
    let mut wire = Vec::new();
    let scopes = rng.next_u64() % 3 + 1;
    let mut seq = 0u64;
    for s in 0..scopes {
        let scope_type = (rng.next_u64() % 7) as u16;
        let mut push = |rec: &Record, rng: &mut WireMangler| {
            let enc = ENCODINGS[(rng.next_u64() % 3) as usize];
            encode_into(rec, WireFormat::V2(enc), &mut wire);
        };
        push(&Record::open_scope(scope_type, vec![]).with_seq(seq), rng);
        seq += 1;
        for i in 0..rng.next_u64() % 4 {
            let payload = match rng.next_u64() % 4 {
                0 => Payload::Empty,
                1 => Payload::f64(
                    (0..8)
                        .map(|k| (k + i) as f64 * 0.25 - s as f64)
                        .collect::<Vec<f64>>(),
                ),
                2 => Payload::Text(format!("clip-{s}-{i}")),
                _ => Payload::Bytes(rng.next_u64().to_le_bytes().to_vec().into()),
            };
            push(&Record::data((i + 1) as u16, payload).with_seq(seq), rng);
            seq += 1;
        }
        push(&Record::close_scope(scope_type).with_seq(seq), rng);
        seq += 1;
    }
    write_eos(&mut wire).unwrap();
    wire
}

/// Family 1: arbitrary bytes never panic the decoder and only ever
/// produce `Codec` errors.
#[test]
fn arbitrary_bytes_never_panic_and_fail_as_codec() {
    let mut rng = WireMangler::new(0xF00D);
    for round in 0..fuzz_iters() {
        let len = (rng.next_u64() % 512) as usize;
        let mut noise = Vec::with_capacity(len);
        while noise.len() < len {
            noise.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        noise.truncate(len);
        drive_decoder(&mut rng, &noise, &format!("noise round {round}"));
    }
}

/// Family 1b: noise that *starts* like a real frame (correct magic,
/// plausible header) stresses the header/varint paths specifically;
/// noise behind the retired v1 magic stops at the version gate.
#[test]
fn magic_prefixed_noise_fails_as_codec() {
    let mut rng = WireMangler::new(0xBEEF);
    for round in 0..fuzz_iters() {
        let mut bytes = if rng.next_u64().is_multiple_of(2) {
            b"RVDR".to_vec()
        } else {
            vec![0xB2]
        };
        for _ in 0..rng.next_u64() % 8 {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        drive_decoder(&mut rng, &bytes, &format!("magic-noise round {round}"));
    }
}

/// Family 1c: CRC-valid pairs frames whose pair *count* is forged. The
/// count sizes an allocation, so the decoder must hold it to the bytes
/// the payload actually has (one 64 MiB frame could otherwise demand
/// gigabytes of `(String, String)` slots): every forged count is a
/// `Codec` error, never a panic, and only the true count decodes.
#[test]
fn forged_pairs_counts_fail_as_codec() {
    let context: Vec<(String, String)> = [("sample_rate", "20160"), ("site", "kbs"), ("", "")]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let record = Record::open_scope(7, context.clone());
    let mut rng = WireMangler::new(0x9A125);
    for round in 0..fuzz_iters() {
        // The count sits after the six one-byte header fields, body
        // length, block type and block length (all one-byte varints for
        // this record), whatever the sample encoding.
        let at = 9;
        let enc = ENCODINGS[(rng.next_u64() % 3) as usize];
        let mut frame = Vec::new();
        encode_into(&record, WireFormat::V2(enc), &mut frame);
        let honest = frame[at];
        assert_eq!(honest as usize, context.len(), "count field moved");
        // Any one-byte varint, small lies favoured (a near-miss count
        // is the one most likely to slip past a loose bound).
        let forged = ((rng.next_u64() as u32) >> (rng.next_u64() % 32)) as u8 & 0x7F;
        frame[at] = forged;
        let body_end = frame.len() - 4;
        let crc = crc32(&frame[..body_end]);
        frame[body_end..].copy_from_slice(&crc.to_le_bytes());
        let decoded = drive_decoder(&mut rng, &frame, &format!("forged count round {round}"));
        let lied = forged != honest;
        assert_eq!(decoded, usize::from(!lied), "round {round}: count {forged}");
    }
}

/// Family 2a: every single-bit error in a production-size frame is
/// refused. One 840-sample record in v2/F64 and in v2/F32 — long enough
/// that the checksum's four-lane loop, its single folds, its table tail
/// and the trailer itself each cover some of the bits — with each bit
/// flipped in turn: the decoder answers with a `Codec` error or waits
/// for more bytes (a length field that grew), and never yields a record.
#[test]
fn every_single_bit_flip_of_a_full_frame_is_refused() {
    let samples: Vec<f64> = (0..840).map(|i| (i as f64 * 0.37).sin() * 0.8).collect();
    let record = Record::data(3, Payload::f64(samples)).with_seq(0x1234);
    for enc in [SampleEncoding::F64, SampleEncoding::F32] {
        let mut frame = Vec::new();
        encode_into(&record, WireFormat::V2(enc), &mut frame);
        let mut events = Vec::new();
        Decoder::new().feed(&frame, &mut events).unwrap();
        assert_eq!(events.len(), 1, "{enc:?}: the intact frame decodes");
        for bit in 0..frame.len() * 8 {
            frame[bit / 8] ^= 1 << (bit % 8);
            events.clear();
            if let Err(e) = Decoder::new().feed(&frame, &mut events) {
                assert_codec(&e, &format!("{enc:?} bit {bit}"));
            }
            assert!(
                events.is_empty(),
                "{enc:?}: bit {bit} flipped, yet {events:?}"
            );
            frame[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// Family 2: mangled valid streams never panic the raw decoder.
#[test]
fn mangled_streams_never_panic_decoder() {
    let mut rng = WireMangler::new(42);
    for round in 0..fuzz_iters() {
        let mut wire = valid_wire(&mut rng);
        for _ in 0..=rng.next_u64() % 3 {
            let how = rng.pick();
            wire = rng.mangle(&wire, how);
        }
        drive_decoder(&mut rng, &wire, &format!("mangled round {round}"));
    }
}

/// Family 2b: the full session layer over mangled wires. `StreamIn`
/// must terminate, repair unbalanced scopes, and surface only `Codec`
/// errors (truncation is absorbed into scope repair, not returned).
#[test]
fn mangled_streams_leave_sessions_balanced() {
    let mut rng = WireMangler::new(7);
    for round in 0..fuzz_iters() {
        let mut wire = valid_wire(&mut rng);
        let how = rng.pick();
        wire = rng.mangle(&wire, how);

        let mut streamin = StreamIn::new(std::io::Cursor::new(wire));
        let mut depth = 0i64;
        loop {
            match streamin.next_record() {
                Ok(Some(rec)) => match rec.kind {
                    RecordKind::OpenScope => depth += 1,
                    RecordKind::CloseScope | RecordKind::BadCloseScope => depth -= 1,
                    RecordKind::Data => {}
                },
                Ok(None) => break,
                Err(e) => {
                    assert_codec(&e, &format!("session round {round}"));
                    // After the error the session is over; the repair
                    // records the server would synthesize come from
                    // abort_repair, exactly like serve.rs does it.
                    for rec in streamin.abort_repair() {
                        assert_eq!(rec.kind, RecordKind::BadCloseScope);
                        depth -= 1;
                    }
                    break;
                }
            }
        }
        assert!(
            depth >= 0,
            "round {round}: more closes than opens escaped the tracker"
        );
        assert_eq!(depth, 0, "round {round}: unbalanced scopes after repair");
    }
}

/// The battery itself is deterministic: same seeds, same verdicts,
/// byte-for-byte identical mangled wires.
#[test]
fn fuzz_inputs_are_reproducible() {
    let make = || {
        let mut rng = WireMangler::new(1234);
        let wire = valid_wire(&mut rng);
        let how = rng.pick();
        rng.mangle(&wire, how)
    };
    assert_eq!(make(), make());
}
