//! The test kit's own tests. They sit in the library's unit-test build,
//! next to the kit's include, and not in the kit itself, which every
//! integration test that includes it would otherwise run again.

use crate::buf::SampleBuf;
use crate::codec::{encode_into, write_eos, SampleEncoding, WireFormat};
use crate::ops::ScopeRepair;
use crate::record::{Payload, Record, RecordKind};
use crate::scope::validate_scopes;
use crate::testkit::*;
use crate::{Operator, Pipeline, PipelineError, Sink};

fn stream() -> Vec<Record> {
    let mut v = Vec::new();
    for s in 0..3 {
        v.push(Record::open_scope(1, vec![]));
        for i in 0..4 {
            v.push(Record::data(1, Payload::f64(vec![i as f64])).with_seq(s * 10 + i));
        }
        v.push(Record::close_scope(1));
    }
    v
}

#[test]
fn fail_after_aborts() {
    let mut p = Pipeline::new();
    p.add(FailAfter::new(5));
    let err = p.run(stream()).unwrap_err();
    assert!(matches!(err, PipelineError::Operator { .. }));
}

#[test]
fn fail_after_passes_when_stream_shorter() {
    let mut p = Pipeline::new();
    p.add(FailAfter::new(100));
    assert_eq!(p.run(stream()).unwrap().len(), 18);
}

#[test]
fn drop_closes_then_repair_resynchronizes() {
    let mut p = Pipeline::new();
    p.add(DropCloses::every(2)); // drops closes 2, (4), ...
    p.add(ScopeRepair::new());
    let out = p.run(stream()).unwrap();
    // Repair must leave the stream balanced.
    validate_scopes(&out).unwrap();
    // And some BadCloseScope records must exist.
    assert!(out.iter().any(|r| r.kind == RecordKind::BadCloseScope));
}

#[test]
fn truncate_then_repair() {
    let mut p = Pipeline::new();
    p.add(TruncateAfter::new(8)); // cuts inside the second scope
    p.add(ScopeRepair::new());
    let out = p.run(stream()).unwrap();
    validate_scopes(&out).unwrap();
    let bad = out
        .iter()
        .filter(|r| r.kind == RecordKind::BadCloseScope)
        .count();
    assert_eq!(bad, 1);
}

#[test]
#[should_panic(expected = "k must be non-zero")]
fn rejects_zero_k() {
    DropCloses::every(0);
}

fn wire() -> Vec<u8> {
    let mut buf = Vec::new();
    for (i, r) in stream().iter().enumerate() {
        let enc = if i % 2 == 0 {
            SampleEncoding::F64
        } else {
            SampleEncoding::F32
        };
        encode_into(r, WireFormat::V2(enc), &mut buf);
    }
    write_eos(&mut buf).unwrap();
    buf
}

#[test]
fn mangler_splits_mixed_encoding_wire_at_frame_boundaries() {
    let wire = wire();
    let frames = WireMangler::frames(&wire);
    // 18 records + the EOS sentinel.
    assert_eq!(frames.len(), 19);
    assert_eq!(frames.iter().map(Vec::len).sum::<usize>(), wire.len());
    assert_eq!(frames.last().unwrap().len(), 4);
}

#[test]
fn mangler_is_deterministic_per_seed() {
    let wire = wire();
    for how in [
        Mangle::FlipBit,
        Mangle::Truncate,
        Mangle::InsertGarbage,
        Mangle::DuplicateFrame,
        Mangle::DeleteFrame,
    ] {
        let a = WireMangler::new(42).mangle(&wire, how);
        let b = WireMangler::new(42).mangle(&wire, how);
        assert_eq!(a, b, "{how:?}");
        let c = WireMangler::new(43).mangle(&wire, how);
        assert!(a != c || how == Mangle::DeleteFrame || how == Mangle::DuplicateFrame);
    }
}

#[test]
fn whole_frame_mutations_change_frame_counts() {
    let wire = wire();
    let baseline = WireMangler::frames(&wire).len();
    let dup = WireMangler::new(7).mangle(&wire, Mangle::DuplicateFrame);
    assert_eq!(WireMangler::frames(&dup).len(), baseline + 1);
    let del = WireMangler::new(7).mangle(&wire, Mangle::DeleteFrame);
    assert_eq!(WireMangler::frames(&del).len(), baseline - 1);
}

fn scoped_stream() -> Vec<Record> {
    vec![
        Record::open_scope(1, vec![]),
        Record::data(1, Payload::f64(vec![1.0, 2.0])),
        Record::data(2, Payload::f64(vec![3.0])),
        Record::close_scope(1),
    ]
}

#[test]
fn passthrough_identity() {
    let mut p = Pipeline::new();
    p.add(Passthrough);
    let input = scoped_stream();
    let out = p.run(input.clone()).unwrap();
    assert_eq!(out, input);
}

#[test]
fn map_payload_transforms_data_only() {
    let mut p = Pipeline::new();
    p.add(MapPayload::new("negate", |v: &mut [f64]| {
        v.iter_mut().for_each(|x| *x = -*x);
    }));
    let out = p.run(scoped_stream()).unwrap();
    assert_eq!(out[1].payload.as_f64().unwrap(), &[-1.0, -2.0]);
    assert_eq!(out[0].kind, RecordKind::OpenScope); // untouched
}

#[test]
fn map_payload_copies_on_write_only_when_shared() {
    let shared = SampleBuf::from(vec![1.0, 2.0, 3.0]);
    let keep = shared.clone();
    let mut p = Pipeline::new();
    p.add(MapPayload::new("negate", |v: &mut [f64]| {
        v.iter_mut().for_each(|x| *x = -*x);
    }));
    let out = p
        .run(vec![
            Record::data(0, Payload::F64(shared)),
            Record::data(1, Payload::f64(vec![5.0])),
        ])
        .unwrap();
    // The shared buffer was copied before mutation …
    assert_eq!(&keep[..], &[1.0, 2.0, 3.0]);
    assert_eq!(out[0].payload.as_f64().unwrap(), &[-1.0, -2.0, -3.0]);
    assert!(!SampleBuf::shares_backing(
        &keep,
        out[0].payload.as_f64_buf().unwrap()
    ));
    // … while the uniquely owned one was mutated in place.
    assert_eq!(out[1].payload.as_f64().unwrap(), &[-5.0]);
}

#[test]
fn filter_preserves_scope_markers() {
    let mut p = Pipeline::new();
    p.add(RecordFilter::new("only-subtype-1", |r: &Record| {
        r.subtype == 1
    }));
    let out = p.run(scoped_stream()).unwrap();
    // Scope markers + one matching data record.
    assert_eq!(out.len(), 3);
    assert!(out.iter().any(|r| r.kind == RecordKind::OpenScope));
    assert!(out.iter().any(|r| r.kind == RecordKind::CloseScope));
    assert!(out
        .iter()
        .all(|r| r.kind != RecordKind::Data || r.subtype == 1));
}

#[test]
fn scope_sum_summarizes_top_level_scopes_only() {
    let mut p = Pipeline::new();
    p.add(ScopeSum::new(999));
    let input = vec![
        Record::data(0, Payload::f64(vec![100.0])), // outside: ignored
        Record::close_scope(5),                     // stray: ignored
        Record::open_scope(1, vec![]),
        Record::data(0, Payload::f64(vec![1.0, 2.0])),
        Record::open_scope(2, vec![]), // nested: still the same sum
        Record::data(0, Payload::f64(vec![3.0])),
        Record::close_scope(2),
        Record::close_scope(1),
    ];
    let out = p.run(input).unwrap();
    let summaries: Vec<&Record> = out.iter().filter(|r| r.subtype == 999).collect();
    assert_eq!(summaries.len(), 1);
    assert_eq!(summaries[0].payload.as_f64().unwrap(), &[6.0]);
    // Emitted just before the top-level close.
    assert_eq!(out[out.len() - 2].subtype, 999);
    assert_eq!(out.last().unwrap().kind, RecordKind::CloseScope);
}

#[test]
fn fn_op_emits_multiple() {
    let mut p = Pipeline::new();
    p.add(FnOp::new("triple", |r: Record, out: &mut dyn Sink| {
        out.push(r.clone())?;
        out.push(r.clone())?;
        out.push(r)
    }));
    let out = p.run(vec![Record::data(0, Payload::Empty)]).unwrap();
    assert_eq!(out.len(), 3);
}

#[test]
fn fn_sink_invokes_closure() {
    let mut count = 0usize;
    {
        let mut sink = FnSink(|_r| {
            count += 1;
            Ok(())
        });
        Passthrough
            .on_record(Record::data(1, Payload::Empty), &mut sink)
            .unwrap();
    }
    assert_eq!(count, 1);
}
