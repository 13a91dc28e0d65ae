//! General-purpose operators: map, filter, closures, scope sums, scope
//! repair.
//!
//! The acoustic operators of the paper (`saxanomaly`, `trigger`,
//! `cutter`, `spectrum`, …) live in the `ensemble-core` crate; these are the
//! domain-independent building blocks.

use crate::analyze::{PayloadKind, RecordClass, ScopeEffect, Signature};
use crate::error::PipelineError;
use crate::operator::{Operator, Sink};
use crate::record::{Payload, Record, RecordKind};
use crate::scope::ScopeTracker;

/// Passes every record through unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct Passthrough;

impl Operator for Passthrough {
    fn name(&self) -> &'static str {
        "passthrough"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        out.push(record)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(*self))
    }

    fn signature(&self) -> Option<Signature> {
        Some(Signature::passthrough())
    }
}

/// Applies an in-place function to the `F64` payload of data records
/// (other records pass through untouched).
///
/// The closure receives the samples as `&mut [f64]` through the
/// payload's copy-on-write view ([`SampleBuf::make_mut`]): when the
/// record is the sole owner of its buffer the mutation is in place,
/// and when the buffer is shared with other records the view is copied
/// first so no sibling observes the change.
///
/// [`SampleBuf::make_mut`]: crate::buf::SampleBuf::make_mut
#[derive(Clone)]
pub struct MapPayload<F> {
    name: String,
    f: F,
}

impl<F> MapPayload<F>
where
    F: FnMut(&mut [f64]) + Send,
{
    /// Creates a payload mapper with a display name.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        MapPayload {
            name: name.into(),
            f,
        }
    }
}

impl<F> Operator for MapPayload<F>
where
    F: FnMut(&mut [f64]) + Send + Clone + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn on_record(&mut self, mut record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.kind == RecordKind::Data {
            if let Payload::F64(v) = &mut record.payload {
                (self.f)(v.make_mut());
            }
        }
        out.push(record)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// Class-level identity: payload values change, subtypes and
    /// payload kinds do not.
    fn signature(&self) -> Option<Signature> {
        Some(Signature::passthrough())
    }
}

/// Keeps only records satisfying a predicate. Scope records always pass
/// (dropping them would corrupt scope discipline).
#[derive(Clone)]
pub struct RecordFilter<F> {
    name: String,
    predicate: F,
}

impl<F> RecordFilter<F>
where
    F: FnMut(&Record) -> bool + Send,
{
    /// Creates a filter with a display name.
    pub fn new(name: impl Into<String>, predicate: F) -> Self {
        RecordFilter {
            name: name.into(),
            predicate,
        }
    }
}

impl<F> Operator for RecordFilter<F>
where
    F: FnMut(&Record) -> bool + Send + Clone + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.is_scope_marker() || (self.predicate)(&record) {
            out.push(record)?;
        }
        Ok(())
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// The filter's output is a subset of its input; the passthrough
    /// signature over-approximates it (sound for the analyzer).
    fn signature(&self) -> Option<Signature> {
        Some(Signature::passthrough())
    }
}

/// A fully general closure operator.
#[derive(Clone)]
pub struct FnOp<F> {
    name: String,
    f: F,
}

impl<F> FnOp<F>
where
    F: FnMut(Record, &mut dyn Sink) -> Result<(), PipelineError> + Send,
{
    /// Creates an operator from a closure.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnOp {
            name: name.into(),
            f,
        }
    }
}

impl<F> Operator for FnOp<F>
where
    F: FnMut(Record, &mut dyn Sink) -> Result<(), PipelineError> + Send + Clone + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        (self.f)(record, out)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }
}

/// Per-scope aggregate summarizer: sums the `F64` payload values of
/// data records inside each **top-level** scope subtree and emits one
/// summary record (of the configured subtype, payload `[sum]`) just
/// before the subtree's closing record, then resets.
///
/// The operator is *scope-local* by construction — state resets at
/// every top-level scope boundary, records outside any scope and stray
/// closes are passed through untouched, and nothing is emitted at
/// end-of-stream — so it shards deterministically under
/// [`Pipeline::run_sharded`](crate::pipeline::Pipeline::run_sharded)
/// (it doubles as the reference scope-local stateful operator in the
/// sharded-equivalence property tests).
#[derive(Debug, Clone)]
pub struct ScopeSum {
    subtype: u16,
    depth: u32,
    sum: f64,
}

impl ScopeSum {
    /// Creates a summarizer emitting summary records of `subtype`.
    pub fn new(subtype: u16) -> Self {
        ScopeSum {
            subtype,
            depth: 0,
            sum: 0.0,
        }
    }
}

impl Operator for ScopeSum {
    fn name(&self) -> &'static str {
        "scope-sum"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        match record.kind {
            RecordKind::OpenScope => {
                if self.depth == 0 {
                    self.sum = 0.0;
                }
                self.depth += 1;
                out.push(record)
            }
            k if k.closes_scope() => {
                // Only a close that really closes an open scope counts:
                // reacting to a stray close (or to data outside any
                // scope) would make the summary depend on records
                // beyond this top-level subtree — no longer scope-local.
                if self.depth > 0 {
                    self.depth -= 1;
                    if self.depth == 0 {
                        out.push(Record::data(self.subtype, Payload::f64(vec![self.sum])))?;
                    }
                }
                out.push(record)
            }
            _ => {
                if self.depth > 0 {
                    if let Some(v) = record.payload.as_f64() {
                        self.sum += v.iter().sum::<f64>();
                    }
                }
                out.push(record)
            }
        }
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// Emission is scope-boundary-driven, not data-driven: an empty
    /// `consumes` set marks the summary class as always reachable, and
    /// every input record passes through unchanged.
    fn signature(&self) -> Option<Signature> {
        Some(Signature {
            consumes: Vec::new(),
            passes_matched: true,
            produces: vec![RecordClass::of(self.subtype, PayloadKind::F64)],
            unmatched: crate::analyze::UnmatchedPolicy::Keep,
            strict_payload: false,
            scope: ScopeEffect::Preserves,
            flushes_at_eos: false,
        })
    }
}

/// Repairs scope discipline: any scopes still open at end-of-stream are
/// closed with `BadCloseScope` records, and stray closes are dropped
/// (with their count available for inspection). Place after an
/// untrusted source.
#[derive(Debug, Clone, Default)]
pub struct ScopeRepair {
    tracker: ScopeTracker,
    dropped_closes: u64,
}

impl ScopeRepair {
    /// Creates a repair operator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of unmatched close records dropped so far.
    pub fn dropped_closes(&self) -> u64 {
        self.dropped_closes
    }
}

impl Operator for ScopeRepair {
    fn name(&self) -> &'static str {
        "scope-repair"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        match self.tracker.observe(&record) {
            Ok(_) => out.push(record),
            Err(PipelineError::ScopeViolation(_)) => {
                // Unmatched or mismatched close: drop rather than corrupt
                // downstream state.
                self.dropped_closes += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn on_eos(&mut self, out: &mut dyn Sink) -> Result<(), PipelineError> {
        for repair in self.tracker.close_all_bad() {
            out.push(repair)?;
        }
        Ok(())
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    fn signature(&self) -> Option<Signature> {
        Some(
            Signature::passthrough()
                .with_scope(ScopeEffect::Repairs)
                .with_eos_flush(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;

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
        use crate::buf::SampleBuf;
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
    fn scope_repair_closes_dangling_scopes() {
        let mut p = Pipeline::new();
        p.add(ScopeRepair::new());
        // Stream dies with two scopes open.
        let input = vec![
            Record::open_scope(1, vec![]),
            Record::open_scope(2, vec![]),
            Record::data(0, Payload::Empty),
        ];
        let out = p.run(input).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[3].kind, RecordKind::BadCloseScope);
        assert_eq!(out[3].scope_type, 2); // innermost first
        assert_eq!(out[4].scope_type, 1);
        crate::scope::validate_scopes(&out).unwrap();
    }

    #[test]
    fn scope_repair_drops_stray_closes() {
        let mut p = Pipeline::new();
        p.add(ScopeRepair::new());
        let input = vec![
            Record::close_scope(5), // stray
            Record::open_scope(1, vec![]),
            Record::close_scope(1),
        ];
        let out = p.run(input).unwrap();
        assert_eq!(out.len(), 2);
        crate::scope::validate_scopes(&out).unwrap();
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
}
