//! Toy operators for tests: identity, closure and per-scope-sum stages,
//! and a closure sink. The shipped operators are
//! `dynamic_river::ops::ScopeRepair` and the paper's acoustic operators
//! in `ensemble-core`.

use dynamic_river::analyze::{PayloadKind, RecordClass, ScopeEffect, Signature, UnmatchedPolicy};
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, Sink};

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
/// [`SampleBuf::make_mut`]: dynamic_river::buf::SampleBuf::make_mut
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
/// [`Pipeline::run_sharded`](dynamic_river::Pipeline::run_sharded)
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
            unmatched: UnmatchedPolicy::Keep,
            strict_payload: false,
            scope: ScopeEffect::Preserves,
            flushes_at_eos: false,
        })
    }
}

/// A sink adapter that invokes a closure per record.
pub struct FnSink<F>(pub F);

impl<F> Sink for FnSink<F>
where
    F: FnMut(Record) -> Result<(), PipelineError>,
{
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        (self.0)(record)
    }
}
