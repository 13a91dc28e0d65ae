//! The operator abstraction.
//!
//! A Dynamic River pipeline is "a sequential set of operations composed
//! between a data source and its final sink" (paper §2). Each operation
//! implements [`Operator`]: it consumes records one at a time and emits
//! zero or more records into a [`Sink`]. Operators are `Send` so a
//! chain can be driven on another thread: a shard worker, a server
//! pool thread, a relocatable segment's coordinator.

use crate::error::PipelineError;
use crate::record::Record;

/// Destination for operator output.
pub trait Sink {
    /// Accepts one record.
    ///
    /// # Errors
    ///
    /// Implementations report downstream failure (e.g. a closed channel
    /// or broken connection).
    fn push(&mut self, record: Record) -> Result<(), PipelineError>;
}

impl Sink for Vec<Record> {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        Vec::push(self, record);
        Ok(())
    }
}

/// A sink that drops everything (useful as a pipeline terminator in
/// benches).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn push(&mut self, _record: Record) -> Result<(), PipelineError> {
        Ok(())
    }
}

/// A sink that counts records and payload bytes but stores nothing —
/// the natural terminator for unbounded streaming runs where the
/// output only needs accounting, not retention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Records received.
    pub records: u64,
    /// Payload bytes received.
    pub bytes: u64,
}

impl Sink for CountingSink {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        self.records += 1;
        self.bytes += record.byte_len() as u64;
        Ok(())
    }
}

/// A sink that appends into a mutex-guarded vector shared across
/// threads — the natural collector for per-session output in the
/// multi-session service layer ([`crate::serve`]), where each session's
/// sink must be `Send` and the caller wants the records afterwards.
///
/// # Example
///
/// ```
/// use dynamic_river::operator::{SharedSink, Sink};
/// use dynamic_river::record::{Payload, Record};
///
/// let sink = SharedSink::new();
/// let mut handle = sink.clone();
/// handle.push(Record::data(0, Payload::Empty)).unwrap();
/// assert_eq!(sink.take().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedSink {
    records: std::sync::Arc<std::sync::Mutex<Vec<Record>>>,
}

impl SharedSink {
    /// Creates an empty shared collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns everything collected so far.
    ///
    /// # Panics
    ///
    /// Panics if a pushing thread panicked while holding the lock.
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut self.records.lock().expect("sink lock poisoned"))
    }

    /// Number of records collected so far.
    ///
    /// # Panics
    ///
    /// Panics if a pushing thread panicked while holding the lock.
    pub fn len(&self) -> usize {
        self.records.lock().expect("sink lock poisoned").len()
    }

    /// `true` when nothing has been collected.
    ///
    /// # Panics
    ///
    /// Panics if a pushing thread panicked while holding the lock.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for SharedSink {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        self.records
            .lock()
            .map_err(|_| PipelineError::Disconnected("shared sink lock poisoned".into()))?
            .push(record);
        Ok(())
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

/// A record-stream processing operator.
///
/// # Example
///
/// ```
/// use dynamic_river::prelude::*;
///
/// /// Emits every record twice.
/// struct Duplicate;
///
/// impl Operator for Duplicate {
///     fn name(&self) -> &str {
///         "duplicate"
///     }
///     fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
///         out.push(record.clone())?;
///         out.push(record)
///     }
/// }
///
/// let mut p = Pipeline::new();
/// p.add(Duplicate);
/// let out = p.run(vec![Record::data(0, Payload::Empty)]).unwrap();
/// assert_eq!(out.len(), 2);
/// ```
pub trait Operator: Send {
    /// Human-readable operator name (used in error reports and the
    /// Figure 5 pipeline printout).
    fn name(&self) -> &str;

    /// Processes one record, emitting any number of output records.
    ///
    /// # Errors
    ///
    /// Operator-specific failures abort the pipeline run.
    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError>;

    /// Called once after the final record; operators flush buffered
    /// state here (e.g. `cutter` closing a dangling ensemble).
    ///
    /// # Errors
    ///
    /// Same contract as [`on_record`](Self::on_record).
    fn on_eos(&mut self, _out: &mut dyn Sink) -> Result<(), PipelineError> {
        Ok(())
    }

    /// Returns a boxed duplicate of this operator carrying its current
    /// state — the hook the sharded runtime uses to instantiate one
    /// chain per worker
    /// ([`Pipeline::clone_chain`](crate::pipeline::Pipeline::clone_chain)).
    ///
    /// Returns `None` (the default) for operators that cannot be
    /// duplicated — anything bound to an exclusive resource such as a
    /// socket or file handle. Chains containing such operators cannot
    /// be sharded.
    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        None
    }

    /// The operator's declared [`Signature`](crate::analyze::Signature)
    /// — its abstract transfer function over record classes, scope
    /// effect and flush behavior — used by the static chain analyzer
    /// ([`Pipeline::check`](crate::pipeline::Pipeline::check)).
    ///
    /// Returns `None` (the default) for operators without a
    /// declaration; the analyzer reports an `UnknownSignature`
    /// **warning** (never an error) and treats the operator's output as
    /// unknown from that stage on.
    fn signature(&self) -> Option<crate::analyze::Signature> {
        None
    }

    /// Hands the operator a telemetry
    /// [`EventSink`](crate::telemetry::EventSink) to report domain
    /// events through (trigger fires, cutter runs, …).
    ///
    /// Runners call this once before records flow, and only when event
    /// tracing is enabled
    /// ([`TelemetryConfig::Full`](crate::telemetry::TelemetryConfig));
    /// the default implementation ignores the sink. Operators that emit
    /// events store a clone of it.
    fn attach_events(&mut self, _events: &crate::telemetry::EventSink) {}
}

impl Operator for Box<dyn Operator> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        self.as_mut().on_record(record, out)
    }

    fn on_eos(&mut self, out: &mut dyn Sink) -> Result<(), PipelineError> {
        self.as_mut().on_eos(out)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        self.as_ref().clone_op()
    }

    fn signature(&self) -> Option<crate::analyze::Signature> {
        self.as_ref().signature()
    }

    fn attach_events(&mut self, events: &crate::telemetry::EventSink) {
        self.as_mut().attach_events(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Payload;

    struct Echo;
    impl Operator for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
            out.push(record)
        }
    }

    #[test]
    fn vec_sink_collects() {
        let mut sink: Vec<Record> = Vec::new();
        let mut op = Echo;
        op.on_record(Record::data(1, Payload::Empty), &mut sink)
            .unwrap();
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn null_sink_discards() {
        let mut op = Echo;
        let mut sink = NullSink;
        op.on_record(Record::data(1, Payload::Empty), &mut sink)
            .unwrap();
    }

    #[test]
    fn fn_sink_invokes_closure() {
        let mut count = 0usize;
        {
            let mut sink = FnSink(|_r| {
                count += 1;
                Ok(())
            });
            let mut op = Echo;
            op.on_record(Record::data(1, Payload::Empty), &mut sink)
                .unwrap();
        }
        assert_eq!(count, 1);
    }

    #[test]
    fn boxed_operator_delegates() {
        let mut boxed: Box<dyn Operator> = Box::new(Echo);
        assert_eq!(boxed.name(), "echo");
        let mut sink: Vec<Record> = Vec::new();
        boxed
            .on_record(Record::data(1, Payload::Empty), &mut sink)
            .unwrap();
        boxed.on_eos(&mut sink).unwrap();
        assert_eq!(sink.len(), 1);
    }
}
