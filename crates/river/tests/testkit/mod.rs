//! The test kit: everything `dynamic-river`'s tests, `ensemble-core`'s
//! streaming tests and the facade's integration tests need that the
//! library does not ship — fault injectors, toy operators, a one-shot
//! `streamin` host and the stage-at-a-time reference the fused driver
//! is differentially tested against.
//!
//! One copy, written against `dynamic_river::` paths, compiles in every
//! test binary that needs it: as the library's own `#[cfg(test)]`
//! module (the crate root names itself `dynamic_river`) and as a
//! `#[path]` module in each integration test. Its self-tests live
//! beside the library's include, so they run once.
//!
//! A test builds its chain once as a `Vec<Box<dyn Operator>>`; the same
//! constructor feeds [`stage_at_a_time`] and, through [`pipeline`], the
//! `Pipeline` under test (`Box<dyn Operator>` is itself an `Operator`).

// Each test binary uses part of the kit.
#![allow(dead_code, unused_imports)]

mod fault;
mod ops;

pub use fault::{DropCloses, FailAfter, Mangle, TruncateAfter, WireMangler};
pub use ops::{FnOp, FnSink, MapPayload, Passthrough, RecordFilter, ScopeSum};

use dynamic_river::net::{StreamEnd, StreamIn};
use dynamic_river::{Operator, Pipeline, PipelineError, Record, Sink};
use std::net::TcpListener;

/// Runs `stages` one after another with a barrier between them:
/// operator N processes the *entire* stream, its `on_eos` flush
/// included, before operator N+1 sees a record. Each stage's
/// `on_record` and `on_eos` are called directly, so there is no
/// pre-flight check: a broken chain shows what it really does.
///
/// Memory scales with stream length × stage count, so this is for
/// clip-sized inputs only.
///
/// # Errors
///
/// Returns the first operator error.
pub fn stage_at_a_time(
    stages: Vec<Box<dyn Operator>>,
    input: impl IntoIterator<Item = Record>,
) -> Result<Vec<Record>, PipelineError> {
    let mut records: Vec<Record> = input.into_iter().collect();
    for mut op in stages {
        let mut next = Vec::with_capacity(records.len());
        for r in records {
            op.on_record(r, &mut next)?;
        }
        op.on_eos(&mut next)?;
        records = next;
    }
    Ok(records)
}

/// The `Pipeline` of `stages`, in order.
pub fn pipeline(stages: Vec<Box<dyn Operator>>) -> Pipeline {
    let mut p = Pipeline::new();
    for op in stages {
        p.add(op);
    }
    p
}

/// Serves exactly one upstream connection: accepts on `listener`,
/// pumps all records into `sink`, and reports how the session ended
/// together with the number of records received.
///
/// # Errors
///
/// Propagates accept/read failures.
pub fn serve_once(
    listener: &TcpListener,
    sink: &mut dyn Sink,
) -> Result<(StreamEnd, u64), PipelineError> {
    let (stream, _peer) = listener.accept()?;
    stream.set_nodelay(true)?;
    let mut streamin = StreamIn::new(stream);
    let end = streamin.pump(sink)?;
    Ok((end, streamin.received()))
}
