//! # dynamic-river — a recomposable distributed stream pipeline
//!
//! A from-scratch implementation of the *Dynamic River* prototype of
//! Kasten, McKinley & Gage (DEPSA/ICDCS 2007, §2): "a distributed stream
//! processing pipeline … defined as a sequential set of operations
//! composed between a data source and its final sink. Pipeline segments
//! are created by composing sequences of operators that produce a
//! partial result important to the overall pipeline application.
//! Segments can receive and emit records using the `streamin` and
//! `streamout` operators … enabling instantiation of segments and the
//! construction of a pipeline across networked hosts. Moreover,
//! pipelines can be recomposed dynamically by moving segments among
//! hosts."
//!
//! ## Key concepts
//!
//! - [`record::Record`] — the unit of flow. Records carry `subtype`,
//!   `scope` (nesting depth) and `scope_type` header fields. Sample
//!   payloads are [`buf::SampleBuf`] views over shared `Arc<[f64]>`
//!   buffers: cloning a record or slicing a window out of one is O(1)
//!   and copies no samples (see `DESIGN.md` §10).
//! - **Scopes** — "a sequence of records that share some contextual
//!   meaning, such as having been produced from the same acoustic clip."
//!   Every scope begins with an `OpenScope` record and ends with a
//!   `CloseScope` — or a `BadCloseScope` when an upstream failure forces
//!   closure before the intended point ([`scope::ScopeTracker`]).
//! - [`operator::Operator`] — the processing trait; [`pipeline`] runs
//!   operator chains as a fused streaming chain
//!   ([`pipeline::Pipeline::run_streaming`], constant memory over
//!   unbounded streams, per-stage counters), stage-by-stage in batch,
//!   with one thread per operator, or data-parallel across worker
//!   shards ([`pipeline::Pipeline::run_sharded`]).
//! - [`shard`] — the scope-sharded runtime: a splitter that partitions
//!   the stream at top-level scope boundaries, one cloned chain per
//!   worker over bounded queues, and a deterministic ordered merge
//!   whose output is byte-identical to the single-lane driver.
//! - [`source::Source`] — pull-based record producers feeding the
//!   streaming driver: iterators, fallible closures, and chunked
//!   sample sources.
//! - [`codec`] — the CRC-32-protected wire format used by
//!   [`net::StreamOut`] / [`net::StreamIn`] across TCP: compact
//!   varint/TLV frames ([`codec::WireFormat`]) with lossless `f64` or
//!   compact `f32`/`i16` sample encodings, written by one encoder
//!   ([`codec::encode_into`]) and decoded by a push-based incremental
//!   [`codec::Decoder`] (see `DESIGN.md` §13).
//! - [`serve`] — the event-driven service layer: a
//!   [`serve::PipelineServer`] multiplexes many concurrent `streamin`
//!   connections over a readiness loop (non-blocking sockets, one
//!   supervisor thread) and a small worker pool, runs each session
//!   through its own cloned operator chain, repairs each session's
//!   scopes independently, reaps idle sessions (keepalive-aware), and
//!   reports per-session plus aggregate [`StreamStats`] (see
//!   `DESIGN.md` §17).
//! - [`segment`] — named operator chains on in-process *hosts*, with a
//!   coordinator that relocates segments between hosts at scope
//!   boundaries ([`segment::RelocatablePipeline`]).
//! - [`analyze`] — static chain verification: operators declare
//!   [`Signature`]s, [`pipeline::Pipeline::check`] walks a chain
//!   propagating abstract record classes and reports typed
//!   [`Diagnostic`]s, and every runner pre-flights the same analysis so
//!   provably broken chains are refused before any record flows (see
//!   `DESIGN.md` §15).
//! - [`telemetry`] — runtime observability: lock-free per-stage
//!   latency histograms, a bounded structured event log, and mergeable
//!   [`telemetry::Snapshot`]s exposed by every runner behind a
//!   [`telemetry::TelemetryConfig`] (see `DESIGN.md` §16).
//! - [`fault`] — fault injection used by the resilience tests.
//!
//! ## Example: a scoped pipeline
//!
//! ```
//! use dynamic_river::prelude::*;
//!
//! // Scope a little stream, double every payload value, and count.
//! let records = vec![
//!     Record::open_scope(7, vec![]),
//!     Record::data(1, Payload::f64(vec![1.0, 2.0])),
//!     Record::close_scope(7),
//! ];
//! let mut pipeline = Pipeline::new();
//! pipeline.add(MapPayload::new("double", |v: &mut [f64]| {
//!     v.iter_mut().for_each(|x| *x *= 2.0);
//! }));
//! let out = pipeline.run(records).unwrap();
//! assert_eq!(out.len(), 3);
//! assert_eq!(out[1].payload.as_f64().unwrap(), &[2.0, 4.0]);
//! ```
//!
//! ## Unsafe policy
//!
//! The crate denies `unsafe_code` and exempts one function, `fold` in
//! [`codec`]'s private `clmul` module, for one call: from code compiled
//! for the x86-64 baseline into the CRC-32 folding kernel, which is
//! compiled with `pclmulqdq` and `sse4.1` enabled. The call's one
//! precondition is that the CPU has those instructions, and it sits
//! directly behind `is_x86_feature_detected!` for both. The kernel
//! itself is safe Rust — value intrinsics only, 16-byte loads built from
//! `from_le_bytes`, no raw pointer — and [`codec::crc32`] returns the
//! same value whichever path runs. `ci.sh` counts the crate's unsafe
//! blocks and lint exemptions and fails unless there is exactly one of
//! each, so the exemption cannot quietly grow.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod buf;
pub mod codec;
pub mod error;
pub mod fault;
pub mod net;
pub mod operator;
pub mod ops;
pub mod pipeline;
pub mod record;
pub mod scope;
pub mod segment;
pub mod serve;
pub mod shard;
pub mod source;
pub mod telemetry;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::analyze::{
        CheckOptions, Diagnostic, DiagnosticKind, PayloadKind, RecordClass, ScopeEffect, Severity,
        Signature, UnmatchedPolicy,
    };
    pub use crate::buf::SampleBuf;
    pub use crate::codec::{DecodeEvent, Decoder, SampleEncoding, WireFormat};
    pub use crate::error::PipelineError;
    pub use crate::operator::{CountingSink, FnSink, NullSink, Operator, SharedSink, Sink};
    pub use crate::ops::{
        FnOp, Inspect, MapPayload, Passthrough, RecordCounter, RecordFilter, ScopeSum,
    };
    pub use crate::pipeline::{Pipeline, StageStats, StreamStats};
    pub use crate::record::{Payload, Record, RecordKind};
    pub use crate::scope::{ScopeEvent, ScopeTracker};
    pub use crate::serve::{PipelineServer, ServerHandle, ServerReport, SessionReport};
    pub use crate::shard::ShardedPipeline;
    pub use crate::source::{ChainedSource, ChunkedF64Source, FnSource, Source};
    pub use crate::telemetry::{
        EventKind, EventSeverity, EventSink, Snapshot, StageTimer, Telemetry, TelemetryConfig,
        TelemetryEvent,
    };
}

pub use analyze::{Diagnostic, PayloadKind, RecordClass, ScopeEffect, Signature, UnmatchedPolicy};
pub use buf::SampleBuf;
pub use error::PipelineError;
pub use operator::{CountingSink, Operator, Sink};
pub use pipeline::{Pipeline, StageStats, StreamStats};
pub use record::{Payload, Record, RecordKind};
pub use scope::ScopeTracker;
pub use serve::{PipelineServer, ServerHandle, ServerReport, SessionReport};
pub use shard::ShardedPipeline;
pub use source::Source;
pub use telemetry::{Snapshot, Telemetry, TelemetryConfig};
