//! Scope-sharded data-parallel pipeline execution.
//!
//! The fused streaming driver ([`Pipeline::run_streaming`]) is
//! single-lane: one core drives every record depth-first through the
//! chain. Archive workloads — thousands of clips flowing through the
//! Figure 5 graph — are embarrassingly parallel *across* clips, and the
//! paper's scope discipline is exactly the boundary that makes
//! splitting them safe:
//! "a data stream scope \[is\] a sequence of records that share some
//! contextual meaning, such as having been produced from the same
//! acoustic clip" (paper §2).
//!
//! [`Pipeline::run_sharded`] turns that discipline into a sharding key:
//!
//! 1. **Splitter** — pulls records from the [`Source`], tracking scope
//!    state with [`ScopeTracker`] semantics. A *unit* is a maximal
//!    top-level scope subtree: everything from an `OpenScope` at depth
//!    0 to the close that returns the stream to depth 0, or a single
//!    record that arrives outside any scope. Units are assigned to
//!    workers round-robin (unit *k* → worker *k* mod *N*), so an
//!    ensemble's or clip's records are never interleaved across
//!    shards.
//! 2. **Workers** — *N* threads, each driving its own clone of the
//!    operator chain ([`Pipeline::clone_chain`]) over a bounded input
//!    queue. A full queue blocks the splitter — backpressure, not
//!    buffering — so peak memory per shard is the same constant as the
//!    single-lane driver's.
//! 3. **Merge** — because unit *k* lives on worker *k* mod *N* and each
//!    worker emits its units in ascending order, draining the worker
//!    output queues round-robin reproduces the single-lane output order
//!    exactly, with no reordering buffer at all. End-of-stream flushes
//!    (`on_eos`) are emitted after every unit, in worker order.
//!
//! # Determinism contract
//!
//! Output is **byte-identical** to [`Pipeline::run_streaming`] when the
//! chain is *scope-local*: every operator's observable state resets at
//! top-level scope boundaries (equivalently: running two balanced
//! top-level subtrees through one chain equals running each through a
//! fresh chain), and `on_eos` emits nothing after balanced input. The
//! Figure 5 operators satisfy this — `saxanomaly`, `trigger`, `cutter`,
//! `cutout` and `rec2vect` all reset at each clip's `OpenScope` —
//! as do stateless operators trivially. Operators with cross-scope
//! state (a global deduplicator, say) still run, but each shard sees
//! only its own units.
//!
//! Errors are also deterministic: the merge visits units in stream
//! order, so the error returned is the one a single-lane run would have
//! hit first, and the records delivered to the sink before it are the
//! same.
//!
//! # Telemetry
//!
//! Each worker's lane records its stages' latency histograms at the
//! pipeline's level ([`Pipeline::set_telemetry`]) into its own
//! [`StreamStats`], and the merge folds them bucket-wise with the
//! counters, so the returned stats — and [`Pipeline::telemetry_snapshot`]
//! after the run — hold a single-lane run's totals. Events go to the
//! pipeline's one ring, tagged with each worker's lane (`1 + worker
//! index`); the splitter and merge use lane 0.
//!
//! # Example
//!
//! ```
//! use dynamic_river::ops::ScopeRepair;
//! use dynamic_river::prelude::*;
//!
//! // Two clips, each a top-level scope.
//! let mut records = Vec::new();
//! for clip in 0..2 {
//!     records.push(Record::open_scope(7, vec![]));
//!     records.push(Record::data(0, Payload::f64(vec![clip as f64])));
//!     records.push(Record::close_scope(7));
//! }
//! let mut p = Pipeline::new();
//! p.add(ScopeRepair::new());
//! let mut single = Vec::new();
//! p.run_streaming(records.clone().into_iter(), &mut single).unwrap();
//! let mut sharded = Vec::new();
//! p.run_sharded(records.into_iter(), &mut sharded, 2).unwrap();
//! assert_eq!(single, sharded);
//! ```
//!
//! [`Pipeline::run_streaming`]: crate::pipeline::Pipeline::run_streaming
//! [`Pipeline::run_sharded`]: crate::pipeline::Pipeline::run_sharded
//! [`Pipeline::set_telemetry`]: crate::pipeline::Pipeline::set_telemetry
//! [`Pipeline::telemetry_snapshot`]: crate::pipeline::Pipeline::telemetry_snapshot

// Library code in this module must surface failures as errors, never
// panics; unwraps are confined to the test module below.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::PipelineError;
use crate::operator::Sink;
use crate::pipeline::{emit_scope_event, Lane, Pipeline, StreamStats};
use crate::record::Record;
use crate::scope::ScopeTracker;
use crate::source::Source;
use crate::telemetry::{EventKind, EventSink};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread;

/// Capacity, in records, of each splitter→worker and worker→merge
/// queue.
const QUEUE_CAPACITY: usize = 256;

/// Item flowing from the splitter to a worker.
enum ShardIn {
    /// One record of the worker's current unit.
    Rec(Record),
    /// The worker's current unit is complete.
    UnitEnd,
    /// The run is aborting (source error or a failed sibling): skip the
    /// end-of-stream flush and report statistics immediately.
    Abort,
}

/// Item flowing from a worker to the merge.
enum ShardOut {
    /// An output record of the worker's current unit.
    Rec(Record),
    /// The worker's current unit produced all its output.
    UnitEnd,
    /// The worker received end-of-stream; flush output follows.
    Eos,
    /// The worker finished; its per-shard statistics.
    Done(Box<StreamStats>),
    /// The worker's chain failed.
    Failed(PipelineError),
}

/// Forwards chain output into the worker's output queue.
struct WorkerSink<'a> {
    tx: &'a SyncSender<ShardOut>,
}

impl Sink for WorkerSink<'_> {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        self.tx
            .send(ShardOut::Rec(record))
            .map_err(|_| PipelineError::Disconnected("shard merge gone".into()))
    }
}

/// The sharded runtime behind [`Pipeline::run_sharded`]: splits
/// `source` into top-level-scope units, fans them out to `workers`
/// clones of `pipeline`'s chain, and merges the output into `sink` in
/// deterministic stream order. Returns the aggregated per-stage
/// statistics ([`StreamStats::merge`]); `max_peak_burst` is the worst
/// single shard's burst, so a constant bound per shard stays a constant
/// bound for the run.
pub(crate) fn run(
    pipeline: &Pipeline,
    source: impl Source + Send,
    sink: &mut dyn Sink,
    workers: usize,
) -> Result<StreamStats, PipelineError> {
    assert!(workers > 0, "workers must be non-zero");
    // Pre-flight: a chain the analyzer can prove broken — including any
    // operator without `clone_op` support — is refused here, with the
    // offending operator named, instead of failing at shard-spawn or
    // mid-stream.
    pipeline.preflight(true)?;
    let telemetry = pipeline.telemetry();
    let mut lanes = Vec::with_capacity(workers);
    for w in 0..workers {
        let mut chain = pipeline.clone_chain()?;
        lanes.push(Lane::new(&mut chain, &telemetry, w as u64 + 1)?);
    }
    thread::scope(|scope| {
        let mut in_txs = Vec::with_capacity(workers);
        let mut out_rxs = Vec::with_capacity(workers);
        for lane in lanes {
            let (in_tx, in_rx) = sync_channel::<ShardIn>(QUEUE_CAPACITY);
            let (out_tx, out_rx) = sync_channel::<ShardOut>(QUEUE_CAPACITY);
            scope.spawn(move || run_worker(lane, &in_rx, &out_tx));
            in_txs.push(in_tx);
            out_rxs.push(out_rx);
        }
        let splitter_events = telemetry.event_sink(0);
        let splitter = scope.spawn(move || run_splitter(source, &in_txs, &splitter_events));
        let merge_events = telemetry.event_sink(0);
        let merged = run_merge(&out_rxs, sink, &merge_events);
        // The merge consumed every worker's Done/Failed (or errored and
        // dropped the receivers), so the splitter has either finished or
        // will fail its next send; join cannot hang.
        drop(out_rxs);
        let (source_records, source_error) = match splitter.join() {
            Ok(result) => result,
            // The splitter only panics on a bug; re-raise it intact.
            Err(panic) => std::panic::resume_unwind(panic),
        };
        let mut stats = merged?;
        if let Some(e) = source_error {
            return Err(e);
        }
        stats.source_records = source_records;
        Ok(stats)
    })
}

/// Sends into a worker queue, surfacing backpressure as telemetry:
/// when event tracing is on and the queue is full, `StallEnter`/
/// `StallExit` bracket the blocking send (subject: the worker index).
/// Returns `false` when the worker is gone.
fn send_in(tx: &SyncSender<ShardIn>, msg: ShardIn, events: &EventSink, shard: u64) -> bool {
    if !events.enabled() {
        return tx.send(msg).is_ok();
    }
    match tx.try_send(msg) {
        Ok(()) => true,
        Err(TrySendError::Full(msg)) => {
            events.emit(EventKind::StallEnter, shard);
            let ok = tx.send(msg).is_ok();
            events.emit(EventKind::StallExit, shard);
            ok
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// Splitter: pulls the source, carves the stream into top-level-scope
/// units, and deals them round-robin. Returns the pull count and any
/// source error.
fn run_splitter(
    mut source: impl Source,
    txs: &[SyncSender<ShardIn>],
    events: &EventSink,
) -> (u64, Option<PipelineError>) {
    let workers = txs.len() as u64;
    let mut tracker = ScopeTracker::new();
    let mut unit = 0u64;
    let mut unit_open = false;
    let mut pulled = 0u64;
    loop {
        match source.next_record() {
            Ok(Some(record)) => {
                pulled += 1;
                // Scope-aware unit tracking. A violation (stray close at
                // depth 0) leaves the tracker balanced, so the record
                // simply stands as its own unit — the splitter never
                // rejects a stream the single-lane driver would accept.
                let _ = tracker.observe(&record);
                if events.enabled() {
                    // Scope events are emitted where source records
                    // enter the run — here, as the single-lane driver
                    // does in `run_streaming` — so the event multiset
                    // matches across runners.
                    emit_scope_event(events, &record);
                }
                let shard = (unit % workers) as usize;
                if !send_in(&txs[shard], ShardIn::Rec(record), events, shard as u64) {
                    // The worker failed; its error reaches the caller
                    // through the merge. Stop feeding everyone.
                    abort_all(txs);
                    return (pulled, None);
                }
                unit_open = true;
                if tracker.is_balanced() {
                    if !send_in(&txs[shard], ShardIn::UnitEnd, events, shard as u64) {
                        abort_all(txs);
                        return (pulled, None);
                    }
                    events.emit(EventKind::ShardUnitDispatched, unit);
                    unit += 1;
                    unit_open = false;
                }
            }
            Ok(None) => {
                if unit_open {
                    // Unbalanced tail (upstream died mid-scope): it is
                    // the final unit; the owning worker's scope-repair
                    // and `on_eos` flush handle it exactly as the
                    // single-lane driver would at its end of stream.
                    let shard = (unit % workers) as usize;
                    let _ = send_in(&txs[shard], ShardIn::UnitEnd, events, shard as u64);
                    events.emit(EventKind::ShardUnitDispatched, unit);
                }
                // Dropping the senders signals end-of-stream: workers
                // flush and report.
                return (pulled, None);
            }
            Err(e) => {
                // Source failure: like the single-lane driver, no
                // end-of-stream flush happens.
                abort_all(txs);
                return (pulled, Some(e));
            }
        }
    }
}

fn abort_all(txs: &[SyncSender<ShardIn>]) {
    for tx in txs {
        let _ = tx.send(ShardIn::Abort);
    }
}

/// Worker: drives one lane over its shard of the stream, echoing unit
/// boundaries so the merge can interleave outputs.
fn run_worker(mut lane: Lane, rx: &Receiver<ShardIn>, tx: &SyncSender<ShardOut>) {
    let mut sink = WorkerSink { tx };
    let mut received = 0u64;
    let mut aborted = false;
    loop {
        match rx.recv() {
            Ok(ShardIn::Rec(record)) => {
                received += 1;
                // Plain `feed`: the splitter announced the scope event.
                if let Err(e) = lane.feed(record, &mut sink) {
                    let _ = tx.send(ShardOut::Failed(e));
                    return;
                }
            }
            Ok(ShardIn::UnitEnd) => {
                if tx.send(ShardOut::UnitEnd).is_err() {
                    return;
                }
            }
            Ok(ShardIn::Abort) => {
                aborted = true;
                break;
            }
            Err(_) => break, // splitter done: end of stream
        }
    }
    if !aborted {
        if tx.send(ShardOut::Eos).is_err() {
            return;
        }
        if let Err(e) = lane.flush(&mut sink) {
            let _ = tx.send(ShardOut::Failed(e));
            return;
        }
    }
    let _ = tx.send(ShardOut::Done(Box::new(lane.into_stats(received))));
}

/// Merge: drains worker outputs in unit order (round-robin over the
/// per-worker queues — assignment and queue order make that exactly the
/// single-lane output order), then emits end-of-stream flushes in
/// worker order, then folds the per-shard statistics.
fn run_merge(
    rxs: &[Receiver<ShardOut>],
    sink: &mut dyn Sink,
    events: &EventSink,
) -> Result<StreamStats, PipelineError> {
    let workers = rxs.len() as u64;
    let mut merged = StreamStats::default();
    let mut done = vec![false; rxs.len()];
    let mut sink_records = 0u64;
    let mut sink_bytes = 0u64;
    let mut unit = 0u64;
    // Phase 1: unit-ordered output. When the worker that would own the
    // next unit reports end-of-stream instead, no later unit exists
    // anywhere (round-robin assignment), so the phase is over.
    'units: loop {
        let w = (unit % workers) as usize;
        loop {
            match rxs[w].recv() {
                Ok(ShardOut::Rec(r)) => {
                    sink_records += 1;
                    sink_bytes += r.byte_len() as u64;
                    sink.push(r)?;
                }
                Ok(ShardOut::UnitEnd) => {
                    events.emit(EventKind::ShardUnitMerged, unit);
                    unit += 1;
                    continue 'units;
                }
                // Err(_): worker vanished without a report; phase 2's
                // drain settles what it managed to produce.
                Ok(ShardOut::Eos) | Err(_) => break 'units,
                Ok(ShardOut::Done(stats)) => {
                    merged.merge(&stats);
                    done[w] = true;
                    break 'units;
                }
                Ok(ShardOut::Failed(e)) => return Err(e),
            }
        }
    }
    // Phase 2: `on_eos` flush output, in worker order. For scope-local
    // chains only the worker holding the final (possibly unbalanced)
    // unit emits anything here, which lands exactly where the
    // single-lane flush would.
    for (w, rx) in rxs.iter().enumerate() {
        if done[w] {
            continue;
        }
        loop {
            match rx.recv() {
                Ok(ShardOut::Rec(r)) => {
                    sink_records += 1;
                    sink_bytes += r.byte_len() as u64;
                    sink.push(r)?;
                }
                Ok(ShardOut::UnitEnd | ShardOut::Eos) => {}
                Ok(ShardOut::Done(stats)) => {
                    merged.merge(&stats);
                    break;
                }
                Ok(ShardOut::Failed(e)) => return Err(e),
                Err(_) => break,
            }
        }
    }
    // The merge is the authority on what reached the final sink.
    merged.sink_records = sink_records;
    merged.sink_bytes = sink_bytes;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::operator::{CountingSink, NullSink, Operator};
    use crate::ops::ScopeRepair;
    use crate::record::{Payload, RecordKind};
    use crate::source::FnSource;
    use crate::testkit::{FailAfter, MapPayload, Passthrough, RecordFilter, ScopeSum};

    /// `clips` top-level scopes with `per_clip` data records each.
    fn clip_stream(clips: usize, per_clip: usize) -> Vec<Record> {
        let mut v = Vec::new();
        let mut seq = 0u64;
        for c in 0..clips {
            v.push(Record::open_scope(1, vec![]));
            for i in 0..per_clip {
                v.push(Record::data(0, Payload::f64(vec![(c * 100 + i) as f64])).with_seq(seq));
                seq += 1;
            }
            v.push(Record::close_scope(1));
        }
        v
    }

    fn stateful_pipeline() -> Pipeline {
        let mut p = Pipeline::new();
        p.add(MapPayload::new("plus1", |v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x += 1.0);
        }));
        p.add(ScopeSum::new(999));
        p.add(RecordFilter::new("drop-odd-seq", |r: &Record| {
            r.seq.is_multiple_of(2) || r.subtype == 999
        }));
        p
    }

    #[test]
    fn sharded_matches_streaming_for_all_worker_counts() {
        let input = clip_stream(13, 5);
        let mut single = Vec::new();
        stateful_pipeline()
            .run_streaming(input.clone().into_iter(), &mut single)
            .unwrap();
        for workers in 1..=6 {
            let mut sharded = Vec::new();
            let stats = stateful_pipeline()
                .run_sharded(input.clone().into_iter(), &mut sharded, workers)
                .unwrap();
            assert_eq!(single, sharded, "workers={workers}");
            assert_eq!(stats.source_records as usize, input.len());
            assert_eq!(stats.sink_records as usize, sharded.len());
        }
    }

    #[test]
    fn skewed_unit_sizes_still_merge_in_order() {
        // Unit 0 is huge, the rest are tiny: fast workers finish far
        // ahead, and the merge must still interleave exactly.
        let mut input = Vec::new();
        input.push(Record::open_scope(1, vec![]));
        for i in 0..500u64 {
            input.push(Record::data(0, Payload::f64(vec![i as f64])).with_seq(i));
        }
        input.push(Record::close_scope(1));
        input.extend(clip_stream(20, 1));
        let mut single = Vec::new();
        stateful_pipeline()
            .run_streaming(input.clone().into_iter(), &mut single)
            .unwrap();
        let mut sharded = Vec::new();
        stateful_pipeline()
            .run_sharded(input.into_iter(), &mut sharded, 4)
            .unwrap();
        assert_eq!(single, sharded);
    }

    #[test]
    fn unscoped_records_and_stray_closes_are_standalone_units() {
        let mut input = vec![
            Record::data(0, Payload::f64(vec![1.0])).with_seq(0),
            Record::close_scope(9), // stray: its own unit
            Record::data(0, Payload::f64(vec![2.0])).with_seq(2),
        ];
        input.extend(clip_stream(3, 2));
        let build = || {
            let mut p = Pipeline::new();
            p.add(ScopeRepair::new());
            p.add(ScopeSum::new(999));
            p
        };
        let mut single = Vec::new();
        build()
            .run_streaming(input.clone().into_iter(), &mut single)
            .unwrap();
        for workers in [1, 2, 3, 5] {
            let mut sharded = Vec::new();
            build()
                .run_sharded(input.clone().into_iter(), &mut sharded, workers)
                .unwrap();
            assert_eq!(single, sharded, "workers={workers}");
        }
    }

    #[test]
    fn unbalanced_tail_flushes_at_stream_end() {
        // The last scope never closes: the owning worker's ScopeRepair
        // must emit the BadCloseScope at the very end of the merged
        // stream, exactly like the single-lane flush.
        let mut input = clip_stream(7, 3);
        input.push(Record::open_scope(2, vec![]));
        input.push(Record::data(0, Payload::f64(vec![9.0])));
        let build = || {
            let mut p = Pipeline::new();
            p.add(ScopeRepair::new());
            p
        };
        let mut single = Vec::new();
        build()
            .run_streaming(input.clone().into_iter(), &mut single)
            .unwrap();
        assert_eq!(single.last().unwrap().kind, RecordKind::BadCloseScope);
        for workers in [2, 4] {
            let mut sharded = Vec::new();
            build()
                .run_sharded(input.clone().into_iter(), &mut sharded, workers)
                .unwrap();
            assert_eq!(single, sharded, "workers={workers}");
        }
    }

    #[test]
    fn more_workers_than_units() {
        let input = clip_stream(2, 3);
        let mut single = Vec::new();
        stateful_pipeline()
            .run_streaming(input.clone().into_iter(), &mut single)
            .unwrap();
        let mut sharded = Vec::new();
        stateful_pipeline()
            .run_sharded(input.into_iter(), &mut sharded, 8)
            .unwrap();
        assert_eq!(single, sharded);
    }

    #[test]
    fn empty_stream() {
        let mut sink = CountingSink::default();
        let stats = stateful_pipeline()
            .run_sharded(std::iter::empty(), &mut sink, 3)
            .unwrap();
        assert_eq!(stats.source_records, 0);
        assert_eq!(stats.sink_records, 0);
        assert_eq!(sink.records, 0);
    }

    #[test]
    fn empty_chain_is_identity() {
        let input = clip_stream(5, 2);
        let mut out = Vec::new();
        Pipeline::new()
            .run_sharded(input.clone().into_iter(), &mut out, 3)
            .unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn stats_merge_accounts_for_every_record() {
        let input = clip_stream(10, 4);
        let single_stats = stateful_pipeline()
            .run_streaming(input.clone().into_iter(), &mut NullSink)
            .unwrap();
        let sharded_stats = stateful_pipeline()
            .run_sharded(input.into_iter(), &mut NullSink, 3)
            .unwrap();
        assert_eq!(sharded_stats.source_records, single_stats.source_records);
        assert_eq!(sharded_stats.sink_records, single_stats.sink_records);
        assert_eq!(sharded_stats.sink_bytes, single_stats.sink_bytes);
        for (a, b) in sharded_stats.stages.iter().zip(&single_stats.stages) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.records_in, b.records_in, "stage {}", a.name);
            assert_eq!(a.records_out, b.records_out, "stage {}", a.name);
            assert_eq!(a.bytes_out, b.bytes_out, "stage {}", a.name);
            // Per-shard peaks never exceed the single-lane peak for
            // scope-local chains (each shard sees a subset of units).
            assert!(a.peak_burst <= b.peak_burst.max(1), "stage {}", a.name);
        }
    }

    #[test]
    fn operator_error_is_deterministic_and_stream_ordered() {
        // FailAfter(n) inside each worker fires at a worker-local
        // count; run against a single worker it reproduces the
        // single-lane abort exactly.
        let input = clip_stream(6, 4);
        let build = || {
            let mut p = Pipeline::new();
            p.add(FailAfter::new(9));
            p
        };
        let mut single = Vec::new();
        let single_err = build()
            .run_streaming(input.clone().into_iter(), &mut single)
            .unwrap_err();
        let mut sharded = Vec::new();
        let sharded_err = build()
            .run_sharded(input.into_iter(), &mut sharded, 1)
            .unwrap_err();
        assert_eq!(single, sharded);
        assert_eq!(single_err.to_string(), sharded_err.to_string());
    }

    #[test]
    fn operator_error_with_many_workers_aborts() {
        let input = clip_stream(8, 3);
        let mut p = Pipeline::new();
        p.add(FailAfter::new(2));
        let err = p
            .run_sharded(input.into_iter(), &mut NullSink, 4)
            .unwrap_err();
        assert!(matches!(err, PipelineError::Operator { .. }));
    }

    #[test]
    fn source_error_propagates_without_flush() {
        let mut n = 0u64;
        let src = FnSource(move || {
            n += 1;
            if n > 5 {
                Err(PipelineError::Disconnected("sensor feed died".into()))
            } else {
                Ok(Some(Record::data(0, Payload::f64(vec![n as f64]))))
            }
        });
        let mut p = Pipeline::new();
        p.add(Passthrough);
        let mut sink = CountingSink::default();
        let err = p.run_sharded(src, &mut sink, 3).unwrap_err();
        assert!(matches!(err, PipelineError::Disconnected(_)));
        // Everything before the failure flowed, like the single-lane
        // driver.
        assert_eq!(sink.records, 5);
    }

    #[test]
    fn non_cloneable_operator_is_rejected() {
        struct Opaque;
        impl Operator for Opaque {
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn on_record(
                &mut self,
                record: Record,
                out: &mut dyn Sink,
            ) -> Result<(), PipelineError> {
                out.push(record)
            }
        }
        let mut p = Pipeline::new();
        p.add(Opaque);
        let err = p
            .run_sharded(clip_stream(2, 2).into_iter(), &mut NullSink, 2)
            .unwrap_err();
        // Pre-flight analysis refuses the chain before any shard
        // spawns, with a ShardUnsafe diagnostic naming the operator.
        let PipelineError::Analysis(diags) = &err else {
            panic!("expected an analysis error, got {err}");
        };
        assert!(diags.iter().any(|d| {
            d.kind == crate::analyze::DiagnosticKind::ShardUnsafe && d.operator == "opaque"
        }));
        assert!(err.to_string().contains("opaque"));
    }

    #[test]
    fn units_longer_than_the_queues_match_single_lane() {
        // Each unit outgrows both queues: while the merge drains one
        // worker, the others fill their output queues, block, and let
        // their input queues fill behind them — backpressure on every
        // hop, and the output is still the single-lane run's.
        let input = clip_stream(9, 3 * QUEUE_CAPACITY);
        let mut single = Vec::new();
        stateful_pipeline()
            .run_streaming(input.clone().into_iter(), &mut single)
            .unwrap();
        let mut sharded = Vec::new();
        stateful_pipeline()
            .run_sharded(input.into_iter(), &mut sharded, 3)
            .unwrap();
        assert_eq!(single, sharded);
    }

    #[test]
    #[should_panic(expected = "workers must be non-zero")]
    fn zero_workers_panics() {
        let _ = Pipeline::new().run_sharded(std::iter::empty(), &mut NullSink, 0);
    }
}
