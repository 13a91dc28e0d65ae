//! Pipeline composition and execution.
//!
//! There is one execution model: the *fused step*. A record pushed into
//! the first operator flows depth-first through the whole chain into
//! the final [`Sink`] before the next record is taken, so peak
//! buffering is bounded by operator-internal state (a cutter's open
//! ensemble, a merger's group), never by stream length, and unbounded
//! streams run in constant memory. A `Lane` (crate-private) is a chain
//! being driven that way — operators, per-stage statistics, sink totals
//! — and every runner is a policy for feeding lanes:
//!
//! - [`Pipeline::run_streaming`] — one lane, fed inline from a
//!   [`Source`]; [`Pipeline::run`] collects its output.
//! - [`Pipeline::run_sharded`] ([`crate::shard`]) — N lanes on N
//!   threads, fed whole top-level scopes and merged in stream order.
//! - [`crate::serve::PipelineServer`] — one lane per network session,
//!   M sessions multiplexed over an N-thread pool.
//!
//! A segment moves between hosts without a runner of its own: the
//! upstream [`crate::net::StreamOut::redirect`]s to another server at a
//! balanced point, and that session's fresh lane takes over.
//!
//! The reference the fused step is differentially tested against
//! (stage-barrier semantics, one vector per hop) lives in the tests:
//! `stage_at_a_time` in this crate's test kit, `tests/testkit/mod.rs`.

use crate::analyze::{CheckOptions, Diagnostic};
use crate::error::PipelineError;
use crate::operator::{Operator, Sink};
use crate::record::{Record, RecordKind};
use crate::source::Source;
use crate::telemetry::{
    EventKind, EventSink, HistogramSnapshot, Snapshot, Telemetry, TelemetryConfig,
};
use std::time::Instant;

/// Nanoseconds since `started`, saturating at `u64::MAX`.
pub(crate) fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Emits `ScopeOpen`/`ScopeClose` for scope-boundary records (subject:
/// scope type). Called at the point source records enter a runner —
/// the streaming driver, the shard splitter, a server session — so
/// every runner produces the same scope-event multiset for the same
/// stream.
pub(crate) fn emit_scope_event(events: &EventSink, record: &Record) {
    match record.kind {
        RecordKind::OpenScope => events.emit(EventKind::ScopeOpen, u64::from(record.scope_type)),
        RecordKind::CloseScope | RecordKind::BadCloseScope => {
            events.emit(EventKind::ScopeClose, u64::from(record.scope_type));
        }
        RecordKind::Data => {}
    }
}

/// One stage's account of a run: the counters every runner returns and,
/// under telemetry, its latency histogram — the only per-stage ledger.
///
/// `peak_burst` is the observability hook for memory accounting: in the
/// fused driver the only buffering is operator-internal, and whatever an
/// operator holds eventually leaves as a burst of pushes during a single
/// `on_record` or `on_eos` call. A `peak_burst` that stays constant as
/// the stream grows is therefore direct evidence that the stage's
/// buffering is bounded.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Operator name, as in [`Pipeline::names`].
    pub name: String,
    /// Records that entered the stage.
    pub records_in: u64,
    /// Payload bytes that entered the stage.
    pub bytes_in: u64,
    /// Records the stage emitted.
    pub records_out: u64,
    /// Payload bytes the stage emitted.
    pub bytes_out: u64,
    /// Most records emitted while processing one input record (or
    /// during the end-of-stream flush).
    pub peak_burst: u64,
    /// Records the stage consumed without emitting any output during
    /// the same `on_record` call — unmatched-policy drops, filtered
    /// records, and the like. A buffering stage (cutter, merger) also
    /// counts here while it absorbs input; its output reappears later
    /// as a burst, so read `records_dropped` together with
    /// `records_out`.
    pub records_dropped: u64,
    current_burst: u64,
    /// Per-record self-time histogram, recorded by the one lane that
    /// owns the stage; `None` when telemetry is
    /// [`TelemetryConfig::Off`]. Excluded from equality: two stat sets
    /// that counted the same records are equal regardless of timing.
    pub latency: Option<Box<HistogramSnapshot>>,
}

impl PartialEq for StageStats {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.records_in == other.records_in
            && self.bytes_in == other.bytes_in
            && self.records_out == other.records_out
            && self.bytes_out == other.bytes_out
            && self.peak_burst == other.peak_burst
            && self.records_dropped == other.records_dropped
    }
}

impl Eq for StageStats {}

impl StageStats {
    fn new(name: String, latency: Option<Box<HistogramSnapshot>>) -> Self {
        StageStats {
            name,
            records_in: 0,
            bytes_in: 0,
            records_out: 0,
            bytes_out: 0,
            peak_burst: 0,
            records_dropped: 0,
            current_burst: 0,
            latency,
        }
    }

    fn note_in(&mut self, record: &Record) {
        self.records_in += 1;
        self.bytes_in += record.byte_len() as u64;
        self.current_burst = 0;
    }

    fn note_out(&mut self, record: &Record) {
        self.records_out += 1;
        self.bytes_out += record.byte_len() as u64;
        self.current_burst += 1;
        self.peak_burst = self.peak_burst.max(self.current_burst);
    }

    fn begin_flush(&mut self) {
        self.current_burst = 0;
    }

    /// Folds another shard's counters for the same stage into this one:
    /// record/byte/drop totals add, `peak_burst` takes the maximum
    /// (each shard buffers independently, so the whole run's bound is
    /// the worst shard's bound) and latency histograms add bucket-wise.
    pub fn merge(&mut self, other: &StageStats) {
        debug_assert_eq!(self.name, other.name, "merging stats of different stages");
        self.records_in += other.records_in;
        self.bytes_in += other.bytes_in;
        self.records_out += other.records_out;
        self.bytes_out += other.bytes_out;
        self.peak_burst = self.peak_burst.max(other.peak_burst);
        self.records_dropped += other.records_dropped;
        if let (Some(mine), Some(theirs)) = (&mut self.latency, &other.latency) {
            mine.merge(theirs);
        }
    }
}

/// Whole-run statistics returned by [`Pipeline::run_streaming`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// One entry per operator, in pipeline order.
    pub stages: Vec<StageStats>,
    /// Records pulled from the source.
    pub source_records: u64,
    /// Records that reached the final sink.
    pub sink_records: u64,
    /// Payload bytes that reached the final sink.
    pub sink_bytes: u64,
}

impl StreamStats {
    /// The largest `peak_burst` across all stages — the constant that
    /// bounds driver-visible buffering for the whole run.
    pub fn max_peak_burst(&self) -> u64 {
        self.stages.iter().map(|s| s.peak_burst).max().unwrap_or(0)
    }

    /// Aggregates another shard's run statistics into this one: stage
    /// counters merge pairwise ([`StageStats::merge`]), source and sink
    /// totals add. Every source record flows through exactly one shard,
    /// so the merged totals equal what a single-lane run would report.
    ///
    /// An empty `self` (no stages yet) adopts `other`'s stage list, so
    /// a fold can start from `StreamStats::default()`.
    pub fn merge(&mut self, other: &StreamStats) {
        if self.stages.is_empty() {
            self.stages.clone_from(&other.stages);
        } else {
            debug_assert_eq!(self.stages.len(), other.stages.len());
            for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
                mine.merge(theirs);
            }
        }
        self.source_records += other.source_records;
        self.sink_records += other.sink_records;
        self.sink_bytes += other.sink_bytes;
    }
}

#[derive(Default)]
struct SinkTotals {
    records: u64,
    bytes: u64,
}

/// Pushes `record` into the first operator of `ops`, whose output feeds
/// the next, and so on down to `final_sink` — the fused depth-first
/// step every [`Lane`] takes. A timed upstream stage passes `caller_ns`
/// and gets the nanoseconds this call took added to it, from the clock
/// reads the callee makes for its own histogram.
fn feed_chain(
    ops: &mut [Box<dyn Operator>],
    stats: &mut [StageStats],
    record: Record,
    totals: &mut SinkTotals,
    final_sink: &mut dyn Sink,
    caller_ns: Option<&mut u64>,
) -> Result<(), PipelineError> {
    match ops.split_first_mut() {
        None => {
            totals.records += 1;
            totals.bytes += record.byte_len() as u64;
            // The sink is no stage and has no histogram: it is timed
            // only so that the last stage can subtract it.
            if let Some(caller_ns) = caller_ns {
                let started = Instant::now();
                let result = final_sink.push(record);
                *caller_ns += elapsed_ns(started);
                result
            } else {
                final_sink.push(record)
            }
        }
        Some((op, rest_ops)) => {
            let (st, rest_stats) = stats.split_first_mut().expect("stats parallel ops");
            st.note_in(&record);
            let result = if st.latency.is_some() {
                // Self-time: the whole `on_record` call minus the time
                // the recursive sink spent inside downstream stages.
                let mut child_ns = 0u64;
                let started = Instant::now();
                let result = {
                    let mut sink = ChainSink {
                        ops: rest_ops,
                        stats: rest_stats,
                        emitter: st,
                        totals,
                        final_sink,
                        child_ns: Some(&mut child_ns),
                    };
                    op.on_record(record, &mut sink)
                };
                let total_ns = elapsed_ns(started);
                if let Some(latency) = st.latency.as_deref_mut() {
                    latency.record(total_ns.saturating_sub(child_ns));
                }
                if let Some(caller_ns) = caller_ns {
                    *caller_ns += total_ns;
                }
                result
            } else {
                let mut sink = ChainSink {
                    ops: rest_ops,
                    stats: rest_stats,
                    emitter: st,
                    totals,
                    final_sink,
                    child_ns: None,
                };
                op.on_record(record, &mut sink)
            };
            if result.is_ok() && st.current_burst == 0 {
                st.records_dropped += 1;
            }
            result
        }
    }
}

/// The sink handed to operator N: forwards each push into operator N+1
/// (recursively down the chain), crediting N's output counters.
struct ChainSink<'a> {
    ops: &'a mut [Box<dyn Operator>],
    stats: &'a mut [StageStats],
    emitter: &'a mut StageStats,
    totals: &'a mut SinkTotals,
    final_sink: &'a mut dyn Sink,
    /// When the emitting stage is being timed, accumulates the
    /// nanoseconds this sink spends inside downstream stages so the
    /// emitter can subtract them (self-time, not cumulative time).
    child_ns: Option<&'a mut u64>,
}

impl Sink for ChainSink<'_> {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        self.emitter.note_out(&record);
        feed_chain(
            self.ops,
            self.stats,
            record,
            self.totals,
            self.final_sink,
            self.child_ns.as_deref_mut(),
        )
    }
}

/// End-of-stream flush: each stage's `on_eos` output cascades through
/// the remainder of the chain, upstream first, so a flushed record
/// still traverses every later operator.
fn flush_chain(
    ops: &mut [Box<dyn Operator>],
    stats: &mut [StageStats],
    totals: &mut SinkTotals,
    final_sink: &mut dyn Sink,
) -> Result<(), PipelineError> {
    for i in 0..ops.len() {
        let (op, rest_ops) = ops[i..].split_first_mut().expect("index in range");
        let (st, rest_stats) = stats[i..].split_first_mut().expect("stats parallel ops");
        st.begin_flush();
        // The flushing stage's own `on_eos` cost is not timed (the
        // histogram is per-record); records it emits still flow through
        // `feed_chain`, so downstream stages are timed normally.
        let mut chain = ChainSink {
            ops: rest_ops,
            stats: rest_stats,
            emitter: st,
            totals,
            final_sink,
            child_ns: None,
        };
        op.on_eos(&mut chain)?;
    }
    Ok(())
}

/// A chain being driven: its operators, per-stage statistics, sink
/// totals and event sink — the one execution core under every
/// runner. The inline driver owns one lane, the sharded runtime one per
/// worker and the server one per session; they differ only in who calls
/// [`feed`](Self::feed) and where the sink leads.
pub(crate) struct Lane {
    ops: Vec<Box<dyn Operator>>,
    stats: Vec<StageStats>,
    totals: SinkTotals,
    events: EventSink,
}

impl Lane {
    /// Pre-flights `chain` and, once it passes, moves its operators into
    /// a new lane recording at `telemetry`'s level: each stage gets its
    /// own histogram unless telemetry is off, and operators are attached
    /// to the event ring as lane `lane_id`. A refused chain keeps its
    /// operators.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] when the static check proves
    /// the chain broken.
    pub(crate) fn new(
        chain: &mut Pipeline,
        telemetry: &Telemetry,
        lane_id: u64,
    ) -> Result<Self, PipelineError> {
        chain.preflight(false)?;
        let mut ops = std::mem::take(&mut chain.ops);
        let timed = telemetry.config().timers_enabled();
        let stats = ops
            .iter()
            .map(|op| StageStats::new(op.name().to_string(), timed.then(Box::default)))
            .collect();
        let events = telemetry.event_sink(lane_id);
        if events.enabled() {
            for op in &mut ops {
                op.attach_events(&events);
            }
        }
        Ok(Lane {
            ops,
            stats,
            totals: SinkTotals::default(),
            events,
        })
    }

    /// One fused step: `record` flows through every operator into
    /// `sink`.
    pub(crate) fn feed(
        &mut self,
        record: Record,
        sink: &mut dyn Sink,
    ) -> Result<(), PipelineError> {
        feed_chain(
            &mut self.ops,
            &mut self.stats,
            record,
            &mut self.totals,
            sink,
            None,
        )
    }

    /// [`feed`](Self::feed) for a record entering the river here (not
    /// handed over by a splitter that already announced it): emits its
    /// scope event first, so every runner produces the same scope-event
    /// multiset for the same stream.
    pub(crate) fn feed_source(
        &mut self,
        record: Record,
        sink: &mut dyn Sink,
    ) -> Result<(), PipelineError> {
        if self.events.enabled() {
            emit_scope_event(&self.events, &record);
        }
        self.feed(record, sink)
    }

    /// The inline policy: pulls `source` dry through
    /// [`feed_source`](Self::feed_source), then flushes. Returns the
    /// number of records pulled.
    fn drive(
        &mut self,
        source: &mut impl Source,
        sink: &mut dyn Sink,
    ) -> Result<u64, PipelineError> {
        let mut pulled = 0u64;
        while let Some(record) = source.next_record()? {
            pulled += 1;
            self.feed_source(record, sink)?;
        }
        self.flush(sink)?;
        Ok(pulled)
    }

    /// The lane's event sink, for a driver with events of its own to
    /// put on the same ring under the same lane id.
    pub(crate) fn events(&self) -> &EventSink {
        &self.events
    }

    /// End-of-stream: every operator's `on_eos` output cascades through
    /// the rest of the chain into `sink`.
    pub(crate) fn flush(&mut self, sink: &mut dyn Sink) -> Result<(), PipelineError> {
        flush_chain(&mut self.ops, &mut self.stats, &mut self.totals, sink)
    }

    /// Ends the lane, yielding its counters; `source_records` is what
    /// the driver fed it.
    pub(crate) fn into_stats(self, source_records: u64) -> StreamStats {
        StreamStats {
            stages: self.stats,
            source_records,
            sink_records: self.totals.records,
            sink_bytes: self.totals.bytes,
        }
    }
}

/// An ordered chain of operators.
///
/// # Example
///
/// ```
/// use dynamic_river::ops::ScopeRepair;
/// use dynamic_river::prelude::*;
///
/// let mut p = Pipeline::new();
/// p.add(ScopeRepair::new());
/// assert_eq!(p.len(), 1);
/// // The producer died inside its scope: the repair closes it.
/// let records = vec![
///     Record::open_scope(1, vec![]),
///     Record::data(0, Payload::f64(vec![1.0])),
/// ];
/// let mut sink = CountingSink::default();
/// p.run_streaming(records.into_iter(), &mut sink).unwrap();
/// assert_eq!(sink.records, 3);
/// ```
#[derive(Default)]
pub struct Pipeline {
    ops: Vec<Box<dyn Operator>>,
    telemetry: Telemetry,
    /// Every run's stage statistics since the last
    /// [`set_telemetry`](Self::set_telemetry), folded together while
    /// histograms are recorded: what
    /// [`telemetry_snapshot`](Self::telemetry_snapshot) reads.
    ledger: StreamStats,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("operators", &self.names())
            .field("telemetry", &self.telemetry.config())
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operator (builder style, non-consuming).
    pub fn add(&mut self, op: impl Operator + 'static) -> &mut Self {
        self.ops.push(Box::new(op));
        self
    }

    /// Appends every operator of `other`, in order — composes pipeline
    /// segments into longer chains without repeating their recipes.
    ///
    /// # Example
    ///
    /// ```
    /// use dynamic_river::net::StreamOut;
    /// use dynamic_river::ops::ScopeRepair;
    /// use dynamic_river::prelude::*;
    ///
    /// let mut front = Pipeline::new();
    /// front.add(ScopeRepair::new());
    /// let mut back = Pipeline::new();
    /// back.add(StreamOut::new(std::io::sink()));
    /// front.extend(back);
    /// assert_eq!(front.names(), vec!["scope-repair", "streamout"]);
    /// ```
    pub fn extend(&mut self, other: Pipeline) -> &mut Self {
        self.ops.extend(other.ops);
        self
    }

    /// Enables telemetry at `config`, starting a fresh event ring and
    /// ledger (non-consuming builder, like [`add`](Self::add)).
    ///
    /// With [`TelemetryConfig::Counters`] every stage's
    /// [`StageStats::latency`] records a histogram;
    /// [`TelemetryConfig::Full`] adds the structured event log. The
    /// default, [`TelemetryConfig::Off`], costs the hot path one
    /// `Option` branch per stage. Read results back from the returned
    /// [`StreamStats`] or, folded over every run since this call, with
    /// [`telemetry_snapshot`](Self::telemetry_snapshot).
    pub fn set_telemetry(&mut self, config: TelemetryConfig) -> &mut Self {
        self.telemetry = Telemetry::new(config);
        self.ledger = StreamStats::default();
        self
    }

    /// A clone of the pipeline's telemetry: the level and event ring a
    /// sharded run's workers record at, and the level a
    /// [`PipelineServer`](crate::serve::PipelineServer) gives each
    /// session.
    pub(crate) fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// A point-in-time [`Snapshot`] of the pipeline's telemetry: each
    /// stage's latency histogram and drop count, summed over every run
    /// since [`set_telemetry`](Self::set_telemetry), plus the retained
    /// event log.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.telemetry.snapshot(&self.ledger.stages, None)
    }

    /// Folds one run's statistics into the ledger while histograms are
    /// recorded. A chain that grew since the last run starts a fresh
    /// ledger.
    fn fold_ledger(&mut self, stats: &StreamStats) {
        if !self.telemetry.config().timers_enabled() {
            return;
        }
        if self.ledger.stages.len() != stats.stages.len() {
            self.ledger = StreamStats::default();
        }
        self.ledger.merge(stats);
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the pipeline has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operator names in order — the Figure 5 block diagram as text.
    pub fn names(&self) -> Vec<&str> {
        self.ops
            .iter()
            .map(super::operator::Operator::name)
            .collect()
    }

    /// Duplicates the whole operator chain via each operator's
    /// [`Operator::clone_op`] hook — how the sharded runtime
    /// instantiates one chain per worker and the server one per session.
    ///
    /// # Errors
    ///
    /// Returns an [`PipelineError::Operator`] error naming the first
    /// operator that does not support duplication.
    pub fn clone_chain(&self) -> Result<Pipeline, PipelineError> {
        let mut ops = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            ops.push(op.clone_op().ok_or_else(|| {
                PipelineError::operator(
                    op.name(),
                    "operator does not support duplication (clone_op returned None); \
                     chains containing it cannot be sharded",
                )
            })?);
        }
        Ok(Pipeline {
            ops,
            // Clones share the level and the event ring, not the ledger.
            telemetry: self.telemetry.clone(),
            ledger: StreamStats::default(),
        })
    }

    /// Statically verifies the chain with default options (completely
    /// unknown input), returning every finding of the analyzer —
    /// subtype/payload mismatches, dead stages, scope imbalance,
    /// shard-unsafe operators (warnings here), and unknown-signature
    /// operators (always warnings). See [`crate::analyze`] for the
    /// diagnostic catalog and DESIGN.md §15 for the model.
    ///
    /// An empty result means the chain is provably free of the
    /// mistakes the analyzer can see; errors in the result mean the
    /// chain **will** misbehave at runtime and the streaming/sharded
    /// runners will refuse to start it.
    ///
    /// # Example
    ///
    /// ```
    /// use dynamic_river::ops::ScopeRepair;
    /// use dynamic_river::prelude::*;
    ///
    /// let mut p = Pipeline::new();
    /// p.add(ScopeRepair::new());
    /// assert!(p.check().is_empty());
    /// ```
    pub fn check(&self) -> Vec<Diagnostic> {
        self.check_with(&CheckOptions::default())
    }

    /// Statically verifies the chain against explicit
    /// [`CheckOptions`]: seed the abstract input classes (e.g. "this
    /// chain receives audio records inside clip scopes") for tighter
    /// analysis than the unknown-input default, or set
    /// `sharded: true` to make non-cloneable operators errors.
    pub fn check_with(&self, opts: &CheckOptions) -> Vec<Diagnostic> {
        crate::analyze::analyze_ops(&self.ops, opts, true)
    }

    /// Pre-flight gate used by the runners: refuses chains whose
    /// analysis contains errors. `sharded` selects the sharded-run
    /// profile (clone-probing on, `ShardUnsafe` promoted to an error).
    pub(crate) fn preflight(&self, sharded: bool) -> Result<(), PipelineError> {
        let opts = CheckOptions {
            sharded,
            ..CheckOptions::default()
        };
        let diags = crate::analyze::analyze_ops(&self.ops, &opts, sharded);
        if crate::analyze::has_errors(&diags) {
            let errors: Vec<Diagnostic> = diags
                .into_iter()
                .filter(|d| d.severity == crate::analyze::Severity::Error)
                .collect();
            self.telemetry
                .event_sink(0)
                .emit(EventKind::AnalysisReject, errors.len() as u64);
            return Err(PipelineError::Analysis(errors));
        }
        Ok(())
    }

    /// Runs the pipeline as a fused streaming chain: every record
    /// pulled from `source` is pushed depth-first through all operators
    /// into `sink` before the next pull, then `on_eos` flushes cascade
    /// in stage order. Returns per-stage counters.
    ///
    /// Peak memory is the source's read-ahead plus each operator's
    /// internal state — independent of stream length, which is what
    /// lets unbounded monitoring streams flow through the Figure 5
    /// graph.
    ///
    /// The output seen by `sink` is record-for-record identical to
    /// running the stages one after another, each over the whole
    /// stream (the tests' `stage_at_a_time` reference): each operator
    /// observes the same input sequence in the same order either way,
    /// only the interleaving across operators differs.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] when the pre-flight
    /// [`check`](Self::check) proves the chain broken (naming the
    /// offending operator), otherwise the first source or operator
    /// error.
    pub fn run_streaming(
        &mut self,
        mut source: impl Source,
        sink: &mut dyn Sink,
    ) -> Result<StreamStats, PipelineError> {
        let telemetry = self.telemetry.clone();
        let mut lane = Lane::new(self, &telemetry, 0)?;
        let driven = lane.drive(&mut source, sink);
        // The pipeline keeps its operators, and whatever state they
        // hold, across runs — also when this one failed, whose counts
        // still reach the ledger.
        self.ops = std::mem::take(&mut lane.ops);
        let stats = lane.into_stats(*driven.as_ref().unwrap_or(&0));
        self.fold_ledger(&stats);
        driven.map(|_| stats)
    }

    /// Runs the pipeline data-parallel across `workers` shards: the
    /// record stream is partitioned at top-level scope boundaries (one
    /// whole `OpenScope…CloseScope` subtree per unit), each worker
    /// thread drives a [`clone_chain`](Self::clone_chain)ed copy of the
    /// operator chain over its units, and a deterministic ordered merge
    /// recombines the outputs — byte-identical to
    /// [`run_streaming`](Self::run_streaming) for scope-local chains
    /// (see [`crate::shard`] for the exact contract).
    ///
    /// The pipeline's operators are left untouched (workers run
    /// clones), so it can be reused afterwards. The shards' statistics,
    /// latency histograms included, merge into the returned
    /// [`StreamStats`] and fold into what
    /// [`telemetry_snapshot`](Self::telemetry_snapshot) reports, as
    /// [`run_streaming`](Self::run_streaming)'s do.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] when the pre-flight
    /// [`check`](Self::check) fails — including a `ShardUnsafe`
    /// diagnostic naming any operator that does not support
    /// [`Operator::clone_op`] — otherwise the first source or operator
    /// error in stream order.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn run_sharded(
        &mut self,
        source: impl Source + Send,
        sink: &mut dyn Sink,
        workers: usize,
    ) -> Result<StreamStats, PipelineError> {
        let stats = crate::shard::run(self, source, sink, workers)?;
        self.fold_ledger(&stats);
        Ok(stats)
    }

    /// Runs the pipeline over `input`, collecting the final stage's
    /// output — a thin wrapper over [`run_streaming`](Self::run_streaming).
    ///
    /// # Errors
    ///
    /// Returns the first operator error.
    pub fn run<I>(&mut self, input: I) -> Result<Vec<Record>, PipelineError>
    where
        I: IntoIterator<Item = Record>,
    {
        let mut out = Vec::new();
        self.run_streaming(input.into_iter(), &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CountingSink, NullSink};
    use crate::record::Payload;
    use crate::source::FnSource;
    use crate::testkit::{FnOp, FnSink, MapPayload, Passthrough, RecordFilter};

    fn numbered(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::data(0, Payload::f64(vec![i as f64])).with_seq(i as u64))
            .collect()
    }

    /// Holds every record until end-of-stream, then replays them — the
    /// worst case for flush ordering.
    struct Buffering {
        held: Vec<Record>,
    }
    impl Operator for Buffering {
        fn name(&self) -> &'static str {
            "buffering"
        }
        fn on_record(&mut self, record: Record, _out: &mut dyn Sink) -> Result<(), PipelineError> {
            self.held.push(record);
            Ok(())
        }
        fn on_eos(&mut self, out: &mut dyn Sink) -> Result<(), PipelineError> {
            for r in self.held.drain(..) {
                out.push(r)?;
            }
            Ok(())
        }
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut p = Pipeline::new();
        let input = numbered(5);
        assert_eq!(p.run(input.clone()).unwrap(), input);
        assert!(p.is_empty());
    }

    #[test]
    fn stages_compose_in_order() {
        let mut p = Pipeline::new();
        p.add(MapPayload::new("plus1", |v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x += 1.0);
        }));
        p.add(MapPayload::new("times2", |v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x *= 2.0);
        }));
        let out = p.run(numbered(3)).unwrap();
        // (x + 1) * 2
        assert_eq!(out[2].payload.as_f64().unwrap(), &[6.0]);
        assert_eq!(p.names(), vec!["plus1", "times2"]);
    }

    #[test]
    fn extend_composes_segments() {
        let mut front = Pipeline::new();
        front.add(MapPayload::new("plus1", |v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x += 1.0);
        }));
        let mut back = Pipeline::new();
        back.add(MapPayload::new("times2", |v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x *= 2.0);
        }));
        back.add(Passthrough);
        front.extend(back);
        assert_eq!(front.names(), vec!["plus1", "times2", "passthrough"]);
        let out = front.run(numbered(2)).unwrap();
        assert_eq!(out[1].payload.as_f64().unwrap(), &[4.0]);
    }

    #[test]
    fn sink_records_counts_filtered_output() {
        let mut p = Pipeline::new();
        p.add(RecordFilter::new("evens", |r: &Record| {
            r.seq.is_multiple_of(2)
        }));
        let stats = p
            .run_streaming(numbered(10).into_iter(), &mut NullSink)
            .unwrap();
        assert_eq!(stats.sink_records, 5);
    }

    #[test]
    fn on_eos_flushes_in_stage_order() {
        let mut p = Pipeline::new();
        p.add(Buffering { held: Vec::new() });
        p.add(Passthrough);
        let out = p.run(numbered(4)).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn operator_error_aborts_run() {
        let mut p = Pipeline::new();
        p.add(FnOp::new("explode", |r: Record, out: &mut dyn Sink| {
            if r.seq == 2 {
                Err(PipelineError::operator("explode", "boom"))
            } else {
                out.push(r)
            }
        }));
        let err = p.run(numbered(5)).unwrap_err();
        assert!(matches!(err, PipelineError::Operator { .. }));
    }

    #[test]
    fn source_error_aborts_run() {
        let mut fed = 0;
        let src = FnSource(move || {
            fed += 1;
            if fed > 3 {
                Err(PipelineError::Disconnected("sensor feed died".into()))
            } else {
                Ok(Some(Record::data(0, Payload::Empty)))
            }
        });
        let mut p = Pipeline::new();
        p.add(Passthrough);
        let mut sink = CountingSink::default();
        let err = p.run_streaming(src, &mut sink).unwrap_err();
        assert!(matches!(err, PipelineError::Disconnected(_)));
        assert_eq!(sink.records, 3); // everything before the failure flowed
    }

    #[test]
    fn stream_stats_account_for_every_record() {
        let mut p = Pipeline::new();
        p.add(FnOp::new("triple", |r: Record, out: &mut dyn Sink| {
            out.push(r.clone())?;
            out.push(r.clone())?;
            out.push(r)
        }));
        p.add(RecordFilter::new("evens", |r: &Record| {
            r.seq.is_multiple_of(2)
        }));
        let stats = p
            .run_streaming(numbered(10).into_iter(), &mut NullSink)
            .unwrap();
        assert_eq!(stats.source_records, 10);
        assert_eq!(stats.stages[0].name, "triple");
        assert_eq!(stats.stages[0].records_in, 10);
        assert_eq!(stats.stages[0].records_out, 30);
        assert_eq!(stats.stages[0].peak_burst, 3);
        assert_eq!(stats.stages[1].records_in, 30);
        assert_eq!(stats.stages[1].records_out, 15);
        assert_eq!(stats.stages[1].peak_burst, 1);
        assert_eq!(stats.sink_records, 15);
        assert_eq!(stats.max_peak_burst(), 3);
        // Each record payload is one f64.
        assert_eq!(stats.stages[0].bytes_in, 80);
        assert_eq!(stats.sink_bytes, 15 * 8);
    }

    #[test]
    fn telemetry_ledger_accumulates_runs_until_reset() {
        let mut p = Pipeline::new();
        p.add(Passthrough);
        p.add(RecordFilter::new("evens", |r: &Record| {
            r.seq.is_multiple_of(2)
        }));
        p.run(numbered(4)).unwrap();
        assert!(p.telemetry_snapshot().stages.is_empty());

        p.set_telemetry(TelemetryConfig::Counters);
        let first = p
            .run_streaming(numbered(4).into_iter(), &mut NullSink)
            .unwrap();
        assert_eq!(first.stages[1].latency.as_ref().unwrap().count, 4);
        p.run_sharded(numbered(6).into_iter(), &mut NullSink, 2)
            .unwrap();
        let snapshot = p.telemetry_snapshot();
        let names: Vec<&str> = snapshot.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["passthrough", "evens"]);
        assert_eq!(snapshot.stages[0].latency.count, 10);
        assert_eq!(snapshot.stages[1].drops, 2 + 3);

        p.set_telemetry(TelemetryConfig::Counters);
        assert!(p.telemetry_snapshot().stages.is_empty());
    }

    #[test]
    fn eos_burst_is_counted() {
        let mut p = Pipeline::new();
        p.add(Buffering { held: Vec::new() });
        let stats = p
            .run_streaming(numbered(7).into_iter(), &mut NullSink)
            .unwrap();
        // All 7 records leave in one flush burst.
        assert_eq!(stats.stages[0].peak_burst, 7);
        assert_eq!(stats.sink_records, 7);
    }

    #[test]
    fn fused_driver_interleaves_streams_without_materializing() {
        // A pipeline whose sink observes that record N arrives before
        // record N+1 is even pulled from the source — depth-first flow.
        let pulled = std::cell::Cell::new(0u64);
        let mut arrived_at_pull = Vec::new();
        {
            let mut n = 0u64;
            let src = FnSource(|| {
                n += 1;
                pulled.set(n);
                Ok((n <= 5).then(|| Record::data(0, Payload::Empty).with_seq(n)))
            });
            let mut p = Pipeline::new();
            p.add(Passthrough);
            p.add(Passthrough);
            let mut sink = FnSink(|r: Record| {
                arrived_at_pull.push((r.seq, pulled.get()));
                Ok(())
            });
            p.run_streaming(src, &mut sink).unwrap();
        }
        // Record N reaches the sink while the source has only produced N.
        assert_eq!(
            arrived_at_pull,
            vec![(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
        );
    }
}
