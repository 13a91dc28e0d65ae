//! Runtime telemetry: per-stage latency histograms, structured event
//! tracing, and mergeable snapshots (`DESIGN.md` §16).
//!
//! The paper's rivers are meant to run unattended for weeks on
//! distributed hosts; record counts alone cannot answer *where time is
//! going* or *why a session fell behind*. There is one per-stage
//! account — the lane's [`StageStats`] — and this module adds what it
//! records under [`TelemetryConfig`] and how it is read:
//!
//! - [`HistogramSnapshot`] — a stage's self-time per record in 64 log2
//!   buckets, so p50/p90/p99/max stay derivable after the fact. The one
//!   lane that owns a stage records into it with plain adds; shards and
//!   sessions fold bucket-wise when their stats merge
//!   ([`StreamStats::merge`]).
//! - [`EventLog`] — a bounded ring buffer of [`TelemetryEvent`]s with
//!   monotonic sequence numbers, shared by every lane of a run.
//! - [`Snapshot`] — the serializable view exposed by
//!   `Pipeline::telemetry_snapshot()` and the server reports: each
//!   stage's histogram and drop count, read off the stats, plus the
//!   retained events. Snapshots merge: histograms bucket-wise, events
//!   by sequence number.
//!
//! `Off` keeps the hot path at a single branch per stage, `Counters`
//! turns on the histograms, `Full` adds event tracing.
//!
//! ```
//! use dynamic_river::ops::ScopeRepair;
//! use dynamic_river::prelude::*;
//!
//! let mut pipeline = Pipeline::new();
//! pipeline.add(ScopeRepair::new());
//! pipeline.set_telemetry(TelemetryConfig::Counters);
//!
//! let records = vec![
//!     Record::data(0, Payload::f64(vec![2.0, 4.0])),
//!     Record::data(0, Payload::f64(vec![6.0, 8.0])),
//! ];
//! let mut out = Vec::new();
//! let stats = pipeline.run_streaming(records.into_iter(), &mut out).unwrap();
//! assert_eq!(stats.stages[0].latency.as_ref().unwrap().count, 2);
//!
//! let snapshot = pipeline.telemetry_snapshot();
//! let repair = snapshot.stages.iter().find(|s| s.name == "scope-repair").unwrap();
//! assert_eq!(repair.latency.count, 2); // one observation per record
//! assert!(snapshot.to_json().starts_with("{\"stages\": ["));
//! ```
//!
//! [`StageStats`]: crate::pipeline::StageStats
//! [`StreamStats::merge`]: crate::pipeline::StreamStats::merge

use crate::pipeline::StageStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of log2 latency buckets in a [`HistogramSnapshot`].
///
/// Bucket `b` covers `[2^b, 2^(b+1))` nanoseconds (bucket 0 also
/// absorbs 0 ns), so 64 buckets span every representable `u64` latency.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Default capacity of an [`EventLog`] ring buffer.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// How much telemetry a runner records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryConfig {
    /// No telemetry. The per-record cost is one `Option` branch per
    /// stage; no clocks are read and no events are buffered.
    #[default]
    Off,
    /// Latency histograms only (two monotonic clock reads per stage per
    /// record, recorded into the lane's own stage statistics).
    Counters,
    /// Histograms plus structured event tracing into the [`EventLog`].
    Full,
}

impl TelemetryConfig {
    /// Whether per-stage latency histograms are recorded.
    pub fn timers_enabled(self) -> bool {
        !matches!(self, TelemetryConfig::Off)
    }

    /// Whether structured events are recorded.
    pub fn events_enabled(self) -> bool {
        matches!(self, TelemetryConfig::Full)
    }
}

/// Severity of a [`TelemetryEvent`], a label the JSON exporter writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventSeverity {
    /// High-volume flow tracing (scope boundaries, shard units).
    Debug,
    /// Notable domain milestones (trigger fire, cutter run, sessions).
    Info,
    /// Operational pressure (backpressure stalls).
    Warn,
    /// Failures (session errors, rejected chains).
    Error,
}

impl EventSeverity {
    /// Lower-case label used by the JSON exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            EventSeverity::Debug => "debug",
            EventSeverity::Info => "info",
            EventSeverity::Warn => "warn",
            EventSeverity::Error => "error",
        }
    }
}

/// The event taxonomy: everything a river can report about itself.
///
/// Each kind has an inherent [`EventSeverity`], so no call site passes
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// An `OpenScope` record entered the chain (subject: scope type).
    ScopeOpen,
    /// A `CloseScope`/`BadCloseScope` record entered the chain
    /// (subject: scope type).
    ScopeClose,
    /// An adaptive trigger transitioned low→high (subject: record seq).
    TriggerFire,
    /// The cutter emitted an ensemble run (subject: start sample).
    CutterRun,
    /// The shard splitter finished dispatching a top-level scope unit
    /// (subject: unit number).
    ShardUnitDispatched,
    /// The shard merge drained a unit back into order (subject: unit
    /// number).
    ShardUnitMerged,
    /// A bounded queue was full and the producer began blocking
    /// (subject: runner-specific, e.g. worker or stage index).
    StallEnter,
    /// The blocked producer resumed (subject matches the enter event).
    StallExit,
    /// The server accepted a session (subject: session id).
    SessionAccept,
    /// A session drained to a clean or repaired end (subject: records
    /// received).
    SessionDrain,
    /// A session's peer sent a keepalive sentinel — dormant, not dead
    /// (subject: session id).
    SessionKeepalive,
    /// A session went silent past the server's idle timeout and was
    /// reaped with scope repair (subject: session id).
    SessionTimeout,
    /// A session ended with an error (subject: session id).
    SessionError,
    /// Static chain analysis refused a pipeline (subject: number of
    /// error diagnostics).
    AnalysisReject,
}

impl EventKind {
    /// The inherent severity of this kind of event.
    pub fn severity(self) -> EventSeverity {
        match self {
            EventKind::ScopeOpen
            | EventKind::ScopeClose
            | EventKind::ShardUnitDispatched
            | EventKind::ShardUnitMerged
            | EventKind::SessionKeepalive => EventSeverity::Debug,
            EventKind::TriggerFire
            | EventKind::CutterRun
            | EventKind::SessionAccept
            | EventKind::SessionDrain => EventSeverity::Info,
            EventKind::StallEnter | EventKind::StallExit | EventKind::SessionTimeout => {
                EventSeverity::Warn
            }
            EventKind::SessionError | EventKind::AnalysisReject => EventSeverity::Error,
        }
    }

    /// Snake-case label used by the JSON exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::ScopeOpen => "scope_open",
            EventKind::ScopeClose => "scope_close",
            EventKind::TriggerFire => "trigger_fire",
            EventKind::CutterRun => "cutter_run",
            EventKind::ShardUnitDispatched => "shard_unit_dispatched",
            EventKind::ShardUnitMerged => "shard_unit_merged",
            EventKind::StallEnter => "stall_enter",
            EventKind::StallExit => "stall_exit",
            EventKind::SessionAccept => "session_accept",
            EventKind::SessionDrain => "session_drain",
            EventKind::SessionKeepalive => "session_keepalive",
            EventKind::SessionTimeout => "session_timeout",
            EventKind::SessionError => "session_error",
            EventKind::AnalysisReject => "analysis_reject",
        }
    }
}

/// One structured telemetry event.
///
/// `Ord` is derived with `seq` as the leading field, which makes the
/// merge interleave in [`Snapshot::merge`] a total order: merging event
/// lists from any number of lanes is commutative and associative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TelemetryEvent {
    /// Monotonic sequence number, unique within one [`EventLog`].
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Which lane reported it: 0 for the driver/splitter, `1 + worker`
    /// for shard workers, the session id for server sessions.
    pub lane: u64,
    /// Kind-specific detail (scope type, unit number, record seq, …).
    pub subject: u64,
}

impl TelemetryEvent {
    /// The inherent severity of this event's kind.
    pub fn severity(&self) -> EventSeverity {
        self.kind.severity()
    }
}

struct EventRing {
    buf: VecDeque<TelemetryEvent>,
    cap: usize,
    dropped: u64,
}

/// Bounded ring buffer of [`TelemetryEvent`]s.
///
/// The ring is preallocated to capacity, so steady-state pushes never
/// allocate: once full, the oldest event is evicted and counted in
/// [`EventLog::dropped`].
pub struct EventLog {
    seq: AtomicU64,
    ring: Mutex<EventRing>,
}

fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl EventLog {
    /// Creates a log retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        EventLog {
            seq: AtomicU64::new(0),
            ring: Mutex::new(EventRing {
                buf: VecDeque::with_capacity(cap),
                cap,
                dropped: 0,
            }),
        }
    }

    /// Records an event, evicting the oldest if the ring is full.
    pub fn push(&self, kind: EventKind, lane: u64, subject: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = TelemetryEvent {
            seq,
            kind,
            lane,
            subject,
        };
        let mut ring = lock_ignore_poison(&self.ring);
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(event);
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        lock_ignore_poison(&self.ring).buf.iter().copied().collect()
    }

    /// How many events were evicted to honour the capacity bound.
    pub fn dropped(&self) -> u64 {
        lock_ignore_poison(&self.ring).dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        lock_ignore_poison(&self.ring).buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// A cheap handle operators and runners use to emit events.
///
/// A disabled sink (the default) is an `Option::None` and a dead
/// branch; an enabled one carries the shared [`EventLog`] plus the lane
/// tag stamped on every event it emits.
#[derive(Debug, Clone, Default)]
pub struct EventSink {
    log: Option<Arc<EventLog>>,
    lane: u64,
}

impl EventSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        EventSink::default()
    }

    /// A sink recording into `log`, tagging events with `lane`.
    pub fn new(log: Arc<EventLog>, lane: u64) -> Self {
        EventSink {
            log: Some(log),
            lane,
        }
    }

    /// Whether emitted events go anywhere.
    pub fn enabled(&self) -> bool {
        self.log.is_some()
    }

    /// Emits one event (no-op when disabled).
    pub fn emit(&self, kind: EventKind, subject: u64) {
        if let Some(log) = &self.log {
            log.push(kind, self.lane, subject);
        }
    }
}

/// A log2 latency histogram: one stage's per-record self-times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket `b` = `[2^b, 2^(b+1))` ns).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed latencies, for the mean.
    pub sum_ns: u64,
    /// Largest single observation.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The log2 bucket for a latency: `floor(log2(ns))`, with 0 ns
    /// folded into bucket 0.
    pub fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        }
    }

    /// Records one per-record latency observation.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Bucket-wise merge: after merging, percentiles reflect the union
    /// of both observation sets.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The latency at quantile `p` in `[0, 1]`, reported as the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(p * count)`. Returns 0 for an empty histogram; within a
    /// bucket the bound overestimates by at most 2x (log2 buckets).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return if b >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (b + 1)) - 1
                };
            }
        }
        self.max_ns
    }

    /// Median latency (see [`HistogramSnapshot::percentile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(0.50)
    }

    /// 90th-percentile latency.
    pub fn p90_ns(&self) -> u64 {
        self.percentile_ns(0.90)
    }

    /// 99th-percentile latency.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(0.99)
    }

    /// Exact mean latency (from `sum_ns`, not the buckets).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One stage's telemetry inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Operator name (as reported by `Operator::name`).
    pub name: String,
    /// Per-record self-time histogram.
    pub latency: HistogramSnapshot,
    /// Records consumed without emitting any output.
    pub drops: u64,
}

/// A mergeable, serializable view of a run's per-stage statistics and
/// its event ring.
///
/// Merging is commutative and associative: histograms add bucket-wise
/// (stages matched by name, unknown stages appended), event lists merge
/// as multisets ordered by the total `Ord` on [`TelemetryEvent`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Per-stage histograms, in chain order.
    pub stages: Vec<StageSnapshot>,
    /// Retained events, interleaved by sequence number.
    pub events: Vec<TelemetryEvent>,
    /// Events evicted from the ring to honour its capacity bound.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Merges `other` into `self`: stage histograms bucket-wise by
    /// name, events interleaved by sequence.
    pub fn merge(&mut self, other: &Snapshot) {
        for stage in &other.stages {
            if let Some(mine) = self.stages.iter_mut().find(|s| s.name == stage.name) {
                mine.latency.merge(&stage.latency);
                mine.drops += stage.drops;
            } else {
                self.stages.push(stage.clone());
            }
        }
        self.events.extend_from_slice(&other.events);
        self.events.sort_unstable();
        self.events_dropped += other.events_dropped;
    }

    /// Serializes the snapshot as a single JSON object.
    ///
    /// Each stage object leads with exactly
    /// `{"stage": "<name>", "p50_ns": N, "p99_ns": N, …}` so a grep
    /// can extract per-stage percentile lines.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"stages\": [");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"stage\": \"{}\", \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"p90_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}, \
                 \"records\": {}, \"drops\": {}}}",
                json_escape(&s.name),
                s.latency.p50_ns(),
                s.latency.p99_ns(),
                s.latency.p90_ns(),
                s.latency.max_ns,
                s.latency.mean_ns(),
                s.latency.count,
                s.drops,
            );
        }
        out.push_str("], \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"seq\": {}, \"kind\": \"{}\", \"severity\": \"{}\", \
                 \"lane\": {}, \"subject\": {}}}",
                e.seq,
                e.kind.as_str(),
                e.severity().as_str(),
                e.lane,
                e.subject,
            );
        }
        let _ = write!(out, "], \"events_dropped\": {}}}", self.events_dropped);
        out
    }

    /// Renders an aligned text table of per-stage latencies plus an
    /// event summary, for terminals and logs.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>10} {:>10} {:>12} {:>8}",
            "stage", "records", "p50_ns", "p90_ns", "p99_ns", "max_ns", "drops"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<24} {:>10} {:>10} {:>10} {:>10} {:>12} {:>8}",
                s.name,
                s.latency.count,
                s.latency.p50_ns(),
                s.latency.p90_ns(),
                s.latency.p99_ns(),
                s.latency.max_ns,
                s.drops,
            );
        }
        let _ = writeln!(
            out,
            "events: {} retained, {} dropped",
            self.events.len(),
            self.events_dropped
        );
        for e in &self.events {
            let _ = writeln!(
                out,
                "  [{:>6}] {:<22} lane={} subject={}",
                e.seq,
                e.kind.as_str(),
                e.lane,
                e.subject
            );
        }
        out
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// What a runner records beyond its stage statistics: the level, and
/// the event ring every lane of the run shares. Clones share the ring.
#[derive(Debug, Clone)]
pub(crate) struct Telemetry {
    config: TelemetryConfig,
    events: Arc<EventLog>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::Off)
    }
}

impl Telemetry {
    /// Telemetry at `config` whose event ring retains at most
    /// [`DEFAULT_EVENT_CAPACITY`] events.
    pub(crate) fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            events: Arc::new(EventLog::new(DEFAULT_EVENT_CAPACITY)),
        }
    }

    /// The recording level.
    pub(crate) fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// An [`EventSink`] for `lane`, disabled unless the config is
    /// [`TelemetryConfig::Full`].
    pub(crate) fn event_sink(&self, lane: u64) -> EventSink {
        if self.config.events_enabled() {
            EventSink::new(Arc::clone(&self.events), lane)
        } else {
            EventSink::disabled()
        }
    }

    /// A [`Snapshot`] of `stages` (those recording a histogram) and of
    /// the retained events — only `lane`'s, when one is given.
    pub(crate) fn snapshot(&self, stages: &[StageStats], lane: Option<u64>) -> Snapshot {
        let mut events = self.events.events();
        if let Some(lane) = lane {
            events.retain(|e| e.lane == lane);
        }
        Snapshot {
            stages: stages
                .iter()
                .filter_map(|s| {
                    Some(StageSnapshot {
                        name: s.name.clone(),
                        latency: s.latency.as_deref()?.clone(),
                        drops: s.records_dropped,
                    })
                })
                .collect(),
            events,
            events_dropped: self.events.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(latencies: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for &ns in latencies {
            h.record(ns);
        }
        h
    }

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(HistogramSnapshot::bucket_index(0), 0);
        assert_eq!(HistogramSnapshot::bucket_index(1), 0);
        assert_eq!(HistogramSnapshot::bucket_index(2), 1);
        assert_eq!(HistogramSnapshot::bucket_index(3), 1);
        assert_eq!(HistogramSnapshot::bucket_index(4), 2);
        assert_eq!(HistogramSnapshot::bucket_index(1023), 9);
        assert_eq!(HistogramSnapshot::bucket_index(1024), 10);
        assert_eq!(HistogramSnapshot::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        // 99 observations around 100ns (bucket 6: 64..=127), one
        // outlier at 1_000_000ns (bucket 19).
        let mut latencies = vec![100; 99];
        latencies.push(1_000_000);
        let h = histogram(&latencies);
        assert_eq!(h.count, 100);
        assert_eq!(h.p50_ns(), 127);
        assert_eq!(h.p90_ns(), 127);
        // The 100th observation is the outlier; p99 targets
        // ceil(0.99*100)=99, still inside the 100ns bucket.
        assert_eq!(h.p99_ns(), 127);
        assert_eq!(h.percentile_ns(1.0), (1u64 << 20) - 1);
        assert_eq!(h.max_ns, 1_000_000);
        assert_eq!(h.mean_ns(), (99 * 100 + 1_000_000) / 100);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p99_ns(), 0);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn histogram_merge_is_bucket_wise() {
        let mut a = histogram(&[10, 20, 30]);
        let b = histogram(&[1000, 2000]);
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum_ns, 3060);
        assert_eq!(a.max_ns, 2000);
        assert_eq!(a, histogram(&[10, 20, 30, 1000, 2000]));
    }

    #[test]
    fn event_log_bounds_and_filters() {
        let log = EventLog::new(4);
        for i in 0..6 {
            log.push(EventKind::ScopeOpen, 0, i);
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 2);
        let events = log.events();
        assert_eq!(events.first().map(|e| e.subject), Some(2));
        assert_eq!(events.last().map(|e| e.subject), Some(5));
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = EventSink::disabled();
        assert!(!sink.enabled());
        sink.emit(EventKind::SessionError, 1);
        let telemetry = Telemetry::new(TelemetryConfig::Counters);
        assert!(!telemetry.event_sink(0).enabled());
        let full = Telemetry::new(TelemetryConfig::Full);
        let sink = full.event_sink(3);
        sink.emit(EventKind::SessionAccept, 3);
        let events = full.snapshot(&[], None).events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].lane, 3);
        assert_eq!(full.snapshot(&[], Some(3)).events, events);
        assert!(full.snapshot(&[], Some(4)).events.is_empty());
    }

    #[test]
    fn snapshot_merge_interleaves_events_by_seq() {
        let log = EventLog::new(16);
        log.push(EventKind::ScopeOpen, 0, 1);
        log.push(EventKind::TriggerFire, 1, 2);
        log.push(EventKind::ScopeClose, 0, 1);
        let all = log.events();
        let a = Snapshot {
            stages: Vec::new(),
            events: vec![all[0], all[2]],
            events_dropped: 0,
        };
        let b = Snapshot {
            stages: Vec::new(),
            events: vec![all[1]],
            events_dropped: 1,
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.events, all);
        assert_eq!(ab.events_dropped, 1);
    }

    #[test]
    fn to_json_leads_stage_objects_with_percentiles() {
        let mut spectrum = crate::pipeline::Pipeline::new();
        spectrum.add(crate::testkit::MapPayload::new(
            "spectrum",
            |_: &mut [f64]| {},
        ));
        spectrum.set_telemetry(TelemetryConfig::Full);
        let records = vec![
            crate::record::Record::open_scope(5, vec![]),
            crate::record::Record::close_scope(5),
        ];
        spectrum.run(records).unwrap();
        let snapshot = spectrum.telemetry_snapshot();
        let json = snapshot.to_json();
        assert!(json.contains("{\"stage\": \"spectrum\", \"p50_ns\": "));
        assert!(json.contains("\"p99_ns\": "));
        assert!(json.contains("\"records\": 2"));
        assert!(json.contains("\"kind\": \"scope_open\""));
        assert!(json.contains("\"events_dropped\": 0"));
        let table = snapshot.render_table();
        assert!(table.contains("spectrum"));
        assert!(table.contains("scope_open"));
    }

    #[test]
    fn operations_doc_lists_every_event_kind() {
        let doc = include_str!("../../../docs/operations.md");
        let kinds = [
            EventKind::ScopeOpen,
            EventKind::ScopeClose,
            EventKind::TriggerFire,
            EventKind::CutterRun,
            EventKind::ShardUnitDispatched,
            EventKind::ShardUnitMerged,
            EventKind::StallEnter,
            EventKind::StallExit,
            EventKind::SessionAccept,
            EventKind::SessionDrain,
            EventKind::SessionKeepalive,
            EventKind::SessionTimeout,
            EventKind::SessionError,
            EventKind::AnalysisReject,
        ];
        for kind in kinds {
            let label = format!("`{}`", kind.as_str());
            assert!(doc.contains(&label), "docs/operations.md omits {label}");
        }
    }
}
