//! Runtime telemetry: per-stage latency histograms, structured event
//! tracing, and mergeable snapshots (`DESIGN.md` §16).
//!
//! The paper's rivers are meant to run unattended for weeks on
//! distributed hosts; `StreamStats` counters alone cannot answer *where
//! time is going* or *why a session fell behind*. This module is the
//! zero-dependency substrate every runner threads through:
//!
//! - [`StageTimer`] — lock-free per-operator wall-clock accounting.
//!   Latencies are recorded into a fixed array of 64 log2 buckets of
//!   `AtomicU64`, so sharded workers hammer the same timer without a
//!   lock and p50/p90/p99/max stay derivable after the fact.
//! - [`EventLog`] — a bounded ring buffer of [`TelemetryEvent`]s with
//!   monotonic sequence numbers.
//! - [`Telemetry`] — the cloneable registry handle runners share, and
//!   [`Snapshot`] — the mergeable, serializable view exposed by
//!   `Pipeline::telemetry_snapshot()` and friends. Histograms merge
//!   bucket-wise; events interleave by sequence number.
//!
//! Everything is gated on [`TelemetryConfig`]: `Off` keeps the hot path
//! at a single `Option` branch per stage, `Counters` turns on the
//! histograms, `Full` adds event tracing.
//!
//! ```
//! use dynamic_river::prelude::*;
//!
//! let mut pipeline = Pipeline::new();
//! pipeline.add(MapPayload::new("gain", |v: &mut [f64]| {
//!     v.iter_mut().for_each(|x| *x *= 0.5);
//! }));
//! pipeline.set_telemetry(TelemetryConfig::Counters);
//!
//! let records = vec![
//!     Record::data(0, Payload::f64(vec![2.0, 4.0])),
//!     Record::data(0, Payload::f64(vec![6.0, 8.0])),
//! ];
//! let mut out = Vec::new();
//! pipeline.run_streaming(records.into_iter(), &mut out).unwrap();
//!
//! let snapshot = pipeline.telemetry_snapshot();
//! let gain = snapshot.stages.iter().find(|s| s.name == "gain").unwrap();
//! assert_eq!(gain.latency.count, 2); // one observation per record
//! assert!(snapshot.to_json().starts_with("{\"stages\": ["));
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of log2 latency buckets in a [`StageTimer`] histogram.
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
    /// Latency histograms and drop counters only (two monotonic clock
    /// reads per stage per record, all updates lock-free atomics).
    Counters,
    /// Histograms plus structured event tracing into the [`EventLog`].
    Full,
}

impl TelemetryConfig {
    /// Whether stage timers (latency histograms) are recorded.
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

/// Lock-free per-stage accounting: a log2 latency histogram plus a
/// drop counter, updated with relaxed atomics so any number of sharded
/// workers can record into the same timer without contention.
///
/// Counts are exact once the recording threads have quiesced (joined);
/// a snapshot taken mid-flight may straddle a concurrent record.
#[derive(Debug)]
pub struct StageTimer {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    drops: AtomicU64,
}

impl StageTimer {
    /// A zeroed timer.
    pub fn new() -> Self {
        StageTimer {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            drops: AtomicU64::new(0),
        }
    }

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
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Counts a record consumed without emitting any output.
    pub fn note_drop(&self) {
        self.drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records consumed without emitting any output.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram.
    pub fn histogram(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

impl Default for StageTimer {
    fn default() -> Self {
        StageTimer::new()
    }
}

/// A frozen copy of a [`StageTimer`] histogram.
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

/// A mergeable, serializable view of a [`Telemetry`] registry.
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
        self.merge_stages(other);
        self.events.extend_from_slice(&other.events);
        self.events.sort_unstable();
        self.events_dropped += other.events_dropped;
    }

    /// Merges only the per-stage histograms and drop counters from
    /// `other`, leaving events untouched. Used when the event lists
    /// already share one ring (e.g. server sessions forked from one
    /// registry) and a full merge would double-count them.
    pub fn merge_stages(&mut self, other: &Snapshot) {
        for stage in &other.stages {
            if let Some(mine) = self.stages.iter_mut().find(|s| s.name == stage.name) {
                mine.latency.merge(&stage.latency);
                mine.drops += stage.drops;
            } else {
                self.stages.push(stage.clone());
            }
        }
    }

    /// Total records observed across all stages.
    pub fn total_records(&self) -> u64 {
        self.stages.iter().map(|s| s.latency.count).sum()
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

struct StageEntry {
    name: String,
    timer: Arc<StageTimer>,
}

/// The cloneable telemetry registry handle a runner carries.
///
/// Clones share everything (config, event log, stage timers), which is
/// how sharded workers aggregate into one set of histograms.
/// [`Telemetry::fork_stages`] instead shares the config and event log
/// but starts fresh timers — the shape server sessions need for
/// per-session accounting against a common event stream.
#[derive(Debug, Clone)]
pub struct Telemetry {
    config: TelemetryConfig,
    events: Arc<EventLog>,
    stages: Arc<Mutex<Vec<StageEntry>>>,
}

impl std::fmt::Debug for StageEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageEntry")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::off()
    }
}

impl Telemetry {
    /// A registry recording at `config` whose event ring retains at
    /// most [`DEFAULT_EVENT_CAPACITY`] events.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            events: Arc::new(EventLog::new(DEFAULT_EVENT_CAPACITY)),
            stages: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A disabled registry (the default for every runner).
    pub fn off() -> Self {
        Telemetry::new(TelemetryConfig::Off)
    }

    /// The recording level.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// An [`EventSink`] for `lane`, disabled unless the config is
    /// [`TelemetryConfig::Full`].
    pub fn event_sink(&self, lane: u64) -> EventSink {
        if self.config.events_enabled() {
            EventSink::new(Arc::clone(&self.events), lane)
        } else {
            EventSink::disabled()
        }
    }

    /// A handle sharing this registry's config and event log but with
    /// a fresh, empty stage registry — per-session accounting over a
    /// common event stream.
    pub fn fork_stages(&self) -> Telemetry {
        Telemetry {
            config: self.config,
            events: Arc::clone(&self.events),
            stages: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Registers (or re-fetches) one timer per stage name, positionally.
    ///
    /// Returns all-`None` when timers are disabled. Repeated calls with
    /// the same chain return the same timers, so repeated runs and
    /// sharded workers accumulate into one histogram per stage; calling
    /// with a *different* chain resets the mismatched suffix.
    pub fn stage_timers(&self, names: &[String]) -> Vec<Option<Arc<StageTimer>>> {
        if !self.config.timers_enabled() {
            return names.iter().map(|_| None).collect();
        }
        let mut entries = lock_ignore_poison(&self.stages);
        let matches =
            entries.len() == names.len() && entries.iter().zip(names).all(|(e, n)| e.name == *n);
        if !matches {
            let mut fresh: Vec<StageEntry> = Vec::with_capacity(names.len());
            for (i, name) in names.iter().enumerate() {
                match entries.get(i) {
                    Some(e) if e.name == *name => fresh.push(StageEntry {
                        name: e.name.clone(),
                        timer: Arc::clone(&e.timer),
                    }),
                    _ => fresh.push(StageEntry {
                        name: name.clone(),
                        timer: Arc::new(StageTimer::new()),
                    }),
                }
            }
            *entries = fresh;
        }
        entries.iter().map(|e| Some(Arc::clone(&e.timer))).collect()
    }

    /// A point-in-time [`Snapshot`] of every stage and all retained
    /// events.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            stages: self.stage_snapshots(),
            events: self.events.events(),
            events_dropped: self.events.dropped(),
        }
    }

    /// Like [`Telemetry::snapshot`] but keeping only events tagged with
    /// `lane` — the per-session view when many sessions share one log.
    pub fn snapshot_for_lane(&self, lane: u64) -> Snapshot {
        let mut snap = self.snapshot();
        snap.events.retain(|e| e.lane == lane);
        snap
    }

    fn stage_snapshots(&self) -> Vec<StageSnapshot> {
        lock_ignore_poison(&self.stages)
            .iter()
            .map(|e| StageSnapshot {
                name: e.name.clone(),
                latency: e.timer.histogram(),
                drops: e.timer.drops(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(StageTimer::bucket_index(0), 0);
        assert_eq!(StageTimer::bucket_index(1), 0);
        assert_eq!(StageTimer::bucket_index(2), 1);
        assert_eq!(StageTimer::bucket_index(3), 1);
        assert_eq!(StageTimer::bucket_index(4), 2);
        assert_eq!(StageTimer::bucket_index(1023), 9);
        assert_eq!(StageTimer::bucket_index(1024), 10);
        assert_eq!(StageTimer::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let timer = StageTimer::new();
        // 99 observations around 100ns (bucket 6: 64..=127), one
        // outlier at 1_000_000ns (bucket 19).
        for _ in 0..99 {
            timer.record(100);
        }
        timer.record(1_000_000);
        let h = timer.histogram();
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
        let a_timer = StageTimer::new();
        let b_timer = StageTimer::new();
        for ns in [10, 20, 30] {
            a_timer.record(ns);
        }
        for ns in [1000, 2000] {
            b_timer.record(ns);
        }
        let mut a = a_timer.histogram();
        let b = b_timer.histogram();
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum_ns, 3060);
        assert_eq!(a.max_ns, 2000);
        let direct = StageTimer::new();
        for ns in [10, 20, 30, 1000, 2000] {
            direct.record(ns);
        }
        assert_eq!(a, direct.histogram());
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
        assert_eq!(full.snapshot().events.len(), 1);
        assert_eq!(full.snapshot().events[0].lane, 3);
    }

    #[test]
    fn stage_timers_are_positional_and_stable() {
        let telemetry = Telemetry::new(TelemetryConfig::Counters);
        let names = vec!["a".to_string(), "b".to_string()];
        let first = telemetry.stage_timers(&names);
        let second = telemetry.stage_timers(&names);
        for (x, y) in first.iter().zip(&second) {
            let (Some(x), Some(y)) = (x, y) else {
                panic!("timers enabled")
            };
            assert!(Arc::ptr_eq(x, y));
        }
        // Off-config registries hand out no timers at all.
        let off = Telemetry::off();
        assert!(off.stage_timers(&names).iter().all(Option::is_none));
        assert!(off.snapshot().stages.is_empty());
    }

    #[test]
    fn fork_shares_events_but_not_timers() {
        let server = Telemetry::new(TelemetryConfig::Full);
        let session = server.fork_stages();
        let names = vec!["stage".to_string()];
        let t1 = server.stage_timers(&names);
        let t2 = session.stage_timers(&names);
        match (&t1[0], &t2[0]) {
            (Some(a), Some(b)) => assert!(!Arc::ptr_eq(a, b)),
            _ => panic!("timers enabled"),
        }
        session.event_sink(7).emit(EventKind::SessionDrain, 42);
        assert_eq!(server.snapshot().events.len(), 1);
        assert_eq!(session.snapshot_for_lane(7).events.len(), 1);
        assert!(session.snapshot_for_lane(8).events.is_empty());
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
        let telemetry = Telemetry::new(TelemetryConfig::Full);
        let names = vec!["spectrum".to_string()];
        let timers = telemetry.stage_timers(&names);
        if let Some(t) = &timers[0] {
            t.record(100);
            t.record(200);
        }
        telemetry.event_sink(0).emit(EventKind::ScopeOpen, 5);
        let json = telemetry.snapshot().to_json();
        assert!(json.contains("{\"stage\": \"spectrum\", \"p50_ns\": "));
        assert!(json.contains("\"p99_ns\": "));
        assert!(json.contains("\"kind\": \"scope_open\""));
        assert!(json.contains("\"events_dropped\": 0"));
        let table = telemetry.snapshot().render_table();
        assert!(table.contains("spectrum"));
        assert!(table.contains("scope_open"));
    }
}
