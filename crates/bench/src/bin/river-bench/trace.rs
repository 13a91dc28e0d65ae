//! Span tracing done entirely from the benchmark's side of the API.
//!
//! A span is recorded around every call the benchmark makes into a
//! layer: [`Traced`] wraps an operator the benchmark constructed itself,
//! [`TracedSource`] wraps the record source, and the verifying sink
//! opens a `sink` span. Spans nest through a per-thread stack, so a
//! stage's span is the parent of the spans of the stages it pushed
//! into, and a span's *self time* is its duration minus the part its
//! children cover ([`self_times`]).
//!
//! Spans stay in memory ([`drain`]) and are written out once, after the
//! run ([`write_jsonl`]). Nothing here is compiled into the library:
//! untraced passes build their chains with the library's own
//! constructors and never enter this module's hot paths.

use crate::sut::{
    EventSink, Operator, PipelineError, Record, RecordKind, Signature, Sink, Source, CLIP_SCOPE,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the process, never 0.
    pub id: u64,
    /// Id of the span this one ran inside, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans of one clip share this: `lane << 32 | clips opened on that
    /// lane so far` (lane = server session id, 0 in process).
    pub clip_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Composes a span's clip identifier.
pub fn clip_id(lane: u64, clip_on_lane: u64) -> u64 {
    lane << 32 | clip_on_lane
}

/// Nanoseconds since the first call in this process — the time base of
/// every span, due time and completion time in the benchmark.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

#[derive(Default)]
struct Local {
    /// Spans opened on this thread since its last flush, finished or not.
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, outermost first.
    open: Vec<usize>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// An open span; dropping it stamps the end time. When the outermost
/// span of a thread closes, the thread's finished spans move to the
/// process-wide list — threads the benchmark does not own (the
/// server's workers) therefore need no exit hook.
pub struct SpanGuard(());

/// Opens a span on the calling thread.
pub fn enter(name: &'static str, clip_id: u64) -> SpanGuard {
    // Relaxed: the counter only has to hand out distinct numbers.
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let parent = local.open.last().map_or(0, |&i| local.spans[i].id);
        let index = local.spans.len();
        local.open.push(index);
        local.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            clip_id,
        });
    });
    SpanGuard(())
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let Some(index) = local.open.pop() else {
                return;
            };
            local.spans[index].end_ns = end_ns;
            if local.open.is_empty() {
                // A poisoned list only means another thread panicked
                // mid-append; the spans already in it are whole.
                FINISHED
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .append(&mut local.spans);
            }
        });
    }
}

/// Takes every finished span recorded so far, in no particular order.
pub fn drain() -> Vec<Span> {
    std::mem::take(
        &mut *FINISHED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// Self time of each span, parallel to `spans`: duration minus the
/// summed duration of its direct children. Children run one after the
/// other on the parent's thread, so their durations do not overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(span.parent).or_default() += span.duration_ns();
    }
    spans
        .iter()
        .map(|s| {
            s.duration_ns()
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Calls and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub calls: u64,
    pub self_ns: u64,
}

/// Per-name and per-clip sums over a set of spans.
#[derive(Debug, Default)]
pub struct Summary {
    pub by_name: HashMap<&'static str, LayerTotal>,
    /// Summed self time of operator-stage spans (every span except the
    /// source and sink ones) per clip id.
    pub stage_ns_by_clip: HashMap<u64, u64>,
}

pub const SOURCE_SPAN: &str = "source";
pub const SINK_SPAN: &str = "sink";

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        let mut summary = Summary::default();
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            let total = summary.by_name.entry(span.name).or_default();
            total.calls += 1;
            total.self_ns += self_ns;
            if span.name != SOURCE_SPAN && span.name != SINK_SPAN {
                *summary.stage_ns_by_clip.entry(span.clip_id).or_default() += self_ns;
            }
        }
        summary
    }

    pub fn total(&self, name: &str) -> LayerTotal {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// Writes spans as JSON lines, ordered by start time:
/// `{"id":…,"parent":…,"name":"…","start_ns":…,"end_ns":…,"self_ns":…,"clip_id":…}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for i in order {
        let s = &spans[i];
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"clip_id\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, selfs[i], s.clip_id
        )?;
    }
    out.flush()
}

/// Counts the clips an operator or sink has seen open on its lane, to
/// stamp its spans with a [`clip_id`]. Every stage of the measured
/// chains forwards `OpenScope(CLIP)`, so each wrapper can count for
/// itself and no state is shared between stages.
#[derive(Debug, Clone, Copy)]
pub struct ClipCounter {
    lane: u64,
    opened: u64,
}

impl ClipCounter {
    pub fn new(lane: u64) -> Self {
        ClipCounter { lane, opened: 0 }
    }

    /// Notes `record` and returns the id of the clip it belongs to.
    pub fn observe(&mut self, record: &Record) -> u64 {
        if record.kind == RecordKind::OpenScope && record.scope_type == CLIP_SCOPE {
            self.opened += 1;
        }
        clip_id(self.lane, self.opened)
    }
}

/// An operator with a span around every `on_record`. Everything else is
/// forwarded, so the chain analyzer, the sharded runtime and the server
/// see the operator they would see without the wrapper.
pub struct Traced<O> {
    inner: O,
    /// The operator's name with a `'static` lifetime, as spans store it.
    span_name: &'static str,
    clips: ClipCounter,
}

impl<O: Operator> Traced<O> {
    /// # Panics
    ///
    /// Panics if `span_name` is not the operator's own name: the span
    /// table is keyed by it.
    pub fn new(inner: O, span_name: &'static str, lane: u64) -> Self {
        assert_eq!(inner.name(), span_name, "span name must be the operator's");
        Traced {
            inner,
            span_name,
            clips: ClipCounter::new(lane),
        }
    }
}

impl<O: Operator> Operator for Traced<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        let _span = enter(self.span_name, self.clips.observe(&record));
        self.inner.on_record(record, out)
    }

    fn on_eos(&mut self, out: &mut dyn Sink) -> Result<(), PipelineError> {
        self.inner.on_eos(out)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        let inner = self.inner.clone_op()?;
        Some(Box::new(Traced {
            inner,
            span_name: self.span_name,
            clips: self.clips,
        }))
    }

    fn signature(&self) -> Option<Signature> {
        self.inner.signature()
    }

    fn attach_events(&mut self, events: &EventSink) {
        self.inner.attach_events(events);
    }
}

/// A source with a [`SOURCE_SPAN`] around every pull.
pub struct TracedSource<S>(pub S);

impl<S: Source> Source for TracedSource<S> {
    fn next_record(&mut self) -> Result<Option<Record>, PipelineError> {
        let _span = enter(SOURCE_SPAN, 0);
        self.0.next_record()
    }
}

/// Tests that record or drain spans share the process-wide list; they
/// take this lock so one cannot drain another's spans.
#[cfg(test)]
pub static TEST_SERIAL: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            clip_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100
        //   a 10..40
        //     a1 15..25
        //   b 50..90
        // lone 200..230
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 15, 25),
            span(4, 1, 50, 90),
            span(5, 0, 200, 230),
        ];
        assert_eq!(self_times(&spans), [30, 20, 10, 40, 30]);
        // Self times of a tree add up to its root's duration.
        assert_eq!(self_times(&spans)[..4].iter().sum::<u64>(), 100);
    }

    #[test]
    fn nested_guards_record_parents_and_flush_at_the_root() {
        let _serial = TEST_SERIAL.lock().unwrap();
        // Run on a thread of its own so spans another test left open on
        // this one cannot become parents; ids tell ours apart.
        let ids = std::thread::spawn(|| {
            let first = NEXT_ID.load(Ordering::Relaxed);
            {
                let _outer = enter("outer-test", 7);
                let _inner = enter("inner-test", 7);
            }
            first
        })
        .join()
        .unwrap();
        let all = FINISHED.lock().unwrap().clone();
        let outer = all
            .iter()
            .find(|s| s.name == "outer-test" && s.id >= ids)
            .expect("outer span flushed");
        let inner = all
            .iter()
            .find(|s| s.name == "inner-test" && s.id >= ids)
            .expect("inner span flushed");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(inner.clip_id, 7);
    }
}
