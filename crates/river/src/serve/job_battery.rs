//! Socket-free battery for the served session's job ([`run_job`]).
//!
//! A job is a function of `impl Read`, so everything a socket can do to
//! it is scripted here: reads of 1 byte … a whole burst, `WouldBlock`
//! and `Interrupted` between any two bytes, EOF or `ConnectionReset`
//! mid-frame, a peer that stalls until it is reaped, [`WireMangler`]
//! corruption, a retired `RVDR` frame, keepalives, a sink that panics.
//! The pool is scripted too: each seed draws when another job starts
//! waiting for a worker — never, from the k-th time a job asks on, or
//! always — and answers the job's contention predicate accordingly.
//! The test plays the event loop's part — hand the plane to a job, take
//! it back, hand it out again — and checks, per seed:
//!
//! - the sink holds exactly what [`Pipeline::run_streaming`] yields over
//!   the records a fresh [`RecordAssembler`] makes of the bytes
//!   delivered, plus the `BadCloseScope` repair suffix (DESIGN §12);
//! - `received`, `wire_bytes`, `keepalives` and the [`StreamEnd`] equal
//!   that assembler's, and survive a panic in the chain, as do the
//!   lane's stage counts;
//! - a job asks whether another job waits only once it has fed
//!   [`BATCH_RECORDS`], and yields with its wire live exactly when told
//!   one does — so an uncontended job yields only when its wire blocks
//!   or ends;
//! - once another job waits, a job feeds fewer than one burst's records
//!   more than the larger of [`BATCH_RECORDS`] and what it had fed when
//!   last told nobody waits: a job contended from its start stops
//!   within one burst of the bound, a lone one keeps going;
//! - a job reports a read instant exactly when it read bytes;
//! - the decode buffer never exceeds one burst plus the largest frame,
//!   however long the job keeps its worker.
//!
//! Each seed is independent of the others and a pure function of its
//! number: a failure names its seed, and `run_seed(seed)` replays it.
//! `FUZZ_ITERS` scales the number of seeds (ci.sh runs 2048).

#![allow(clippy::unwrap_used, clippy::expect_used)]
use super::tests::doubling_chain;
use super::*;
use crate::codec::{encode_into, write_eos, write_keepalive, SampleEncoding, WireFormat};
use crate::operator::SharedSink;
use crate::record::Payload;
use crate::telemetry::TelemetryConfig;
use crate::testkit::WireMangler;
use seeds::fuzz_iters;
use std::cell::{Cell, RefCell};

/// Frames at least this long are bounded per burst by their length,
/// shorter ones by their number (see [`Wire`]).
const HEAVY: usize = 128;

/// The idle limit a reap job is told expired.
const LIMIT: Duration = Duration::from_millis(250);

const ENCODINGS: [SampleEncoding; 3] = [
    SampleEncoding::F64,
    SampleEncoding::F32,
    SampleEncoding::I16,
];

/// What the scripted peer does once every byte has been delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    Eof,
    Reset,
    /// Silence (`WouldBlock` for ever): only the reaper ends it.
    Stall,
}

/// A scripted non-blocking wire.
struct Script {
    wire: Vec<u8>,
    pos: usize,
    tail: Tail,
    /// Largest read handed out; 0 draws a new size class per read.
    max_read: usize,
    /// One read in `hiccup` fails with `WouldBlock` or `Interrupted`
    /// instead of delivering (0: never).
    hiccup: u64,
    rng: WireMangler,
    /// The last read returned `WouldBlock`.
    blocked: bool,
}

impl io::Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.blocked = false;
        if self.hiccup > 0 && self.rng.next_u64().is_multiple_of(self.hiccup) {
            self.blocked = self.rng.next_u64().is_multiple_of(2);
            return Err(if self.blocked {
                io::ErrorKind::WouldBlock.into()
            } else {
                io::ErrorKind::Interrupted.into()
            });
        }
        let left = self.wire.len() - self.pos;
        if left == 0 {
            return match self.tail {
                Tail::Eof => Ok(0),
                Tail::Reset => Err(io::ErrorKind::ConnectionReset.into()),
                Tail::Stall => {
                    self.blocked = true;
                    Err(io::ErrorKind::WouldBlock.into())
                }
            };
        }
        let max = match self.max_read {
            0 => [1, 64, 4096, READ_BURST][(self.rng.next_u64() % 4) as usize],
            max => max,
        };
        let n = (self.rng.next_u64() as usize % max + 1)
            .min(left)
            .min(buf.len());
        buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A generated wire image and what the bounds need to know of it.
struct Wire {
    bytes: Vec<u8>,
    /// Frames shorter than [`HEAVY`] bytes (scope markers, empty and
    /// short payloads): few, so the feed bound counts them one by one.
    light_frames: usize,
    /// The shortest frame of at least [`HEAVY`] bytes.
    min_heavy: usize,
    max_frame: usize,
    /// No corruption was applied: every frame is one the generator made.
    clean: bool,
}

/// Builds a well-formed stream — nested scopes, every payload shape and
/// sample encoding, keepalives, stray closes, now and then a scope left
/// open or the sentinel missing — then maybe corrupts it. A `firehose`
/// wire is several bursts and several [`BATCH_RECORDS`] long.
fn build_wire(rng: &mut WireMangler, firehose: bool) -> Wire {
    let mut bytes = Vec::new();
    let (mut light_frames, mut min_heavy, mut max_frame) = (0usize, READ_BURST, 0usize);
    let mut seq = 0u64;
    let mut put = |record: Record, rng: &mut WireMangler, bytes: &mut Vec<u8>| {
        let at = bytes.len();
        let enc = ENCODINGS[(rng.next_u64() % 3) as usize];
        encode_into(&record.with_seq(seq), WireFormat::V2(enc), bytes);
        seq += 1;
        let len = bytes.len() - at;
        if len < HEAVY {
            light_frames += 1;
        } else {
            min_heavy = min_heavy.min(len);
        }
        max_frame = max_frame.max(len);
    };
    for scope in 0..=rng.next_u64() % 3 {
        let scope_type = (rng.next_u64() % 7) as u16;
        put(Record::open_scope(scope_type, vec![]), rng, &mut bytes);
        let nested = rng.next_u64().is_multiple_of(4);
        if nested {
            put(Record::open_scope(scope_type + 10, vec![]), rng, &mut bytes);
        }
        let records = if firehose {
            200 + rng.next_u64() % 400
        } else {
            rng.next_u64() % 6
        };
        for i in 0..records {
            let samples = |n: u64| -> Vec<f64> {
                (0..n)
                    .map(|k| (k + i) as f64 * 0.25 - scope as f64)
                    .collect()
            };
            let payload = match rng.next_u64() % 4 {
                _ if firehose => Payload::f64(samples(64 + rng.next_u64() % 128)),
                0 => Payload::Empty,
                1 => Payload::f64(samples(8)),
                2 => Payload::Text(format!("clip-{scope}-{i}")),
                _ => Payload::Bytes(rng.next_u64().to_le_bytes().to_vec().into()),
            };
            put(Record::data((i % 5) as u16, payload), rng, &mut bytes);
            if rng.next_u64().is_multiple_of(8) {
                write_keepalive(&mut bytes).unwrap();
            }
            if rng.next_u64().is_multiple_of(16) {
                // A close nobody opened: dropped at the boundary.
                put(Record::close_scope(99), rng, &mut bytes);
            }
        }
        if rng.next_u64().is_multiple_of(32) {
            // One frame larger than a burst.
            let n = 9_000 + rng.next_u64() % 11_000;
            let big = Payload::f64((0..n).map(|k| k as f64).collect::<Vec<f64>>());
            put(Record::data(0, big), rng, &mut bytes);
        }
        if nested && !rng.next_u64().is_multiple_of(8) {
            put(Record::close_scope(scope_type + 10), rng, &mut bytes);
        }
        put(Record::close_scope(scope_type), rng, &mut bytes);
    }
    if !rng.next_u64().is_multiple_of(8) {
        write_eos(&mut bytes).unwrap();
    }
    let mut clean = true;
    match rng.next_u64() % 8 {
        0..=2 => {
            let how = rng.pick();
            bytes = rng.mangle(&bytes, how);
            clean = false;
        }
        3 => {
            // A sender of the retired v1 format cuts in at a frame
            // boundary: the version gate must stop it.
            let frames = WireMangler::frames(&bytes);
            let at = rng.next_u64() as usize % (frames.len() + 1);
            bytes = frames[..at].concat();
            bytes.extend_from_slice(b"RVDR");
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
            bytes.extend(frames[at..].concat());
            clean = false;
        }
        4 => {
            // The peer stops mid-stream (wherever the tail then
            // strikes: EOF, reset or a stall inside a frame).
            let keep = rng.next_u64() as usize % (bytes.len() + 1);
            bytes.truncate(keep);
        }
        _ => {}
    }
    Wire {
        bytes,
        light_frames,
        min_heavy,
        max_frame,
        clean,
    }
}

/// A sink that unwinds on its `at`-th push (1-based).
struct PanicAt {
    inner: SharedSink,
    at: usize,
}

impl Sink for PanicAt {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        if self.inner.len() + 1 == self.at {
            // Unwinds like `panic!` but skips the panic hook, so 2048
            // seeds do not write 300 backtraces to the test log.
            std::panic::resume_unwind(Box::new("sink exploded"));
        }
        self.inner.push(record)
    }
}

/// What a fresh assembler makes of the bytes a session's jobs were
/// delivered: the records they must have fed (repairs included), the
/// `received` count after each, and the error the session must report.
struct Oracle {
    assembler: RecordAssembler,
    fed: Vec<Record>,
    received_after: Vec<u64>,
    error: Option<String>,
    reaped: bool,
}

/// `exhausted`: the script ran out of bytes, so its tail struck.
/// `stop_after`: the chain died on that record; nothing later was fed.
fn oracle(delivered: &[u8], exhausted: bool, tail: Tail, stop_after: Option<usize>) -> Oracle {
    let mut o = Oracle {
        assembler: RecordAssembler::new(),
        fed: Vec::new(),
        received_after: Vec::new(),
        error: None,
        reaped: false,
    };
    o.assembler.feed(delivered);
    let mut tail_struck = false;
    loop {
        if Some(o.fed.len()) == stop_after {
            return o;
        }
        match o.assembler.next_ready() {
            Ok(Some(record)) => {
                o.fed.push(record);
                o.received_after.push(o.assembler.received());
            }
            Ok(None) if o.assembler.end().is_some() => return o,
            Ok(None) => {
                assert!(
                    exhausted && !tail_struck,
                    "the session closed with its wire live and bytes undelivered"
                );
                tail_struck = true;
                match tail {
                    Tail::Eof => o.assembler.finish(),
                    Tail::Reset => o
                        .assembler
                        .fail(PipelineError::Io(io::ErrorKind::ConnectionReset.into())),
                    Tail::Stall => {
                        o.reaped = true;
                        o.error = Some(format!("idle timeout: no wire activity for {LIMIT:?}"));
                        break;
                    }
                }
            }
            Err(e) => {
                o.error = Some(e.to_string());
                break;
            }
        }
    }
    // The §12 repair suffix (a sink can blow up on a repair too).
    for repair in o.assembler.abort_repair() {
        o.fed.push(repair);
        o.received_after.push(o.assembler.received());
    }
    if let Some(n) = stop_after {
        o.fed.truncate(n);
        o.received_after.truncate(n);
    }
    o
}

/// The pool as a job sees it through its contention predicate.
struct Pool<'a> {
    /// The check (counted over the whole session) from which another
    /// job is waiting: `None` never, `Some(0)` always.
    busy_from: Option<u64>,
    checks: Cell<u64>,
    /// The current job's answers, each with the records it had fed
    /// when it asked.
    answers: RefCell<Vec<(bool, usize)>>,
    out: &'a SharedSink,
    /// The sink's length when the current job started.
    out_before: Cell<usize>,
}

impl Pool<'_> {
    fn contended(&self) -> bool {
        let n = self.checks.get();
        self.checks.set(n + 1);
        let busy = self.busy_from.is_some_and(|k| n >= k);
        let fed = self.out.len() - self.out_before.get();
        self.answers.borrow_mut().push((busy, fed));
        busy
    }
}

/// Everything observable about one seed's session — compared whole by
/// the replay test — plus which paths it took.
#[derive(Debug, PartialEq)]
struct Verdict {
    sink: Vec<Record>,
    end: StreamEnd,
    received: u64,
    wire_bytes: u64,
    keepalives: u64,
    error: Option<String>,
    jobs: usize,
    /// Jobs that gave their worker back at the fairness bound, wire
    /// live, because another job waited.
    capped: usize,
    /// Times a job past the bound was told nobody waits and kept
    /// reading.
    kept: usize,
    reaped: bool,
    panicked: bool,
}

/// Plays one seed's session to its end, checking every property in the
/// module docs on the way.
fn run_seed(seed: u64) -> Verdict {
    let mut rng = WireMangler::new(0x10B5 ^ seed.wrapping_mul(0x9E37_79B9));
    let firehose = rng.next_u64().is_multiple_of(8);
    let wire = build_wire(&mut rng, firehose);
    let tail = [Tail::Eof, Tail::Reset, Tail::Stall][(rng.next_u64() % 3) as usize];
    // One-byte reads of a megabyte prove nothing a short wire does not.
    let sizes: &[usize] = if firehose {
        &[4096, READ_BURST, 0]
    } else {
        &[1, 64, 4096, READ_BURST, 0]
    };
    let mut script = Script {
        wire: wire.bytes,
        pos: 0,
        tail,
        max_read: sizes[rng.next_u64() as usize % sizes.len()],
        hiccup: [0, 4, 16][(rng.next_u64() % 3) as usize],
        rng: WireMangler::new(rng.next_u64()),
        blocked: false,
    };
    let panic_at = rng
        .next_u64()
        .is_multiple_of(6)
        .then(|| 1 + rng.next_u64() as usize % 20);
    let busy_from = match rng.next_u64() % 3 {
        0 => None,
        1 => Some(0),
        _ => Some(1 + rng.next_u64() % 4),
    };

    let telemetry = Telemetry::new(TelemetryConfig::Full);
    let out = SharedSink::new();
    let sink: SessionSink = match panic_at {
        Some(at) => Box::new(PanicAt {
            inner: out.clone(),
            at,
        }),
        None => Box::new(out.clone()),
    };
    let mut plane = Box::new(Plane {
        wire: &mut script,
        assembler: RecordAssembler::new(),
        lane: Lane::new(&mut doubling_chain(), &telemetry, 1).unwrap(),
        sink,
    });

    // What one burst can complete (one more light frame if the mangler
    // duplicated one).
    let burst_records = READ_BURST / wire.min_heavy + wire.light_frames + 1;
    let pool = Pool {
        busy_from,
        checks: Cell::new(0),
        answers: RefCell::new(Vec::new()),
        out: &out,
        out_before: Cell::new(0),
    };
    let mut jobs = 0usize;
    let (mut capped, mut kept) = (0, 0);
    let mut reap = None;
    let ended = loop {
        jobs += 1;
        let (pos_before, out_before) = (plane.wire.pos, out.len());
        pool.out_before.set(out_before);
        let outcome = run_job(plane, reap, &|| pool.contended());
        let answers = pool.answers.take();
        let fed = out.len() - out_before;
        assert!(
            answers.iter().all(|&(_, at)| at >= BATCH_RECORDS),
            "seed {seed}: job {jobs} asked before the bound: {answers:?}"
        );
        let busy = answers.iter().position(|&(busy, _)| busy);
        assert!(
            busy.is_none_or(|i| i + 1 == answers.len()),
            "seed {seed}: job {jobs} kept its worker after a job waited: {answers:?}"
        );
        // Holds for a closing job too: its repairs close scopes whose
        // markers `burst_records` counts.
        let quiet = answers
            .iter()
            .rev()
            .find(|&&(busy, _)| !busy)
            .map_or(0, |&(_, at)| at);
        assert!(
            fed < BATCH_RECORDS.max(quiet) + burst_records,
            "seed {seed}: job {jobs} fed {fed} records, last told nobody waits at {quiet}"
        );
        capped += usize::from(busy.is_some());
        kept += answers.iter().filter(|&&(busy, _)| !busy).count();
        match outcome {
            Outcome::Closed(ended) => {
                assert!(
                    busy.is_none(),
                    "seed {seed}: job {jobs} ran on past a waiting job"
                );
                break ended;
            }
            Outcome::Resident {
                plane: back,
                last_read,
            } => {
                plane = back;
                assert!(reap.is_none(), "seed {seed}: a reap job must close");
                assert_eq!(
                    !plane.wire.blocked,
                    busy.is_some(),
                    "seed {seed}: job {jobs} yielded after {fed} records; wire live vs a job waiting"
                );
                assert_eq!(
                    last_read.is_some(),
                    plane.wire.pos > pos_before,
                    "seed {seed}: job {jobs} read instant vs bytes read"
                );
                assert_eq!(plane.assembler.wire_bytes(), plane.wire.pos as u64);
                if wire.clean {
                    let high = plane.assembler.buffer_high_water();
                    assert!(
                        high <= READ_BURST + wire.max_frame,
                        "seed {seed}: decode buffer reached {high} bytes"
                    );
                }
                // The loop's part: a stalled peer is reaped.
                if plane.wire.pos == plane.wire.wire.len() && tail == Tail::Stall {
                    reap = Some(LIMIT);
                }
            }
        }
    };

    let delivered = &script.wire[..script.pos];
    let exhausted = script.pos == script.wire.len();
    let sink = out.take();
    let panicked = ended
        .error
        .as_deref()
        .is_some_and(|e| e.contains("panicked"));
    let o = oracle(delivered, exhausted, tail, panic_at.filter(|_| panicked));
    let mut expected = Vec::new();
    doubling_chain()
        .run_streaming(o.fed.iter().cloned(), &mut expected)
        .unwrap();
    assert_eq!(ended.wire_bytes, delivered.len() as u64, "seed {seed}");
    if panicked {
        // The record that blew up the sink was pulled, so it counts,
        // in the assembler and in the lane's statistics alike.
        let at = panic_at.unwrap();
        assert_eq!(o.fed.len(), at, "seed {seed}: panicked early");
        assert_eq!(sink, expected[..at - 1], "seed {seed}");
        assert_eq!(ended.received, o.received_after[at - 1], "seed {seed}");
        assert_eq!(ended.stats.source_records, ended.received, "seed {seed}");
        assert_eq!(ended.stats.stages[0].records_in, at as u64, "seed {seed}");
        assert_eq!(
            ended.error.as_deref(),
            Some("session panicked: sink exploded")
        );
    } else {
        assert!(panic_at.is_none_or(|at| at > expected.len()), "seed {seed}");
        assert_eq!(sink, expected, "seed {seed}");
        assert_eq!(ended.error, o.error, "seed {seed}");
        assert_eq!(ended.received, o.assembler.received(), "seed {seed}");
        assert_eq!(ended.keepalives, o.assembler.keepalives(), "seed {seed}");
        assert_eq!(Some(ended.end), o.assembler.end(), "seed {seed}");
        assert_eq!(ended.stats.source_records, ended.received, "seed {seed}");
        assert_eq!(ended.stats.sink_records, sink.len() as u64, "seed {seed}");
        crate::scope::validate_scopes(&sink).unwrap();
        if !firehose {
            // One event per keepalive, numbered in wire order (a
            // firehose's scope events would crowd them off the ring).
            let pings: Vec<u64> = telemetry
                .snapshot(&[], None)
                .events
                .iter()
                .filter(|e| e.kind == EventKind::SessionKeepalive)
                .map(|e| e.subject)
                .collect();
            let numbered: Vec<u64> = (1..=ended.keepalives).collect();
            assert_eq!(pings, numbered, "seed {seed}");
        }
    }
    Verdict {
        sink,
        end: ended.end,
        received: ended.received,
        wire_bytes: ended.wire_bytes,
        keepalives: ended.keepalives,
        error: ended.error,
        jobs,
        capped,
        kept,
        reaped: o.reaped,
        panicked,
    }
}

#[test]
fn served_equals_single_lane_over_the_bytes_delivered() {
    let verdicts: Vec<Verdict> = (0..fuzz_iters()).map(run_seed).collect();
    // The battery is only worth its name if the seeds reach the paths
    // it claims to cover; the tally lands in the log under --nocapture.
    let reached = |what: &str, hit: &dyn Fn(&Verdict) -> bool| {
        let n = verdicts.iter().filter(|v| hit(v)).count();
        println!(
            "serve-job battery: {n:>5} of {} seeds: {what}",
            verdicts.len()
        );
        assert!(n > 0, "no seed reached: {what}");
    };
    let error_has =
        |v: &Verdict, needle: &str| v.error.as_deref().is_some_and(|e| e.contains(needle));
    reached("a clean end", &|v| {
        v.end == StreamEnd::Clean && v.error.is_none()
    });
    reached("a disconnect repaired in stream", &|v| {
        matches!(
            v.end,
            StreamEnd::Unclean {
                repaired_scopes: 1..
            }
        ) && v.error.is_none()
    });
    reached("the fairness bound (under contention)", &|v| v.capped > 0);
    reached("a lone firehose past the bound", &|v| v.kept > 0);
    reached("an idle reap", &|v| v.reaped);
    reached("a panicking sink", &|v| v.panicked);
    reached("a CRC mismatch", &|v| error_has(v, "crc"));
    reached("the version gate", &|v| error_has(v, "version 1"));
    reached("a connection reset", &|v| error_has(v, "reset"));
    reached("keepalives", &|v| v.keepalives > 0);
}

#[test]
fn a_seed_replays_exactly() {
    for seed in [0, 1, 7, 42, 255, 2047, 0xDEAD_BEEF] {
        assert_eq!(run_seed(seed), run_seed(seed), "seed {seed}");
    }
}
