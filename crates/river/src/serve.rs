//! Event-driven pipeline service: many concurrent `streamin`
//! connections multiplexed onto a small worker pool by one
//! readiness-driven event loop.
//!
//! The paper's pipelines are explicitly distributed — "segments can
//! receive and emit records using the `streamin` and `streamout`
//! operators … enabling instantiation of segments and the construction
//! of a pipeline across networked hosts" (§2) — and an archive-scale
//! deployment has many *mostly idle* sensors pushing clip streams at
//! one analysis host. [`PipelineServer`] is that host's service loop,
//! built readiness-first (DESIGN.md §17) so a session costs a socket
//! and a decode buffer rather than a parked thread:
//!
//! 1. **One event loop, N workers.** A single supervisor thread owns
//!    the listener and waits for readability with `poll(2)` (via the
//!    offline `polling` shim). A session whose socket turns readable is
//!    handed — socket, incremental [`RecordAssembler`], chain and sink
//!    together — to a worker-pool thread
//!    ([`set_workers`](PipelineServer::set_workers)), which reads the
//!    bytes itself, decodes them and runs the records through the
//!    session's own clone of the operator chain until the socket runs
//!    dry. `M` sessions
//!    ([`set_max_sessions`](PipelineServer::set_max_sessions))
//!    multiplex over `N` threads, with `M ≫ N` the intended shape.
//! 2. **Accept-time backpressure.** The listener is only polled while
//!    a session slot is free, so excess clients queue in the OS accept
//!    backlog rather than being half-served. Behind it, a session is
//!    read only as fast as its chain runs: unread bytes wait in the
//!    kernel's socket buffer and then in the peer's TCP window.
//! 3. **Repair isolation.** A session that dies mid-scope (abrupt
//!    disconnect, truncation) gets `BadCloseScope` repairs injected
//!    into *its* chain, exactly like single-connection `streamin`; a
//!    session whose wire turns poisonous (CRC mismatch, bad magic) is
//!    aborted with the same repair
//!    ([`RecordAssembler::abort_repair`]). One session's chain
//!    crashing, stalling or panicking never blocks its neighbours:
//!    each session has at most one job in flight, so a slow chain
//!    occupies one worker while the loop keeps watching every other
//!    socket.
//! 4. **Idle policy.** With
//!    [`set_idle_timeout`](PipelineServer::set_idle_timeout) armed, a
//!    session whose wire stays silent past the limit is reaped: a
//!    `session_timeout` event fires, its open scopes are repaired
//!    through its chain and the session reports an `idle timeout`
//!    error. Dormant-but-alive sensors stay connected by sending the
//!    4-byte keepalive sentinel ([`crate::codec::write_keepalive`],
//!    [`crate::net::StreamOut::keepalive`]) — any wire bytes, record
//!    or keepalive, reset the clock.
//! 5. **Shutdown.** [`ServerHandle::shutdown`] stops accepting, lets
//!    every in-flight session drain to its natural end, joins the pool
//!    and returns a [`ServerReport`]: one [`SessionReport`] per
//!    session (its [`StreamEnd`], record/byte counts and per-stage
//!    [`StreamStats`]) plus the aggregate via [`StreamStats::merge`].
//! 6. **Telemetry.** With [`PipelineServer::set_telemetry`] enabled,
//!    each session forks its own stage timers
//!    ([`crate::telemetry::Telemetry::fork_stages`]) and shares one
//!    event ring (lane = session id), now including per-session
//!    keepalive and timeout events. Session summaries carry wall-clock
//!    duration, wire-idle time and a per-session
//!    [`crate::telemetry::Snapshot`]; the final report merges them,
//!    and [`ServerHandle::telemetry_snapshot`] reads the live event
//!    stream while the server runs.
//!
//! A session moves through four states: *accepting* → *resident* (its
//! data plane rests with the loop, its socket in the poll set) ⇄ *on a
//! worker* (one job reads, decodes and runs the chain; the loop does
//! not watch the socket meanwhile) → *closed* (report recorded). The
//! loop keeps only what no worker can do: the listener, readiness,
//! idle deadlines and the reports.
//!
//! Sessions — not scope shards — are the unit of concurrency here:
//! each connection is an independent record stream with its own scope
//! state and its own operator state, so no splitter or ordered merge
//! is needed; the network already partitioned the work.
//!
//! # Example
//!
//! ```
//! use dynamic_river::operator::SharedSink;
//! use dynamic_river::net::send_all;
//! use dynamic_river::prelude::*;
//! use dynamic_river::serve::PipelineServer;
//! use std::net::TcpListener;
//!
//! let mut chain = Pipeline::new();
//! chain.add(MapPayload::new("gain", |v: &mut [f64]| {
//!     v.iter_mut().for_each(|x| *x *= 2.0);
//! }));
//! let mut server = PipelineServer::from_pipeline(&chain).unwrap();
//! server.set_max_sessions(8).set_workers(2);
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let out = SharedSink::new();
//! let per_session = out.clone();
//! let handle = server
//!     .start(listener, move |_info| Box::new(per_session.clone()))
//!     .unwrap();
//!
//! let records = vec![
//!     Record::open_scope(1, vec![]),
//!     Record::data(0, Payload::f64(vec![21.0])),
//!     Record::close_scope(1),
//! ];
//! send_all(handle.local_addr(), &records).unwrap();
//!
//! handle.wait_for_completed(1);
//! let report = handle.shutdown().unwrap();
//! assert_eq!(report.sessions.len(), 1);
//! assert_eq!(report.clean_sessions(), 1);
//! assert_eq!(report.workers, 2);
//! assert_eq!(report.session_capacity, 8);
//! assert_eq!(out.take()[1].payload.as_f64().unwrap(), &[42.0]);
//! ```

// Library code in this module must surface failures as errors, never
// panics; unwraps are confined to the test module below.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::PipelineError;
use crate::net::{RecordAssembler, StreamEnd};
use crate::operator::Sink;
use crate::pipeline::{Lane, Pipeline, StreamStats};
use crate::record::Record;
use crate::telemetry::{EventKind, EventSink, Snapshot, Telemetry, TelemetryConfig};
use crossbeam::channel::{unbounded, Receiver, Sender};
use polling::PollFd;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// First read of a burst; a socket that fills it is read again for the
/// rest of [`READ_BURST`].
const READ_CHUNK: usize = 8 * 1024;

/// Bytes read between two runs of the chain, so a session's decode
/// buffer holds at most one burst plus one frame.
const READ_BURST: usize = 64 * 1024;

/// Fairness bound: a job that has fed this many records hands its
/// session back after the burst in progress, so a firehose client holds
/// a worker for a bounded time and completions (and therefore idle
/// clocks and per-stage timing attribution) stay responsive.
const BATCH_RECORDS: usize = 256;

/// Completed-session counter shared between the event loop and the
/// [`ServerHandle`], so callers can wait for a known client fleet to be
/// fully served before shutting down.
#[derive(Debug, Default)]
struct Progress {
    completed: Mutex<u64>,
    changed: Condvar,
}

impl Progress {
    fn bump(&self) {
        // A panicked session poisons nothing observable here: the
        // counter is a bare u64, so recover the guard and go on.
        let mut n = self
            .completed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *n += 1;
        self.changed.notify_all();
    }
}

/// Identity of one accepted session, handed to the sink factory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// Session number, assigned in accept order starting at 1.
    pub id: u64,
    /// Peer address of the connection.
    pub peer: String,
}

/// Everything one session reported when it finished — the
/// session-tagged counterpart of a single `streamin` run's
/// `(StreamEnd, received)` pair, extended with wire-byte accounting
/// ([`crate::net::RecordAssembler::wire_bytes`]) and the session chain's
/// per-stage [`StreamStats`].
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Session number (accept order, from 1).
    pub id: u64,
    /// Peer address of the connection.
    pub peer: String,
    /// How the session's stream ended.
    pub end: StreamEnd,
    /// Records received over the wire (synthesized repairs excluded).
    pub received: u64,
    /// Wire bytes consumed (frames, sentinels, partial trailing frame).
    pub wire_bytes: u64,
    /// Keepalive sentinels the peer sent to hold its slot open.
    pub keepalives: u64,
    /// Per-stage statistics of the session's cloned chain.
    pub stats: StreamStats,
    /// The codec/chain/sink error that ended the session, if any. Scope
    /// repair has already been applied when this is set.
    pub error: Option<String>,
    /// Wall-clock time from accept to the report being written.
    pub duration: Duration,
    /// Portion of [`duration`](Self::duration) the session spent *not*
    /// on a worker — waiting for wire bytes, or for a worker slot. A
    /// worker's time covers reading the socket, decoding and running the
    /// chain. An idle session holds no thread, so this is bookkeeping,
    /// not a parked resource.
    pub idle: Duration,
    /// The session's telemetry [`Snapshot`]: its own per-stage latency
    /// histograms (each session forks fresh timers,
    /// [`Telemetry::fork_stages`]) plus the events its lane (= session
    /// id) emitted. Empty when the server's telemetry is
    /// [`TelemetryConfig::Off`].
    pub telemetry: Snapshot,
}

impl SessionReport {
    /// `true` when the session ended with the clean sentinel, all
    /// scopes closed and no error.
    pub fn is_clean(&self) -> bool {
        self.end == StreamEnd::Clean && self.error.is_none()
    }
}

/// Final report of a server run: per-session reports plus their
/// aggregate.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// One report per accepted session, ascending session id.
    pub sessions: Vec<SessionReport>,
    /// All session statistics folded together ([`StreamStats::merge`]):
    /// record/byte totals add, `peak_burst` is the worst session's
    /// burst.
    pub aggregate: StreamStats,
    /// The configured concurrent-session capacity `M` — how many
    /// sockets the loop will multiplex at once
    /// ([`PipelineServer::set_max_sessions`]). Distinct from
    /// [`workers`](Self::workers) now that sessions are not threads.
    pub session_capacity: usize,
    /// The worker-pool width `N` — how many chains can execute
    /// simultaneously ([`PipelineServer::set_workers`]).
    pub workers: usize,
    /// High-water mark of concurrently open sessions observed during
    /// the run — evidence of how much multiplexing actually happened.
    pub peak_sessions: usize,
    /// Set when the accept loop stopped early on a non-transient error
    /// (chain construction failure, fatal listener error). Completed
    /// sessions are still fully reported.
    pub accept_error: Option<String>,
    /// Merged telemetry across the whole run: every session's stage
    /// histograms folded bucket-wise ([`Snapshot::merge_stages`] — the
    /// sessions share one event ring, so events are taken once from the
    /// server's log rather than re-merged per session) plus the full
    /// interleaved event list.
    pub telemetry: Snapshot,
}

impl ServerReport {
    /// Sessions that ended cleanly ([`SessionReport::is_clean`]).
    pub fn clean_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.is_clean()).count()
    }

    /// Sessions that needed scope repair or ended in error.
    pub fn repaired_sessions(&self) -> usize {
        self.sessions.len() - self.clean_sessions()
    }
}

/// Boxed per-session output sink (must be `Send`: it travels to
/// worker-pool threads with the rest of its session).
pub type SessionSink = Box<dyn Sink + Send>;

/// A multi-session pipeline server: one readiness-driven event loop
/// multiplexing up to [`max_sessions`](Self::set_max_sessions)
/// concurrent `streamin` connections across a pool of
/// [`workers`](Self::set_workers) execution threads, each session
/// running its own clone of an operator chain. See the
/// [module docs](self) for the full lifecycle.
pub struct PipelineServer {
    build: Box<dyn FnMut(u64) -> Result<Pipeline, PipelineError> + Send>,
    max_sessions: usize,
    workers: usize,
    idle_timeout: Option<Duration>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for PipelineServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineServer")
            .field("max_sessions", &self.max_sessions)
            .field("workers", &self.workers)
            .field("idle_timeout", &self.idle_timeout)
            .finish_non_exhaustive()
    }
}

/// Default for both the session capacity and the worker-pool width:
/// the host's available parallelism. Capacity can be raised far above
/// this — sessions are sockets, not threads.
fn default_parallelism() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl PipelineServer {
    /// Builds a server whose sessions each run a
    /// [`clone_chain`](Pipeline::clone_chain)ed copy of `pipeline`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] when the pre-flight
    /// [`Pipeline::check`] proves the chain broken, or an operator
    /// error naming the first operator that does not support
    /// duplication ([`crate::operator::Operator::clone_op`]) — both
    /// validated up front, not at first accept.
    pub fn from_pipeline(pipeline: &Pipeline) -> Result<Self, PipelineError> {
        pipeline.preflight(false)?;
        let prototype = pipeline.clone_chain()?;
        Ok(PipelineServer {
            // The prototype was validated cloneable above, so the
            // per-session clone can only fail if an operator's
            // `clone_op` is non-deterministic — propagated as this
            // session's build error rather than trusted away.
            build: Box::new(move |_session| prototype.clone_chain()),
            max_sessions: default_parallelism(),
            workers: default_parallelism(),
            idle_timeout: None,
            // Inherit the pipeline's telemetry *config* but not its
            // registry: server sessions fork their own timers, and
            // sharing the source pipeline's histograms would mix any
            // pre-server runs into the server's report.
            telemetry: Telemetry::new(pipeline.telemetry().config()),
        })
    }

    /// Builds a server whose session chains come from a factory;
    /// `build(id)` is called once per accepted session — the route for
    /// chains whose operators do not implement `clone_op`. Each built
    /// chain is pre-flighted ([`Pipeline::check`]) as its session's
    /// lane is created; analysis errors surface as the server's accept
    /// error.
    pub fn from_factory(mut build: impl FnMut(u64) -> Pipeline + Send + 'static) -> Self {
        PipelineServer {
            build: Box::new(move |id| Ok(build(id))),
            max_sessions: default_parallelism(),
            workers: default_parallelism(),
            idle_timeout: None,
            telemetry: Telemetry::off(),
        }
    }

    /// Enables telemetry for the server: every session gets its own
    /// stage timers ([`Telemetry::fork_stages`]) and all sessions share
    /// one event ring, with each session's events tagged by its id as
    /// the lane. Read results per session from
    /// [`SessionReport::telemetry`], merged from
    /// [`ServerReport::telemetry`], or live from
    /// [`ServerHandle::telemetry_snapshot`].
    pub fn set_telemetry(&mut self, config: TelemetryConfig) -> &mut Self {
        self.telemetry = Telemetry::new(config);
        self
    }

    /// The server's [`Telemetry`] registry handle (cheap clone).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Sets the concurrent-session capacity `M`: how many connections
    /// the event loop will multiplex at once. The listener is only
    /// polled while a slot is free, so this is the accept-time
    /// backpressure bound. A session is a socket plus decode state —
    /// not a thread — so `M` far above
    /// [`set_workers`](Self::set_workers) is the intended shape for
    /// fleets of mostly-idle sensors.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn set_max_sessions(&mut self, limit: usize) -> &mut Self {
        assert!(limit > 0, "max_sessions must be non-zero");
        self.max_sessions = limit;
        self
    }

    /// The concurrent-session capacity in effect.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// Sets the worker-pool width `N`: how many session chains can
    /// execute simultaneously. Defaults to the host's available
    /// parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn set_workers(&mut self, workers: usize) -> &mut Self {
        assert!(workers > 0, "workers must be non-zero");
        self.workers = workers;
        self
    }

    /// The worker-pool width in effect.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Arms the idle-session reaper: a session whose wire produces no
    /// bytes for `timeout` is ended with scope repair and an
    /// `idle timeout` error (a `session_timeout` telemetry event marks
    /// the reap). Any bytes reset the clock, including the keepalive
    /// sentinel ([`crate::net::StreamOut::keepalive`]) that carries no
    /// records. Defaults to off: sessions may idle forever.
    pub fn set_idle_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// The idle-session timeout in effect (`None` = never reap).
    pub fn idle_timeout(&self) -> Option<Duration> {
        self.idle_timeout
    }

    /// Starts serving on `listener`: spawns the event loop (which owns
    /// the listener and every session socket) and its worker pool,
    /// then returns immediately with a [`ServerHandle`]. `make_sink`
    /// is invoked once per accepted session (on the loop thread) to
    /// produce that session's output sink.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Io`] if the listener's local address
    /// cannot be resolved or the loop thread cannot be spawned.
    pub fn start<F>(
        self,
        listener: TcpListener,
        make_sink: F,
    ) -> Result<ServerHandle, PipelineError>
    where
        F: FnMut(&SessionInfo) -> SessionSink + Send + 'static,
    {
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let progress = Arc::new(Progress::default());
        let worker_progress = Arc::clone(&progress);
        let cfg = LoopCfg {
            capacity: self.max_sessions,
            workers: self.workers,
            idle_timeout: self.idle_timeout,
        };
        let mut build = self.build;
        let telemetry = self.telemetry;
        let supervisor_telemetry = telemetry.clone();
        let supervisor = thread::Builder::new()
            .name("pipeline-server".into())
            .spawn(move || {
                event_loop(
                    &listener,
                    &mut build,
                    make_sink,
                    &cfg,
                    &flag,
                    &worker_progress,
                    &supervisor_telemetry,
                )
            })
            .map_err(PipelineError::Io)?;
        Ok(ServerHandle {
            addr,
            shutdown,
            progress,
            supervisor,
            telemetry,
        })
    }
}

/// Control handle for a running [`PipelineServer`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    progress: Arc<Progress>,
    supervisor: JoinHandle<Result<ServerReport, PipelineError>>,
    telemetry: Telemetry,
}

impl ServerHandle {
    /// The address the server is accepting on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live telemetry [`Snapshot`] of the running server: the shared
    /// event ring (all sessions interleaved, lane = session id), read
    /// without stopping anything. Per-session stage histograms are
    /// forked per session and land in each [`SessionReport::telemetry`]
    /// (merged in [`ServerReport::telemetry`]) when the session ends.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.telemetry.snapshot()
    }

    /// Number of sessions fully served so far.
    ///
    /// # Panics
    ///
    /// Panics if a service thread panicked while holding the counter.
    pub fn sessions_completed(&self) -> u64 {
        *self
            .progress
            .completed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until at least `n` sessions have been fully served —
    /// connection acceptance is asynchronous (a client may write its
    /// whole stream and exit while the connection still sits in the
    /// accept backlog), so a caller that knows its client fleet size
    /// waits here before [`shutdown`](Self::shutdown).
    pub fn wait_for_completed(&self, n: u64) {
        let mut completed = self
            .progress
            .completed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while *completed < n {
            completed = self
                .progress
                .changed
                .wait(completed)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Gracefully shuts the server down: stops accepting new
    /// connections, lets every in-flight session drain to its natural
    /// end (each recording its own per-session [`StreamEnd`]), joins
    /// the worker pool and returns the final [`ServerReport`]. If the
    /// accept loop had already stopped on a fatal error, the completed
    /// sessions are still reported, with the cause in
    /// [`ServerReport::accept_error`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Io`] only if the service threads could
    /// not be spawned.
    ///
    /// # Panics
    ///
    /// Panics if the server's event-loop thread panicked.
    pub fn shutdown(self) -> Result<ServerReport, PipelineError> {
        self.shutdown.store(true, Ordering::Release);
        // Wake a poll that is blocked with the listener in its set via
        // a throwaway connection; a loop busy with sessions re-checks
        // the flag on every completion instead.
        let _ = TcpStream::connect(self.addr);
        match self.supervisor.join() {
            Ok(report) => report,
            // The loop only panics on a bug; re-raise it intact.
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// Static configuration of one event-loop run.
struct LoopCfg {
    capacity: usize,
    workers: usize,
    idle_timeout: Option<Duration>,
}

/// A session's whole data plane — its wire, its incremental
/// [`RecordAssembler`], its lane (own chain, stage stats and event
/// sink) and its output sink — and the unit that shuttles between the
/// loop and the worker pool. It is in one place at a time, which is what
/// serializes a session's records while different sessions execute
/// truly in parallel (boxed at accept, so a hand-off moves a pointer).
/// Generic over the wire so that [`run_job`] can be driven without a
/// socket.
struct Plane<R> {
    wire: R,
    assembler: RecordAssembler,
    lane: Lane,
    sink: SessionSink,
}

/// What one job left behind, short of panicking.
enum Step {
    /// The wire is still live (the socket ran dry, or the job reached
    /// its fairness bound): the plane goes back to the poll set.
    /// `last_read` is the instant of the job's last non-empty read.
    Yield { last_read: Option<Instant> },
    /// The session is over: clean end, repaired end, or a failed chain.
    Done { error: Option<String> },
}

impl<R: io::Read> Plane<R> {
    /// One job: *read a burst → pull the ready records → feed the
    /// chain*, until the wire would block, the stream ends or
    /// [`BATCH_RECORDS`] have been fed — the streaming driver's fused
    /// step with a non-blocking wire as its source. A wire fault runs
    /// the repair drain where it surfaces, after the records decoded
    /// before it; a `reap` job (idle timeout) does only that drain.
    fn run(&mut self, reap: Option<Duration>) -> Step {
        if let Some(limit) = reap {
            self.repair_drain();
            return Step::Done {
                error: Some(format!("idle timeout: no wire activity for {limit:?}")),
            };
        }
        let mut last_read = None;
        let mut fed = 0usize;
        while fed < BATCH_RECORDS {
            let blocked = self.read_burst(&mut last_read);
            loop {
                match self.next_record() {
                    Ok(Some(record)) => {
                        fed += 1;
                        if let Err(e) = self.lane.feed_source(record, self.sink.as_mut()) {
                            // The session's own chain or sink failed:
                            // it is no longer trustworthy, so the
                            // repairs are only counted into the end
                            // state, not pushed through it (like the
                            // blocking driver).
                            let _ = self.assembler.abort_repair();
                            return Step::Done {
                                error: Some(e.to_string()),
                            };
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Poisoned wire (CRC mismatch, bad magic, read
                        // error): the decoded prefix has flowed, now
                        // the synthesized repairs drain the chain.
                        self.repair_drain();
                        return Step::Done {
                            error: Some(e.to_string()),
                        };
                    }
                }
            }
            if self.assembler.end().is_some() {
                let flushed = self.lane.flush(self.sink.as_mut());
                return Step::Done {
                    error: flushed.err().map(|e| e.to_string()),
                };
            }
            if blocked {
                break;
            }
        }
        Step::Yield { last_read }
    }

    /// Reads up to [`READ_BURST`] bytes straight into the decode buffer:
    /// a first read of [`READ_CHUNK`], and only a wire that filled it is
    /// asked for the rest in one more call, so a trickling session keeps
    /// a small buffer and a firehose costs two syscalls per burst. EOF
    /// and read errors end the wire (the records already decoded still
    /// flow). Returns whether the wire would block.
    fn read_burst(&mut self, last_read: &mut Option<Instant>) -> bool {
        let mut total = 0usize;
        let mut ask = READ_CHUNK;
        while total < READ_BURST {
            match self.assembler.read_from(&mut self.wire, ask) {
                Ok(0) => {
                    self.assembler.finish();
                    break;
                }
                Ok(n) => {
                    *last_read = Some(Instant::now());
                    total += n;
                    if n < ask {
                        break;
                    }
                    ask = READ_BURST - total;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.assembler.fail(PipelineError::Io(e));
                    break;
                }
            }
        }
        false
    }

    /// The assembler's next ready record, with one `session_keepalive`
    /// event per keepalive sentinel consumed on the way to it.
    fn next_record(&mut self) -> Result<Option<Record>, PipelineError> {
        let seen = self.assembler.keepalives();
        let next = self.assembler.next_ready();
        for nth in seen..self.assembler.keepalives() {
            self.lane
                .events()
                .emit(EventKind::SessionKeepalive, nth + 1);
        }
        next
    }

    /// Ends a session whose wire can no longer be trusted: the
    /// synthesized `BadCloseScope` records are fed error-tolerantly and
    /// the chain is always flushed — the blocking `streamin` driver's
    /// repair path.
    fn repair_drain(&mut self) {
        for record in self.assembler.abort_repair() {
            if self.lane.feed_source(record, self.sink.as_mut()).is_err() {
                break;
            }
        }
        let _ = self.lane.flush(self.sink.as_mut());
    }

    /// Closes the plane (dropping its wire and sink) into what the
    /// session's report needs.
    fn close(self, error: Option<String>) -> Ended {
        let stats = self.lane.into_stats(self.assembler.received());
        Ended::new(&self.assembler, stats, error)
    }
}

/// How a session ended, in the terms of its [`SessionReport`].
struct Ended {
    end: StreamEnd,
    received: u64,
    wire_bytes: u64,
    keepalives: u64,
    stats: StreamStats,
    error: Option<String>,
}

impl Ended {
    fn new(assembler: &RecordAssembler, stats: StreamStats, error: Option<String>) -> Self {
        Ended {
            end: assembler
                .end()
                .unwrap_or(StreamEnd::Unclean { repaired_scopes: 0 }),
            received: assembler.received(),
            wire_bytes: assembler.wire_bytes(),
            keepalives: assembler.keepalives(),
            stats,
            error,
        }
    }
}

/// Where a job left its session.
enum Outcome<R> {
    /// Still open: the plane returns to the loop.
    Resident {
        plane: Box<Plane<R>>,
        last_read: Option<Instant>,
    },
    /// Over: the plane was closed on the worker.
    Closed(Ended),
}

/// Runs one job on the calling (worker) thread. A panicking operator or
/// sink is caught, so the pool thread survives and the session is
/// reported with the counters its assembler had reached.
fn run_job<R: io::Read>(mut plane: Box<Plane<R>>, reap: Option<Duration>) -> Outcome<R> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plane.run(reap))) {
        Ok(Step::Yield { last_read }) => Outcome::Resident { plane, last_read },
        Ok(Step::Done { error }) => Outcome::Closed(plane.close(error)),
        Err(panic) => {
            let message = format!("session panicked: {}", panic_message(panic.as_ref()));
            let Plane {
                assembler,
                lane,
                sink,
                ..
            } = *plane;
            // The chain may be mid-unwind-poisoned; dropping it can
            // itself panic, which must not take the worker down.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                drop((lane, sink));
            }));
            Outcome::Closed(Ended::new(
                &assembler,
                StreamStats::default(),
                Some(message),
            ))
        }
    }
}

/// A session's plane on its way to a worker.
struct Job {
    sid: u64,
    plane: Box<Plane<TcpStream>>,
    reap: Option<Duration>,
}

/// A worker's completion notice, with the time the job held it.
struct JobDone {
    sid: u64,
    outcome: Outcome<TcpStream>,
    busy: Duration,
}

/// What the event loop keeps of one live session.
struct Session {
    info: SessionInfo,
    fd: polling::OsFd,
    /// The data plane while resident; `None` while its job is out.
    plane: Option<Box<Plane<TcpStream>>>,
    /// Loop-side event sink (same ring and lane as the chain's).
    events: EventSink,
    /// Per-session telemetry fork, for the closing snapshot.
    telemetry: Telemetry,
    started: Instant,
    /// The last non-empty read of the session's wire (or its accept).
    last_activity: Instant,
    busy: Duration,
}

/// The loop's books: live sessions, finished reports and the
/// completed-session counter behind [`ServerHandle::wait_for_completed`].
struct Roster<'a> {
    sessions: HashMap<u64, Session>,
    reports: Vec<SessionReport>,
    progress: &'a Progress,
}

/// What each slot in the poll set refers to.
enum PollTag {
    Waker,
    Listener,
    Session(u64),
}

/// The event loop: accepts, polls, hands readable sessions to the pool
/// and reaps idle ones. Returns the final report once shutdown (or a
/// fatal accept error) has been observed and every accepted session has
/// drained.
fn event_loop<F>(
    listener: &TcpListener,
    build: &mut (dyn FnMut(u64) -> Result<Pipeline, PipelineError> + Send),
    mut make_sink: F,
    cfg: &LoopCfg,
    shutdown: &AtomicBool,
    progress: &Arc<Progress>,
    telemetry: &Telemetry,
) -> Result<ServerReport, PipelineError>
where
    F: FnMut(&SessionInfo) -> SessionSink + Send + 'static,
{
    listener.set_nonblocking(true)?;
    let (waker, wake_rx) = polling::wake_pair()?;
    let waker = Arc::new(waker);
    let (job_tx, job_rx) = unbounded::<Job>();
    let (done_tx, done_rx) = unbounded::<JobDone>();
    let mut pool = Vec::with_capacity(cfg.workers);
    for w in 0..cfg.workers {
        let job_rx: Receiver<Job> = job_rx.clone();
        let done_tx: Sender<JobDone> = done_tx.clone();
        let waker = Arc::clone(&waker);
        let worker = thread::Builder::new()
            .name(format!("session-worker-{w}"))
            .spawn(move || {
                while let Ok(Job { sid, plane, reap }) = job_rx.recv() {
                    let started = Instant::now();
                    let outcome = run_job(plane, reap);
                    let busy = started.elapsed();
                    let delivered = done_tx.send(JobDone { sid, outcome, busy }).is_ok();
                    waker.wake();
                    if !delivered {
                        return; // loop gone
                    }
                }
            })
            .map_err(PipelineError::Io)?;
        pool.push(worker);
    }
    drop(job_rx);
    drop(done_tx);

    let listener_fd = polling::fd_of(listener);
    let mut roster = Roster {
        sessions: HashMap::new(),
        reports: Vec::new(),
        progress,
    };
    let mut accept_error: Option<String> = None;
    let mut accepting = true;
    let mut next_id = 0u64;
    let mut peak = 0usize;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tags: Vec<PollTag> = Vec::new();

    loop {
        // Worker completions first: planes return to their sessions,
        // finished sessions close, capacity frees for the accept step.
        while let Ok(done) = done_rx.try_recv() {
            roster.handle_done(done);
        }
        if shutdown.load(Ordering::Acquire) {
            accepting = false;
        }
        if !accepting && roster.sessions.is_empty() {
            break;
        }

        // Build the poll set: the waker always; the listener only
        // while a session slot is free (accept-time backpressure);
        // the socket of each resident session — a session whose job is
        // out is the worker's to read.
        fds.clear();
        tags.clear();
        fds.push(PollFd::readable(wake_rx.fd()));
        tags.push(PollTag::Waker);
        if accepting && roster.sessions.len() < cfg.capacity {
            fds.push(PollFd::readable(listener_fd));
            tags.push(PollTag::Listener);
        }
        let mut quietest: Option<Instant> = None;
        for (&sid, s) in &roster.sessions {
            if s.plane.is_some() {
                fds.push(PollFd::readable(s.fd));
                tags.push(PollTag::Session(sid));
                quietest = Some(quietest.map_or(s.last_activity, |q| q.min(s.last_activity)));
            }
        }
        // Sleep no longer than the nearest idle deadline.
        let timeout = cfg
            .idle_timeout
            .zip(quietest)
            .map(|(limit, since)| (since + limit).saturating_duration_since(Instant::now()));
        if let Err(e) = polling::wait(&mut fds, timeout) {
            // poll(2) itself failing is unrecoverable for the loop.
            accept_error.get_or_insert(PipelineError::Io(e).to_string());
            break;
        }

        let now = Instant::now();
        for (fd, tag) in fds.iter().zip(&tags) {
            if !fd.ready {
                continue;
            }
            match tag {
                PollTag::Waker => wake_rx.drain(),
                PollTag::Listener => {
                    accept_burst(&mut AcceptCtx {
                        listener,
                        build,
                        make_sink: &mut make_sink,
                        cfg,
                        shutdown,
                        telemetry,
                        sessions: &mut roster.sessions,
                        accepting: &mut accepting,
                        accept_error: &mut accept_error,
                        next_id: &mut next_id,
                        now,
                    });
                    peak = peak.max(roster.sessions.len());
                }
                PollTag::Session(sid) => roster.dispatch(*sid, None, &job_tx),
            }
        }
        // Reap after the readable sessions have gone to read: bytes
        // already in the socket buffer always beat the deadline.
        if let Some(limit) = cfg.idle_timeout {
            roster.reap_idle(now, limit, &job_tx);
        }
    }

    // Shutdown: close the job channel, let workers finish their
    // in-flight jobs and exit. The loop only breaks once every
    // session has closed, so nothing is pending here on the normal
    // path (a poll failure is the exception — its sessions are lost).
    drop(job_tx);
    for worker in pool {
        let _ = worker.join();
    }
    let mut reports = roster.reports;
    reports.sort_by_key(|s| s.id);
    let mut aggregate = StreamStats::default();
    // Events come once from the shared ring (already interleaved across
    // sessions); only the per-session stage histograms need folding.
    let mut merged_telemetry = telemetry.snapshot();
    for s in &reports {
        aggregate.merge(&s.stats);
        merged_telemetry.merge_stages(&s.telemetry);
    }
    Ok(ServerReport {
        sessions: reports,
        aggregate,
        session_capacity: cfg.capacity,
        workers: cfg.workers,
        peak_sessions: peak,
        accept_error,
        telemetry: merged_telemetry,
    })
}

/// Everything the accept step needs, bundled to keep the call site
/// readable.
struct AcceptCtx<'a, F> {
    listener: &'a TcpListener,
    build: &'a mut (dyn FnMut(u64) -> Result<Pipeline, PipelineError> + Send),
    make_sink: &'a mut F,
    cfg: &'a LoopCfg,
    shutdown: &'a AtomicBool,
    telemetry: &'a Telemetry,
    sessions: &'a mut HashMap<u64, Session>,
    accepting: &'a mut bool,
    accept_error: &'a mut Option<String>,
    next_id: &'a mut u64,
    now: Instant,
}

/// Accepts as many queued connections as capacity allows. Transient
/// per-connection failures keep the loop serving; chain-construction
/// and fatal listener errors stop the acceptor (existing sessions
/// still drain).
fn accept_burst<F>(ctx: &mut AcceptCtx<'_, F>)
where
    F: FnMut(&SessionInfo) -> SessionSink + Send + 'static,
{
    loop {
        if ctx.sessions.len() >= ctx.cfg.capacity {
            return;
        }
        // Re-check the flag right before accepting so the shutdown
        // wake-up connection (or a client racing it) is not served.
        if ctx.shutdown.load(Ordering::Acquire) {
            *ctx.accepting = false;
            return;
        }
        match ctx.listener.accept() {
            Ok((stream, peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    // A socket we cannot poll is useless; treat it like
                    // a client that died during accept.
                    continue;
                }
                let _ = stream.set_nodelay(true);
                *ctx.next_id += 1;
                let id = *ctx.next_id;
                let info = SessionInfo {
                    id,
                    peer: peer.to_string(),
                };
                let sink = (ctx.make_sink)(&info);
                let opened = (ctx.build)(id).and_then(|chain| {
                    open_session(info, stream, chain, sink, ctx.telemetry, ctx.now)
                });
                match opened {
                    Ok(session) => {
                        ctx.sessions.insert(id, session);
                    }
                    Err(e) => {
                        *ctx.accept_error = Some(e.to_string());
                        *ctx.accepting = false;
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            // Per-connection failures (a backlogged client resetting
            // before it was accepted, an interrupted syscall) are the
            // client's problem, not the fleet's: keep serving.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::Interrupted
                        | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => {
                *ctx.accept_error = Some(PipelineError::Io(e).to_string());
                *ctx.accepting = false;
                return;
            }
        }
    }
}

/// Builds the resident state for a freshly accepted session: telemetry
/// forked, the chain pre-flighted into the session's lane (lane id =
/// session id), accept event emitted.
fn open_session(
    info: SessionInfo,
    stream: TcpStream,
    mut chain: Pipeline,
    sink: SessionSink,
    telemetry: &Telemetry,
    now: Instant,
) -> Result<Session, PipelineError> {
    let fork = telemetry.fork_stages();
    let lane = Lane::new(&mut chain, &fork, info.id)?;
    let events = fork.event_sink(info.id);
    events.emit(EventKind::SessionAccept, info.id);
    Ok(Session {
        info,
        fd: polling::fd_of(&stream),
        plane: Some(Box::new(Plane {
            wire: stream,
            assembler: RecordAssembler::new(),
            lane,
            sink,
        })),
        events,
        telemetry: fork,
        started: now,
        last_activity: now,
        busy: Duration::ZERO,
    })
}

impl Roster<'_> {
    /// Sends a resident session's plane to the pool: to read its socket,
    /// or — `reap` carrying the idle limit that expired — only to repair
    /// and close it, a `session_timeout` event marking the reap.
    fn dispatch(&mut self, sid: u64, reap: Option<Duration>, job_tx: &Sender<Job>) {
        let Some(s) = self.sessions.get_mut(&sid) else {
            return;
        };
        let Some(plane) = s.plane.take() else {
            return;
        };
        if reap.is_some() {
            s.events.emit(EventKind::SessionTimeout, sid);
        }
        if let Err(refused) = job_tx.send(Job { sid, plane, reap }) {
            // Only possible if the whole pool died (a bug, not a load
            // condition): fail the session rather than wedging it open.
            let mut plane = refused.0.plane;
            let _ = plane.assembler.abort_repair();
            let ended = plane.close(Some("worker pool unavailable".to_string()));
            self.handle_done(JobDone {
                sid,
                outcome: Outcome::Closed(ended),
                busy: Duration::ZERO,
            });
        }
    }

    /// Ends every resident session whose wire has been silent past
    /// `limit`, with a job that repairs its open scopes through its
    /// chain and reports an `idle timeout` error. A session whose job is
    /// out is being read, not idle.
    fn reap_idle(&mut self, now: Instant, limit: Duration, job_tx: &Sender<Job>) {
        let expired: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| {
                s.plane.is_some() && now.saturating_duration_since(s.last_activity) >= limit
            })
            .map(|(&sid, _)| sid)
            .collect();
        for sid in expired {
            self.dispatch(sid, Some(limit), job_tx);
        }
    }

    /// Processes one worker completion: a still-open session gets its
    /// plane back (and so returns to the poll set), its idle clock set
    /// to where the job last read bytes; a closed one is reported.
    fn handle_done(&mut self, done: JobDone) {
        let Some(mut s) = self.sessions.remove(&done.sid) else {
            return; // unreachable: sessions only close through here
        };
        s.busy += done.busy;
        match done.outcome {
            Outcome::Resident { plane, last_read } => {
                s.plane = Some(plane);
                if let Some(at) = last_read {
                    s.last_activity = at;
                }
                self.sessions.insert(done.sid, s);
            }
            Outcome::Closed(ended) => {
                self.reports.push(close_session(s, ended));
                self.progress.bump();
            }
        }
    }
}

/// Builds the session's final report and emits its closing event.
fn close_session(s: Session, ended: Ended) -> SessionReport {
    if ended.error.is_some() {
        s.events.emit(EventKind::SessionError, s.info.id);
    } else {
        s.events.emit(EventKind::SessionDrain, ended.received);
    }
    let duration = s.started.elapsed();
    SessionReport {
        id: s.info.id,
        peer: s.info.peer,
        end: ended.end,
        received: ended.received,
        wire_bytes: ended.wire_bytes,
        keepalives: ended.keepalives,
        stats: ended.stats,
        error: ended.error,
        duration,
        idle: duration.saturating_sub(s.busy),
        telemetry: s.telemetry.snapshot_for_lane(s.info.id),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}
#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::codec::{encode_into, write_eos, SampleEncoding, WireFormat};
    use crate::net::send_all;
    use crate::operator::SharedSink;
    use crate::ops::{MapPayload, Passthrough};
    use crate::record::{Payload, Record, RecordKind};
    use std::io::Write;
    use std::sync::Mutex;

    /// Appends `record` to `wire` as a frame in the default format.
    fn put(wire: &mut Vec<u8>, record: &Record) {
        encode_into(record, WireFormat::default(), wire);
    }

    /// A client that connects, sends `wire` verbatim and vanishes.
    fn send_raw(addr: std::net::SocketAddr, wire: &[u8]) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(wire).unwrap();
    }

    fn scoped_records(tag: f64, n: usize) -> Vec<Record> {
        let mut v = vec![Record::open_scope(1, vec![])];
        for i in 0..n {
            v.push(Record::data(0, Payload::f64(vec![tag, i as f64])).with_seq(i as u64));
        }
        v.push(Record::close_scope(1));
        v
    }

    pub(super) fn doubling_chain() -> Pipeline {
        let mut p = Pipeline::new();
        p.add(MapPayload::new("double", |v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x *= 2.0);
        }));
        p
    }

    /// Per-session sink registry: (session id, its collected output).
    type SessionOutputs = Arc<Mutex<Vec<(u64, SharedSink)>>>;

    /// Starts a server whose per-session sinks land in a shared map of
    /// (session id → records).
    fn start_collecting(
        server: PipelineServer,
        listener: TcpListener,
    ) -> (ServerHandle, SessionOutputs) {
        let outputs: SessionOutputs = Arc::new(Mutex::new(Vec::new()));
        let registry = Arc::clone(&outputs);
        let handle = server
            .start(listener, move |info| {
                let sink = SharedSink::new();
                registry.lock().unwrap().push((info.id, sink.clone()));
                Box::new(sink)
            })
            .unwrap();
        (handle, outputs)
    }

    #[test]
    fn four_concurrent_sessions_each_match_single_lane() {
        let mut server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
        server.set_max_sessions(4);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();

        let barrier = Arc::new(std::sync::Barrier::new(4));
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let records = scoped_records(c as f64, 20 + c as usize);
                    // All four connect before any sends: genuinely
                    // concurrent sessions.
                    let mut out = crate::net::StreamOut::connect(addr).unwrap();
                    barrier.wait();
                    let mut devnull = crate::operator::NullSink;
                    for r in &records {
                        crate::operator::Operator::on_record(&mut out, r.clone(), &mut devnull)
                            .unwrap();
                    }
                    crate::operator::Operator::on_eos(&mut out, &mut devnull).unwrap();
                    records
                })
            })
            .collect();
        let sent: Vec<Vec<Record>> = clients.into_iter().map(|c| c.join().unwrap()).collect();

        handle.wait_for_completed(4);
        let report = handle.shutdown().unwrap();
        assert_eq!(report.sessions.len(), 4);
        assert_eq!(report.clean_sessions(), 4);

        // Each session's output is byte-identical to running its input
        // through the single-lane streaming driver.
        let outputs = outputs.lock().unwrap();
        for (id, sink) in outputs.iter() {
            let got = sink.take();
            let matched = sent.iter().any(|records| {
                let mut expected = Vec::new();
                doubling_chain()
                    .run_streaming(records.clone().into_iter(), &mut expected)
                    .unwrap();
                expected == got
            });
            assert!(matched, "session {id} output matches no client's stream");
        }
        // Aggregate totals equal the sum of the per-session stats.
        let total_in: u64 = report.sessions.iter().map(|s| s.received).sum();
        assert_eq!(report.aggregate.source_records, total_in);
        assert_eq!(total_in as usize, sent.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn disconnect_repairs_one_session_without_disturbing_others() {
        let mut server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
        server.set_max_sessions(3);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();

        // One crashing client: opens a scope, sends data, vanishes.
        let crasher = thread::spawn(move || {
            let mut w = Vec::new();
            put(&mut w, &Record::open_scope(9, vec![]));
            put(&mut w, &Record::data(0, Payload::f64(vec![5.0])));
            // No CloseScope, no sentinel: simulated crash.
            send_raw(addr, &w);
        });
        // Two healthy clients.
        let healthy: Vec<_> = (0..2u64)
            .map(|c| thread::spawn(move || send_all(addr, &scoped_records(c as f64, 10)).unwrap()))
            .collect();
        crasher.join().unwrap();
        for h in healthy {
            h.join().unwrap();
        }

        handle.wait_for_completed(3);
        let report = handle.shutdown().unwrap();
        assert_eq!(report.sessions.len(), 3);
        assert_eq!(report.clean_sessions(), 2);
        assert_eq!(report.repaired_sessions(), 1);
        let unclean: Vec<_> = report.sessions.iter().filter(|s| !s.is_clean()).collect();
        assert_eq!(unclean.len(), 1);
        assert_eq!(unclean[0].end, StreamEnd::Unclean { repaired_scopes: 1 });
        assert!(unclean[0].error.is_none(), "a crash is repair, not error");

        // The crashed session's output ends with the BadCloseScope that
        // traversed its chain; every session's output is balanced.
        for (id, sink) in outputs.lock().unwrap().iter() {
            let got = sink.take();
            crate::scope::validate_scopes(&got).unwrap();
            if *id == unclean[0].id {
                assert_eq!(got.last().unwrap().kind, RecordKind::BadCloseScope);
            }
        }
    }

    #[test]
    fn corrupted_frame_aborts_only_that_session_with_repair() {
        let mut server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
        server.set_max_sessions(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();

        // Corrupt client: valid open + data, then a frame whose payload
        // byte is flipped (CRC mismatch), then more valid traffic that
        // must never be trusted.
        let corrupt = thread::spawn(move || {
            let mut w = Vec::new();
            put(&mut w, &Record::open_scope(3, vec![]));
            put(&mut w, &Record::data(0, Payload::f64(vec![1.0])));
            put(&mut w, &Record::data(0, Payload::f64(vec![2.0])));
            let mid = w.len() - 4 - 6;
            w[mid] ^= 0xFF; // payload corruption: CRC now fails
            put(&mut w, &Record::close_scope(3));
            write_eos(&mut w).unwrap();
            send_raw(addr, &w);
        });
        let healthy = thread::spawn(move || send_all(addr, &scoped_records(7.0, 12)).unwrap());
        corrupt.join().unwrap();
        healthy.join().unwrap();

        handle.wait_for_completed(2);
        let report = handle.shutdown().unwrap();
        assert_eq!(report.sessions.len(), 2);
        assert_eq!(report.clean_sessions(), 1);
        let bad: Vec<_> = report.sessions.iter().filter(|s| !s.is_clean()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].end, StreamEnd::Unclean { repaired_scopes: 1 });
        let err = bad[0].error.as_deref().unwrap();
        assert!(
            err.contains("crc"),
            "error should name the CRC failure: {err}"
        );

        for (id, sink) in outputs.lock().unwrap().iter() {
            let got = sink.take();
            crate::scope::validate_scopes(&got).unwrap();
            if *id == bad[0].id {
                // open + data + synthesized BadCloseScope; nothing after
                // the corruption was trusted.
                assert_eq!(got.len(), 3);
                assert_eq!(got[2].kind, RecordKind::BadCloseScope);
            } else {
                assert_eq!(got.len(), 12 + 2);
            }
        }
    }

    #[test]
    fn client_dying_mid_frame_is_repaired_in_place() {
        let mut server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
        server.set_max_sessions(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();

        let truncator = thread::spawn(move || {
            let mut w = Vec::new();
            put(&mut w, &Record::open_scope(2, vec![]));
            put(&mut w, &Record::data(0, Payload::f64(vec![4.0])));
            // Half a frame, then death: the reader sees a truncated
            // stream, not a codec error.
            let whole = w.len();
            put(&mut w, &Record::data(0, Payload::f64(vec![8.0])));
            w.truncate(whole + (w.len() - whole) / 2);
            send_raw(addr, &w);
        });
        let healthy = thread::spawn(move || send_all(addr, &scoped_records(1.0, 5)).unwrap());
        truncator.join().unwrap();
        healthy.join().unwrap();

        handle.wait_for_completed(2);
        let report = handle.shutdown().unwrap();
        assert_eq!(report.sessions.len(), 2);
        let bad: Vec<_> = report.sessions.iter().filter(|s| !s.is_clean()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].end, StreamEnd::Unclean { repaired_scopes: 1 });
        assert_eq!(bad[0].received, 2);
        for (_id, sink) in outputs.lock().unwrap().iter() {
            crate::scope::validate_scopes(&sink.take()).unwrap();
        }
    }

    #[test]
    fn session_limit_applies_accept_time_backpressure() {
        // One slot, slow sessions: a second client's traffic is not
        // served until the first session finishes, but both complete.
        let mut server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
        server.set_max_sessions(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, _outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();

        let clients: Vec<_> = (0..3u64)
            .map(|c| thread::spawn(move || send_all(addr, &scoped_records(c as f64, 50)).unwrap()))
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        handle.wait_for_completed(3);
        assert_eq!(handle.sessions_completed(), 3);
        let report = handle.shutdown().unwrap();
        assert_eq!(report.sessions.len(), 3);
        assert_eq!(report.clean_sessions(), 3);
        // Serialized through one slot: session ids are still 1..=3.
        let ids: Vec<u64> = report.sessions.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn panicking_session_is_reported_and_does_not_wedge_the_pool() {
        // A user-supplied sink that panics mid-session must neither
        // deadlock wait_for_completed nor vanish from the report, and
        // the worker slot must survive to serve the next client.
        struct PanicSink;
        impl Sink for PanicSink {
            fn push(&mut self, _record: Record) -> Result<(), PipelineError> {
                panic!("sink exploded");
            }
        }
        let healthy_out = SharedSink::new();
        let registered = healthy_out.clone();
        let first = Arc::new(AtomicBool::new(true));
        let mut server = PipelineServer::from_pipeline(&Pipeline::new()).unwrap();
        server.set_max_sessions(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = server
            .start(listener, move |_info| {
                if first.swap(false, Ordering::SeqCst) {
                    Box::new(PanicSink)
                } else {
                    Box::new(registered.clone())
                }
            })
            .unwrap();
        let addr = handle.local_addr();

        send_all(addr, &scoped_records(1.0, 3)).unwrap();
        handle.wait_for_completed(1); // deadlocks here if panics leak
        send_all(addr, &scoped_records(2.0, 3)).unwrap();
        handle.wait_for_completed(2);

        let report = handle.shutdown().unwrap();
        assert!(report.accept_error.is_none());
        assert_eq!(report.sessions.len(), 2);
        let err = report.sessions[0].error.as_deref().unwrap();
        assert!(err.contains("panicked"), "got: {err}");
        assert!(report.sessions[1].is_clean());
        assert_eq!(healthy_out.take().len(), 5);
    }

    #[test]
    fn sessions_carry_telemetry_timing_and_merged_snapshot() {
        let mut pipeline = doubling_chain();
        pipeline.set_telemetry(crate::telemetry::TelemetryConfig::Full);
        let mut server = PipelineServer::from_pipeline(&pipeline).unwrap();
        server.set_max_sessions(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, _outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();

        send_all(addr, &scoped_records(1.0, 6)).unwrap();
        send_all(addr, &scoped_records(2.0, 9)).unwrap();
        handle.wait_for_completed(2);

        // Live view while the server still runs: the shared event ring
        // already holds both sessions' accept/drain events.
        let live = handle.telemetry_snapshot();
        let accepts = live
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SessionAccept)
            .count();
        assert_eq!(accepts, 2);

        let report = handle.shutdown().unwrap();
        assert_eq!(report.clean_sessions(), 2);
        for s in &report.sessions {
            // Stage timers are per-session: the one "double" stage saw
            // exactly this session's records (data + scope framing).
            assert_eq!(s.telemetry.stages.len(), 1);
            assert_eq!(s.telemetry.stages[0].name, "double");
            assert_eq!(s.telemetry.stages[0].latency.count, s.received);
            // Events are lane-filtered to this session.
            assert!(s.telemetry.events.iter().all(|e| e.lane == s.id));
            assert!(s
                .telemetry
                .events
                .iter()
                .any(|e| e.kind == EventKind::SessionAccept));
            assert!(s
                .telemetry
                .events
                .iter()
                .any(|e| e.kind == EventKind::SessionDrain));
            assert!(s
                .telemetry
                .events
                .iter()
                .any(|e| e.kind == EventKind::ScopeOpen));
            // Wall-clock accounting: idle (wire waits) is part of the
            // session's total duration.
            assert!(s.duration >= s.idle);
            assert!(s.duration > Duration::ZERO);
        }
        // Merged snapshot: histograms fold bucket-wise across sessions,
        // events appear once.
        let merged = &report.telemetry;
        assert_eq!(merged.stages.len(), 1);
        let total: u64 = report.sessions.iter().map(|s| s.received).sum();
        assert_eq!(merged.stages[0].latency.count, total);
        let merged_accepts = merged
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SessionAccept)
            .count();
        assert_eq!(merged_accepts, 2);
    }

    #[test]
    fn telemetry_off_reports_empty_snapshots() {
        let server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, _outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();
        send_all(addr, &scoped_records(1.0, 4)).unwrap();
        handle.wait_for_completed(1);
        let report = handle.shutdown().unwrap();
        assert!(report.sessions[0].telemetry.stages.is_empty());
        assert!(report.sessions[0].telemetry.events.is_empty());
        assert!(report.telemetry.events.is_empty());
        // Duration/idle accounting is unconditional.
        assert!(report.sessions[0].duration >= report.sessions[0].idle);
    }

    #[test]
    fn shutdown_with_no_sessions_is_immediate_and_empty() {
        let server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = server
            .start(listener, |_info| Box::new(crate::operator::NullSink))
            .unwrap();
        let report = handle.shutdown().unwrap();
        assert!(report.sessions.is_empty());
        assert_eq!(report.aggregate, StreamStats::default());
    }

    #[test]
    fn factory_route_builds_one_chain_per_session() {
        let built = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&built);
        let mut server = PipelineServer::from_factory(move |_id| {
            counter.fetch_add(1, Ordering::SeqCst);
            let mut p = Pipeline::new();
            p.add(Passthrough);
            p
        });
        server.set_max_sessions(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, _outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();
        for c in 0..3u64 {
            send_all(addr, &scoped_records(c as f64, 3)).unwrap();
        }
        handle.wait_for_completed(3);
        let report = handle.shutdown().unwrap();
        assert_eq!(report.sessions.len(), 3);
        assert_eq!(built.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn non_cloneable_chain_is_rejected_up_front() {
        struct Opaque;
        impl crate::operator::Operator for Opaque {
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
        let err = PipelineServer::from_pipeline(&p).unwrap_err();
        assert!(err.to_string().contains("opaque"));
    }

    #[test]
    fn wire_bytes_are_session_tagged() {
        let server = PipelineServer::from_pipeline(&Pipeline::new()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, _outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();
        let records = scoped_records(0.0, 4);
        let mut wire = Vec::new();
        for r in &records {
            put(&mut wire, r);
        }
        let expected = wire.len() as u64 + 4; // EOS sentinel
        send_all(addr, &records).unwrap();
        handle.wait_for_completed(1);
        let report = handle.shutdown().unwrap();
        assert_eq!(report.sessions[0].wire_bytes, expected);
        assert_eq!(report.sessions[0].received as usize, records.len());
    }

    #[test]
    fn corrupted_v2_frame_aborts_only_that_session_with_repair() {
        let fmt = WireFormat::V2(SampleEncoding::F32);
        let mut server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
        server.set_max_sessions(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();

        let corrupt = thread::spawn(move || {
            let mut w = Vec::new();
            encode_into(&Record::open_scope(3, vec![]), fmt, &mut w);
            encode_into(&Record::data(0, Payload::f64(vec![1.0])), fmt, &mut w);
            encode_into(&Record::data(0, Payload::f64(vec![2.0])), fmt, &mut w);
            // Flip a CRC byte: frame length stays intact, checksum fails.
            let last = w.len() - 1;
            w[last] ^= 0xFF;
            encode_into(&Record::close_scope(3), fmt, &mut w);
            write_eos(&mut w).unwrap();
            send_raw(addr, &w);
        });
        let healthy = thread::spawn(move || send_all(addr, &scoped_records(7.0, 12)).unwrap());
        corrupt.join().unwrap();
        healthy.join().unwrap();

        handle.wait_for_completed(2);
        let report = handle.shutdown().unwrap();
        assert_eq!(report.clean_sessions(), 1);
        let bad: Vec<_> = report.sessions.iter().filter(|s| !s.is_clean()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].end, StreamEnd::Unclean { repaired_scopes: 1 });
        let err = bad[0].error.as_deref().unwrap();
        assert!(
            err.contains("crc"),
            "error should name the CRC failure: {err}"
        );

        for (id, sink) in outputs.lock().unwrap().iter() {
            let got = sink.take();
            crate::scope::validate_scopes(&got).unwrap();
            if *id == bad[0].id {
                assert_eq!(got.len(), 3);
                assert_eq!(got[2].kind, RecordKind::BadCloseScope);
            } else {
                assert_eq!(got.len(), 12 + 2);
            }
        }
    }

    #[test]
    fn client_dying_mid_v2_frame_is_repaired_in_place() {
        let fmt = WireFormat::V2(SampleEncoding::I16);
        let server = PipelineServer::from_pipeline(&doubling_chain()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (handle, outputs) = start_collecting(server, listener);
        let addr = handle.local_addr();

        let mut w = Vec::new();
        encode_into(&Record::open_scope(2, vec![]), fmt, &mut w);
        let whole = w.len();
        encode_into(&Record::data(0, Payload::f64(vec![8.0; 64])), fmt, &mut w);
        w.truncate(whole + (w.len() - whole) / 2);
        // Dropped mid-frame: simulated crash.
        send_raw(addr, &w);

        handle.wait_for_completed(1);
        let report = handle.shutdown().unwrap();
        let s = &report.sessions[0];
        assert_eq!(s.end, StreamEnd::Unclean { repaired_scopes: 1 });
        assert!(s.error.is_none(), "truncation is repair, not error");
        let (_, sink) = &outputs.lock().unwrap()[0];
        let got = sink.take();
        crate::scope::validate_scopes(&got).unwrap();
        assert_eq!(got.last().unwrap().kind, RecordKind::BadCloseScope);
    }
}

#[cfg(test)]
mod job_battery;
