//! The four workloads: their sizes, their inputs, and how one pass of
//! each is driven and verified.
//!
//! All four share one shape. A *unit* is one clip of the pool in the
//! form the workload consumes (samples, extracted records, or wire
//! bytes). A [`Plan`] says which units each station sends and, for an
//! open-loop pass, when each is due. [`Prepared::run_pass`] drives a
//! plan through the workload's path — in process for `archive` and
//! `ensembles`, over loopback TCP into a fresh `PipelineServer` for
//! `relay_wire` and `fleet_serve` — and checks every clip that comes out
//! against the single-lane reference computed in set-up.

use crate::sut::{self, Chain, Pipeline, Record, Sink, Source, Wire, CLIP_SCOPE};
use crate::trace::{self, now_ns, ClipCounter, TracedSource};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Stations (connections, each with one generator thread) of the serve
/// workloads, clamped to the host's cores.
pub const STATIONS: usize = 2;
/// Worker threads of the serve workloads' `PipelineServer`.
pub const SERVER_WORKERS: usize = 2;
/// Lanes of `archive`'s sharded passes.
pub const SHARD_LANES: usize = 2;
/// Open-loop rate over all stations: 12 jobs/s is 8,664 source records/s
/// on the clip workloads, about half of what the slowest closed loop
/// sustains, so turnaround measures the path and not a standing queue.
pub const PACED_JOBS_PER_SEC: f64 = 12.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Archive,
    Ensembles,
    RelayWire,
    FleetServe,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Archive,
        Workload::Ensembles,
        Workload::RelayWire,
        Workload::FleetServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Archive => "archive",
            Workload::Ensembles => "ensembles",
            Workload::RelayWire => "relay_wire",
            Workload::FleetServe => "fleet_serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Archive => {
                "in-process batch over 30 s clips: saxanomaly sees every record (~80% of the work), spectrum ~10%, codec/net/serve none"
            }
            Workload::Ensembles => {
                "downstream host of a two-segment river: extracted ensembles through featurization, spectrum/FFT ~85% of the work, saxanomaly none"
            }
            Workload::RelayWire => {
                "relay host over loopback TCP: v2/F64 decoded and re-encoded to v2/F32, codec+net+serve do all the work, no Figure 5 stage runs"
            }
            Workload::FleetServe => {
                "the whole journey: stations send v2/F32 clips to a PipelineServer running the full Figure 5 chain per session"
            }
        }
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::RelayWire | Workload::FleetServe)
    }

    /// The Figure 5 chain the workload runs, if any.
    pub fn chain(self) -> Option<Chain> {
        match self {
            Workload::Archive | Workload::FleetServe => Some(Chain::Full),
            Workload::Ensembles => Some(Chain::Featurization),
            Workload::RelayWire => None,
        }
    }

    /// Pool cycles each station sends in one closed-loop pass. An
    /// untraced pass takes about a second: `--seconds` then holds 20 to
    /// 30 of them, and a pass's CPU time is a hundred or more of
    /// `/proc/self/stat`'s 10 ms ticks. The traced run's passes are
    /// shorter (on `ensembles` a cycle is only ~1k records, but every one
    /// of them passes five traced stages), to keep the span file in the
    /// tens of megabytes.
    pub fn cycles_per_pass(self, traced_run: bool) -> usize {
        match (self, traced_run) {
            (Workload::Ensembles, false) => 30,
            (Workload::Ensembles, true) => 10,
            (_, false) => 2,
            (_, true) => 1,
        }
    }

    /// Clips that make one open-loop *job* — what falls due at one
    /// instant and is timed as one. A job is one clip, except on
    /// `ensembles`: an extracted clip is anything from 2 records
    /// (silence) to a few hundred, so the median of single-clip times
    /// would say which clip the seed made the median one, not how fast
    /// the path is. There a job is the whole pool's extracted clips,
    /// sent back to back and timed to the last one's close.
    pub fn clips_per_job(self, units: usize) -> usize {
        match self {
            Workload::Ensembles => units,
            _ => 1,
        }
    }

    /// How the workload is loaded, for the report's fingerprint.
    pub fn loop_statement(self, stations: usize) -> String {
        let who = if self.is_serve() {
            format!("{stations} connections, one generator thread each")
        } else {
            "one in-process feed".to_string()
        };
        format!(
            "end-to-end metrics: closed loop ({who}, next clip sent as soon as the previous is \
             accepted); turnaround (traced run): open loop at {PACED_JOBS_PER_SEC} jobs/s ({}), \
             each timed from its due time",
            match self {
                Workload::Ensembles => "a job is the pool's extracted clips back to back",
                _ => "a job is one clip",
            }
        )
    }
}

/// Run sizes that do not depend on the workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Species clips in the pool; one ambience-only clip is added.
    pub species: usize,
    pub clip_seconds: f64,
    /// Set-up is repeated this often and the median time reported.
    pub setup_repeats: usize,
    /// Closed-loop passes run even if `--seconds` is already spent.
    pub min_passes: usize,
    /// Refuse a percentile with fewer than ten samples beyond it. Off
    /// only for `--smoke`, which checks plumbing, not tails.
    pub strict_percentiles: bool,
    /// Jobs of the traced run's untraced open-loop phase (generator
    /// lateness and the turnaround tail): at least 200, for a p95.
    pub late_jobs: usize,
    /// Jobs of the serve workloads' traced open-loop phase, kept short
    /// so the span file stays small.
    pub traced_paced_jobs: usize,
}

impl Sizes {
    /// Paper scale: 10 species + silence, 30 s clips (722 source records
    /// each).
    pub fn full() -> Sizes {
        Sizes {
            species: 10,
            clip_seconds: 30.0,
            setup_repeats: 5,
            min_passes: 3,
            strict_percentiles: true,
            late_jobs: 210,
            traced_paced_jobs: 30,
        }
    }

    /// A few seconds end to end: 2 species + silence, 6 s clips (long
    /// enough for the trigger to warm up and cut ensembles), one set-up,
    /// one pass.
    pub fn smoke() -> Sizes {
        Sizes {
            species: 2,
            clip_seconds: 6.0,
            setup_repeats: 1,
            min_passes: 1,
            strict_percentiles: false,
            late_jobs: 12,
            traced_paced_jobs: 6,
        }
    }
}

/// Stations a serve workload uses on this host.
pub fn stations(nproc: usize) -> usize {
    STATIONS.min(nproc).max(1)
}

// ---------------------------------------------------------------------
// Output verification
// ---------------------------------------------------------------------

/// What one clip produced: how many records reached the sink and a
/// digest of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClipOutcome {
    pub records: u64,
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a folded over 64-bit words instead of bytes: one multiply per
/// sample keeps the check under a few percent of the cheapest path
/// (`relay_wire`, 840 samples per record).
fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

fn fold_record(mut hash: u64, record: &Record) -> u64 {
    hash = fold(
        hash,
        u64::from(record.kind.tag())
            | u64::from(record.subtype) << 8
            | u64::from(record.scope_type) << 24,
    );
    let samples = record
        .payload
        .as_f64()
        .or_else(|| record.payload.as_complex());
    match samples {
        Some(samples) => samples.iter().fold(hash, |h, x| fold(h, x.to_bits())),
        None => fold(hash, record.byte_len() as u64),
    }
}

/// A clip that reached a sink.
#[derive(Debug, Clone, Copy)]
pub struct ClipDone {
    /// Server session id, 0 in process.
    pub lane: u64,
    pub outcome: ClipOutcome,
    /// When the clip's `CloseScope(CLIP)` reached the sink.
    pub done_ns: u64,
}

/// Where the sinks of one pass report finished clips.
#[derive(Debug, Clone, Default)]
pub struct Collector(Arc<Mutex<Vec<ClipDone>>>);

impl Collector {
    pub fn sink(&self, lane: u64, traced: bool) -> VerifySink {
        VerifySink {
            lane,
            collector: self.clone(),
            records: 0,
            digest: FNV_OFFSET,
            spans: traced.then(|| ClipCounter::new(lane)),
        }
    }

    fn take(&self) -> Vec<ClipDone> {
        std::mem::take(&mut *self.0.lock().expect("a sink panicked mid-push"))
    }
}

/// The final sink of every pass: digests what arrives and reports each
/// clip as its `CloseScope(CLIP)` (or a repair's `BadCloseScope`, which
/// then fails the digest check) comes through.
pub struct VerifySink {
    lane: u64,
    collector: Collector,
    records: u64,
    digest: u64,
    /// Set on traced passes: the sink then records a `sink` span per
    /// push, so its time is not charged to the last stage.
    spans: Option<ClipCounter>,
}

impl Sink for VerifySink {
    fn push(&mut self, record: Record) -> Result<(), sut::PipelineError> {
        let _span = self
            .spans
            .as_mut()
            .map(|clips| trace::enter(trace::SINK_SPAN, clips.observe(&record)));
        self.records += 1;
        self.digest = fold_record(self.digest, &record);
        if record.kind.closes_scope() && record.scope_type == CLIP_SCOPE {
            let done = ClipDone {
                lane: self.lane,
                outcome: ClipOutcome {
                    records: self.records,
                    digest: self.digest,
                },
                done_ns: now_ns(),
            };
            self.records = 0;
            self.digest = FNV_OFFSET;
            self.collector
                .0
                .lock()
                .map_err(|_| sut::PipelineError::Disconnected("collector poisoned".into()))?
                .push(done);
        }
        Ok(())
    }
}

/// Counts the bytes `relay_wire`'s `StreamOut` writes.
struct CountingWriter(Arc<AtomicU64>);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Relaxed: a statistic read after the writers are joined.
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Plans and pacing
// ---------------------------------------------------------------------

/// One clip to send. Times are ns after the pass starts and only set in
/// an open-loop pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub unit: usize,
    /// First clip of a job: hold it back until the job is due.
    pub wait_ns: Option<u64>,
    /// Last clip of a job: its arrival is a turnaround sample, timed
    /// from this due time.
    pub due_ns: Option<u64>,
}

/// What every station sends in one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub stations: Vec<Vec<Slot>>,
}

impl Plan {
    /// Closed loop: every station sends the pool `cycles` times, in pool
    /// order, each clip as soon as the previous one is accepted.
    pub fn closed(units: usize, cycles: usize, stations: usize) -> Plan {
        let slots: Vec<Slot> = (0..units * cycles)
            .map(|k| Slot {
                unit: k % units,
                wait_ns: None,
                due_ns: None,
            })
            .collect();
        Plan {
            stations: vec![slots; stations],
        }
    }

    /// Open loop: `jobs` jobs of `clips_per_job` clips fall due at a
    /// fixed interval, the stations taking turns (so one station's jobs
    /// are `stations` intervals apart). The seed only picks where in the
    /// pool the sequence starts; due times never depend on how the run
    /// goes.
    pub fn paced(
        units: usize,
        jobs: usize,
        clips_per_job: usize,
        stations: usize,
        seed: u64,
    ) -> Plan {
        let interval_ns = 1e9 / PACED_JOBS_PER_SEC;
        let first = (seed % units as u64) as usize;
        let mut plan = Plan {
            stations: vec![Vec::new(); stations],
        };
        for job in 0..jobs {
            // Half an interval of lead so the first job is not due
            // before its station has connected.
            let due = Some(((job as f64 + 0.5) * interval_ns) as u64);
            for i in 0..clips_per_job {
                plan.stations[job % stations].push(Slot {
                    unit: (first + job * clips_per_job + i) % units,
                    wait_ns: due.filter(|_| i == 0),
                    due_ns: due.filter(|_| i + 1 == clips_per_job),
                });
            }
        }
        plan
    }

    pub fn clips(&self) -> usize {
        self.stations.iter().map(Vec::len).sum()
    }
}

/// Holds a generator to a plan's due times and notes how late it woke.
#[derive(Clone)]
struct Pacer {
    start_ns: u64,
    late_ns: Arc<Mutex<Vec<u64>>>,
}

impl Pacer {
    fn new() -> Pacer {
        Pacer {
            start_ns: now_ns(),
            late_ns: Arc::default(),
        }
    }

    /// Blocks until `slot` may be sent (not at all in a closed loop).
    fn wait(&self, slot: Slot) {
        let Some(wait_ns) = slot.wait_ns else {
            return;
        };
        let target = self.start_ns + wait_ns;
        loop {
            let now = now_ns();
            if now >= target {
                self.late_ns
                    .lock()
                    .expect("a generator panicked")
                    .push(now - target);
                return;
            }
            // Sleep most of the wait, spin the last stretch: a bare
            // sleep overshoots by a scheduler quantum.
            match target - now {
                left if left > 300_000 => std::thread::sleep(Duration::from_nanos(left - 200_000)),
                _ => std::hint::spin_loop(),
            }
        }
    }

    fn take_late(&self) -> Vec<u64> {
        std::mem::take(&mut *self.late_ns.lock().expect("a generator panicked"))
    }
}

// ---------------------------------------------------------------------
// Prepared inputs
// ---------------------------------------------------------------------

/// The pool in the form a workload consumes, one entry per clip.
enum Input {
    /// `archive`: raw samples for `wav2rec`'s clip source.
    Samples(Vec<Vec<f64>>),
    /// `ensembles`: each clip's `extraction_segment` output.
    Records(Vec<Vec<Record>>),
    /// Serve workloads: each clip pre-encoded as v2 frames.
    Wire(Vec<Vec<u8>>),
}

/// How one pass is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The library's own chain, single lane, telemetry off — the only
    /// kind that end-to-end metrics are read from.
    Plain,
    /// The chain rebuilt from [`trace::Traced`] stages, spans recorded.
    Traced,
    /// `archive` through `run_sharded` with [`SHARD_LANES`] lanes.
    Sharded,
    /// `archive` with `TelemetryConfig::Counters` instead of `Off`.
    TelemetryCounters,
}

/// How one planned clip fared.
#[derive(Debug, Clone, Copy)]
pub struct ClipRun {
    /// Absolute due time (open loop only).
    pub due_ns: Option<u64>,
    /// When its `CloseScope` reached the sink; `None` if it never did.
    pub done_ns: Option<u64>,
    /// Arrived, on a clean session, with the reference's count and
    /// digest.
    pub ok: bool,
    /// The id its spans carry on a traced pass.
    pub clip_id: u64,
}

/// What the server said about a serve pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeFacts {
    pub wire_bytes: u64,
    /// Share of the sessions' lifetime not spent executing on a worker.
    pub idle_share: f64,
    pub peak_sessions: usize,
    pub repaired_sessions: usize,
}

#[derive(Debug, Default)]
pub struct PassResult {
    pub wall_ns: u64,
    pub source_records: u64,
    pub clips: Vec<ClipRun>,
    /// Generator lateness per paced job.
    pub late_ns: Vec<u64>,
    pub serve: Option<ServeFacts>,
}

impl PassResult {
    pub fn records_per_sec(&self) -> f64 {
        self.source_records as f64 * 1e9 / self.wall_ns as f64
    }

    pub fn ns_per_record(&self) -> f64 {
        self.wall_ns as f64 / self.source_records as f64
    }

    pub fn failed(&self) -> usize {
        self.clips.iter().filter(|c| !c.ok).count()
    }
}

/// A workload with its inputs generated and its reference computed.
pub struct Prepared {
    pub workload: Workload,
    pub nproc: usize,
    input: Input,
    /// Reference outcome per unit, from a single-lane `run_streaming`.
    expected: Vec<ClipOutcome>,
    /// Source records of one pool cycle.
    cycle_records: u64,
    /// `relay_wire`: bytes its `StreamOut` writes per unit.
    relay_bytes: Vec<u64>,
    eos: Vec<u8>,
}

type BenchResult<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Splits a record stream into its top-level clip scopes.
fn split_clips(records: Vec<Record>) -> Vec<Vec<Record>> {
    let mut clips = Vec::new();
    let mut current = Vec::new();
    for record in records {
        let closes = record.kind.closes_scope() && record.scope_type == CLIP_SCOPE;
        current.push(record);
        if closes {
            clips.push(std::mem::take(&mut current));
        }
    }
    clips
}

impl Prepared {
    /// Set-up: synthesizes the pool from `seed`, converts it to the
    /// workload's input form, and runs the reference.
    pub fn new(workload: Workload, seed: u64, sizes: Sizes, nproc: usize) -> BenchResult<Prepared> {
        let pool = sut::synth_pool(seed, sizes.species, sizes.clip_seconds);
        let clip_records =
            |clip: &Vec<f64>| -> BenchResult<Vec<Record>> { sut::clip_records(clip).map_err(err) };
        let mut relay_bytes = Vec::new();

        // Each arm yields the input, the records the reference chain is
        // fed per unit, and that chain.
        let (input, reference_in, mut reference_chain): (Input, Vec<Vec<Record>>, Pipeline) =
            match workload {
                Workload::Archive => {
                    let records = pool.iter().map(clip_records).collect::<BenchResult<_>>()?;
                    (Input::Samples(pool), records, Chain::Full.build())
                }
                Workload::Ensembles => {
                    let mut extracted = Vec::new();
                    Chain::Extraction
                        .build()
                        .run_streaming(sut::clip_source(pool), &mut extracted)
                        .map_err(err)?;
                    let clips = split_clips(extracted);
                    (
                        Input::Records(clips.clone()),
                        clips,
                        Chain::Featurization.build(),
                    )
                }
                Workload::RelayWire | Workload::FleetServe => {
                    let wire = if workload == Workload::RelayWire {
                        Wire::F64
                    } else {
                        Wire::F32
                    };
                    let encoded: Vec<Vec<u8>> = pool
                        .iter()
                        .map(|clip| Ok(sut::encode(&clip_records(clip)?, wire)))
                        .collect::<BenchResult<_>>()?;
                    // The reference sees what a session's chain sees: the
                    // records the assembler yields from these very bytes,
                    // so a lossy encoding is compared like for like.
                    let decoded: Vec<Vec<Record>> =
                        encoded.iter().map(|bytes| sut::assemble(bytes)).collect();
                    let chain = if workload == Workload::RelayWire {
                        for records in &decoded {
                            relay_bytes.push(sut::encode(records, Wire::F32).len() as u64);
                        }
                        sut::relay_chain(std::io::sink(), None)
                    } else {
                        Chain::Full.build()
                    };
                    // Starting a server is part of these workloads'
                    // set-up cost.
                    sut::start_server(
                        |_| Pipeline::new(),
                        1,
                        1,
                        |_| Box::new(sut::CountingSink::default()),
                    )
                    .and_then(sut::ServerHandle::shutdown)
                    .map_err(err)?;
                    (Input::Wire(encoded), decoded, chain)
                }
            };

        let units = reference_in.len();
        let cycle_records = reference_in.iter().map(|r| r.len() as u64).sum();
        let collector = Collector::default();
        reference_chain
            .run_streaming(
                reference_in.into_iter().flatten(),
                &mut collector.sink(0, false),
            )
            .map_err(err)?;
        let expected: Vec<ClipOutcome> = collector.take().iter().map(|d| d.outcome).collect();
        if expected.len() != units {
            return Err(format!(
                "reference produced {} clips from {units} units",
                expected.len()
            ));
        }
        Ok(Prepared {
            workload,
            nproc,
            input,
            expected,
            cycle_records,
            relay_bytes,
            eos: sut::eos_bytes(),
        })
    }

    pub fn units(&self) -> usize {
        self.expected.len()
    }

    pub fn stations(&self) -> usize {
        if self.workload.is_serve() {
            stations(self.nproc)
        } else {
            1
        }
    }

    /// Due-to-done times in ms of the jobs of `pass` that arrived intact.
    ///
    /// On `ensembles` a job is one pool cycle of extracted clips, and how
    /// many records that is depends on the seed (about 600 to 1,300), so
    /// the times are scaled to a job of 1,000 source records; a job of
    /// the other workloads is always one 722-record clip.
    pub fn turnarounds_ms(&self, pass: &PassResult) -> Vec<f64> {
        let scale = match self.workload {
            Workload::Ensembles => 1000.0 / self.cycle_records as f64,
            _ => 1.0,
        };
        pass.clips
            .iter()
            .filter(|c| c.ok)
            .filter_map(|c| Some(c.done_ns?.saturating_sub(c.due_ns?) as f64 * scale / 1e6))
            .collect()
    }

    /// A closed-loop plan of the workload's pass size, for the untraced
    /// or the traced run.
    pub fn closed_plan(&self, traced_run: bool) -> Plan {
        Plan::closed(
            self.units(),
            self.workload.cycles_per_pass(traced_run),
            self.stations(),
        )
    }

    /// An open-loop plan of `jobs` jobs.
    pub fn paced_plan(&self, jobs: usize, seed: u64) -> Plan {
        Plan::paced(
            self.units(),
            jobs,
            self.workload.clips_per_job(self.units()),
            self.stations(),
            seed,
        )
    }

    /// Drives `plan` through the workload's path and verifies every
    /// clip.
    pub fn run_pass(&self, plan: &Plan, pass: Pass) -> BenchResult<PassResult> {
        match &self.input {
            Input::Samples(clips) => {
                let pacer = Pacer::new();
                let feed = pacer.clone();
                let slots = plan.stations[0].clone();
                let source = sut::clip_source(slots.into_iter().map(move |slot| {
                    // Copy first, then wait: like pre-encoded wire
                    // bytes, the clip is ready when it falls due.
                    let clip = clips[slot.unit].clone();
                    feed.wait(slot);
                    clip
                }));
                self.run_in_process(plan, pass, source, &pacer)
            }
            Input::Records(clips) => {
                let pacer = Pacer::new();
                let feed = pacer.clone();
                let slots = plan.stations[0].clone();
                let source = slots.into_iter().flat_map(move |slot| {
                    let clip = clips[slot.unit].clone();
                    feed.wait(slot);
                    clip
                });
                self.run_in_process(plan, pass, source, &pacer)
            }
            Input::Wire(clips) => self.run_served(plan, pass, clips),
        }
    }

    fn run_in_process(
        &self,
        plan: &Plan,
        pass: Pass,
        source: impl Source + Send,
        pacer: &Pacer,
    ) -> BenchResult<PassResult> {
        let kind = self
            .workload
            .chain()
            .expect("in-process workloads run a chain");
        let collector = Collector::default();
        let mut sink = collector.sink(0, pass == Pass::Traced);
        let stats = match pass {
            Pass::Plain => kind.build().run_streaming(source, &mut sink),
            Pass::Traced => kind
                .build_traced(0)
                .run_streaming(TracedSource(source), &mut sink),
            Pass::Sharded => kind.build().run_sharded(source, &mut sink, SHARD_LANES),
            Pass::TelemetryCounters => kind
                .build()
                .set_telemetry(sut::TelemetryConfig::Counters)
                .run_streaming(source, &mut sink),
        }
        .map_err(err)?;
        let wall_ns = now_ns() - pacer.start_ns;
        let done = collector.take();
        let clips = self.judge(&plan.stations[0], &done, pacer.start_ns, 0, true);
        Ok(PassResult {
            wall_ns,
            source_records: stats.source_records,
            clips,
            late_ns: pacer.take_late(),
            serve: None,
        })
    }

    /// Matches the clips a lane's sink reported, in order, against the
    /// slots that lane was sent.
    fn judge(
        &self,
        slots: &[Slot],
        done: &[ClipDone],
        start_ns: u64,
        lane: u64,
        lane_clean: bool,
    ) -> Vec<ClipRun> {
        slots
            .iter()
            .enumerate()
            .map(|(k, slot)| {
                let arrived = done.get(k);
                ClipRun {
                    due_ns: slot.due_ns.map(|d| start_ns + d),
                    done_ns: arrived.map(|d| d.done_ns),
                    ok: lane_clean
                        && done.len() == slots.len()
                        && arrived.is_some_and(|d| d.outcome == self.expected[slot.unit]),
                    clip_id: trace::clip_id(lane, k as u64 + 1),
                }
            })
            .collect()
    }

    fn run_served(&self, plan: &Plan, pass: Pass, wire: &[Vec<u8>]) -> BenchResult<PassResult> {
        let workload = self.workload;
        let collector = Collector::default();
        let sinks = collector.clone();
        let relayed = Arc::new(AtomicU64::new(0));
        let relay_count = Arc::clone(&relayed);
        let traced = pass == Pass::Traced;
        let build = move |session: u64| {
            let lane = traced.then_some(session);
            match (workload, lane) {
                (Workload::RelayWire, _) => {
                    sut::relay_chain(CountingWriter(Arc::clone(&relay_count)), lane)
                }
                (_, Some(lane)) => Chain::Full.build_traced(lane),
                (_, None) => Chain::Full.build(),
            }
        };
        let handle =
            sut::start_server(build, plan.stations.len(), SERVER_WORKERS, move |session| {
                Box::new(sinks.sink(session, traced))
            })
            .map_err(err)?;
        let addr = handle.local_addr();

        let pacer = Pacer::new();
        let eos = self.eos.as_slice();
        let sent: Vec<std::io::Result<String>> = std::thread::scope(|scope| {
            let generators: Vec<_> = plan
                .stations
                .iter()
                .map(|slots| {
                    let pacer = pacer.clone();
                    scope.spawn(move || send_station(addr, slots, wire, eos, &pacer))
                })
                .collect();
            generators
                .into_iter()
                .map(|g| g.join().expect("a generator panicked"))
                .collect()
        });
        let mut peers = Vec::new();
        for station in sent {
            match station {
                Ok(peer) => peers.push(peer),
                Err(e) => {
                    // Do not wait for sessions that may never complete.
                    let _ = handle.shutdown();
                    return Err(format!("station could not send: {e}"));
                }
            }
        }
        handle.wait_for_completed(plan.stations.len() as u64);
        let wall_ns = now_ns() - pacer.start_ns;
        let report = handle.shutdown().map_err(err)?;

        let done = collector.take();
        let mut sent_relay_bytes = 0;
        let mut clips = Vec::new();
        for session in &report.sessions {
            let Some(station) = peers.iter().position(|p| *p == session.peer) else {
                continue; // the shutdown wake-up connection
            };
            let slots = &plan.stations[station];
            let arrived: Vec<ClipDone> = done
                .iter()
                .filter(|d| d.lane == session.id)
                .copied()
                .collect();
            clips.extend(self.judge(
                slots,
                &arrived,
                pacer.start_ns,
                session.id,
                session.is_clean(),
            ));
            if workload == Workload::RelayWire {
                sent_relay_bytes += slots.iter().map(|s| self.relay_bytes[s.unit]).sum::<u64>()
                    + self.eos.len() as u64;
            }
        }
        // A station whose session never showed up, or a relay that wrote
        // other bytes than the reference, fails every clip of the pass.
        let whole = clips.len() == plan.clips()
            && (workload != Workload::RelayWire
                || relayed.load(Ordering::Relaxed) == sent_relay_bytes);
        if !whole {
            clips.resize(
                plan.clips(),
                ClipRun {
                    due_ns: None,
                    done_ns: None,
                    ok: false,
                    clip_id: 0,
                },
            );
            clips.iter_mut().for_each(|c| c.ok = false);
        }

        let lifetime: Duration = report.sessions.iter().map(|s| s.duration).sum();
        let idle: Duration = report.sessions.iter().map(|s| s.idle).sum();
        Ok(PassResult {
            wall_ns,
            source_records: report.sessions.iter().map(|s| s.received).sum(),
            clips,
            late_ns: pacer.take_late(),
            serve: Some(ServeFacts {
                wire_bytes: report.sessions.iter().map(|s| s.wire_bytes).sum(),
                idle_share: idle.as_secs_f64() / lifetime.as_secs_f64().max(f64::MIN_POSITIVE),
                peak_sessions: report.peak_sessions,
                repaired_sessions: report.repaired_sessions(),
            }),
        })
    }
}

/// One station: connects, sends its clips (each when due), then the
/// end-of-stream sentinel. Returns the address the server knows it by.
fn send_station(
    addr: SocketAddr,
    slots: &[Slot],
    wire: &[Vec<u8>],
    eos: &[u8],
    pacer: &Pacer,
) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let peer = stream.local_addr()?.to_string();
    for &slot in slots {
        pacer.wait(slot);
        stream.write_all(&wire[slot.unit])?;
    }
    stream.write_all(eos)?;
    Ok(peer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes;

    #[test]
    fn paced_plan_is_deterministic_and_fits_the_host() {
        for nproc in [1, 2, 8] {
            let n = stations(nproc);
            assert!(n >= 1 && n <= nproc && n <= STATIONS, "nproc {nproc}");
            let plan = Plan::paced(11, 240, 1, n, 2007);
            assert_eq!(plan, Plan::paced(11, 240, 1, n, 2007));
            assert_eq!(plan.stations.len(), n);
            assert_eq!(plan.clips(), 240);
            // Over all stations the clips fall due 1/12 s apart, in a
            // pool order that starts where the seed says.
            let mut all: Vec<Slot> = plan.stations.concat();
            all.sort_by_key(|s| s.due_ns);
            let interval = 1e9 / PACED_JOBS_PER_SEC;
            for (k, slot) in all.iter().enumerate() {
                assert_eq!(slot.unit, (2007 % 11 + k) % 11);
                assert_eq!(slot.due_ns, Some(((k as f64 + 0.5) * interval) as u64));
                assert_eq!(slot.wait_ns, slot.due_ns);
            }
        }
        assert_ne!(Plan::paced(11, 20, 1, 2, 1), Plan::paced(11, 20, 1, 2, 2));

        // A job of several clips waits on its first and is timed at its
        // last, all on one station.
        let plan = Plan::paced(3, 4, 3, 2, 0);
        assert_eq!(plan.clips(), 12);
        for station in &plan.stations {
            for job in station.chunks(3) {
                let due = job[0].wait_ns;
                assert!(due.is_some() && job[2].due_ns == due);
                assert!(job[0].due_ns.is_none() && job[1].wait_ns.is_none());
                assert!(job[1].due_ns.is_none() && job[2].wait_ns.is_none());
            }
        }
    }

    #[test]
    fn closed_plan_cycles_the_pool_on_every_station() {
        let plan = Plan::closed(3, 2, 2);
        let units: Vec<usize> = plan.stations[1].iter().map(|s| s.unit).collect();
        assert_eq!(units, [0, 1, 2, 0, 1, 2]);
        assert!(plan.stations[0]
            .iter()
            .all(|s| s.due_ns.is_none() && s.wait_ns.is_none()));
        assert_eq!(plan.clips(), 12);
    }

    #[test]
    fn digest_tells_payload_kind_and_order_apart() {
        let a = Record::data(1, sut::Payload::f64(vec![1.0, 2.0]));
        let b = Record::data(1, sut::Payload::f64(vec![2.0, 1.0]));
        let c = Record::data(2, sut::Payload::f64(vec![1.0, 2.0]));
        let digests: Vec<u64> = [&a, &b, &c]
            .iter()
            .map(|r| fold_record(FNV_OFFSET, r))
            .collect();
        assert_ne!(digests[0], digests[1]);
        assert_ne!(digests[0], digests[2]);
        assert_eq!(digests[0], fold_record(FNV_OFFSET, &a.clone()));
        assert_ne!(
            fold_record(FNV_OFFSET, &Record::close_scope(CLIP_SCOPE)),
            fold_record(FNV_OFFSET, &Record::bad_close_scope(CLIP_SCOPE))
        );
    }

    /// `Traced` changes nothing the library can see: the analyzer is as
    /// clean as for the plain chain, and every pass — single-lane,
    /// sharded (which clones the wrappers) — yields the reference
    /// digests.
    #[test]
    fn traced_chain_is_transparent() {
        let _serial = trace::TEST_SERIAL.lock().unwrap();
        for chain in [Chain::Full, Chain::Featurization] {
            assert_eq!(chain.build_traced(0).names(), chain.build().names());
            assert_eq!(chain.build_traced(0).check(), chain.build().check());
        }
        let prep = Prepared::new(Workload::Archive, 7, Sizes::smoke(), probes::nproc()).unwrap();
        let plan = prep.closed_plan(true);
        let traced = prep.run_pass(&plan, Pass::Traced).unwrap();
        assert_eq!(traced.failed(), 0);
        assert_eq!(traced.clips.len(), prep.units());
        let spans = trace::drain();
        assert!(spans.iter().any(|s| s.name == "saxanomaly"));
        assert!(spans.iter().any(|s| s.name == trace::SOURCE_SPAN));

        // Sharded over clones of the traced chain: same output.
        let mut sharded_out = Collector::default().sink(0, false);
        let Input::Samples(clips) = &prep.input else {
            unreachable!()
        };
        let collector = sharded_out.collector.clone();
        Chain::Full
            .build_traced(0)
            .run_sharded(sut::clip_source(clips.clone()), &mut sharded_out, 2)
            .unwrap();
        let outcomes: Vec<ClipOutcome> = collector.take().iter().map(|d| d.outcome).collect();
        assert_eq!(outcomes, prep.expected);
        trace::drain();
    }
}
