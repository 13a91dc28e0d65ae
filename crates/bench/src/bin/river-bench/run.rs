//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.
//!
//! Both end in a [`RunOutput`], printed as the result line the benchmark
//! contract asks for.

use crate::json::Json;
use crate::layers;
use crate::metrics::{self, median, percentile, quantile, Values};
use crate::probes;
use crate::sut::{self, STAGES};
use crate::trace::{self, Span, Summary};
use crate::workloads::{Pass, PassResult, Plan, Prepared, Sizes, Workload};
use std::path::PathBuf;
use std::time::Instant;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phases (`--seconds`).
    pub seconds: f64,
    pub sizes: Sizes,
    /// Where a traced run writes `trace_<workload>.jsonl`.
    pub out_dir: PathBuf,
}

pub struct RunOutput {
    /// Clips sent through timed or traced passes, and how many of them
    /// failed verification.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// Sample counts, pass sizes and the like for the report's
    /// fingerprint.
    pub facts: Vec<(String, Json)>,
}

impl RunOutput {
    /// The result line of the benchmark contract.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(d, v)| {
                    (
                        d.name.clone(),
                        Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Counts attempted and failed clips over the passes of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, pass: &PassResult) {
        self.attempted += pass.clips.len() as u64;
        self.failed += pass.failed() as u64;
    }
}

fn note(message: &str) {
    eprintln!("river-bench: {message}");
}

/// The `p`-th percentile of `samples`, refused without ten samples
/// beyond it — except under `--smoke`, where it falls back to the
/// median (p ≤ 50) or the maximum.
fn percentile_of(samples: &[f64], p: f64, sizes: Sizes) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no paced job arrived intact".into());
    }
    match percentile(samples, p) {
        Ok(value) => Ok(value),
        Err(_) if !sizes.strict_percentiles && p <= 50.0 => Ok(median(samples)),
        Err(_) if !sizes.strict_percentiles => Ok(samples.iter().copied().fold(0.0, f64::max)),
        Err(e) => Err(format!("{e}; --seconds is too short for the paced phase")),
    }
}

fn late_ms(pass: &PassResult) -> Vec<f64> {
    pass.late_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
}

/// Where in the spread of a run's passes its throughput is read: the
/// rate a tenth of the passes reached or beat (and, for CPU time, the
/// cost a tenth of them stayed at or under).
///
/// The hosts this runs on slow down for seconds to minutes at a time —
/// a neighbour on the hypervisor — and never speed up, so a pass is
/// either undisturbed or slower. Over the same 40 runs (ten seeds per
/// workload) the medians of the pass rates spread 4.0–8.8 % between runs
/// (quartile distance over median, per workload) and these deciles
/// 3.0–5.4 %; the median, minimum and maximum are kept in the run's
/// `facts`.
const QUIET_SIDE: f64 = 0.9;

/// The untraced run: set-up (repeated, median time), then closed-loop
/// passes for `--seconds`.
pub fn run_untraced(cfg: &RunConfig) -> Result<RunOutput, String> {
    let RunConfig {
        workload,
        seed,
        seconds,
        sizes,
        ..
    } = *cfg;
    let nproc = probes::nproc();
    let mut metrics = Values::unset(metrics::end_to_end());
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..sizes.setup_repeats.max(1) {
        // One set of inputs at a time, as a user would hold.
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(Prepared::new(workload, seed, sizes, nproc)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let prep = prepared.expect("set up at least once");
    metrics.set("setup_s", median(&setup_s));

    let plan = prep.closed_plan(false);
    let phase = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < sizes.min_passes || phase.elapsed().as_secs_f64() < seconds {
        passes.push(timed(&prep, &plan, Pass::Plain, &mut tally)?);
        if passes.len() == 1 {
            // Read after the first pass. The serve workloads start a
            // fresh server per pass, and on later passes the allocator
            // arenas of its new threads grow at random moments, by a
            // session's backlog (~27 MB) a step: that would measure the
            // harness's restarts, not the system.
            match probes::peak_rss_mib() {
                Some(mib) => metrics.set("peak_rss_mb", mib),
                None => note("no /proc/self/status on this host: peak_rss_mb omitted"),
            }
        }
    }
    let rates: Vec<f64> = passes.iter().map(|t| t.pass.records_per_sec()).collect();
    metrics.set("records_per_sec", quantile(&rates, QUIET_SIDE));
    let cpus: Option<Vec<f64>> = passes
        .iter()
        .map(|t| Some(t.cpu_us? as f64 / t.pass.source_records as f64))
        .collect();
    match &cpus {
        Some(cpus) => metrics.set("cpu_us_per_record", quantile(cpus, 1.0 - QUIET_SIDE)),
        None => note("no /proc/self/stat on this host: cpu_us_per_record omitted"),
    }

    let records: u64 = passes.iter().map(|t| t.pass.source_records).sum();
    let facts = vec![
        ("closed_passes".into(), Json::Num(passes.len() as f64)),
        ("closed_pass_clips".into(), Json::Num(plan.clips() as f64)),
        (
            "closed_pass_records".into(),
            Json::Num((records / passes.len() as u64) as f64),
        ),
        (
            "records_per_sec_min".into(),
            Json::Num(rates.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("records_per_sec_median".into(), Json::Num(median(&rates))),
        (
            "records_per_sec_max".into(),
            Json::Num(rates.iter().copied().fold(0.0, f64::max)),
        ),
        ("setup_repeats".into(), Json::Num(setup_s.len() as f64)),
        (
            "loops".into(),
            Json::str(workload.loop_statement(prep.stations())),
        ),
    ];
    Ok(RunOutput {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        facts,
    })
}

/// A pass with the process CPU time it took.
struct Timed {
    pass: PassResult,
    cpu_us: Option<u64>,
}

fn timed(prep: &Prepared, plan: &Plan, kind: Pass, tally: &mut Tally) -> Result<Timed, String> {
    let before = probes::cpu_time_us();
    let pass = prep.run_pass(plan, kind)?;
    tally.add(&pass);
    let cpu_us = before
        .zip(probes::cpu_time_us())
        .map(|(before, after)| after - before);
    Ok(Timed { pass, cpu_us })
}

fn median_of(passes: &[Timed], f: impl Fn(&PassResult) -> f64) -> f64 {
    median(&passes.iter().map(|t| f(&t.pass)).collect::<Vec<_>>())
}

/// Median over the rounds of `f(pass) / f(plain pass of the same
/// round)`: the two were run back to back, so a slow stretch of the host
/// hits both sides of a ratio.
fn paired_ratio(passes: &[Timed], plain: &[Timed], f: impl Fn(&PassResult) -> f64) -> f64 {
    let ratios: Vec<f64> = passes
        .iter()
        .zip(plain)
        .map(|(p, base)| f(&p.pass) / f(&base.pass))
        .collect();
    median(&ratios)
}

/// CPU microseconds per record over `passes`, if the probe works here.
fn cpu_us_per_record(passes: &[Timed]) -> Option<f64> {
    let cpu: u64 = passes.iter().map(|t| t.cpu_us).sum::<Option<u64>>()?;
    let records: u64 = passes.iter().map(|t| t.pass.source_records).sum();
    Some(cpu as f64 / records as f64)
}

/// Rounds of the traced run's closed-loop section. Each round is one
/// untraced pass, then (where they apply) a sharded pass and a
/// telemetry-counters pass, then a traced pass — interleaved so drift
/// hits all kinds alike. The last round has no traced pass.
const ROUNDS: usize = 5;

/// The traced run: interleaved untraced and traced closed-loop passes
/// (spans, tracing overhead, `shard.*`, `telemetry.*`), an
/// allocation-counted pass, an untraced paced phase for the generator's
/// lateness, a short traced paced phase for `serve.wire_to_chain`, and
/// the direct layer probes.
pub fn run_traced(cfg: &RunConfig) -> Result<RunOutput, String> {
    let RunConfig {
        workload,
        seed,
        sizes,
        ..
    } = *cfg;
    let nproc = probes::nproc();
    let mut metrics = Values::zeroed(metrics::per_layer());
    let mut tally = Tally::default();
    let prep = Prepared::new(workload, seed, sizes, nproc)?;
    let archive = workload == Workload::Archive;
    let can_shard = archive && nproc >= 2;
    if archive && !can_shard {
        note("fewer than 2 cores: sharded passes omitted, shard.* read 0");
    }

    trace::drain();
    let plan = prep.closed_plan(true);
    let (mut plain, mut sharded, mut counted, mut traced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        plain.push(timed(&prep, &plan, Pass::Plain, &mut tally)?);
        if can_shard {
            sharded.push(timed(&prep, &plan, Pass::Sharded, &mut tally)?);
        }
        if archive {
            counted.push(timed(&prep, &plan, Pass::TelemetryCounters, &mut tally)?);
        }
        if round + 1 < ROUNDS {
            traced.push(timed(&prep, &plan, Pass::Traced, &mut tally)?);
        }
    }
    let mut spans = trace::drain();

    let plain_ns = median_of(&plain, PassResult::ns_per_record);
    metrics.set(
        "trace.overhead_ratio",
        paired_ratio(&traced, &plain, PassResult::ns_per_record),
    );
    let traced_records: u64 = traced.iter().map(|t| t.pass.source_records).sum();
    stage_metrics(
        &mut metrics,
        &Summary::of(&spans),
        traced_records,
        workload,
        plain_ns,
    );

    if can_shard {
        let rate = median_of(&sharded, PassResult::records_per_sec);
        metrics.set("records_per_sec_sharded", rate);
        metrics.set(
            "shard.speedup",
            paired_ratio(&sharded, &plain, PassResult::records_per_sec),
        );
        if let Some((lanes, single)) = cpu_us_per_record(&sharded).zip(cpu_us_per_record(&plain)) {
            metrics.set("shard.cpu_overhead_us_per_record", lanes - single);
        }
    }
    if archive {
        metrics.set(
            "telemetry.counters_overhead_ratio",
            paired_ratio(&counted, &plain, PassResult::ns_per_record),
        );
    }
    if let Some(facts) = plain.last().and_then(|t| t.pass.serve) {
        let pass = &plain[plain.len() - 1].pass;
        metrics.set("serve.ingest_ns_per_record", plain_ns);
        metrics.set("serve.socket_idle_share", facts.idle_share);
        metrics.set("serve.peak_sessions", facts.peak_sessions as f64);
        metrics.set(
            "wire_bytes_per_record",
            facts.wire_bytes as f64 / pass.source_records as f64,
        );
    }

    let (alloc_pass, allocs) = probes::count_allocs(|| prep.run_pass(&plan, Pass::Plain));
    let alloc_pass = alloc_pass?;
    tally.add(&alloc_pass);
    let alloc_records = alloc_pass.source_records as f64;
    metrics.set(
        "alloc.allocs_per_record",
        allocs.allocs as f64 / alloc_records,
    );
    metrics.set(
        "alloc.bytes_per_record",
        allocs.bytes as f64 / alloc_records,
    );

    // Open loop, untraced: enough jobs for a p95 of the generator's
    // lateness and of the turnaround.
    let late = prep.run_pass(&prep.paced_plan(sizes.late_jobs, seed), Pass::Plain)?;
    tally.add(&late);
    metrics.set(
        "loadgen.late_ms_p95",
        percentile_of(&late_ms(&late), 95.0, sizes)?,
    );
    let turnarounds = prep.turnarounds_ms(&late);
    metrics.set(
        "clip_turnaround_p50_ms",
        percentile_of(&turnarounds, 50.0, sizes)?,
    );
    metrics.set(
        "clip_turnaround_p95_ms",
        percentile_of(&turnarounds, 95.0, sizes)?,
    );

    // Open loop, traced (serve workloads): per clip, what turnaround is
    // left once the chain's own busy time is taken out — wire, read,
    // decode, assembly and queueing.
    let mut traced_paced = 0;
    let mut paced_serve = None;
    if workload.is_serve() {
        let paced = prep.run_pass(
            &prep.paced_plan(sizes.traced_paced_jobs, seed),
            Pass::Traced,
        )?;
        tally.add(&paced);
        traced_paced = paced.clips.len();
        paced_serve = paced.serve;
        let paced_spans = trace::drain();
        let busy = Summary::of(&paced_spans).stage_ns_by_clip;
        let outside: Vec<f64> = paced
            .clips
            .iter()
            .filter(|c| c.ok)
            .filter_map(|c| {
                let turnaround = c.done_ns?.saturating_sub(c.due_ns?);
                let chain = busy.get(&c.clip_id).copied().unwrap_or(0);
                Some(turnaround.saturating_sub(chain) as f64 / 1e6)
            })
            .collect();
        if !outside.is_empty() {
            metrics.set("serve.wire_to_chain_ms_per_clip", median(&outside));
        }
        spans.extend(paced_spans);
    }

    let repaired: usize = plain
        .iter()
        .chain(&traced)
        .map(|t| t.pass.serve)
        .chain([alloc_pass.serve, late.serve, paced_serve])
        .flatten()
        .map(|f| f.repaired_sessions)
        .sum();
    metrics.set("serve.repaired_sessions", repaired as f64);
    metrics.set("failed_share", tally.failed as f64 / tally.attempted as f64);

    let probe_clip = sut::synth_pool(seed, 1, sizes.clip_seconds).swap_remove(0);
    layers::probe(&probe_clip, &mut metrics)?;

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let trace_path = cfg.out_dir.join(format!("trace_{}.jsonl", workload.name()));
    trace::write_jsonl(&trace_path, &spans).map_err(|e| e.to_string())?;

    let facts = vec![
        (
            "trace_file".into(),
            Json::str(trace_path.display().to_string()),
        ),
        ("spans".into(), Json::Num(spans.len() as f64)),
        ("span_names".into(), span_names(&spans)),
        ("traced_passes".into(), Json::Num(traced.len() as f64)),
        ("traced_records".into(), Json::Num(traced_records as f64)),
        ("untraced_ns_per_record".into(), Json::Num(plain_ns)),
        (
            "shard_base_records_per_sec".into(),
            Json::Num(median_of(&plain, PassResult::records_per_sec)),
        ),
        ("late_jobs".into(), Json::Num(late.late_ns.len() as f64)),
        ("traced_paced_clips".into(), Json::Num(traced_paced as f64)),
    ];
    Ok(RunOutput {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        facts,
    })
}

/// Sets `wav2rec.*`, `ops.*` and `pipeline.*` from the closed-loop
/// traced passes' spans.
fn stage_metrics(
    metrics: &mut Values,
    summary: &Summary,
    traced_records: u64,
    workload: Workload,
    untraced_ns_per_record: f64,
) {
    let per_record = |ns: u64| ns as f64 / traced_records as f64;
    let source_ns = per_record(summary.total(trace::SOURCE_SPAN).self_ns);
    if workload == Workload::Archive {
        metrics.set("wav2rec.source_ns_per_record", source_ns);
    }
    let mut stages_ns = 0.0;
    for (i, stage) in STAGES.iter().enumerate() {
        let total = summary.total(stage);
        if total.calls == 0 {
            continue;
        }
        let busy = per_record(total.self_ns);
        stages_ns += busy;
        // What a stage emitted is what the next stage (or, after the
        // last, the sink) was called with.
        let next = STAGES.get(i + 1).copied().unwrap_or(trace::SINK_SPAN);
        let emitted = summary.total(next).calls;
        metrics.set(&format!("ops.{stage}.busy_ns_per_source_record"), busy);
        metrics.set(
            &format!("ops.{stage}.ns_per_record_in"),
            total.self_ns as f64 / total.calls as f64,
        );
        metrics.set(
            &format!("ops.{stage}.records_out_per_in"),
            emitted as f64 / total.calls as f64,
        );
    }
    if !workload.is_serve() {
        // In process the driver is what is left of a record's untraced
        // time once the source and the stages are taken out.
        metrics.set(
            "pipeline.driver_ns_per_record",
            untraced_ns_per_record - source_ns - stages_ns,
        );
        metrics.set(
            "pipeline.closure_ratio",
            (source_ns + stages_ns) / untraced_ns_per_record,
        );
    }
}

/// The distinct span names of a traced run, for the report: which
/// layers a workload loaded at all.
fn span_names(spans: &[Span]) -> Json {
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    Json::Arr(names.into_iter().map(Json::str).collect())
}
