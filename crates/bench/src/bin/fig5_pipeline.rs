//! Regenerates **Figure 5** of the paper as an executable artifact: the
//! block diagram of pipeline operators for converting acoustic clips
//! into ensembles, with per-stage record statistics from a real run of
//! the streaming executor.
//!
//! ```text
//! cargo run -p ensemble-bench --release --bin fig5_pipeline \
//!     [-- --seed N] [-- --json] [-- --repeat N] [-- --workers N]
//! ```
//!
//! `--repeat N` streams the clip N times, each repetition its own clip
//! scope (an archive workload; named `--repeat` because `--clips` is
//! the suite-wide clips-per-species flag of [`Scale`]); `--workers N`
//! with N > 1 runs the scope-sharded data-parallel executor instead of
//! the single-lane fused driver — output is byte-identical, and
//! throughput scales with the worker count up to the machine's core
//! count.
//!
//! Worker counts beyond the host's available parallelism are clamped
//! to it (extra shards on a saturated machine only add queue-hopping
//! overhead and would *understate* pipeline throughput).
//!
//! With `--json`, prints a single machine-readable line
//! (`{"workers": …, "requested_workers": …, "clamped": …, "clips": …,
//! "cores": …, "records_per_sec": …, "bytes_in": …, "bytes_out": …,
//! "peak_burst": …}`) instead of the figure — `ci.sh` appends one line
//! per worker count to `BENCH_fig5.json`, the repo's
//! pipeline-throughput scaling trajectory, and `ci.sh bench-check`
//! gates on the workers=1 line against `BENCH_baseline.json`. `cores`
//! records the host parallelism and `clamped` flags a reduced worker
//! count, so a flat curve on a small machine is not mistaken for a
//! runtime regression.
//!
//! `--spectral fused|oracle` selects the spectral implementation: the
//! fused `spectrum` operator (default) or the original four-operator
//! `welchwindow → float2cplx → dft → cabs` oracle chain; the `--json`
//! line reports the choice in its `"spectrum"` field.
//!
//! `--stage-json` skips the full run and instead times the spectral
//! chain stage by stage (cumulative operator-chain prefixes over the
//! same audio records, differenced), printing one
//! `{"stage": …, "ns_per_record": …}` line per stage — the per-stage
//! evidence behind the fused path's throughput claim (DESIGN.md §14).
//!
//! `--telemetry-json` runs the same Figure 5 graph with full telemetry
//! ([`TelemetryConfig::Full`]) and prints the resulting
//! [`Snapshot`](dynamic_river::Snapshot) as one JSON object: per-stage
//! latency histograms (p50/p90/p99/max/mean ns per record, measured
//! in-run by the executor, not by prefix differencing) plus the
//! structured event log (scope opens, trigger fires, cutter runs,
//! shard-unit dispatch/merge). Honors `--workers` — with N > 1 the
//! sharded executor's merged snapshot is printed, whose per-stage
//! totals equal the single-lane run's by construction (DESIGN.md §16).

use dynamic_river::{CountingSink, TelemetryConfig};
use ensemble_bench::{header, Scale};
use ensemble_core::ops::clips_record_source;
use ensemble_core::pipeline::{full_pipeline_sharded_with, full_pipeline_with, SpectralPath};
use ensemble_core::prelude::*;

/// Parses `--flag N` from the argument list.
fn flag_value(flag: &str) -> Option<usize> {
    flag_str(flag).and_then(|v| v.parse().ok())
}

/// Returns the argument following `--flag`, verbatim.
fn flag_str(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--stage-json`: per-stage cost of the spectral chain. Each
/// cumulative prefix of the oracle chain (and the fused `spectrum`
/// operator) is timed over the same pool of audio records; differencing
/// adjacent prefixes isolates one stage's ns/record. Best-of-3 runs,
/// with an empty pipeline timed as the framework baseline.
fn stage_json(cfg: &ExtractorConfig, samples: &[f64]) {
    use dynamic_river::{Operator, Payload, Pipeline, Record};
    use ensemble_core::ops::{Cabs, Dft, Float2Cplx, Spectrum, WelchWindow};
    use ensemble_core::subtype;

    let mut records: Vec<Record> = Vec::new();
    'fill: loop {
        for chunk in samples.chunks_exact(cfg.record_len) {
            records.push(Record::data(subtype::AUDIO, Payload::f64(chunk.to_vec())));
            if records.len() >= 1_000 {
                break 'fill;
            }
        }
    }
    let n = records.len() as f64;

    let time_chain = |ops: &dyn Fn() -> Vec<Box<dyn Operator>>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut p = Pipeline::new();
            for op in ops() {
                p.add_boxed(op);
            }
            let input = records.clone();
            let t0 = std::time::Instant::now();
            let out = p.run(input).expect("stage bench run");
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        best
    };

    let t_empty = time_chain(&Vec::new);
    let t_w = time_chain(&|| vec![Box::new(WelchWindow::new()) as Box<dyn Operator>]);
    let t_wf = time_chain(&|| {
        vec![
            Box::new(WelchWindow::new()) as Box<dyn Operator>,
            Box::new(Float2Cplx::new()),
        ]
    });
    let t_wfd = time_chain(&|| {
        vec![
            Box::new(WelchWindow::new()) as Box<dyn Operator>,
            Box::new(Float2Cplx::new()),
            Box::new(Dft::new()),
        ]
    });
    let t_wfdc = time_chain(&|| {
        vec![
            Box::new(WelchWindow::new()) as Box<dyn Operator>,
            Box::new(Float2Cplx::new()),
            Box::new(Dft::new()),
            Box::new(Cabs::new()),
        ]
    });
    let t_spec = time_chain(&|| vec![Box::new(Spectrum::new()) as Box<dyn Operator>]);

    let per = |hi: f64, lo: f64| ((hi - lo) / n * 1e9).max(0.0);
    for (stage, ns) in [
        ("welchwindow", per(t_w, t_empty)),
        ("float2cplx", per(t_wf, t_w)),
        ("dft", per(t_wfd, t_wf)),
        ("cabs", per(t_wfdc, t_wfd)),
        ("oracle_chain", per(t_wfdc, t_empty)),
        ("spectrum", per(t_spec, t_empty)),
    ] {
        println!("{{\"stage\": \"{stage}\", \"ns_per_record\": {ns:.0}}}");
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let scale = Scale::from_args();
    let requested_workers = flag_value("--workers").unwrap_or(1).max(1);
    let clips = flag_value("--repeat").unwrap_or(1).max(1);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // More workers than cores only adds queue-hopping overhead — on a
    // 1-core CI host an unclamped `--workers 4` measures *slower* than
    // single-lane and poisons the perf trajectory. Clamp and say so.
    let workers = requested_workers.min(cores);
    let clamped = workers != requested_workers;
    let cfg = ExtractorConfig::paper();
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let clip = synth.clip(SpeciesCode::Noca, scale.seed);
    let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
    let samples = &clip.samples[..usable];
    if std::env::args().any(|a| a == "--stage-json") {
        stage_json(&cfg, samples);
        return;
    }
    let spectral = match flag_str("--spectral").as_deref() {
        None | Some("fused") => SpectralPath::Fused,
        Some("oracle") => SpectralPath::Oracle,
        Some(other) => panic!("--spectral expects fused or oracle, got {other}"),
    };
    // The archive: the clip repeated `clips` times, each repetition its
    // own clip scope — produced lazily, one clip in memory at a time.
    let archive = || {
        clips_record_source(
            std::iter::repeat_with(|| samples.to_vec()).take(clips),
            cfg.sample_rate,
            cfg.record_len,
        )
    };

    if std::env::args().any(|a| a == "--telemetry-json") {
        let mut sink = CountingSink::default();
        let snapshot = if workers > 1 {
            let mut p = full_pipeline_sharded_with(cfg, true, workers, spectral);
            p.set_telemetry(TelemetryConfig::Full);
            // Keep the registry handle: `run` consumes the runtime, the
            // handle reads the shared histograms afterwards.
            let telemetry = p.telemetry();
            p.run(archive(), &mut sink).expect("sharded pipeline run");
            telemetry.snapshot()
        } else {
            let mut p = full_pipeline_with(cfg, true, spectral);
            p.set_telemetry(TelemetryConfig::Full);
            p.run_streaming(archive(), &mut sink).expect("pipeline run");
            p.telemetry_snapshot()
        };
        println!("{}", snapshot.to_json());
        return;
    }

    // The full Figure 5 graph; the driver itself supplies the per-stage
    // statistics the figure annotates.
    let mut sink = CountingSink::default();
    let t0 = std::time::Instant::now();
    let stats = if workers > 1 {
        full_pipeline_sharded_with(cfg, true, workers, spectral)
            .run(archive(), &mut sink)
            .expect("sharded pipeline run")
    } else {
        full_pipeline_with(cfg, true, spectral)
            .run_streaming(archive(), &mut sink)
            .expect("pipeline run")
    };
    let elapsed = t0.elapsed().as_secs_f64();

    if json {
        let bytes_in = stats.stages.first().map_or(0, |s| s.bytes_in);
        println!(
            "{{\"workers\": {}, \"requested_workers\": {}, \"clamped\": {}, \"clips\": {}, \"cores\": {}, \"records_per_sec\": {:.1}, \"bytes_in\": {}, \"bytes_out\": {}, \"peak_burst\": {}, \"spectrum\": \"{}\"}}",
            workers,
            requested_workers,
            clamped,
            clips,
            cores,
            stats.source_records as f64 / elapsed,
            bytes_in,
            stats.sink_bytes,
            stats.max_peak_burst(),
            match spectral {
                SpectralPath::Fused => "fused",
                SpectralPath::Oracle => "oracle",
            }
        );
        return;
    }

    header("Figure 5: pipeline operators converting acoustic clips into ensembles");
    println!("sensor platform -> readout -> storage -> wav2rec -> (this run starts here)");
    println!(
        "{} clip(s), {} worker shard(s){} [{}]\n",
        clips,
        workers,
        if clamped {
            format!(" (clamped from {requested_workers}: {cores} core(s) available)")
        } else {
            String::new()
        },
        if workers > 1 {
            "scope-sharded parallel executor"
        } else {
            "single-lane fused executor"
        }
    );
    println!(
        "{:<14} {:>10} {:>12} {:>8}   (records/bytes leaving the stage)",
        "operator", "records", "data bytes", "burst"
    );
    println!("{:<14} {:>10} {:>12}", "input", stats.source_records, "");
    for s in &stats.stages {
        println!(
            "{:<14} {:>10} {:>12} {:>8}",
            s.name, s.records_out, s.bytes_out, s.peak_burst
        );
    }
    println!(
        "\nfinal output: {} records ({} bytes) -> MESO; {}-dim patterns; peak per-shard burst {}; {:.0} records/s",
        sink.records,
        sink.bytes,
        cfg.paa_pattern_features(),
        stats.max_peak_burst(),
        stats.source_records as f64 / elapsed
    );
}
