//! `river-bench` — the benchmark of the acoustic river: four workloads,
//! end-to-end metrics from untraced runs, a per-layer budget from traced
//! runs, every output verified against a single-lane reference. See the
//! `README.md` beside this file for the metric glossary, and
//! `BENCHMARK.json` at the repository root for names, bounds and the
//! driver command.
//!
//! ```text
//! river-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! river-bench all [--seed N] [--seconds S] [--sets K] [--out DIR] [--smoke]
//! river-bench compare BASE.json NEW.json [--bounds BENCHMARK.json]
//! ```
//!
//! A single run prints its result as the last line of standard output;
//! `all` runs every workload in a child process of its own (so CPU time,
//! peak RSS and allocator state are per workload), writes
//! `DIR/report.json` and prints every metric by name with its unit.

mod json;
mod layers;
mod metrics;
mod probes;
mod report;
mod run;
mod sut;
mod trace;
mod workloads;

use run::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Sizes, Workload};

#[global_allocator]
static GLOBAL: probes::CountingAlloc = probes::CountingAlloc;

const DEFAULT_SEED: u64 = 2007;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
const SMOKE_SECONDS: f64 = 2.0;
/// `all`: three untraced runs per workload are the fewest that show a
/// run-to-run spread, which `compare` needs to tell a change from noise.
const DEFAULT_SETS: usize = 3;
/// Traces and reports go here unless `--out` says otherwise
/// (git-ignored).
const DEFAULT_OUT: &str = ".river-bench";

const USAGE: &str = "usage:
  river-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
  river-bench all [--seed N] [--seconds S] [--sets K] [--out DIR] [--smoke]
  river-bench compare BASE.json NEW.json [--bounds BENCHMARK.json]
workloads: archive ensembles relay_wire fleet_serve";

/// Everything the command line can say.
pub struct Cli {
    /// `all` or `compare`; a single run has no command word and names
    /// its workload with `--workload`.
    command: Option<String>,
    /// `compare`'s two reports.
    files: Vec<String>,
    workload: Option<String>,
    pub seed: u64,
    seconds: Option<f64>,
    trace: bool,
    pub out: PathBuf,
    pub smoke: bool,
    /// `all`: untraced runs per workload, on seeds `seed .. seed + sets`.
    pub sets: usize,
    bounds: PathBuf,
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            command: None,
            files: Vec::new(),
            workload: None,
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            out: PathBuf::from(DEFAULT_OUT),
            smoke: false,
            sets: DEFAULT_SETS,
            bounds: PathBuf::from("BENCHMARK.json"),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .cloned()
                    .ok_or_else(|| format!("{arg} needs {what}"))
            };
            match arg.as_str() {
                "--workload" => cli.workload = Some(value("a workload name")?),
                "--seed" => cli.seed = number(arg, &value("a number")?)?,
                "--seconds" => cli.seconds = Some(number(arg, &value("a number")?)?),
                "--sets" => cli.sets = number(arg, &value("a number")?)?,
                "--trace" => {
                    cli.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                    }
                }
                "--out" => cli.out = PathBuf::from(value("a directory")?),
                "--bounds" => cli.bounds = PathBuf::from(value("a file")?),
                "--smoke" => cli.smoke = true,
                flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
                word if cli.command.is_none() => cli.command = Some(word.to_string()),
                word => cli.files.push(word.to_string()),
            }
        }
        if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
            return Err("--seconds must be in (0, 600]".into());
        }
        if cli.sets == 0 {
            return Err("--sets must be at least 1".into());
        }
        Ok(cli)
    }

    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }
}

/// One run of one workload; the result is the last line printed.
fn single_run(cli: &Cli, name: &str) -> Result<ExitCode, String> {
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let cfg = RunConfig {
        workload,
        seed: cli.seed,
        seconds: cli.seconds(),
        sizes: cli.sizes(),
        out_dir: cli.out.clone(),
    };
    let output = if cli.trace {
        run::run_traced(&cfg)
    } else {
        run::run_untraced(&cfg)
    }?;
    let missing = output.metrics.missing();
    if !missing.is_empty() {
        eprintln!("river-bench: not measurable on this host: {missing:?}");
    }
    println!(
        "{}",
        json::Json::obj([("facts", json::Json::Obj(output.facts.clone()))])
    );
    println!("{}", output.result_line());
    Ok(if output.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "river-bench: {} of {} clips failed verification",
            output.failed, output.attempted
        );
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(args)?;
    match (cli.command.as_deref(), cli.files.as_slice()) {
        (None, []) => match &cli.workload {
            Some(name) => single_run(&cli, name),
            None => Err(USAGE.into()),
        },
        (Some("all"), []) => report::all(&cli),
        (Some("compare"), [base, new]) => report::compare(base, new, &cli.bounds),
        (Some("help"), _) => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| {
        eprintln!("river-bench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let c = cli(&[
            "--workload",
            "archive",
            "--seed",
            "5",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("archive"));
        assert_eq!((c.seed, c.seconds(), c.trace), (5, 20.0, true));
        assert!(c.command.is_none());
        let c = cli(&["compare", "a.json", "b.json", "--smoke"]).unwrap();
        assert_eq!(c.command.as_deref(), Some("compare"));
        assert_eq!(c.files, ["a.json", "b.json"]);
        assert_eq!(c.seconds(), SMOKE_SECONDS);
    }

    #[test]
    fn bad_arguments_are_refused_not_defaulted() {
        for bad in [
            &["--seed", "abc"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds"],
            &["--sets", "0"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} accepted");
        }
    }

    /// Every workload end to end at `--smoke` size, untraced and
    /// traced: outputs verify, every metric the host can measure is
    /// there, and the layers each workload must not touch stay at 0.
    #[test]
    fn smoke_runs_every_workload_end_to_end() {
        let _serial = trace::TEST_SERIAL.lock().unwrap();
        let out_dir = std::env::temp_dir().join(format!("river-bench-test-{}", std::process::id()));
        for workload in Workload::ALL {
            let cfg = RunConfig {
                workload,
                seed: 11,
                seconds: 1.0,
                sizes: Sizes::smoke(),
                out_dir: out_dir.clone(),
            };
            let untraced = run::run_untraced(&cfg).unwrap();
            assert_eq!(untraced.failed, 0, "{}", workload.name());
            assert!(untraced.attempted > 0);
            assert!(untraced.metrics.missing().is_empty() || cfg!(not(target_os = "linux")));
            for (def, value) in untraced.metrics.iter() {
                assert!(value > 0.0, "{} {} = {value}", workload.name(), def.name);
            }

            let traced = run::run_traced(&cfg).unwrap();
            assert_eq!(traced.failed, 0, "{}", workload.name());
            let layer = |name: &str| {
                let found = traced.metrics.iter().find(|(d, _)| d.name == name);
                found.unwrap_or_else(|| panic!("{name} not reported")).1
            };
            assert!(layer("codec.decode_ns_per_record.f32") > 0.0);
            assert!(layer("alloc.allocs_per_record") > 0.0);
            assert_eq!(layer("serve.repaired_sessions"), 0.0);
            let sax = layer("ops.saxanomaly.busy_ns_per_source_record");
            let spectrum = layer("ops.spectrum.busy_ns_per_source_record");
            match workload {
                Workload::Archive | Workload::FleetServe => assert!(sax > 0.0 && spectrum > 0.0),
                Workload::Ensembles => assert!(sax == 0.0 && spectrum > 0.0),
                Workload::RelayWire => assert!(sax == 0.0 && spectrum == 0.0),
            }
            assert_eq!(workload.is_serve(), layer("wire_bytes_per_record") > 0.0);
            let trace_file = out_dir.join(format!("trace_{}.jsonl", workload.name()));
            let first = std::fs::read_to_string(trace_file).unwrap();
            json::parse(first.lines().next().unwrap()).unwrap();
        }
        let _ = std::fs::remove_dir_all(out_dir);
    }
}
