//! The repository benchmark: four workloads (and two diagnostic ones)
//! composing the paper pipeline through the crates' public functions, five
//! end-to-end metrics plus the failed share, and a traced run with per-layer
//! metrics. `README.md` beside this package defines everything;
//! `BENCHMARK.json` at the repository root is the contract later changes are
//! judged by.

#![forbid(unsafe_code)]

mod calibrate;
mod checks;
mod compare;
mod json;
mod metrics;
mod params;
mod procfs;
mod runner;
mod stats;
mod suite;
mod trace;
mod workloads;

use runner::RunOptions;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage:
  run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
      one run of one workload in this process; the last line of output is
      the result object of the benchmark contract
  run.sh [--seed N] [--seconds S] [--runs R] [--vary-seed] [--only W,W] [--trace] [--quick]
      the suite: every workload, each run a fresh process; prints every
      metric and writes benchmark/out/results.json (or --out FILE)
  run.sh --compare A.json B.json
      verdict per workload and end-to-end metric between two result files";

/// A run that is still going after this long is hung: the contract allows a
/// run 180 s, a full-size one takes about 20.
const WATCHDOG: Duration = Duration::from_secs(170);

/// The benchmark's own directory (this package), fixed at build time: the
/// binary is always built in place from a checkout.
fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where traces, results and checkpoint files go; created on first use.
pub fn out_dir() -> PathBuf {
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// The contract file at the root of the checkout.
pub fn contract_path() -> PathBuf {
    benchmark_dir().join("../BENCHMARK.json")
}

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: Option<usize>,
    vary_seed: bool,
    only: Option<Vec<String>>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
    }
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => parsed.workload = Some(value(&mut i, flag)?),
            "--seed" => parsed.seed = Some(number(&value(&mut i, flag)?, flag)?),
            "--seconds" => {
                let seconds: f64 = number(&value(&mut i, flag)?, flag)?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            // The driver passes `--trace 0|1`; people type a bare `--trace`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    parsed.trace = false;
                    i += 1;
                }
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            "--quick" => parsed.quick = true,
            "--runs" => {
                let runs: usize = number(&value(&mut i, flag)?, flag)?;
                if !(1..=64).contains(&runs) {
                    return Err("--runs must be between 1 and 64".to_string());
                }
                parsed.runs = Some(runs);
            }
            "--vary-seed" => parsed.vary_seed = true,
            "--only" => {
                parsed.only = Some(value(&mut i, flag)?.split(',').map(String::from).collect());
            }
            "--out" => parsed.out = Some(PathBuf::from(value(&mut i, flag)?)),
            "--compare" => {
                let a = PathBuf::from(value(&mut i, flag)?);
                let b = PathBuf::from(value(&mut i, flag)?);
                parsed.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    for name in parsed.workload.iter().chain(parsed.only.iter().flatten()) {
        if !workloads::known(name) {
            return Err(format!("unknown workload '{name}'"));
        }
    }
    Ok(parsed)
}

/// One run of one workload, in this process.
fn run_one(options: &RunOptions) -> bool {
    // No repetition can hang the run: leases, polls and event budgets are
    // calibrated, and this is the backstop behind them.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("benchmark run exceeded {WATCHDOG:?}: counted as a failure");
        std::process::exit(3);
    });
    let (seed, quick) = (options.seed, options.quick);
    match options.workload.as_str() {
        "pipeline-a51" => runner::run(&params::pipeline_a51(seed, quick), options),
        "estimate-bivium" => runner::run(&params::estimate_bivium(seed, quick), options),
        "solve-hard-a51" => runner::run(&params::solve_hard_a51(quick), options),
        "solve-easy-grain" => runner::run(&params::solve_easy_grain(seed, quick), options),
        "grid-proof-a51" => runner::run(&params::grid_proof_a51(seed, quick), options),
        "grid-synthetic" => runner::run(&params::grid_synthetic(seed, quick, out_dir()), options),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let default_seconds = if args.quick {
        params::QUICK_SECONDS
    } else {
        params::RUN_SECONDS
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::compare_files(a, b)
    } else if let Some(workload) = args.workload {
        run_one(&RunOptions {
            workload,
            seed: args.seed.unwrap_or(params::DEFAULT_SEED),
            seconds: args.seconds.unwrap_or(default_seconds),
            trace: args.trace,
            quick: args.quick,
        })
    } else {
        suite::run(&suite::SuiteOptions {
            seed: args.seed.unwrap_or(params::DEFAULT_SEED),
            seconds: args.seconds.unwrap_or(default_seconds),
            runs: args.runs.unwrap_or(if args.quick { 1 } else { 5 }),
            vary_seed: args.vary_seed,
            only: args.only,
            trace: args.trace,
            quick: args.quick,
            out: args.out.unwrap_or_else(|| out_dir().join("results.json")),
        })
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_args(&args(
            "--workload grid-synthetic --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("grid-synthetic"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (Some(7), Some(12.0), true)
        );
        let parsed = parse_args(&args("--workload pipeline-a51 --trace 0 --quick")).unwrap();
        assert!(!parsed.trace && parsed.quick);
    }

    #[test]
    fn a_bare_trace_flag_means_on() {
        let parsed = parse_args(&args("--trace --quick --runs 3 --vary-seed")).unwrap();
        assert!(parsed.trace && parsed.quick && parsed.vary_seed);
        assert_eq!(parsed.runs, Some(3));
        let parsed = parse_args(&args("--compare a.json b.json")).unwrap();
        assert_eq!(
            parsed.compare,
            Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload no-such",
            "--only solve-hard-a51,typo",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--runs 0",
            "--compare only-one.json",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} must be refused");
        }
    }

    #[test]
    fn the_contract_file_lists_exactly_what_the_harness_reports() {
        let text = std::fs::read_to_string(contract_path()).expect("BENCHMARK.json exists");
        let contract = json::parse(&text).expect("BENCHMARK.json is JSON");
        let keys: Vec<&str> = contract
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            contract.get("run_seconds").and_then(json::Value::as_f64),
            Some(params::RUN_SECONDS)
        );
        let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            contract
                .get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .iter()
                .map(|entry| {
                    fields
                        .iter()
                        .map(|f| {
                            entry
                                .get(f)
                                .and_then(json::Value::as_str)
                                .unwrap()
                                .to_string()
                        })
                        .collect()
                })
                .collect()
        };
        let defined = |defs: &[metrics::MetricDef]| -> Vec<Vec<String>> {
            defs.iter()
                .map(|d| vec![d.name.to_string(), d.unit.to_string(), d.better.to_string()])
                .collect()
        };
        let fields = ["name", "unit", "better"];
        assert_eq!(listed("end_to_end", &fields), defined(metrics::END_TO_END));
        assert_eq!(listed("per_layer", &fields), defined(metrics::PER_LAYER));
        let workloads: Vec<Vec<String>> = workloads::WORKLOADS
            .iter()
            .map(|(name, why)| vec![name.to_string(), why.to_string()])
            .collect();
        assert_eq!(listed("workloads", &["name", "why"]), workloads);
        for (_, why) in workloads::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for entry in contract
            .get("end_to_end")
            .and_then(json::Value::as_array)
            .unwrap()
        {
            let bound = entry.get("bound").and_then(json::Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
