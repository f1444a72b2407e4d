//! The suite: every workload, one at a time, each run a fresh child process
//! of this binary (so peak memory is per run and nothing warm leaks between
//! runs), summarized per metric and written to a result file that
//! `--compare` reads.

use crate::json::{self, Value};
use crate::runner::NONDETERMINISTIC;
use crate::stats::summarize;
use crate::workloads::{nproc, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

#[derive(Debug, Clone)]
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    /// Untraced runs per workload.
    pub runs: usize,
    /// Run `r` uses seed `seed + r` instead of `seed`: the spread over
    /// inputs, which is what the benchmark contract bounds.
    pub vary_seed: bool,
    pub only: Option<Vec<String>>,
    /// One more, traced, run per workload for the per-layer metrics.
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// What one child run printed.
struct ChildRun {
    result: Value,
    nondeterministic: bool,
}

fn child(
    workload: &str,
    seed: u64,
    options: &SuiteOptions,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.quick {
        command.arg("--quick");
    }
    // `output` waits for the child; the child's own watchdog bounds how long.
    let output = command
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(|e| {
        format!(
            "run of {workload} (seed {seed}) ended with {} and no result line: {e}\n{stdout}",
            output.status
        )
    })?;
    if !output.status.success() {
        // A failed check: the child said which, pass it on.
        print!("{stdout}");
    }
    Ok(ChildRun {
        result,
        nondeterministic: stdout.contains(NONDETERMINISTIC),
    })
}

/// `{"value": v, "unit": u}` pairs of a result line's metrics.
fn metrics_of(result: &Value) -> BTreeMap<String, (f64, String)> {
    let mut metrics = BTreeMap::new();
    if let Some(map) = result.get("metrics").and_then(Value::as_object) {
        for (name, entry) in map {
            let value = entry.get("value").and_then(Value::as_f64);
            let unit = entry.get("unit").and_then(Value::as_str);
            if let (Some(value), Some(unit)) = (value, unit) {
                metrics.insert(name.clone(), (value, unit.to_string()));
            }
        }
    }
    metrics
}

fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs the suite, prints every metric, writes the result file; `false` when
/// any run failed a check or did not finish.
pub fn run(options: &SuiteOptions) -> bool {
    let mut all_ok = true;
    let mut workloads = BTreeMap::new();
    // The contract's workloads, or the ones named, in the order named.
    let chosen: Vec<&str> = match &options.only {
        Some(only) => only.iter().map(String::as_str).collect(),
        None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
    };
    for workload in chosen {
        println!("== {workload}");
        let mut columns: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut nondeterministic = false;
        for run in 0..options.runs {
            let seed = if options.vary_seed {
                options.seed + run as u64
            } else {
                options.seed
            };
            match child(workload, seed, options, false) {
                Ok(done) => {
                    attempted += done
                        .result
                        .get("attempted")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0);
                    failed += done
                        .result
                        .get("failed")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0);
                    all_ok &= done.result.get("correct").and_then(Value::as_bool) == Some(true);
                    nondeterministic |= done.nondeterministic;
                    for (name, (value, unit)) in metrics_of(&done.result) {
                        columns
                            .entry(name)
                            .or_insert_with(|| (Vec::new(), unit))
                            .0
                            .push(value);
                    }
                }
                Err(message) => {
                    eprintln!("{message}");
                    attempted += 1.0;
                    failed += 1.0;
                    all_ok = false;
                }
            }
        }

        let mut end_to_end = BTreeMap::new();
        for (name, (values, unit)) in &columns {
            let s = summarize(values);
            println!(
                "  {name:<16} {:>14.6} {unit:<6} (n={}, q1 {:.6}, q3 {:.6}, spread {:.1}% of median)",
                s.median,
                s.n,
                s.q1,
                s.q3,
                100.0 * s.spread()
            );
            end_to_end.insert(
                name.clone(),
                object([
                    ("unit", Value::String(unit.clone())),
                    (
                        "values",
                        Value::Array(values.iter().map(|&v| Value::Number(v)).collect()),
                    ),
                    ("n", Value::Number(s.n as f64)),
                    ("min", Value::Number(s.min)),
                    ("q1", Value::Number(s.q1)),
                    ("median", Value::Number(s.median)),
                    ("q3", Value::Number(s.q3)),
                    ("max", Value::Number(s.max)),
                ]),
            );
        }
        println!(
            "  failed_share     {:>14.6} ratio  ({failed} of {attempted} checks){}",
            if attempted > 0.0 {
                failed / attempted
            } else {
                1.0
            },
            if nondeterministic {
                "  [nondeterministic]"
            } else {
                ""
            }
        );

        let mut per_layer = BTreeMap::new();
        if options.trace {
            match child(workload, options.seed, options, true) {
                Ok(done) => {
                    all_ok &= done.result.get("correct").and_then(Value::as_bool) == Some(true);
                    nondeterministic |= done.nondeterministic;
                    for (name, (value, unit)) in metrics_of(&done.result) {
                        println!("  {name:<36} {value:>16.6} {unit}");
                        per_layer.insert(
                            name,
                            object([
                                ("unit", Value::String(unit)),
                                ("value", Value::Number(value)),
                            ]),
                        );
                    }
                }
                Err(message) => {
                    eprintln!("{message}");
                    all_ok = false;
                }
            }
        }
        workloads.insert(
            workload.to_string(),
            object([
                ("attempted", Value::Number(attempted)),
                ("failed", Value::Number(failed)),
                ("nondeterministic", Value::Bool(nondeterministic)),
                ("end_to_end", Value::Object(end_to_end)),
                ("per_layer", Value::Object(per_layer)),
            ]),
        );
    }

    let results = object([
        ("seed", Value::Number(options.seed as f64)),
        ("vary_seed", Value::Bool(options.vary_seed)),
        ("quick", Value::Bool(options.quick)),
        ("run_seconds", Value::Number(options.seconds)),
        ("runs", Value::Number(options.runs as f64)),
        ("nproc", Value::Number(nproc() as f64)),
        ("workloads", Value::Object(workloads)),
    ]);
    match std::fs::write(&options.out, json::to_text(&results)) {
        Ok(()) => println!("results written to {}", options.out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", options.out.display());
            all_ok = false;
        }
    }
    if options.quick {
        println!("quick sizes: these numbers are not comparable with a full run");
    }
    all_ok
}
