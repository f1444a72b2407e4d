//! `--compare A.json B.json`: for every workload and end-to-end metric, both
//! medians with their base, the ratio, the bound from `BENCHMARK.json` and a
//! verdict; exact counters must match exactly. A is the base (the parent
//! commit, or the first of two sets of runs of one commit), B is judged.

use crate::contract_path;
use crate::json::{self, Value};
use crate::metrics::is_exact_counter;
use crate::stats::summarize;
use std::path::Path;

/// Set-up times that differ by less than this are `within` whatever their
/// ratio: most workloads set up in a millisecond or less, where a quarter
/// more is scheduler jitter, not work moved into set-up.
const SETUP_FLOOR_S: f64 = 0.020;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, nor better.
    Within,
    Worse,
    Better,
    /// The run-to-run spread of a side is wider than the bound, so a
    /// difference of the size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs `b` against the runs `a` of one metric.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    if sa.spread().max(sb.spread()) > bound {
        // Too noisy to call, unless the two sets of runs do not even overlap.
        let (b_above, b_below) = (sb.min > sa.max, sb.max < sa.min);
        return match (b_above, b_below, higher_is_better) {
            (true, _, true) | (_, true, false) => Verdict::Better,
            (true, _, false) | (_, true, true) => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    let worse_by = if higher_is_better {
        (sa.median - sb.median) / sa.median.abs()
    } else {
        (sb.median - sa.median) / sa.median.abs()
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn runs(side: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    side.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// Prints the comparison; `true` when every metric is `within` or `better`,
/// no check failed on either side and every exact counter matches.
pub fn compare_files(a_path: &Path, b_path: &Path) -> bool {
    match compare(a_path, b_path) {
        Ok(agree) => agree,
        Err(message) => {
            eprintln!("{message}");
            false
        }
    }
}

fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let contract = load(&contract_path())?;
    for (side, path) in [(&a, a_path), (&b, b_path)] {
        if side.get("quick").and_then(Value::as_bool) != Some(false) {
            return Err(format!(
                "{}: a quick run (or not a result file): not comparable",
                path.display()
            ));
        }
    }
    let metrics = contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json lists no end_to_end metrics")?;
    let workloads = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("the base file lists no workloads")?;

    let mut agree = true;
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for workload in workloads.keys() {
        for metric in metrics {
            let name = metric.get("name").and_then(Value::as_str).unwrap_or("");
            let higher = metric.get("better").and_then(Value::as_str) == Some("higher");
            let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (Some(ra), Some(rb)) = (runs(&a, workload, name), runs(&b, workload, name)) else {
                println!("{workload:<18} {name:<14} missing on one side");
                agree = false;
                continue;
            };
            if ra.is_empty() || rb.is_empty() {
                println!("{workload:<18} {name:<14} no runs on one side");
                agree = false;
                continue;
            }
            let (ma, mb) = (summarize(&ra).median, summarize(&rb).median);
            let v = if name == "setup_s" && (mb - ma).abs() <= SETUP_FLOOR_S {
                Verdict::Within
            } else {
                verdict(&ra, &rb, higher, bound)
            };
            println!(
                "{workload:<18} {name:<14} {ma:>14.6} {mb:>14.6} {:>8.4} {:>6.0}%  {} (n={}/{})",
                mb / ma,
                100.0 * bound,
                v.word(),
                ra.len(),
                rb.len()
            );
            agree &= matches!(v, Verdict::Within | Verdict::Better);
        }
        agree &= compare_checks_and_counters(&a, &b, workload);
    }
    println!("{}", if agree { "AGREE" } else { "DISAGREE" });
    Ok(agree)
}

fn compare_checks_and_counters(a: &Value, b: &Value, workload: &str) -> bool {
    let of = |side: &Value, key: &str| side.get("workloads")?.get(workload)?.get(key).cloned();
    let mut ok = true;
    for (label, side) in [("A", a), ("B", b)] {
        let failed = of(side, "failed").and_then(|v| v.as_f64());
        if failed != Some(0.0) {
            println!("{workload:<18} failed_share   {label} failed {failed:?} checks: must be 0");
            ok = false;
        }
    }
    let nondeterministic = [a, b]
        .iter()
        .any(|side| of(side, "nondeterministic").and_then(|v| v.as_bool()) != Some(false));
    let (Some(la), Some(lb)) = (of(a, "per_layer"), of(b, "per_layer")) else {
        return ok;
    };
    let (Some(la), Some(lb)) = (la.as_object(), lb.as_object()) else {
        return ok;
    };
    if la.is_empty() || lb.is_empty() {
        return ok; // no traced run on one side: nothing to match
    }
    if nondeterministic {
        println!("{workload:<18} exact counters not compared: flagged nondeterministic");
        return ok;
    }
    for (name, entry) in la {
        if !is_exact_counter(name) {
            continue;
        }
        let (va, vb) = (
            entry.get("value").and_then(Value::as_f64),
            lb.get(name)
                .and_then(|e| e.get("value"))
                .and_then(Value::as_f64),
        );
        if va != vb {
            println!("{workload:<18} {name}: exact counter differs, A {va:?} B {vb:?}");
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [1.00, 1.01, 0.99, 1.02, 0.98];

    fn scaled(factor: f64) -> Vec<f64> {
        A.iter().map(|v| v * factor).collect()
    }

    #[test]
    fn a_lower_is_better_metric() {
        assert_eq!(verdict(&A, &scaled(1.05), false, 0.10), Verdict::Within);
        assert_eq!(verdict(&A, &scaled(0.95), false, 0.10), Verdict::Within);
        assert_eq!(verdict(&A, &scaled(1.15), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&A, &scaled(0.85), false, 0.10), Verdict::Better);
    }

    #[test]
    fn a_higher_is_better_metric() {
        assert_eq!(verdict(&A, &scaled(0.95), true, 0.10), Verdict::Within);
        assert_eq!(verdict(&A, &scaled(0.85), true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&A, &scaled(1.15), true, 0.10), Verdict::Better);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_the_runs_do_not_overlap() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(verdict(&noisy, &A, false, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&A, &noisy, false, 0.10), Verdict::Unresolved);
        // Every noisy run of B beats every run of A: better, noise or not.
        let fast: Vec<f64> = noisy.iter().map(|v| v * 0.5).collect();
        assert_eq!(verdict(&A, &fast, false, 0.10), Verdict::Better);
        // And the other way round: every run worse is worse.
        let slow: Vec<f64> = noisy.iter().map(|v| v * 2.0).collect();
        assert_eq!(verdict(&A, &slow, false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&A, &slow, true, 0.10), Verdict::Better);
    }

    #[test]
    fn a_single_run_per_side_has_no_spread_and_compares_medians() {
        assert_eq!(verdict(&[2.0], &[2.1], false, 0.10), Verdict::Within);
        assert_eq!(verdict(&[2.0], &[2.5], false, 0.10), Verdict::Worse);
    }
}
