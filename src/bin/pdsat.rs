//! The `pdsat` command-line tool: certificate checking for solver answers.
//!
//! ```text
//! pdsat check <formula.cnf> <proof.drat> [assumption ..]
//! pdsat check --model <model-file> <formula.cnf> [assumption ..]
//! ```
//!
//! The first form checks a DRAT refutation of `formula ∧ assumptions`
//! (assumptions as DIMACS literals, e.g. `3 -7`, seeded as root
//! assignments). The second checks a claimed model — a whitespace-separated
//! list of DIMACS literals, with SAT-competition `v`/`s`/`c` line prefixes
//! and a terminating `0` accepted — against every clause of the formula and
//! every assumption.
//!
//! Prints `s VERIFIED` and exits 0 on success; prints `s NOT VERIFIED` with
//! the failure on stderr and exits 1 on rejection; exits 2 on usage errors;
//! exits 3 when an input file cannot be read or parsed. The exit code is
//! what the distributed trust path scripts against — 1 means "the
//! certificate is wrong" (reject the result), 3 means "the check never ran"
//! (retry or investigate), and conflating them would let a flaky filesystem
//! masquerade as a refuted certificate.

#![forbid(unsafe_code)]

use pdsat_checker::{check_model, check_unsat_proof};
use pdsat_cnf::{dimacs, Assignment, Cnf, DratProof, Lit};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        _ => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: pdsat check <formula.cnf> <proof.drat> [assumption ..]\n\
         \x20      pdsat check --model <model-file> <formula.cnf> [assumption ..]"
    );
}

/// What `pdsat check` checks the formula against.
enum Claim {
    /// A DRAT refutation of the formula under the assumptions.
    Refutation(DratProof),
    /// The path of a claimed model.
    Model(String),
}

fn check(args: &[String]) -> ExitCode {
    let mut model_path: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--model" {
            let Some(path) = iter.next() else {
                eprintln!("error: --model needs a file argument");
                return ExitCode::from(2);
            };
            model_path = Some(path.clone());
        } else {
            positional.push(arg);
        }
    }
    let Some((&cnf_path, rest)) = positional.split_first() else {
        usage();
        return ExitCode::from(2);
    };
    let cnf = match read_cnf(cnf_path) {
        Ok(cnf) => cnf,
        Err(e) => {
            eprintln!("error: {cnf_path}: {e}");
            return ExitCode::from(3);
        }
    };

    let (claim, assumption_args) = if let Some(model_path) = model_path {
        (Claim::Model(model_path), rest)
    } else {
        let Some((&proof_path, rest)) = rest.split_first() else {
            usage();
            return ExitCode::from(2);
        };
        let text = match std::fs::read_to_string(proof_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {proof_path}: {e}");
                return ExitCode::from(3);
            }
        };
        match DratProof::from_text(&text) {
            Ok(p) => (Claim::Refutation(p), rest),
            Err(e) => {
                eprintln!("error: {proof_path}: {e}");
                return ExitCode::from(3);
            }
        }
    };
    let assumptions = match parse_lits(assumption_args, cnf.num_vars()) {
        Ok(lits) => lits,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let verdict = match claim {
        Claim::Refutation(proof) => check_unsat_proof(&cnf, &assumptions, &proof).map(|stats| {
            println!(
                "c checked {} proof steps, {} propagations",
                stats.steps_checked, stats.propagations
            );
        }),
        Claim::Model(model_path) => match read_model(&model_path, cnf.num_vars()) {
            Ok(model) => check_model(&cnf, &assumptions, &model),
            Err(e) => {
                eprintln!("error: {model_path}: {e}");
                return ExitCode::from(3);
            }
        },
    };
    match verdict {
        Ok(()) => {
            println!("s VERIFIED");
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("c rejected: {failure}");
            println!("s NOT VERIFIED");
            ExitCode::FAILURE
        }
    }
}

fn read_cnf(path: &str) -> Result<Cnf, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    dimacs::parse_str(&text).map_err(|e| e.to_string())
}

/// The literal `value` names, if it is one of the formula's: `None` for `0`
/// and for any variable outside `num_vars`, so no argument or model token
/// can panic or index outside the formula.
fn lit_in_formula(value: i64, num_vars: usize) -> Option<Lit> {
    Lit::try_from_dimacs(value).filter(|lit| lit.var().index() < num_vars)
}

/// Parses the assumption arguments.
fn parse_lits(args: &[&str], num_vars: usize) -> Result<Vec<Lit>, String> {
    args.iter()
        .map(|arg| {
            arg.parse()
                .ok()
                .and_then(|value| lit_in_formula(value, num_vars))
                .ok_or_else(|| format!("assumption '{arg}' is not a literal of the formula"))
        })
        .collect()
}

/// Reads a claimed model: whitespace-separated DIMACS literals, accepting
/// SAT-competition output (`s`/`c` lines ignored, `v` prefixes stripped, a
/// final `0` terminates).
fn read_model(path: &str, num_vars: usize) -> Result<Assignment, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut model = Assignment::new(num_vars);
    'lines: for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('s') {
            continue;
        }
        let body = line.strip_prefix('v').map_or(line, str::trim_start);
        for token in body.split_whitespace() {
            let value: i64 = token
                .parse()
                .map_err(|_| format!("bad model literal '{token}'"))?;
            if value == 0 {
                break 'lines;
            }
            let lit = lit_in_formula(value, num_vars)
                .ok_or_else(|| format!("model literal '{token}' is outside the formula"))?;
            model.assign(lit.var(), lit.is_positive());
        }
    }
    Ok(model)
}
