//! Exit-code contract of `pdsat check`: 0 = verified, 1 = certificate
//! rejected, 2 = usage error, 3 = input unreadable/unparseable. The
//! distributed trust path scripts against these codes — an I/O hiccup must
//! never be mistaken for a refuted certificate.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

fn pdsat() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pdsat"))
}

/// Unique scratch path without wall clock or RNG (the clock lint bans
/// `SystemTime` in tests): process id + per-process counter.
fn scratch(name: &str, contents: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("pdsat-cli-{}-{}-{}", std::process::id(), n, name));
    std::fs::write(&path, contents).expect("write fixture");
    path
}

fn code(output: std::process::Output) -> i32 {
    output.status.code().expect("process not killed by signal")
}

/// `(x1 ∨ x2) ∧ (¬x1 ∨ x2)` — satisfied by x2=true.
const SAT_CNF: &str = "p cnf 2 2\n1 2 0\n-1 2 0\n";

#[test]
fn verified_model_exits_zero() {
    let cnf = scratch("f.cnf", SAT_CNF);
    let model = scratch("m.txt", "v 1 2 0\n");
    let out = pdsat()
        .args(["check", "--model"])
        .arg(&model)
        .arg(&cnf)
        .output()
        .expect("spawn");
    assert_eq!(code(out), 0);
    let _ = std::fs::remove_file(cnf);
    let _ = std::fs::remove_file(model);
}

#[test]
fn rejected_model_exits_one() {
    let cnf = scratch("f.cnf", SAT_CNF);
    let model = scratch("m.txt", "v 1 -2 0\n"); // violates clause 2
    let out = pdsat()
        .args(["check", "--model"])
        .arg(&model)
        .arg(&cnf)
        .output()
        .expect("spawn");
    assert_eq!(code(out), 1, "a wrong certificate is exit 1, not 3");
    let _ = std::fs::remove_file(cnf);
    let _ = std::fs::remove_file(model);
}

#[test]
fn usage_errors_exit_two() {
    let out = pdsat().output().expect("spawn");
    assert_eq!(code(out), 2, "no subcommand");
    let out = pdsat().args(["check"]).output().expect("spawn");
    assert_eq!(code(out), 2, "missing positionals");
    let out = pdsat().args(["check", "--model"]).output().expect("spawn");
    assert_eq!(code(out), 2, "--model without a file");
}

#[test]
fn unreadable_or_unparseable_inputs_exit_three() {
    // Missing formula file.
    let out = pdsat()
        .args([
            "check",
            "/nonexistent/pdsat-no-such.cnf",
            "/also/missing.drat",
        ])
        .output()
        .expect("spawn");
    assert_eq!(code(out), 3, "missing formula is exit 3, not 1 or 2");

    // Formula exists but is not DIMACS.
    let bad = scratch("bad.cnf", "this is not dimacs\n");
    let proof = scratch("p.drat", "0\n");
    let out = pdsat()
        .args(["check"])
        .arg(&bad)
        .arg(&proof)
        .output()
        .expect("spawn");
    assert_eq!(code(out), 3, "unparseable formula is exit 3");

    // Formula fine, model file missing.
    let cnf = scratch("f.cnf", SAT_CNF);
    let out = pdsat()
        .args(["check", "--model", "/nonexistent/pdsat-model.txt"])
        .arg(&cnf)
        .output()
        .expect("spawn");
    assert_eq!(code(out), 3, "missing model file is exit 3");
    let _ = std::fs::remove_file(bad);
    let _ = std::fs::remove_file(proof);
    let _ = std::fs::remove_file(cnf);
}

/// Hostile bytes: a header or an identifier far outside any real formula
/// must end in `error: …` and exit 3 before anything is sized from it (the
/// first file would ask the checker for 192 GB).
#[test]
fn hostile_variable_counts_exit_three_without_allocating() {
    let ok_cnf = "p cnf 2 1\n1 0\n";
    let ok_proof = "0\n";
    let min = "-9223372036854775808 0\n";
    for (cnf_text, proof_text) in [
        ("p cnf 4000000000 1\n1 0\n", ok_proof),
        ("9999999999 0\n", ok_proof),
        (min, ok_proof),
        (ok_cnf, min),
        (ok_cnf, "4294967297 0\n0\n"), // would alias variable 1
    ] {
        let cnf = scratch("hostile.cnf", cnf_text);
        let proof = scratch("hostile.drat", proof_text);
        let out = pdsat()
            .args(["check"])
            .arg(&cnf)
            .arg(&proof)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(code(out), 3, "{cnf_text:?} {proof_text:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        let _ = std::fs::remove_file(cnf);
        let _ = std::fs::remove_file(proof);
    }
    // An assumption argument goes through the same conversion (usage error).
    let cnf = scratch("ok.cnf", ok_cnf);
    let proof = scratch("ok.drat", ok_proof);
    let out = pdsat()
        .args(["check"])
        .arg(&cnf)
        .arg(&proof)
        .arg("-9223372036854775808")
        .output()
        .expect("spawn");
    assert_eq!(code(out), 2);
    let _ = std::fs::remove_file(cnf);
    let _ = std::fs::remove_file(proof);
}
