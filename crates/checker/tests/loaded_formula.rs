//! A thread checks every certificate for a formula against the one it
//! loaded last. These tests hold that memo to two promises:
//!
//! * **Invisible.** Every `check_unsat_proof` result — accepted or rejected,
//!   counters included — equals the same call made on a freshly spawned
//!   thread, whose memo is cold, whatever was checked before it: valid after
//!   rejected, rejected after valid, formulas A, B, A.
//! * **Exact key.** A formula one clause, one literal, one clause boundary
//!   or one variable away from the loaded one is loaded anew, never answered
//!   from the memo.
//! * **Restored originals.** A certificate that deletes an original clause
//!   leaves no trace in the loaded formula: the next check sees it live.

use pdsat_checker::{check_unsat_proof, CheckFailure, CheckStats};
use pdsat_ciphers::{InstanceBuilder, A51};
use pdsat_cnf::{Cnf, DratProof, DratStep, Lit, Var};
use pdsat_solver::{Solver, SolverConfig, TestPolicy, Verdict};
use rand::SeedableRng;

type Checked = Result<CheckStats, CheckFailure>;

/// The same check on a new thread: nothing checked before can be loaded.
fn cold(cnf: &Cnf, cube: &[Lit], proof: &DratProof) -> Checked {
    std::thread::scope(|scope| {
        scope
            .spawn(|| check_unsat_proof(cnf, cube, proof))
            .join()
            .expect("checker thread")
    })
}

/// Checks on this thread and requires the cold result.
fn warm(cnf: &Cnf, cube: &[Lit], proof: &DratProof, context: &str) -> Checked {
    let checked = check_unsat_proof(cnf, cube, proof);
    assert_eq!(checked, cold(cnf, cube, proof), "{context}");
    checked
}

/// Every full assignment of `vars`, as cubes.
fn cubes(vars: &[Var]) -> Vec<Vec<Lit>> {
    (0..1u32 << vars.len())
        .map(|bits| {
            vars.iter()
                .enumerate()
                .map(|(i, &v)| Lit::new(v, bits >> i & 1 == 1))
                .collect()
        })
        .collect()
}

/// A formula with a certificate for each of its UNSAT cubes, emitted by one
/// proof-logging solver that solves the cubes in turn (one growing stream,
/// as a warm worker ships them). Its learnt-clause database is kept small,
/// so the streams delete clauses and checks build deletion indexes.
struct Certified {
    name: &'static str,
    cnf: Cnf,
    certificates: Vec<(Vec<Lit>, DratProof)>,
}

fn certify(name: &'static str, cnf: Cnf, vars: &[Var]) -> Certified {
    let mut solver = Solver::from_cnf_with_config(
        &cnf,
        SolverConfig {
            proof: true,
            ..SolverConfig::default()
        },
    );
    solver.set_test_policy(TestPolicy {
        learnt_limit: Some(4),
        ..TestPolicy::default()
    });
    let certificates: Vec<_> = cubes(vars)
        .into_iter()
        .filter_map(|cube| match solver.solve_with_assumptions(&cube) {
            Verdict::Unsat => Some(
                solver
                    .unsat_certificate()
                    .map(|proof| (cube, proof))
                    .expect("proof logging is on"),
            ),
            _ => None,
        })
        .collect();
    assert!(!certificates.is_empty(), "{name}: no UNSAT cube");
    Certified {
        name,
        cnf,
        certificates,
    }
}

fn random_3cnf() -> Certified {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x10AD);
    let cnf = Cnf::random_3cnf(40, 190, &mut rng);
    certify("random_3cnf", cnf, &[Var::new(0), Var::new(1), Var::new(2)])
}

fn pigeonhole() -> Certified {
    certify(
        "pigeonhole",
        Cnf::pigeonhole(5),
        &[Var::new(0), Var::new(5)],
    )
}

fn a51() -> Certified {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51A7);
    let instance = InstanceBuilder::new(A51::new())
        .keystream_len(48)
        .known_suffix_of_second_register(52)
        .build_random(&mut rng);
    let vars: Vec<Var> = instance.unknown_state_vars().into_iter().take(3).collect();
    certify("a51", instance.cnf().clone(), &vars)
}

/// Corruptions of one certificate: truncated, an addition dropped, a literal
/// flipped, aimed at the wrong cube, and another formula's certificate.
fn mutants(cube: &[Lit], proof: &DratProof, foreign: &DratProof) -> Vec<(Vec<Lit>, DratProof)> {
    let truncated = DratProof {
        steps: proof.steps[..proof.steps.len() / 2].to_vec(),
    };
    let mut dropped = proof.clone();
    if let Some(i) = dropped.steps.iter().position(|s| !s.is_delete()) {
        dropped.steps.remove(i);
    }
    let mut flipped = proof.clone();
    if let Some(DratStep::Add { lits, .. }) = flipped
        .steps
        .iter_mut()
        .find(|s| matches!(s, DratStep::Add { lits, .. } if !lits.is_empty()))
    {
        lits[0] = !lits[0];
    }
    let mut wrong_cube = cube.to_vec();
    if let Some(lit) = wrong_cube.last_mut() {
        *lit = !*lit;
    }
    vec![
        (cube.to_vec(), truncated),
        (cube.to_vec(), dropped),
        (cube.to_vec(), flipped),
        (wrong_cube, proof.clone()),
        (cube.to_vec(), foreign.clone()),
    ]
}

#[test]
fn every_check_equals_a_cold_check_in_any_order() {
    let formulas = [random_3cnf(), pigeonhole(), a51()];
    let deletes = |f: &Certified| {
        let mut steps = f.certificates.iter().flat_map(|(_, proof)| &proof.steps);
        steps.any(DratStep::is_delete)
    };
    assert!(formulas.iter().any(deletes), "no deletion to index");
    let (mut accepted, mut rejected) = (0, 0);
    let (mut valid_after_rejected, mut rejected_after_valid) = (0, 0);
    let mut last_ok = None;
    // A, B, C, A, B, A: every visit after the first of a formula follows a
    // different one, so the memo is reloaded as often as it is hit.
    for (visit, f) in [0, 1, 2, 0, 1, 0].into_iter().enumerate() {
        let Certified {
            name,
            cnf,
            certificates,
        } = &formulas[f];
        let foreign = &formulas[(f + 1) % formulas.len()].certificates[0].1;
        for (k, (cube, proof)) in certificates.iter().enumerate() {
            let context = format!("{name}, visit {visit}, certificate {k}");
            // Each corruption is followed by the honest certificate again.
            let mut sequence = vec![(cube.clone(), proof.clone())];
            for mutant in mutants(cube, proof, foreign) {
                sequence.push(mutant);
                sequence.push((cube.clone(), proof.clone()));
            }
            for (step, (cube, proof)) in sequence.iter().enumerate() {
                let checked = warm(cnf, cube, proof, &format!("{context}, step {step}"));
                if step % 2 == 0 {
                    assert!(checked.is_ok(), "{context}, step {step}: {checked:?}");
                }
                let ok = checked.is_ok();
                match (last_ok, ok) {
                    (Some(false), true) => valid_after_rejected += 1,
                    (Some(true), false) => rejected_after_valid += 1,
                    _ => {}
                }
                if ok {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
                last_ok = Some(ok);
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
    assert!(valid_after_rejected > 0 && rejected_after_valid > 0);
}

#[test]
fn a_forged_deletion_of_an_original_does_not_outlive_its_check() {
    let mut covered = Vec::new();
    for f in [random_3cnf(), pigeonhole(), a51()] {
        let (cube, proof) = &f.certificates[0];
        // The first original of each length the formula has: binaries and
        // ternaries sit in the shared inline lists, longer ones in the
        // two-watched lists.
        let mut lengths = Vec::new();
        for clause in f.cnf.iter() {
            let len = clause.len().min(4);
            if lengths.contains(&len) {
                continue;
            }
            lengths.push(len);
            let mut forged = proof.clone();
            forged.steps.insert(0, DratStep::Delete(clause.to_vec()));
            let context = format!("{}, original of length {len} deleted", f.name);
            // Accepted or not, it must equal the cold check.
            let _ = warm(&f.cnf, cube, &forged, &context);
            let honest = warm(&f.cnf, cube, proof, &format!("{context}, honest next"));
            assert!(honest.is_ok(), "{context}: {honest:?}");
        }
        covered.extend(lengths);
    }
    for len in [2, 3, 4] {
        assert!(covered.contains(&len), "no original of length {len}");
    }
}

/// `cnf` with its clauses rebuilt through `edit`, over `num_vars` variables.
fn edited(cnf: &Cnf, num_vars: usize, edit: impl Fn(usize, &mut Vec<Lit>) -> bool) -> Cnf {
    let mut out = Cnf::new(num_vars);
    for (i, clause) in cnf.iter().enumerate() {
        let mut lits = clause.to_vec();
        if edit(i, &mut lits) {
            out.add_clause(lits);
        }
    }
    out
}

#[test]
fn a_formula_one_edit_away_is_never_answered_from_the_memo() {
    // PHP(5 → 4) is refuted outright; every edit below makes it satisfiable,
    // so a checker that kept A loaded for A′ would accept what must fail.
    let a = Cnf::pigeonhole(5);
    let last = a.num_clauses() - 1;
    let refutation = certify("pigeonhole", a.clone(), &[]).certificates[0]
        .1
        .clone();
    // Pigeons 3 and 4 may share hole 3.
    let dropped = edited(&a, a.num_vars(), |i, _| i != last);
    // Pigeon 0 may sit nowhere.
    let flipped = edited(&a, a.num_vars(), |i, lits| {
        if i == 0 {
            lits[0] = !lits[0];
        }
        true
    });
    // The same literals in the same order, one clause boundary moved: pigeon
    // 4's clause takes the first literal of the first hole conflict, so
    // pigeon 4 may sit nowhere while pigeon 0 stays out of hole 0.
    let pigeons = 5;
    let mut moved = Cnf::new(a.num_vars());
    for clause in a.iter().take(pigeons - 1) {
        moved.add_clause(clause.iter().copied());
    }
    let (last_pigeon, first_conflict) = (a.clause(pigeons - 1), a.clause(pigeons));
    moved.add_clause(last_pigeon.iter().chain(&first_conflict[..1]).copied());
    moved.add_clause(first_conflict[1..].iter().copied());
    for clause in a.iter().skip(pigeons + 1) {
        moved.add_clause(clause.iter().copied());
    }
    assert!(moved.iter().flatten().eq(a.iter().flatten()));
    assert_eq!(moved.num_clauses(), a.num_clauses());
    for (edit, a_prime) in [
        ("dropped clause", &dropped),
        ("flipped literal", &flipped),
        ("moved boundary", &moved),
    ] {
        assert_eq!(a_prime.num_vars(), a.num_vars(), "{edit}");
        assert!(warm(&a, &[], &refutation, edit).is_ok(), "{edit}: A before");
        assert!(
            warm(a_prime, &[], &refutation, edit).is_err(),
            "{edit}: A′ answered from A's memo"
        );
        assert!(warm(&a, &[], &refutation, edit).is_ok(), "{edit}: A after");
    }
    // One more variable changes nothing a refutation of A needs, so the key
    // shows in the other direction: a cube naming the new variable is fine
    // for A′ and a shape error for A, in either order.
    let wider = edited(&a, a.num_vars() + 1, |_, _| true);
    let extra = [Lit::positive(Var::new(a.num_vars() as u32))];
    assert!(warm(&a, &[], &refutation, "wider").is_ok());
    assert!(warm(&wider, &extra, &refutation, "wider").is_ok());
    assert_eq!(
        warm(&a, &extra, &refutation, "wider"),
        Err(CheckFailure::Shape)
    );
    assert!(warm(&wider, &extra, &refutation, "wider").is_ok());
}
