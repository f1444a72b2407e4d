//! Golden `CheckStats`: the checker replays solver-emitted certificates with
//! exactly the recorded step, propagation and unmatched-deletion counts.
//! Propagation counts depend on watch order, on which literal a watch moves
//! to and on which instance a deletion removes, so equal counts mean the
//! same derivation was replayed, not merely the same verdict reached.
//!
//! Each certificate is checked twice. Read back from its DRAT text it has no
//! hints, and every addition is checked by propagation over the database:
//! those counts were first recorded from the `Vec<ClauseRec>` + eager-index
//! checker this arena checker replaced; re-recorded, with the checker
//! untouched, at the commit that gave the solver's ternary clauses watch
//! lists of their own (the formula is all ternary, so the certificates
//! themselves changed). The `propagations` only were re-recorded once more,
//! with the solver untouched, when the checker began propagating two- and
//! three-literal originals from inline watchers ahead of the two-watched
//! lists: that reorders the visits, so a conflict can be found before
//! literals the old order propagated first (9,749 → 9,715 and 17,152 →
//! 17,113). They did not move when the solver began logging hints, which is
//! what shows that the propagation path is the one it was.
//!
//! As emitted, with the antecedents the solver logs, every addition is
//! checked by walking its hints alone (`hint_misses` 0): the propagations
//! left are root propagation after the additions, 3 and 23 where the plain
//! replay needs 9,715 and 17,113. The step counts, the unmatched deletions
//! and the certificates' shapes are the same either way.

use pdsat_checker::{check_unsat_proof, CheckStats};
use pdsat_cnf::{Cnf, DratProof, DratStep, Lit, Var};
use pdsat_solver::{Solver, SolverConfig, Verdict};

/// Two XOR chains over the same `n` inputs, the second visiting them in
/// `stride` order, asserting opposite parities: unsatisfiable, and needs
/// real search.
fn parity_contradiction(n: usize, stride: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    let xor_gate = |cnf: &mut Cnf, a: Lit, b: Lit| {
        let t = Lit::positive(cnf.new_var());
        cnf.add_clause([!t, a, b]);
        cnf.add_clause([!t, !a, !b]);
        cnf.add_clause([t, !a, b]);
        cnf.add_clause([t, a, !b]);
        t
    };
    let input = |i: usize| Lit::positive(Var::new(i as u32));
    for (order, parity) in [(1, true), (stride, false)] {
        let mut acc = input(0);
        for k in 1..n {
            acc = xor_gate(&mut cnf, acc, input(k * order % n));
        }
        cnf.add_clause([if parity { acc } else { !acc }]);
    }
    cnf
}

fn proof_config() -> SolverConfig {
    SolverConfig {
        proof: true,
        ..SolverConfig::default()
    }
}

/// Solves `parity_contradiction(13, 5)` and requires the certificate's shape
/// and the checker's counters over it to equal the recorded ones: `plain`
/// for the certificate read back from its DRAT text (which has no hints, as
/// `pdsat check` reads it), `hinted` for the certificate as the solver
/// emitted it.
fn assert_golden(
    config: SolverConfig,
    (steps, deletes): (usize, usize),
    plain: CheckStats,
    hinted: CheckStats,
) {
    let cnf = parity_contradiction(13, 5);
    let mut solver = Solver::from_cnf_with_config(&cnf, config);
    assert_eq!(solver.solve(), Verdict::Unsat);
    let cert = solver.unsat_certificate().expect("proof logging is on");
    let logged_deletes = cert.steps.iter().filter(|s| s.is_delete()).count();
    assert_eq!(
        (cert.steps.len(), logged_deletes),
        (steps, deletes),
        "the solver's certificate changed; re-record the counts below"
    );
    let text = DratProof::from_text(&cert.to_text()).expect("the solver writes valid DRAT");
    assert_eq!(check_unsat_proof(&cnf, &[], &text), Ok(plain));
    assert_eq!(check_unsat_proof(&cnf, &[], &cert), Ok(hinted));
}

#[test]
fn plain_certificate_replays_with_the_recorded_counts() {
    assert_golden(
        proof_config(),
        (628, 0),
        CheckStats {
            steps_checked: 627,
            propagations: 9715,
            unmatched_deletes: 0,
            hint_misses: 627,
        },
        CheckStats {
            steps_checked: 627,
            propagations: 3,
            unmatched_deletes: 0,
            hint_misses: 0,
        },
    );
}

#[test]
fn reduce_db_certificate_replays_with_the_recorded_counts() {
    let config = SolverConfig {
        min_learnt_limit: 4,
        learntsize_factor: 0.01,
        ..proof_config()
    };
    assert_golden(
        config,
        (2227, 1039),
        CheckStats {
            steps_checked: 2226,
            propagations: 17113,
            unmatched_deletes: 0,
            hint_misses: 1187,
        },
        CheckStats {
            steps_checked: 2226,
            propagations: 23,
            unmatched_deletes: 0,
            hint_misses: 0,
        },
    );
}

/// Deletions match by literal *multiset*: a clause loaded with a repeated
/// literal is removed only by a deletion repeating it too, and a deletion
/// repeating a literal never removes the plain clause.
#[test]
fn deletions_with_duplicate_literals_match_by_multiset() {
    let lit = Lit::from_dimacs;
    let mut cnf = Cnf::new(3);
    cnf.add_clause([lit(1), lit(1), lit(2)]);
    cnf.add_clause([lit(1), lit(-2)]);
    cnf.add_clause([lit(-1), lit(3)]);
    cnf.add_clause([lit(-1), lit(-3)]);
    let with_deletes = |deletes: &[&[i64]]| {
        let mut steps: Vec<DratStep> = deletes
            .iter()
            .map(|d| DratStep::Delete(d.iter().map(|&l| lit(l)).collect()))
            .collect();
        steps.push(DratStep::add(vec![lit(1)]));
        check_unsat_proof(&cnf, &[], &DratProof { steps })
    };
    // Neither spelling matches `(1 ∨ 1 ∨ 2)`: both are lenient no-ops and
    // the clause still supports the `(1)` lemma.
    let stats = with_deletes(&[&[1, 2], &[1, 2, 2]]).expect("clause still present");
    assert_eq!(stats.unmatched_deletes, 2);
    // `(1 ∨ 1 ∨ -2)` does not match the plain `(1 ∨ -2)` either.
    let stats = with_deletes(&[&[1, 1, -2]]).expect("clause still present");
    assert_eq!(stats.unmatched_deletes, 1);
    // The same multiset in any order does match, and `(1)` loses its support.
    assert!(with_deletes(&[&[2, 1, 1]]).is_err());
}
