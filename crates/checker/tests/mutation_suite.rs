//! Mutation suite for the certificate checker: solver-produced DRAT
//! certificates must be accepted, and corrupted ones rejected.
//!
//! Rejection of a mutated proof is only guaranteed when the mutation
//! provably breaks the derivation, so the suite splits in two:
//!
//! * **Deterministic tests** on a hand-crafted formula whose refutation has
//!   no redundant steps — flipping a literal, dropping an essential
//!   addition, or hoisting a deletion above the addition it erases each
//!   provably de-rail unit propagation, so the checker must say no, even
//!   when the lemma's hints name every clause there is.
//! * **Proptests** on random formulas applying mutations whose rejection is
//!   guaranteed structurally for *any* valid certificate: stripping every
//!   addition (no conflict can ever be derived), prepending deletions of
//!   every original clause (the first addition loses all support), and
//!   re-targeting a certificate at assumptions under which the formula is
//!   satisfiable (accepting would prove a SAT instance UNSAT).

use pdsat_checker::{check_model, check_unsat_proof, CheckFailure};
use pdsat_cnf::{Assignment, Cnf, DratProof, DratStep, Lit, Var};
use pdsat_solver::{Solver, SolverConfig, Verdict};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn proof_config() -> SolverConfig {
    SolverConfig {
        proof: true,
        ..SolverConfig::default()
    }
}

/// A formula whose shortest refutation is genuinely two lemmas deep:
/// `(x∨y) ∧ (¬x∨y)` forces `y`, and under `y` the four clauses over
/// `{z,w}` form an unsatisfiable square — but asserting `y` alone
/// propagates nothing, so neither `¬y` nor `z`-without-`y` is RUP.
fn crafted_cnf() -> (Cnf, Lit, Lit) {
    let x = Lit::positive(Var::new(0));
    let y = Lit::positive(Var::new(1));
    let z = Lit::positive(Var::new(2));
    let w = Lit::positive(Var::new(3));
    let mut cnf = Cnf::new(4);
    cnf.add_clause([x, y]);
    cnf.add_clause([!x, y]);
    cnf.add_clause([!y, z, w]);
    cnf.add_clause([!y, z, !w]);
    cnf.add_clause([!y, !z, w]);
    cnf.add_clause([!y, !z, !w]);
    (cnf, y, z)
}

/// The (irredundant) refutation of [`crafted_cnf`]: derive `y`, then `z`,
/// then the empty clause.
fn crafted_proof(y: Lit, z: Lit) -> DratProof {
    DratProof {
        steps: vec![
            DratStep::add(vec![y]),
            DratStep::add(vec![z]),
            DratStep::add(vec![]),
        ],
    }
}

#[test]
fn crafted_refutation_is_accepted() {
    let (cnf, y, z) = crafted_cnf();
    let stats = check_unsat_proof(&cnf, &[], &crafted_proof(y, z)).expect("valid refutation");
    assert!(stats.steps_checked >= 2);
}

/// A certificate earned under one assumption branch does not check out
/// under the opposite, satisfiable branch — concrete pin of the soundness
/// property the proptest below samples.
#[test]
fn cube_certificate_does_not_transfer_concrete() {
    let x = Lit::positive(Var::new(0));
    let y = Lit::positive(Var::new(1));
    let mut cnf = Cnf::new(2);
    cnf.add_clause([x, y]);
    cnf.add_clause([x, !y]);

    let mut solver = Solver::from_cnf_with_config(&cnf, proof_config());
    assert!(matches!(
        solver.solve_with_assumptions(&[!x]),
        Verdict::Unsat
    ));
    let cert = solver.unsat_certificate().expect("proof logging is on");
    assert!(check_unsat_proof(&cnf, &[!x], &cert).is_ok());
    assert!(
        check_unsat_proof(&cnf, &[x], &cert).is_err(),
        "certificate accepted under a satisfiable branch"
    );
}

#[test]
fn flipping_a_proof_literal_is_rejected() {
    let (cnf, y, z) = crafted_cnf();
    let mut proof = crafted_proof(y, z);
    // `¬y` is not RUP: asserting `y` propagates nothing (every `¬y` clause
    // still has two free literals), so no conflict arises.
    proof.steps[0] = DratStep::add(vec![!y]);
    assert_eq!(
        check_unsat_proof(&cnf, &[], &proof),
        Err(CheckFailure::ProofNotRup)
    );
}

/// Hints only name clauses to resolve on; naming every live clause, in any
/// order and more than once, must not make a lemma that is not RUP pass.
#[test]
fn hints_naming_every_clause_do_not_make_a_lemma_rup() {
    let (cnf, y, z) = crafted_cnf();
    let every: Vec<u32> = (0..cnf.num_clauses() as u32).collect();
    let backwards: Vec<u32> = every.iter().rev().copied().collect();
    let twice = [&every[..], &every[..]].concat();
    for hints in [every, backwards, twice] {
        // Neither `¬y` nor `z` is RUP over the formula alone.
        for lemma in [vec![!y], vec![z]] {
            let proof = DratProof {
                steps: vec![
                    DratStep::Add {
                        lits: lemma,
                        hints: hints.as_slice().into(),
                    },
                    DratStep::add(vec![]),
                ],
            };
            assert_eq!(
                check_unsat_proof(&cnf, &[], &proof),
                Err(CheckFailure::ProofNotRup)
            );
        }
    }
}

#[test]
fn dropping_an_essential_addition_is_rejected() {
    let (cnf, y, z) = crafted_cnf();
    let mut proof = crafted_proof(y, z);
    // Without the `y` lemma, asserting `¬z` propagates nothing.
    proof.steps.remove(0);
    assert_eq!(
        check_unsat_proof(&cnf, &[], &proof),
        Err(CheckFailure::ProofNotRup)
    );
}

#[test]
fn truncating_the_derivation_is_rejected() {
    let (cnf, y, z) = crafted_cnf();
    let mut proof = crafted_proof(y, z);
    // The lone `y` lemma propagates no further (every clause it touches
    // keeps two free literals), so the truncated proof never conflicts.
    proof.steps.truncate(1);
    assert_eq!(
        check_unsat_proof(&cnf, &[], &proof),
        Err(CheckFailure::ProofIncomplete)
    );
}

#[test]
fn hoisting_a_deletion_above_its_support_is_rejected() {
    let (cnf, y, z) = crafted_cnf();
    let x = Lit::positive(Var::new(0));
    // Deleting `(x∨y)` right after `y` is derived is legitimate GC …
    let gc_after = DratProof {
        steps: vec![
            DratStep::add(vec![y]),
            DratStep::Delete(vec![x, y]),
            DratStep::add(vec![z]),
            DratStep::add(vec![]),
        ],
    };
    assert!(check_unsat_proof(&cnf, &[], &gc_after).is_ok());
    // … but permuting it above the `y` addition removes half of `y`'s
    // support: asserting `¬y` now only propagates `¬x`, no conflict.
    let gc_before = DratProof {
        steps: vec![
            DratStep::Delete(vec![x, y]),
            DratStep::add(vec![y]),
            DratStep::add(vec![z]),
            DratStep::add(vec![]),
        ],
    };
    assert_eq!(
        check_unsat_proof(&cnf, &[], &gc_before),
        Err(CheckFailure::ProofNotRup)
    );
}

/// A forged upload naming variable 2^31−1 must cost nothing: the checker's
/// tables are sized by the formula, so the literal is rejected as a shape
/// error instead of sizing `2·2^31` watch lists.
#[test]
fn forged_variable_index_is_rejected_without_allocating_for_it() {
    let (cnf, y, z) = crafted_cnf();
    let huge = Lit::positive(Var::new((1 << 31) - 1));
    let forged = DratProof {
        steps: vec![DratStep::add(vec![huge])],
    };
    assert_eq!(
        check_unsat_proof(&cnf, &[], &forged),
        Err(CheckFailure::Shape)
    );
    assert_eq!(
        check_unsat_proof(&cnf, &[huge], &crafted_proof(y, z)),
        Err(CheckFailure::Shape)
    );
    // One past the formula's range is out of range too.
    let fifth = Lit::positive(Var::new(cnf.num_vars() as u32));
    let mut proof = crafted_proof(y, z);
    proof.steps[0] = DratStep::add(vec![y, fifth]);
    assert_eq!(
        check_unsat_proof(&cnf, &[], &proof),
        Err(CheckFailure::Shape)
    );
    // A deletion only hashes its literals, so naming an unknown variable
    // makes it an unmatched no-op; and no step after the conflict is looked
    // at.
    let mut lenient = crafted_proof(y, z);
    lenient.steps.insert(0, DratStep::Delete(vec![huge]));
    lenient.steps.push(DratStep::add(vec![huge]));
    let stats = check_unsat_proof(&cnf, &[], &lenient).expect("accepted");
    assert_eq!(stats.unmatched_deletes, 1);
    assert!(stats.steps_checked < lenient.steps.len());
}

#[test]
fn model_mutations_are_rejected() {
    let (cnf, y, _) = crafted_cnf();
    // `y = false` satisfies the crafted formula minus its `y`-forcing pair?
    // No — build the honest model by brute force instead of guessing.
    let sat_cnf = {
        let mut c = Cnf::new(cnf.num_vars());
        // Keep only the square over {z,w} guarded by y; with ¬y everything
        // is satisfied, so the formula minus the forcing pair is SAT.
        for clause in cnf.clauses().iter().skip(2) {
            c.add_clause(clause.lits().iter().copied());
        }
        c
    };
    let model = sat_cnf.brute_force_model().expect("guarded square is SAT");
    assert_eq!(check_model(&sat_cnf, &[], &model), Ok(()));
    // A model that violates an assumption literal is rejected even when it
    // satisfies every clause.
    let violated = if model.lit_value(y).to_bool() == Some(true) {
        !y
    } else {
        y
    };
    assert_eq!(
        check_model(&sat_cnf, &[violated], &model),
        Err(CheckFailure::AssumptionViolated)
    );
    // Forcing y=true in the model falsifies one clause of the square unless
    // z/w already dodge it — flip all three and the square is violated.
    let mut falsifying = Assignment::new(sat_cnf.num_vars());
    falsifying.assign(Var::new(1), true);
    let z_true = model.lit_value(Lit::positive(Var::new(2))).to_bool() == Some(true);
    let w_true = model.lit_value(Lit::positive(Var::new(3))).to_bool() == Some(true);
    falsifying.assign(Var::new(2), z_true);
    falsifying.assign(Var::new(3), w_true);
    assert_eq!(
        check_model(&sat_cnf, &[], &falsifying),
        Err(CheckFailure::ModelUnsat)
    );
}

/// Random k-SAT with clause width ≥ 2, so the original formula never unit
/// propagates at the root — structural mutations below rely on that.
fn random_wide_cnf(seed: u64, n: usize, m: usize) -> Cnf {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cnf = Cnf::new(n);
    for _ in 0..m {
        let len = rng.gen_range(2..=3usize);
        let mut vars: Vec<u32> = Vec::new();
        while vars.len() < len {
            let v = rng.gen_range(0..n) as u32;
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        cnf.add_clause(
            vars.iter()
                .map(|&v| Lit::new(Var::new(v), rng.gen_bool(0.5))),
        );
    }
    cnf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Positive control plus two structurally guaranteed corruptions, on
    /// solver-produced certificates for random UNSAT formulas.
    #[test]
    fn solver_certificates_accepted_and_structural_corruptions_rejected(seed in 0u64..5_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD12A7);
        let n = rng.gen_range(4..12usize);
        let m = rng.gen_range(n * 4..n * 6);
        let cnf = random_wide_cnf(seed.wrapping_mul(37).wrapping_add(5), n, m);

        let mut solver = Solver::from_cnf_with_config(&cnf, proof_config());
        if matches!(solver.solve(), Verdict::Unsat) {
            let cert = solver.unsat_certificate().expect("UNSAT with proof logging on");

            // Positive control: the honest certificate is accepted.
            let stats = check_unsat_proof(&cnf, &[], &cert)
                .unwrap_or_else(|failure| panic!("honest certificate rejected: {failure}"));
            prop_assert!(stats.steps_checked > 0);

            // Corruption 1: strip every addition. With no additions and no
            // unit clauses in the original formula, no conflict can ever be
            // derived.
            let deletes_only = DratProof {
                steps: cert.steps.iter().filter(|s| s.is_delete()).cloned().collect(),
            };
            prop_assert_eq!(
                check_unsat_proof(&cnf, &[], &deletes_only),
                Err(CheckFailure::ProofIncomplete)
            );

            // Corruption 2: delete every original clause up front. The first
            // addition then has an empty database below it — its RUP check
            // cannot propagate, let alone conflict.
            let mut gutted = DratProof::new();
            for clause in cnf.clauses() {
                gutted.steps.push(DratStep::Delete(clause.lits().to_vec()));
            }
            gutted.steps.extend(cert.steps.iter().cloned());
            prop_assert!(check_unsat_proof(&cnf, &[], &gutted).is_err());
        }
    }

    /// Soundness across cubes: a certificate earned under one branch of a
    /// decomposition variable must not check out under the opposite branch
    /// when that branch is satisfiable.
    #[test]
    fn certificates_do_not_transfer_to_satisfiable_cubes(seed in 0u64..5_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED5);
        let n = rng.gen_range(4..12usize);
        let m = rng.gen_range(n * 3..n * 5);
        let cnf = random_wide_cnf(seed.wrapping_mul(53).wrapping_add(17), n, m);
        let branch = Lit::new(Var::new(rng.gen_range(0..n) as u32), rng.gen_bool(0.5));

        let mut solver = Solver::from_cnf_with_config(&cnf, proof_config());
        let unsat_branch = matches!(solver.solve_with_assumptions(&[branch]), Verdict::Unsat);
        let sat_other =
            unsat_branch && matches!(solver.solve_with_assumptions(&[!branch]), Verdict::Sat(_));
        if sat_other {
            // Re-derive the certificate for the UNSAT branch (the SAT solve
            // reset the latch), then aim it at the SAT branch.
            prop_assert!(
                matches!(solver.solve_with_assumptions(&[branch]), Verdict::Unsat),
                "verdicts must be reproducible"
            );
            let cert = solver.unsat_certificate().expect("UNSAT branch certificate");
            prop_assert!(check_unsat_proof(&cnf, &[branch], &cert).is_ok());
            prop_assert!(
                check_unsat_proof(&cnf, &[!branch], &cert).is_err(),
                "checker accepted an UNSAT certificate for a satisfiable cube"
            );
        }
    }
}
