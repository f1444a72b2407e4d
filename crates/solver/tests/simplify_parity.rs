//! Differential tests for the inprocessing pipeline: a simplified solver
//! must be observationally equivalent to an unsimplified one. Verdicts agree
//! on random formulas, models extended through the elimination stack satisfy
//! the *original* clauses, frozen variables survive untouched, and whole
//! assumption families (the decomposition workload) keep their per-cube
//! verdicts.
//!
//! The suite runs with proof logging on: every UNSAT verdict must come with
//! a DRAT certificate that the independent checker accepts against the
//! *original* formula — including certificates whose derivations run through
//! elimination, subsumption and vivification emissions.

use pdsat_cnf::{Cnf, Cube, Lit, Var};
use pdsat_solver::{Solver, SolverConfig, Verdict};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The differential proof hook: an UNSAT verdict from a proof-logging solver
/// must yield a certificate the checker accepts against the original formula
/// with the solve's assumptions seeded as roots.
fn assert_certified_unsat(cnf: &Cnf, assumptions: &[Lit], solver: &Solver) {
    let cert = solver
        .unsat_certificate()
        .expect("proof logging is on, the verdict was UNSAT");
    if let Err(failure) = pdsat_checker::check_unsat_proof(cnf, assumptions, &cert) {
        panic!("checker rejected the solver's certificate: {failure}");
    }
}

fn simplify_config() -> SolverConfig {
    SolverConfig {
        simplify: true,
        proof: true,
        ..SolverConfig::default()
    }
}

/// Builds a solver, freezes `frozen`, and runs one `simplify()` pass — the
/// exact setup sequence the oracle backends perform.
fn simplified_solver(cnf: &Cnf, config: SolverConfig, frozen: &[Var]) -> Solver {
    let mut solver = Solver::from_cnf_with_config(cnf, config);
    for &v in frozen {
        solver.freeze(v);
    }
    solver.simplify();
    solver
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simplify-on and simplify-off agree on satisfiability, and any model
    /// returned after elimination — i.e. extended back through the
    /// elimination stack — satisfies every clause of the original formula.
    #[test]
    fn simplified_verdict_and_model_match_baseline(seed in 0u64..6_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51AB);
        let n = rng.gen_range(3..14usize);
        let m = rng.gen_range(2..50usize);
        let k = rng.gen_range(2..=4usize);
        let cnf = Cnf::random_cnf(n, m, k, &mut StdRng::seed_from_u64(seed.wrapping_mul(41)));

        let baseline = Solver::from_cnf(&cnf).solve().is_sat();
        let mut simplified = simplified_solver(&cnf, simplify_config(), &[]);
        match simplified.solve() {
            Verdict::Sat(model) => {
                prop_assert!(baseline, "simplified SAT but baseline UNSAT");
                prop_assert!(
                    cnf.is_satisfied_by(&model),
                    "extended model must satisfy the original formula"
                );
            }
            Verdict::Unsat => {
                prop_assert!(!baseline, "simplified UNSAT but baseline SAT");
                assert_certified_unsat(&cnf, &[], &simplified);
            }
            Verdict::Unknown(r) => prop_assert!(false, "unlimited solve returned Unknown: {r}"),
        }
    }

    /// With the decomposition set frozen, every cube of the family gets the
    /// same verdict from a simplified solver as from an untouched one — the
    /// invariant the oracle backends rely on.
    #[test]
    fn frozen_family_verdicts_survive_simplification(seed in 0u64..2_500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA51);
        let n = rng.gen_range(4..11usize);
        let m = rng.gen_range(3..36usize);
        let cnf = Cnf::random_cnf(n, m, 3, &mut StdRng::seed_from_u64(seed.wrapping_mul(59).wrapping_add(3)));
        let d = rng.gen_range(1..=3usize.min(n));
        let set: Vec<Var> = (0..d as u32).map(Var::new).collect();

        let mut plain = Solver::from_cnf(&cnf);
        let mut simplified = simplified_solver(&cnf, simplify_config(), &set);
        for &v in &set {
            prop_assert!(
                !simplified.is_eliminated(v),
                "frozen variable {v:?} was eliminated"
            );
        }

        for idx in 0..(1u64 << d) {
            let assumptions = Cube::from_bits(&set, idx).to_assumptions();
            let expected = plain.solve_with_assumptions(&assumptions);
            let got = simplified.solve_with_assumptions(&assumptions);
            prop_assert_eq!(
                expected.is_sat(),
                got.is_sat(),
                "cube {} verdict changed under simplification",
                idx
            );
            if !got.is_sat() {
                assert_certified_unsat(&cnf, &assumptions, &simplified);
            }
            if let Verdict::Sat(model) = got {
                for &lit in Cube::from_bits(&set, idx).lits() {
                    prop_assert_eq!(model.lit_value(lit).to_bool(), Some(true));
                }
                prop_assert!(cnf.is_satisfied_by(&model));
            }
        }
    }

    /// Elimination only ever touches unfrozen variables, whatever the grow
    /// limit; and a simplified solver never reports *more* live variables
    /// eliminated than exist outside the frozen set.
    #[test]
    fn elimination_respects_freeze_under_any_grow_limit(seed in 0u64..1_500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x60F);
        let n = rng.gen_range(4..12usize);
        let m = rng.gen_range(3..40usize);
        let cnf = Cnf::random_cnf(n, m, 3, &mut StdRng::seed_from_u64(seed.wrapping_mul(23).wrapping_add(11)));
        let frozen: Vec<Var> = (0..n as u32)
            .filter(|v| v % 2 == 0)
            .map(Var::new)
            .collect();
        let grow = rng.gen_range(0..=8usize);

        let config = SolverConfig {
            elim_grow_limit: grow,
            ..simplify_config()
        };
        let solver = simplified_solver(&cnf, config, &frozen);
        for &v in &frozen {
            prop_assert!(!solver.is_eliminated(v));
            prop_assert!(solver.is_frozen(v));
        }
        let eliminated = (0..n as u32)
            .filter(|&v| solver.is_eliminated(Var::new(v)))
            .count() as u64;
        prop_assert_eq!(solver.stats().eliminated_vars, eliminated);
        prop_assert!(eliminated as usize <= n - frozen.len());
    }

    /// A zero subsumption budget (only mandatory work runs) and a disabled
    /// vivification pass still yield correct verdicts — budget-limited exits
    /// must degrade gracefully, never unsoundly.
    #[test]
    fn budget_limited_simplification_stays_sound(seed in 0u64..1_500) {
        let cnf = Cnf::random_cnf(10, 38, 3, &mut StdRng::seed_from_u64(seed.wrapping_mul(67).wrapping_add(29)));
        let baseline = Solver::from_cnf(&cnf).solve().is_sat();
        let starved = SolverConfig {
            subsumption_limit: 0,
            vivify: false,
            ..simplify_config()
        };
        let mut solver = simplified_solver(&cnf, starved, &[]);
        match solver.solve() {
            Verdict::Sat(model) => {
                prop_assert!(baseline);
                prop_assert!(cnf.is_satisfied_by(&model));
            }
            Verdict::Unsat => {
                prop_assert!(!baseline);
                assert_certified_unsat(&cnf, &[], &solver);
            }
            Verdict::Unknown(r) => prop_assert!(false, "unlimited solve returned Unknown: {r}"),
        }
    }

    /// Simplification is deterministic: two identically configured passes
    /// over the same formula report identical reduction statistics — the
    /// Monte Carlo estimator requires the whole algorithm A to be a function
    /// of its inputs.
    #[test]
    fn simplification_is_deterministic(seed in 0u64..1_500) {
        let cnf = Cnf::random_cnf(11, 42, 3, &mut StdRng::seed_from_u64(seed.wrapping_mul(101).wrapping_add(7)));
        let frozen: Vec<Var> = (0..3u32).map(Var::new).collect();
        let run = |cnf: &Cnf| {
            let mut solver = simplified_solver(cnf, simplify_config(), &frozen);
            let verdict = solver.solve().is_sat();
            let stats = *solver.stats();
            (
                verdict,
                stats.eliminated_vars,
                stats.subsumed_clauses,
                stats.strengthened_clauses,
                stats.vivified_lits,
                stats.conflicts,
                stats.propagations,
            )
        };
        prop_assert_eq!(run(&cnf), run(&cnf));
    }
}

/// Freezing after the fact must not resurrect an eliminated variable, and a
/// melted variable becomes eligible for elimination on the *next* pass —
/// spot-check the contract on a concrete definitional formula.
#[test]
fn melt_exposes_variable_to_later_passes() {
    // y ↔ x1 ∧ x2 encoded as three clauses; x1, x2 kept frozen throughout.
    let x1 = Lit::positive(Var::new(0));
    let x2 = Lit::positive(Var::new(1));
    let y = Lit::positive(Var::new(2));
    let mut cnf = Cnf::new(3);
    cnf.add_clause([!x1, !x2, y]);
    cnf.add_clause([x1, !y]);
    cnf.add_clause([x2, !y]);

    // First pass: everything frozen, nothing may be eliminated.
    let mut solver = simplified_solver(
        &cnf,
        simplify_config(),
        &[Var::new(0), Var::new(1), Var::new(2)],
    );
    assert!(!solver.is_eliminated(Var::new(2)));
    assert_eq!(solver.stats().eliminated_vars, 0);

    // Melt y and re-run: the definition is now removable.
    solver.melt(Var::new(2));
    assert!(!solver.is_frozen(Var::new(2)));
    solver.simplify();
    assert!(solver.is_eliminated(Var::new(2)));

    // The model still assigns y consistently with its definition.
    match solver.solve() {
        Verdict::Sat(model) => assert!(cnf.is_satisfied_by(&model)),
        other => panic!("satisfiable definition solved as {other:?}"),
    }
}
