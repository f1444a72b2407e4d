//! The loader against the plain path: a solver built by
//! `Solver::from_cnf_with_config` — every per-variable vector sized at once,
//! the binary and ternary originals in the shared watch table — must answer
//! and count exactly like `Solver::new` fed the same clauses one
//! `add_clause` at a time, cube after cube, on formulas that make the loader
//! take every branch: units, repeated literals, tautologies, an empty
//! clause, clauses that root units shorten, and variables first named after
//! the load, by a clause or by an assumption.

use pdsat_cnf::{Cnf, Lit, Var};
use pdsat_solver::{Solver, SolverConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A literal over the first `n` variables.
fn any_lit(n: u32, rng: &mut StdRng) -> Lit {
    Lit::new(Var::new(rng.gen_range(0..n)), rng.gen_bool(0.5))
}

/// A random formula over up to `n` variables that names each of them in
/// some clause, so its variable count is what its clauses name.
fn random_formula(n: u32, rng: &mut StdRng) -> Cnf {
    let mut cnf = Cnf::new(0);
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    // Root units first, so that later clauses over their variables are
    // shortened or satisfied while the formula loads.
    for _ in 0..rng.gen_range(0..4) {
        clauses.push(vec![any_lit(n, rng)]);
    }
    for _ in 0..rng.gen_range(n..3 * n) {
        let len = [2, 2, 3, 3, 3, 4, 5][rng.gen_range(0..7usize)];
        let mut clause: Vec<Lit> = (0..len).map(|_| any_lit(n, rng)).collect();
        match rng.gen_range(0..10) {
            // A repeated literal.
            0 => clause.push(clause[0]),
            // A tautology.
            1 => clause.push(!clause[0]),
            _ => {}
        }
        clauses.push(clause);
    }
    // A unit in the middle: it propagates over the table as far as the
    // load has filled it.
    let middle = rng.gen_range(0..=clauses.len());
    clauses.insert(middle, vec![any_lit(n, rng)]);
    if rng.gen_range(0..8) == 0 {
        let at = rng.gen_range(0..=clauses.len());
        clauses.insert(at, Vec::new());
    }
    // Every variable named: the plain solver then knows as many as the
    // loaded one, whatever the order they are first named in.
    clauses.push((0..n).map(|v| Lit::new(Var::new(v), v % 2 == 0)).collect());
    for clause in clauses {
        cnf.add_clause(clause);
    }
    cnf
}

/// Asserts that `loaded` and `fed` are in the same observable state. A
/// formula refuted at the root stops naming variables on the plain path (a
/// clause added after the refutation is dropped unread), so the variable
/// counts are compared only while the formula stands.
fn assert_same(loaded: &Solver, fed: &Solver, what: &str) {
    assert_eq!(loaded.stats(), fed.stats(), "{what}");
    assert_eq!(loaded.is_ok(), fed.is_ok(), "{what}");
    if loaded.is_ok() {
        assert_eq!(loaded.num_vars(), fed.num_vars(), "{what}");
        assert_eq!(loaded.conflict_counts(), fed.conflict_counts(), "{what}");
    }
    assert_eq!(loaded.proof_steps(), fed.proof_steps(), "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Verdicts, models, statistics and proofs agree after the load, after
    /// every cube and after every clause added between cubes.
    #[test]
    fn the_loader_agrees_with_adding_clause_by_clause(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4..24u32);
        let cnf = random_formula(n, &mut rng);
        // The solver's clock off: every statistic left is a count.
        let config = SolverConfig {
            proof: seed % 2 == 0,
            time_accounting: false,
        };
        let mut loaded = Solver::from_cnf_with_config(&cnf, config.clone());
        let mut fed = Solver::with_config(config);
        for clause in cnf.iter() {
            fed.add_clause(clause.iter().copied());
        }
        assert_same(&loaded, &fed, "after the load");

        // New variables appear past the load's range: by an assumption, and
        // by a clause added between cubes.
        let mut known = n + 2;
        for cube_index in 0..12 {
            if rng.gen_range(0..4) == 0 {
                let clause: Vec<Lit> = (0..rng.gen_range(1..5))
                    .map(|_| any_lit(known + 1, &mut rng))
                    .collect();
                known += 1;
                prop_assert_eq!(
                    loaded.add_clause(clause.iter().copied()),
                    fed.add_clause(clause.iter().copied())
                );
            }
            let cube: Vec<Lit> = (0..rng.gen_range(0..5))
                .map(|_| any_lit(known, &mut rng))
                .collect();
            let verdict = loaded.solve_with_assumptions(&cube);
            prop_assert_eq!(&verdict, &fed.solve_with_assumptions(&cube), "cube {}", cube_index);
            if let Some(model) = verdict.model() {
                prop_assert!(cnf.is_satisfied_by(model));
            }
            prop_assert_eq!(loaded.unsat_certificate(), fed.unsat_certificate());
            prop_assert_eq!(loaded.retained_assumptions(), fed.retained_assumptions());
            assert_same(&loaded, &fed, &format!("cube {cube_index}"));
        }
    }
}
