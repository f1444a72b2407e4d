//! `Solver::clone_from` is a complete restore: whatever state a working
//! solver was left in, `working.clone_from(&template)` makes its next solve
//! indistinguishable — verdict, model, every counter, per-variable conflict
//! participation, DRAT stream — from that of a solver built from scratch the
//! way the template was. This is what lets the oracle give every backend a
//! copy of one loaded solver (the fresh backend then rewinds its copy before
//! each cube; `rewind_parity.rs` pins that); a field `clone_from` forgets
//! to copy shows up here as a diverging counter. The
//! formulas cover clauses of two, three and more literals (long originals
//! have their watched literals swapped in the arena by a solve), and one
//! dirt compacts the arena, so learnt watchers and reasons relocate.

use pdsat_ciphers::{Bivium, InstanceBuilder};
use pdsat_cnf::{Cnf, Cube, Var};
use pdsat_solver::{Budget, InterruptFlag, Solver, SolverConfig, TestPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ways to leave a working solver in a state unlike its template.
#[derive(Debug, Clone, Copy)]
enum Dirt {
    FullSolve,
    ConflictCutOff,
    RaisedInterrupt,
    RootUnsat,
    ReduceAndCollect,
}

/// Leaves `working` dirty; returns the garbage collections that took.
fn dirty(working: &mut Solver, dirt: Dirt, cube: &Cube) -> u64 {
    let collections = working.stats().gc_runs;
    match dirt {
        Dirt::FullSolve => {
            let _ = working.solve_with_assumptions(cube.lits());
        }
        Dirt::ConflictCutOff => {
            // Stops mid-search after the first conflict, with decisions on
            // the trail, a pending asserting literal and a test policy the
            // template does not have.
            working.set_test_policy(TestPolicy {
                interrupt_at_conflict: Some(1),
                ..TestPolicy::default()
            });
            let _ = working.solve_with_assumptions(cube.lits());
        }
        Dirt::RaisedInterrupt => {
            let flag = InterruptFlag::new();
            flag.raise();
            let verdict = working.solve_limited(cube.lits(), &Budget::unlimited(), Some(&flag));
            assert!(verdict.is_unknown());
        }
        Dirt::RootUnsat => {
            let l = cube.lits()[0];
            working.add_clause([l]);
            working.add_clause([!l]);
            assert!(!working.is_ok());
        }
        Dirt::ReduceAndCollect => {
            // Four learnt clauses trigger `reduce_db`, and any wasted arena
            // word triggers a compaction.
            working.set_test_policy(TestPolicy {
                learnt_limit: Some(4),
                garbage_frac: 0.0,
                ..TestPolicy::default()
            });
            let _ = working.solve_with_assumptions(cube.lits());
        }
    }
    working.stats().gc_runs - collections
}

/// With proof logging off and on, over every kind of dirt: restore
/// the one working solver from the template, solve a cube, and require the
/// run to equal a from-scratch solver's run on the same cube. Returns the
/// garbage collections the dirt caused.
fn assert_restores_exactly(cnf: &Cnf, set: &[Var], label: &str) -> u64 {
    let mut collections = 0;
    let cubes: Vec<Cube> = (0..1u64 << set.len())
        .map(|bits| Cube::from_bits(set, bits))
        .collect();
    for proof in [false, true] {
        let config = SolverConfig {
            proof,
            // Wall time is the one counter that cannot repeat.
            time_accounting: false,
        };
        let template = Solver::from_cnf_with_config(cnf, config.clone());
        let mut working = template.clone();
        let dirts = [
            Dirt::FullSolve,
            Dirt::ConflictCutOff,
            Dirt::RaisedInterrupt,
            Dirt::RootUnsat,
            Dirt::ReduceAndCollect,
        ];
        for (i, &dirt) in dirts.iter().cycle().take(cubes.len().max(8)).enumerate() {
            let cube = &cubes[i % cubes.len()];
            let context = format!("{label}, proof {proof}, {dirt:?}, cube {i}");
            collections += dirty(&mut working, dirt, &cubes[(i + 3) % cubes.len()]);
            working.clone_from(&template);
            // The UNSAT latch of the dirtying solve must not outlive it.
            assert_eq!(
                working.unsat_certificate(),
                template.unsat_certificate(),
                "{context}"
            );

            let mut reference = Solver::from_cnf_with_config(cnf, config.clone());
            let expected = reference.solve_with_assumptions(cube.lits());
            let got = working.solve_with_assumptions(cube.lits());
            assert_eq!(got, expected, "verdict or model diverged: {context}");
            assert_eq!(working.stats(), reference.stats(), "{context}");
            assert_eq!(
                working.conflict_counts(),
                reference.conflict_counts(),
                "{context}"
            );
            assert_eq!(working.proof_steps(), reference.proof_steps(), "{context}");
            assert_eq!(
                working.unsat_certificate(),
                reference.unsat_certificate(),
                "{context}"
            );
        }
    }
    collections
}

#[test]
fn restored_solver_equals_a_rebuilt_one_on_random_3cnfs() {
    let mut rng = StdRng::seed_from_u64(0xC10E);
    let mut verdicts = [0usize; 2];
    for round in 0..6 {
        // Densities straddling the threshold, so cubes mix SAT and UNSAT.
        let num_vars = 30 + 4 * (round % 3);
        let num_clauses = (num_vars as f64 * (3.9 + 0.2 * (round % 4) as f64)) as usize;
        let cnf = Cnf::random_3cnf(num_vars, num_clauses, &mut rng);
        let set: Vec<Var> = (0..3).map(|i| Var::new(i * 7 + round as u32)).collect();
        assert_restores_exactly(&cnf, &set, &format!("random round {round}"));
        for bits in 0..8 {
            let sat = Solver::from_cnf(&cnf)
                .solve_with_assumptions(Cube::from_bits(&set, bits).lits())
                .is_sat();
            verdicts[usize::from(sat)] += 1;
        }
    }
    assert!(
        verdicts[0] >= 8 && verdicts[1] >= 8,
        "the families must exercise both verdicts: {verdicts:?}"
    );
}

#[test]
fn restored_solver_equals_a_rebuilt_one_on_weakened_bivium() {
    let mut rng = StdRng::seed_from_u64(0xB1B1);
    let instance = InstanceBuilder::new(Bivium::new())
        .keystream_len(32)
        .known_suffix_of_second_register(167)
        .build_random(&mut rng);
    let unknown = instance.unknown_state_vars();
    assert_restores_exactly(instance.cnf(), &unknown[..4], "bivium");
}

#[test]
fn restored_solver_equals_a_rebuilt_one_on_long_clauses() {
    // Clauses of two to six literals (a random formula's units would
    // refute it at the root), and PHP(6 → 5), whose pigeon clauses have
    // five literals and whose every cube is UNSAT after enough conflicts to
    // reduce and compact the learnt clauses.
    let mut rng = StdRng::seed_from_u64(0x1096);
    let mut mixed = Cnf::new(30);
    for clause in Cnf::random_cnf(30, 200, 6, &mut rng).iter() {
        if clause.len() > 1 {
            mixed.add_clause(clause.iter().copied());
        }
    }
    assert!(mixed.iter().any(|c| c.len() >= 5));
    let set: Vec<Var> = (0..3).map(|i| Var::new(i * 7 + 2)).collect();
    assert_restores_exactly(&mixed, &set, "random_cnf up to 6 literals");
    let pigeons = Cnf::pigeonhole(6);
    // Pigeon i in hole i, for the first four.
    let set = [Var::new(0), Var::new(6), Var::new(12), Var::new(18)];
    let collections = assert_restores_exactly(&pigeons, &set, "pigeonhole");
    assert!(collections > 0, "no dirt compacted the arena");
}

/// A cube that learns many clauses gives many literals a watch handle; the
/// restore that follows must take every one of them back to null, so the
/// next cube answers, counts and logs as it does on a fresh clone of the
/// template. Each round dirties with a different cube, so lists kept from
/// one literal are handed to others.
#[test]
fn a_restore_after_a_cube_that_learnt_many_clauses_answers_like_a_fresh_clone() {
    let pigeons = Cnf::pigeonhole(7);
    // Pigeon i is in hole i, or not: variable 7i of PHP(7 → 6).
    let diagonal = |i: u32| Var::new(7 * i);
    let set = [diagonal(0), diagonal(1), diagonal(2)];
    for proof in [false, true] {
        let config = SolverConfig {
            proof,
            time_accounting: false,
        };
        let template = Solver::from_cnf_with_config(&pigeons, config);
        let mut working = template.clone();
        for round in 0..4 {
            // Three pigeons kept out of their diagonal holes.
            let dirt = Cube::from_bits(
                &[diagonal(round), diagonal(round + 1), diagonal(round + 2)],
                0,
            );
            let before = working.stats().learnt_clauses;
            let _ = working.solve_with_assumptions(dirt.lits());
            let learnt = working.stats().learnt_clauses - before;
            assert!(learnt >= 200, "round {round} learnt only {learnt} clauses");
            working.clone_from(&template);

            let cube = Cube::from_bits(&set, u64::from(2 * round + 1));
            let mut fresh = template.clone();
            let context = format!("proof {proof}, round {round}");
            assert_eq!(
                working.solve_with_assumptions(cube.lits()),
                fresh.solve_with_assumptions(cube.lits()),
                "{context}"
            );
            assert_eq!(working.stats(), fresh.stats(), "{context}");
            assert_eq!(
                working.conflict_counts(),
                fresh.conflict_counts(),
                "{context}"
            );
            assert_eq!(working.proof_steps(), fresh.proof_steps(), "{context}");
            working.clone_from(&template);
        }
    }
}
