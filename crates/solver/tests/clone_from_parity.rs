//! `Solver::clone_from` is a complete restore: whatever state a working
//! solver was left in, `working.clone_from(&template)` makes its next solve
//! indistinguishable — verdict, model, every counter, per-variable conflict
//! participation, DRAT stream — from that of a solver built from scratch the
//! way the template was. This is what lets the fresh oracle backend load a
//! formula once and still hand every cube identical solver state; a field
//! `clone_from` forgets to copy shows up here as a diverging counter.

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
}

fn dirty(working: &mut Solver, dirt: Dirt, cube: &Cube) {
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
    }
}

/// With proof logging off and on, over every kind of dirt: restore
/// the one working solver from the template, solve a cube, and require the
/// run to equal a from-scratch solver's run on the same cube.
fn assert_restores_exactly(cnf: &Cnf, set: &[Var], label: &str) {
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
        ];
        for (i, &dirt) in dirts.iter().cycle().take(cubes.len().max(8)).enumerate() {
            let cube = &cubes[i % cubes.len()];
            let context = format!("{label}, proof {proof}, {dirt:?}, cube {i}");
            dirty(&mut working, dirt, &cubes[(i + 3) % cubes.len()]);
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
