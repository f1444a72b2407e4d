//! `TestPolicy::default()` is the production policy, bit for bit: a solver
//! given it with `set_test_policy` reports exactly what an untouched solver
//! reports — verdicts, every `SolverStats` counter, per-variable conflict
//! counts and DRAT certificates. The hidden defaults therefore cannot drift
//! away from the constants every workload runs.

use pdsat_ciphers::{InstanceBuilder, A51};
use pdsat_cnf::{Cnf, DratProof, Lit, Var};
use pdsat_solver::{Solver, SolverConfig, SolverStats, TestPolicy, Verdict};
use rand::SeedableRng;

/// What one solve reported.
type Solved = (Verdict, SolverStats, Option<DratProof>);

/// Solves `cubes` in turn on one proof-logging solver over `cnf`, with or
/// without setting the default test policy first.
fn run(cnf: &Cnf, cubes: &[Vec<Lit>], set_default_policy: bool) -> (Vec<Solved>, Vec<u64>) {
    let mut solver = Solver::from_cnf_with_config(
        cnf,
        SolverConfig {
            proof: true,
            // Wall time is the one counter that cannot repeat.
            time_accounting: false,
        },
    );
    if set_default_policy {
        solver.set_test_policy(TestPolicy::default());
    }
    let solved = cubes
        .iter()
        .map(|cube| {
            let verdict = solver.solve_with_assumptions(cube);
            (verdict, *solver.stats(), solver.unsat_certificate())
        })
        .collect();
    (solved, solver.conflict_counts().to_vec())
}

fn assert_default_policy_changes_nothing(cnf: &Cnf, cubes: &[Vec<Lit>]) -> SolverStats {
    let (untouched, untouched_counts) = run(cnf, cubes, false);
    let (set, set_counts) = run(cnf, cubes, true);
    assert_eq!(untouched, set);
    assert_eq!(untouched_counts, set_counts);
    untouched.last().expect("at least one solve").1
}

#[test]
fn the_default_policy_is_production_on_pigeonhole() {
    let stats = assert_default_policy_changes_nothing(&Cnf::pigeonhole(5), &[Vec::new()]);
    assert!(stats.conflicts > 0, "{stats:?}");
}

#[test]
fn the_default_policy_is_production_on_an_a51_family() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51A7);
    let instance = InstanceBuilder::new(A51::new())
        .keystream_len(48)
        .known_suffix_of_second_register(52)
        .build_random(&mut rng);
    let unknown = instance.unknown_state_vars();
    assert_eq!(unknown.len(), 12);
    let set: &[Var] = &unknown[..4];
    // Counting order, first variable slowest, so prefixes are shared.
    let cubes: Vec<Vec<Lit>> = (0..1u32 << set.len())
        .map(|bits| {
            set.iter()
                .enumerate()
                .map(|(i, &v)| Lit::new(v, bits >> (set.len() - 1 - i) & 1 == 1))
                .collect()
        })
        .collect();
    let stats = assert_default_policy_changes_nothing(instance.cnf(), &cubes);
    assert!(
        stats.conflicts > 0 && stats.reused_assumptions > 0,
        "{stats:?}"
    );
}
