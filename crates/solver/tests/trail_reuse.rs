//! Differential suite for assumption-prefix trail reuse
//! (`SolverConfig::trail_reuse`): a reusing solver and a MiniSat-style
//! fresh-backtracking solver are driven through identical call sequences —
//! randomized cube families in permuted orders, interleaved clause
//! additions, and budget-limited exits — and must produce identical
//! verdicts, identical models, and identical search work (conflicts and
//! decisions; propagations are exactly what reuse is allowed to skip).
//!
//! The equality of conflicts/decisions is the strong form of the contract:
//! the retained assumption prefix is precisely the unit-propagation closure
//! the fresh-backtracking solver would recompute, so the search continues
//! from an identical state and costs under the `Conflicts`/`Decisions`
//! metrics are bit-identical (see DESIGN.md, "Assumption-prefix trail
//! reuse").

use pdsat_cnf::{Cnf, Lit, Var};
use pdsat_solver::{Budget, Solver, SolverConfig, SolverStats, Verdict};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `count` random cubes over a random decomposition set of `d` variables,
/// in a shuffled order with occasional immediate repeats (the memoized /
/// revisited-point pattern of the estimator).
fn random_cube_sequence(
    num_vars: usize,
    d: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Vec<Lit>> {
    let mut set = Vec::new();
    while set.len() < d {
        let v = rng.gen_range(0..num_vars as u32);
        if !set.contains(&v) {
            set.push(v);
        }
    }
    set.sort_unstable();
    let mut cubes = Vec::with_capacity(count);
    while cubes.len() < count {
        let cube: Vec<Lit> = set
            .iter()
            .map(|&v| Lit::new(Var::new(v), rng.gen_bool(0.5)))
            .collect();
        cubes.push(cube.clone());
        if cubes.len() < count && rng.gen_bool(0.2) {
            cubes.push(cube); // full-prefix repeat
        }
    }
    cubes
}

fn solver_pair(cnf: &Cnf) -> (Solver, Solver) {
    let with_reuse = Solver::from_cnf_with_config(
        cnf,
        SolverConfig {
            trail_reuse: true,
            ..SolverConfig::default()
        },
    );
    let without = Solver::from_cnf_with_config(
        cnf,
        SolverConfig {
            trail_reuse: false,
            ..SolverConfig::default()
        },
    );
    (with_reuse, without)
}

/// Asserts one pair of per-solve deltas did identical search work.
fn assert_same_search(a: &SolverStats, b: &SolverStats, context: &str) {
    assert_eq!(a.conflicts, b.conflicts, "{context}: conflicts diverged");
    assert_eq!(a.decisions, b.decisions, "{context}: decisions diverged");
    assert!(
        a.propagations <= b.propagations,
        "{context}: reuse must never propagate more ({} vs {})",
        a.propagations,
        b.propagations
    );
}

/// The differential comparisons above are only meaningful if reuse actually
/// fires on prefix-sharing sequences; pin that with a deterministic family
/// (random cases may legitimately retain nothing, e.g. when the leading
/// assumption literal is falsified at the root level).
#[test]
fn reuse_fires_on_prefix_sharing_families() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let cnf = Cnf::random_3cnf(14, 40, &mut rng);
    let set: Vec<Var> = (0..4).map(Var::new).collect();
    let (mut with_reuse, mut without) = solver_pair(&cnf);
    for bits in 0..16u64 {
        let cube: Vec<Lit> = set
            .iter()
            .enumerate()
            .map(|(k, &v)| Lit::new(v, bits >> (3 - k) & 1 == 1))
            .collect();
        assert_eq!(
            with_reuse.solve_with_assumptions(&cube),
            without.solve_with_assumptions(&cube),
            "cube {bits:04b}"
        );
    }
    let stats = with_reuse.stats();
    assert!(
        stats.reused_assumptions > 0,
        "counting-order enumeration must reuse assumption prefixes"
    );
    assert!(stats.saved_propagations >= stats.reused_assumptions);
    assert!(stats.propagations < without.stats().propagations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Permuted cube families: identical verdicts, models and search work,
    /// solve after solve.
    #[test]
    fn permuted_cube_families_solve_identically(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7EA1);
        let num_vars = rng.gen_range(10..18);
        let num_clauses = (num_vars as f64 * (3.2 + rng.gen_range(0.0..1.4))) as usize;
        let cnf = Cnf::random_3cnf(num_vars, num_clauses, &mut rng);
        let d = rng.gen_range(2..6);
        let cubes = random_cube_sequence(num_vars, d, 12, &mut rng);

        let (mut with_reuse, mut without) = solver_pair(&cnf);
        for (i, cube) in cubes.iter().enumerate() {
            let before_a = *with_reuse.stats();
            let before_b = *without.stats();
            let a = with_reuse.solve_with_assumptions(cube);
            let b = without.solve_with_assumptions(cube);
            prop_assert_eq!(&a, &b, "cube {} decided differently", i);
            if let Verdict::Sat(model) = &a {
                prop_assert!(cnf.is_satisfied_by(model));
                for &l in cube {
                    prop_assert_eq!(model.lit_value(l).to_bool(), Some(true));
                }
            }
            assert_same_search(
                &with_reuse.stats().delta_since(&before_a),
                &without.stats().delta_since(&before_b),
                &format!("seed {seed} cube {i}"),
            );
        }
        prop_assert_eq!(with_reuse.stats().conflicts, without.stats().conflicts);
        prop_assert!(without.retained_assumptions().is_empty());
    }

    /// Interleaved clause additions invalidate the retained prefix without
    /// changing any answer.
    #[test]
    fn interleaved_clause_additions_preserve_parity(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xADDC);
        let num_vars = rng.gen_range(10..16);
        let cnf = Cnf::random_3cnf(num_vars, num_vars * 3, &mut rng);
        let cubes = random_cube_sequence(num_vars, rng.gen_range(2..5), 10, &mut rng);

        let (mut with_reuse, mut without) = solver_pair(&cnf);
        let mut alive = true;
        for (i, cube) in cubes.iter().enumerate() {
            if rng.gen_bool(0.4) {
                // A random clause of length 1..=3, added to both solvers
                // mid-family (learnt knowledge from outside, as in
                // distributed solving).
                let len = rng.gen_range(1..=3usize);
                let clause: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars as u32)), rng.gen_bool(0.5)))
                    .collect();
                let ok_a = with_reuse.add_clause(clause.iter().copied());
                let ok_b = without.add_clause(clause.iter().copied());
                prop_assert_eq!(ok_a, ok_b, "clause addition diverged at step {}", i);
                alive = ok_a;
                prop_assert!(with_reuse.retained_assumptions().is_empty(),
                    "clause addition must invalidate the retained prefix");
            }
            let a = with_reuse.solve_with_assumptions(cube);
            let b = without.solve_with_assumptions(cube);
            prop_assert_eq!(&a, &b, "cube {} decided differently", i);
            if !alive {
                prop_assert_eq!(&a, &Verdict::Unsat);
            }
            if let Verdict::Sat(model) = &a {
                prop_assert!(cnf.is_satisfied_by(model));
            }
        }
        prop_assert_eq!(with_reuse.is_ok(), without.is_ok());
    }

    /// Budget-limited exits: conflict budgets bite at the same point for
    /// both solvers (conflict counts are bit-identical), and the retained
    /// state after an aborted solve stays sound for the next call.
    #[test]
    fn budget_limited_exits_preserve_parity(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0D6);
        let num_vars = rng.gen_range(12..18);
        let num_clauses = (num_vars as f64 * 4.2) as usize;
        let cnf = Cnf::random_3cnf(num_vars, num_clauses, &mut rng);
        let cubes = random_cube_sequence(num_vars, rng.gen_range(2..5), 10, &mut rng);

        let (mut with_reuse, mut without) = solver_pair(&cnf);
        for (i, cube) in cubes.iter().enumerate() {
            // Alternate between tight conflict budgets (forcing Unknown
            // exits mid-search) and unlimited solves.
            let budget = if rng.gen_bool(0.5) {
                Budget::unlimited().with_conflict_limit(rng.gen_range(0..4))
            } else {
                Budget::unlimited()
            };
            let a = with_reuse.solve_limited(cube, &budget, None);
            let b = without.solve_limited(cube, &budget, None);
            prop_assert_eq!(&a, &b, "cube {} decided differently under budget", i);
            if let Verdict::Sat(model) = &a {
                prop_assert!(cnf.is_satisfied_by(model));
            }
        }
        prop_assert_eq!(with_reuse.stats().conflicts, without.stats().conflicts);
        prop_assert_eq!(with_reuse.stats().decisions, without.stats().decisions);
    }
}
