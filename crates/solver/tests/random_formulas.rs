//! Property tests comparing the CDCL solver against brute-force enumeration
//! on random formulas, and exercising assumption-based solving the way the
//! partitioning machinery does.

use pdsat_checker::{check_model, check_unsat_proof};
use pdsat_cnf::{Cnf, Cube, Lit, Var};
use pdsat_solver::{Solver, SolverConfig, TestPolicy, Verdict};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Brute-force clause evaluation: `true` iff every clause of `cnf` contains a
/// literal satisfied by `model`. Deliberately reimplemented here (instead of
/// calling `Cnf::is_satisfied_by`) so the differential tests check the
/// solver's arena-based propagation against an independent evaluator.
fn brute_force_satisfied(cnf: &Cnf, model: &pdsat_cnf::Assignment) -> bool {
    cnf.iter().all(|clause| {
        clause
            .iter()
            .any(|lit| model.lit_value(lit).to_bool() == Some(true))
    })
}

/// A policy that stresses the clause arena: clause deletion kicks in
/// almost immediately and the garbage collector runs as soon as any space is
/// wasted, so refs relocate many times within a single solve.
fn gc_stress_policy() -> TestPolicy {
    TestPolicy {
        learnt_limit: Some(1),
        restart_base: 10,
        garbage_frac: 0.01,
        ..TestPolicy::default()
    }
}

/// A solver loaded with `cnf` under [`gc_stress_policy`].
fn gc_stress_solver(cnf: &Cnf) -> Solver {
    let mut solver = Solver::from_cnf(cnf);
    solver.set_test_policy(gc_stress_policy());
    solver
}

/// A random formula over 10 to 18 variables whose clauses each take their
/// length from `lengths` and that many distinct variables. `density` is the
/// range of clauses per variable to draw from: around the family's threshold,
/// so that the cubes mix satisfiable and conflict-rich unsatisfiable
/// sub-problems.
fn random_cnf_of_lengths(lengths: &[usize], density: (f64, f64), rng: &mut StdRng) -> Cnf {
    let n = rng.gen_range(10..=18usize);
    let m = (n as f64 * rng.gen_range(density.0..density.1)) as usize;
    let mut cnf = Cnf::new(n);
    for _ in 0..m {
        let len = lengths[rng.gen_range(0..lengths.len())];
        let mut vars: Vec<u32> = Vec::with_capacity(len);
        while vars.len() < len {
            let v = rng.gen_range(0..n as u32);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        cnf.add_clause(
            vars.into_iter()
                .map(|v| Lit::new(Var::new(v), rng.gen_bool(0.5))),
        );
    }
    cnf
}

/// Whether `lit` is true under the total assignment `bits` (bit `i` is
/// variable `i`).
fn holds(bits: u32, lit: Lit) -> bool {
    (bits >> lit.var().index() & 1 == 1) == lit.is_positive()
}

/// Every total assignment satisfying `cnf`, as bit patterns: an evaluator
/// that shares nothing with the solver.
fn brute_force_models(cnf: &Cnf) -> Vec<u32> {
    (0..1u32 << cnf.num_vars())
        .filter(|&bits| cnf.iter().all(|c| c.iter().any(|l| holds(bits, l))))
        .collect()
}

/// Differential pass over one random formula with clauses of the given
/// lengths (3 is the length the ternary watch lists serve, 2 the binary
/// lists, 4 and more the two-watched path): every cube of a small set, on a
/// solver with trail reuse and one without, proofs on, half the seeds under
/// the GC-stress configuration so learnt ternaries are deleted and relocated
/// too. Verdicts must equal brute force and each other, every model pass
/// `check_model`, every UNSAT certificate pass `check_unsat_proof`.
fn assert_family_matches_brute_force(lengths: &[usize], density: (f64, f64), seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cnf = random_cnf_of_lengths(lengths, density, &mut rng);
    let models = brute_force_models(&cnf);
    let base = if seed.is_multiple_of(2) {
        TestPolicy::default()
    } else {
        gc_stress_policy()
    };
    let mut solvers = [false, true].map(|replay| {
        let mut solver = Solver::from_cnf_with_config(
            &cnf,
            SolverConfig {
                proof: true,
                ..SolverConfig::default()
            },
        );
        solver.set_test_policy(TestPolicy {
            replay,
            ..base.clone()
        });
        solver
    });
    let set: Vec<Var> = (0..rng.gen_range(1..=3u32)).map(Var::new).collect();
    for index in 0..1u64 << set.len() {
        let cube = Cube::from_bits(&set, index);
        let context = format!("lengths {lengths:?}, seed {seed}, cube {index}");
        let expect_sat = models
            .iter()
            .any(|&bits| cube.lits().iter().all(|&l| holds(bits, l)));
        for solver in &mut solvers {
            match solver.solve_with_assumptions(cube.lits()) {
                Verdict::Sat(model) => {
                    assert!(expect_sat, "{context}: SAT but no model extends the cube");
                    assert_eq!(check_model(&cnf, cube.lits(), &model), Ok(()), "{context}");
                }
                Verdict::Unsat => {
                    assert!(!expect_sat, "{context}: UNSAT but a model extends the cube");
                    let certificate = solver.unsat_certificate().expect("proof logging is on");
                    let checked = check_unsat_proof(&cnf, cube.lits(), &certificate);
                    assert!(checked.is_ok(), "{context}: {checked:?}");
                }
                Verdict::Unknown => panic!("{context}: unlimited solve returned Unknown"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Formulas served by the ternary watch lists alone.
    #[test]
    fn all_ternary_families_match_brute_force(seed in 0u64..100_000) {
        assert_family_matches_brute_force(&[3], (4.0, 5.2), seed);
    }

    /// Binary and ternary lists together: no clause on the two-watched path
    /// until one of four or more literals is learnt.
    #[test]
    fn binary_and_ternary_families_match_brute_force(seed in 0u64..100_000) {
        assert_family_matches_brute_force(&[2, 3, 3], (2.4, 3.4), seed);
    }

    /// Ternary lists next to original long clauses.
    #[test]
    fn ternary_and_long_families_match_brute_force(seed in 0u64..100_000) {
        assert_family_matches_brute_force(&[3, 3, 4, 6], (5.5, 7.5), seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver verdict agrees with exhaustive enumeration.
    #[test]
    fn verdict_matches_brute_force(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let n = rng.gen_range(3..12usize);
        let m = rng.gen_range(2..40usize);
        let cnf = Cnf::random_cnf(n, m, 3, &mut StdRng::seed_from_u64(seed));
        let brute = cnf.brute_force_model();
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve() {
            Verdict::Sat(model) => {
                prop_assert!(brute.is_some(), "solver SAT but formula has no model");
                prop_assert!(cnf.is_satisfied_by(&model), "returned model must satisfy the formula");
            }
            Verdict::Unsat => prop_assert!(brute.is_none(), "solver UNSAT but formula has a model"),
            Verdict::Unknown => prop_assert!(false, "unlimited solve returned Unknown"),
        }
    }

    /// Solving `C` under the assumptions of a cube is equivalent to solving
    /// the substituted formula `C[X̃/α]` — the identity the decomposition
    /// family construction relies on.
    #[test]
    fn assumptions_equal_substitution(seed in 0u64..5_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let n = rng.gen_range(4..10usize);
        let m = rng.gen_range(3..30usize);
        let cnf = Cnf::random_cnf(n, m, 3, &mut StdRng::seed_from_u64(seed.wrapping_mul(31)));
        let d = rng.gen_range(1..=3usize.min(n));
        let set: Vec<Var> = (0..d as u32).map(Var::new).collect();
        let index = rng.gen_range(0..(1u64 << d));
        let cube = Cube::from_bits(&set, index);

        let mut incremental = Solver::from_cnf(&cnf);
        let with_assumptions = incremental.solve_with_assumptions(&cube.to_assumptions());

        let substituted = cnf.assign_cube(&cube);
        let mut fresh = Solver::from_cnf(&substituted);
        let on_substituted = fresh.solve();

        prop_assert_eq!(with_assumptions.is_sat(), on_substituted.is_sat());
        if let Verdict::Sat(model) = with_assumptions {
            // The model extends the cube.
            for &lit in cube.lits() {
                prop_assert_eq!(model.lit_value(lit).to_bool(), Some(true));
            }
            prop_assert!(cnf.is_satisfied_by(&model));
        }
    }

    /// Incremental solving over all cubes of a decomposition set covers the
    /// whole search space: the instance is SAT iff some sub-problem is SAT.
    #[test]
    fn decomposition_family_preserves_satisfiability(seed in 0u64..2_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let n = rng.gen_range(4..9usize);
        let m = rng.gen_range(4..26usize);
        let cnf = Cnf::random_cnf(n, m, 3, &mut StdRng::seed_from_u64(seed.wrapping_add(17)));
        let d = rng.gen_range(1..=3usize);
        let set: Vec<Var> = (0..d as u32).map(Var::new).collect();

        let mut solver = Solver::from_cnf(&cnf);
        let mut any_sat = false;
        for idx in 0..(1u64 << d) {
            let cube = Cube::from_bits(&set, idx);
            if solver.solve_with_assumptions(&cube.to_assumptions()).is_sat() {
                any_sat = true;
            }
        }
        prop_assert_eq!(any_sat, cnf.brute_force_model().is_some());
    }

    /// Restarts and clause-DB reduction do not change verdicts.
    #[test]
    fn aggressive_config_agrees_with_default(seed in 0u64..2_000) {
        let cnf = Cnf::random_cnf(10, 38, 3, &mut StdRng::seed_from_u64(seed.wrapping_mul(7)));
        let default_verdict = Solver::from_cnf(&cnf).solve().is_sat();
        let mut aggressive = Solver::from_cnf(&cnf);
        aggressive.set_test_policy(TestPolicy {
            restart_base: 1,
            learnt_limit: Some(1),
            ..TestPolicy::default()
        });
        let aggressive_verdict = aggressive.solve().is_sat();
        prop_assert_eq!(default_verdict, aggressive_verdict);
    }

    /// Differential test of the arena-based propagation: on binary-heavy
    /// random formulas (the mix that exercises both the dedicated binary
    /// watch lists and the long-clause watchers) the solver's verdict and
    /// model must agree with brute-force clause evaluation, and two runs must
    /// produce byte-identical statistics (the estimator's determinism
    /// requirement).
    #[test]
    fn arena_propagation_matches_brute_force(seed in 0u64..4_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let n = rng.gen_range(3..11usize);
        let m = rng.gen_range(2..45usize);
        // k = 2 produces mostly-binary formulas, k = 4 mostly-long ones.
        let k = rng.gen_range(2..=4usize);
        let cnf = Cnf::random_cnf(n, m, k, &mut StdRng::seed_from_u64(seed.wrapping_mul(97)));

        let run = |cnf: &Cnf| {
            let mut solver = Solver::from_cnf(cnf);
            let verdict = solver.solve();
            (verdict, *solver.stats())
        };
        let (verdict, stats) = run(&cnf);
        let (verdict2, stats2) = run(&cnf);
        prop_assert_eq!(&verdict, &verdict2, "solver must be deterministic");
        // Compare the counted statistics (wall-clock time naturally differs).
        prop_assert_eq!(stats.conflicts, stats2.conflicts);
        prop_assert_eq!(stats.decisions, stats2.decisions);
        prop_assert_eq!(stats.propagations, stats2.propagations);
        prop_assert_eq!(stats.restarts, stats2.restarts);
        prop_assert_eq!(stats.learnt_clauses, stats2.learnt_clauses);
        prop_assert_eq!(stats.removed_clauses, stats2.removed_clauses);
        prop_assert_eq!(stats.learnt_literals, stats2.learnt_literals);
        prop_assert_eq!(stats.minimized_literals, stats2.minimized_literals);
        prop_assert_eq!(stats.gc_runs, stats2.gc_runs);

        match verdict {
            Verdict::Sat(model) => {
                prop_assert!(
                    brute_force_satisfied(&cnf, &model),
                    "model must satisfy every clause under brute-force evaluation"
                );
                prop_assert!(cnf.brute_force_model().is_some());
            }
            Verdict::Unsat => prop_assert!(cnf.brute_force_model().is_none()),
            Verdict::Unknown => prop_assert!(false, "unlimited solve returned Unknown"),
        }
    }

    /// The GC-stress configuration (constant clause deletion + immediate
    /// arena compaction) must not change any verdict.
    #[test]
    fn gc_stress_config_agrees_with_brute_force(seed in 0u64..1_500) {
        let cnf = Cnf::random_cnf(10, 40, 3, &mut StdRng::seed_from_u64(seed.wrapping_mul(13).wrapping_add(5)));
        let mut solver = gc_stress_solver(&cnf);
        let sat = solver.solve().is_sat();
        prop_assert_eq!(sat, cnf.brute_force_model().is_some());
    }
}

/// Driving the solver through many `reduce_db` cycles with an aggressive
/// configuration forces several compacting garbage collections; watcher
/// lists, reason slots and the learnt roster must stay coherent across every
/// relocation or the verdict (and the solver's internal asserts) would break.
#[test]
fn gc_relocation_keeps_watchers_coherent() {
    let cnf = Cnf::pigeonhole(7);
    let mut solver = gc_stress_solver(&cnf);
    assert_eq!(solver.solve(), Verdict::Unsat);
    let stats = *solver.stats();
    assert!(
        stats.gc_runs > 0,
        "the stress config must actually trigger arena compaction (gc_runs = 0)"
    );
    assert!(
        stats.removed_clauses > 0,
        "reduce_db must have deleted learnts"
    );

    // The solver stays usable (and correct) after all those relocations:
    // solving the same instance incrementally under assumptions still
    // enumerates a complete, consistent family of sub-problems.
    for idx in 0..4u64 {
        let cube = Cube::from_bits(&[Var::new(0), Var::new(1)], idx);
        assert_eq!(
            solver.solve_with_assumptions(&cube.to_assumptions()),
            Verdict::Unsat,
            "sub-problem {idx} of an UNSAT instance must be UNSAT"
        );
    }
}

/// Same coherence check on a satisfiable instance: after repeated GC the
/// solver must still produce a model that satisfies the formula.
#[test]
fn gc_relocation_preserves_models() {
    let mut found_gc = false;
    for seed in 0..40u64 {
        let cnf = Cnf::random_3cnf(
            14,
            60,
            &mut StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(7)),
        );
        let mut solver = gc_stress_solver(&cnf);
        match solver.solve() {
            Verdict::Sat(model) => assert!(
                brute_force_satisfied(&cnf, &model),
                "model must survive arena relocations (seed {seed})"
            ),
            Verdict::Unsat => assert!(cnf.brute_force_model().is_none()),
            Verdict::Unknown => panic!("unlimited solve returned Unknown"),
        }
        found_gc |= solver.stats().gc_runs > 0;
    }
    assert!(
        found_gc,
        "at least one instance must have compacted its arena"
    );
}

#[test]
fn interrupted_solve_is_resumable() {
    // A larger pigeonhole instance: repeatedly solve, stopping each call
    // after a few conflicts, until the verdict is reached; the final verdict
    // must be UNSAT.
    let holes = 4;
    let pigeons = 5;
    let var = |i: usize, j: usize| Lit::positive(Var::new((i * holes + j) as u32));
    let mut solver = Solver::new();
    for i in 0..pigeons {
        solver.add_clause((0..holes).map(|j| var(i, j)));
    }
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                solver.add_clause([!var(i1, j), !var(i2, j)]);
            }
        }
    }
    solver.set_test_policy(TestPolicy {
        interrupt_at_conflict: Some(20),
        ..TestPolicy::default()
    });
    let mut rounds = 0;
    loop {
        rounds += 1;
        match solver.solve() {
            Verdict::Unknown => continue,
            Verdict::Unsat => break,
            Verdict::Sat(_) => panic!("pigeonhole must be UNSAT"),
        }
    }
    assert!(rounds >= 1);
}
