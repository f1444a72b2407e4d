//! `Solver::rewind` is a complete return to the load: one solver, rewound
//! after every cube, answers each next cube — verdict, model, every
//! counter, per-variable conflict participation, DRAT stream and
//! certificate — exactly as a fresh clone of the loaded solver does. This is
//! what lets the fresh oracle backend keep one solver per worker and still
//! hand every cube identical solver state. The cubes end every way a solve
//! can: SAT, UNSAT after conflicts, UNSAT at an assumption with no conflict,
//! at a raised interrupt and at a stop mid-search, after learning a unit at
//! level 0, after a learnt-DB reduction and an arena compaction, and in a
//! root-level UNSAT. A state a rewind forgets to undo shows up as a
//! diverging answer on a later cube.

use pdsat_ciphers::{Bivium, InstanceBuilder};
use pdsat_cnf::{Cnf, Cube, DratStep, Lit, Var};
use pdsat_solver::{Budget, InterruptFlag, Solver, SolverConfig, TestPolicy, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How a cube's solve is run, so that it ends in a particular way.
#[derive(Debug, Clone, Copy)]
enum Run {
    Plain,
    RaisedInterrupt,
    StopAtFirstConflict,
    ReduceAndCollect,
    RootUnsat,
}

const RUNS: [Run; 5] = [
    Run::Plain,
    Run::RaisedInterrupt,
    Run::StopAtFirstConflict,
    Run::ReduceAndCollect,
    Run::RootUnsat,
];

/// Solves `cube` on `solver` the way `run` says; a test policy it sets is
/// the production one again when it returns.
fn solve(solver: &mut Solver, cube: &Cube, run: Run) -> Verdict {
    let with_policy = |solver: &mut Solver, policy: TestPolicy| {
        solver.set_test_policy(policy);
        let verdict = solver.solve_with_assumptions(cube.lits());
        solver.set_test_policy(TestPolicy::default());
        verdict
    };
    match run {
        Run::Plain => solver.solve_with_assumptions(cube.lits()),
        Run::RaisedInterrupt => {
            let flag = InterruptFlag::new();
            flag.raise();
            solver.solve_limited(cube.lits(), &Budget::unlimited(), Some(&flag))
        }
        Run::StopAtFirstConflict => with_policy(
            solver,
            TestPolicy {
                interrupt_at_conflict: Some(1),
                ..TestPolicy::default()
            },
        ),
        // Four learnt clauses trigger `reduce_db`, and any wasted arena
        // word a compaction.
        Run::ReduceAndCollect => with_policy(
            solver,
            TestPolicy {
                learnt_limit: Some(4),
                garbage_frac: 0.0,
                ..TestPolicy::default()
            },
        ),
        Run::RootUnsat => {
            let l = cube.lits()[0];
            solver.add_clause([l]);
            solver.add_clause([!l]);
            solver.solve_with_assumptions(cube.lits())
        }
    }
}

/// Everything a solve call lets a caller see.
#[derive(Debug, PartialEq)]
struct Seen {
    verdict: Verdict,
    stats: pdsat_solver::SolverStats,
    conflict_counts: Vec<u64>,
    steps: Option<Vec<DratStep>>,
    certificate: Option<pdsat_cnf::DratProof>,
    ok: bool,
}

fn seen(solver: &Solver, verdict: Verdict) -> Seen {
    Seen {
        verdict,
        stats: *solver.stats(),
        conflict_counts: solver.conflict_counts().to_vec(),
        steps: solver.proof_steps().map(<[DratStep]>::to_vec),
        certificate: solver.unsat_certificate(),
        ok: solver.is_ok(),
    }
}

/// The ways the cubes of a run ended, counted.
#[derive(Debug, Default)]
struct Endings {
    sat: usize,
    unsat_after_conflicts: usize,
    unsat_without_conflict: usize,
    unknown: usize,
    unit_learnt: usize,
    collected: usize,
    root_unsat: usize,
}

impl Endings {
    fn count(&mut self, seen: &Seen) {
        let conflicts = seen.stats.conflicts;
        match seen.verdict {
            Verdict::Sat(_) => self.sat += 1,
            Verdict::Unknown => self.unknown += 1,
            Verdict::Unsat if !seen.ok => self.root_unsat += 1,
            Verdict::Unsat if conflicts > 0 => self.unsat_after_conflicts += 1,
            Verdict::Unsat => self.unsat_without_conflict += 1,
        }
        let unit = |step: &DratStep| matches!(step, DratStep::Add { lits, .. } if lits.len() == 1);
        if seen.steps.iter().flatten().any(unit) {
            self.unit_learnt += 1;
        }
        if seen.stats.gc_runs > 0 {
            self.collected += 1;
        }
    }
}

/// With proof logging off and on: every cube over `set`, twice, run the
/// ways of `RUNS` in turn, on one solver rewound after each and on a fresh clone
/// of the loaded solver, which must see the same. The cubes' endings are
/// counted into `endings`.
fn assert_rewinds_exactly(cnf: &Cnf, set: &[Var], label: &str, endings: &mut Endings) {
    let cubes: Vec<Cube> = (0..1u64 << set.len())
        .map(|bits| Cube::from_bits(set, bits))
        .collect();
    for proof in [false, true] {
        let config = SolverConfig {
            proof,
            // Wall time is the one counter that cannot repeat.
            time_accounting: false,
        };
        let loaded = Solver::from_cnf_with_config(cnf, config);
        let mut working = loaded.clone();
        let steps = 2 * cubes.len().max(RUNS.len());
        for i in 0..steps {
            let (cube, run) = (&cubes[i % cubes.len()], RUNS[i % RUNS.len()]);
            let context = format!("{label}, proof {proof}, {run:?}, step {i}");
            let mut fresh = loaded.clone();
            let expected = solve(&mut fresh, cube, run);
            let expected = seen(&fresh, expected);
            let got = solve(&mut working, cube, run);
            assert_eq!(seen(&working, got), expected, "{context}");
            endings.count(&expected);
            working.rewind();
            // Before any solve, it reads as the loaded solver does (the
            // verdict is a placeholder on both sides).
            assert_eq!(
                seen(&working, Verdict::Unknown),
                seen(&loaded, Verdict::Unknown),
                "after the rewind: {context}"
            );
        }
    }
}

/// A weakened Bivium instance and four of its unknown state bits.
fn bivium() -> (Cnf, Vec<Var>) {
    let mut rng = StdRng::seed_from_u64(0xB1B1);
    let instance = InstanceBuilder::new(Bivium::new())
        .keystream_len(32)
        .known_suffix_of_second_register(167)
        .build_random(&mut rng);
    let set = instance.unknown_state_vars()[..4].to_vec();
    (instance.cnf().clone(), set)
}

/// Random 3-CNFs at densities straddling the threshold, with binary
/// clauses over the cube's variables: x0 → x1 → x2, so a cube with x0 and
/// ¬x2 is refuted by propagating its own assumptions.
fn random_3cnfs_with_binaries() -> Vec<(Cnf, Vec<Var>)> {
    let mut rng = StdRng::seed_from_u64(0x3C9F);
    (0..4u32)
        .map(|round| {
            let num_vars = 30 + 4 * round as usize;
            let num_clauses = (num_vars as f64 * (3.8 + 0.2 * f64::from(round))) as usize;
            let mut cnf = Cnf::random_3cnf(num_vars, num_clauses, &mut rng);
            let set: Vec<Var> = (0..4).map(|i| Var::new(i * 5 + round)).collect();
            for pair in set[..3].windows(2) {
                cnf.add_clause([Lit::negative(pair[0]), Lit::positive(pair[1])]);
            }
            (cnf, set)
        })
        .collect()
}

/// Clauses of two to six literals (a random formula's units would refute
/// it at the root), and PHP(6 → 5), whose pigeon clauses have five literals
/// and whose cubes take enough conflicts to reduce and compact the learnt
/// clauses and to learn units.
fn long_clauses() -> Vec<(Cnf, Vec<Var>)> {
    let mut rng = StdRng::seed_from_u64(0x1096);
    let mut mixed = Cnf::new(30);
    for clause in Cnf::random_cnf(30, 200, 6, &mut rng).iter() {
        if clause.len() > 1 {
            mixed.add_clause(clause.iter().copied());
        }
    }
    assert!(mixed.iter().any(|c| c.len() >= 5));
    let set = (0..3).map(|i| Var::new(i * 7 + 2)).collect();
    // Pigeon i in hole i, for the first four.
    let pigeons = vec![Var::new(0), Var::new(6), Var::new(12), Var::new(18)];
    vec![(mixed, set), (Cnf::pigeonhole(6), pigeons)]
}

#[test]
fn a_rewound_solver_answers_like_a_fresh_clone() {
    let mut endings = Endings::default();
    let formulas = std::iter::once(bivium())
        .chain(random_3cnfs_with_binaries())
        .chain(long_clauses());
    for (i, (cnf, set)) in formulas.enumerate() {
        assert_rewinds_exactly(&cnf, &set, &format!("formula {i}"), &mut endings);
    }
    // Every way a cube can end was met, so each is known to rewind exactly.
    let Endings {
        sat,
        unsat_after_conflicts,
        unsat_without_conflict,
        unknown,
        unit_learnt,
        collected,
        root_unsat,
    } = endings;
    for (what, count) in [
        ("SAT", sat),
        ("UNSAT after conflicts", unsat_after_conflicts),
        ("UNSAT at an assumption", unsat_without_conflict),
        ("interrupted", unknown),
        ("a unit learnt at level 0", unit_learnt),
        ("a reduction and a collection", collected),
        ("root-level UNSAT", root_unsat),
    ] {
        assert!(count > 0, "no cube ended with {what}: {endings:?}");
    }
}
