//! Oracle-level differential suite for trail reuse: the one-worker warm
//! oracle, whose solver keeps the assumption prefix of its trail from cube
//! to cube, and a reference [`Solver`] that replays every assumption from the
//! root (the hidden `TestPolicy::replay`, MiniSat's behaviour) are fed the
//! same cubes in the same order. They must report bit-identical verdicts,
//! per-cube conflict costs, models and per-variable conflict participation —
//! reuse only skips the deterministic replay of shared assumption prefixes,
//! never changes the search.
//!
//! Proof logging is on for both, so the suite doubles as the differential
//! certificate hook at the oracle level: every UNSAT cube outcome must carry
//! a DRAT certificate the independent checker accepts against the original
//! formula with the cube seeded as roots.

use pdsat_checker::check_unsat_proof;
use pdsat_cnf::{Assignment, Cnf, Cube, DratProof, Var};
use pdsat_core::{
    BackendKind, BatchResult, CostMetric, CubeOracle, DecompositionSet, SolveModeConfig,
    VerdictSummary,
};
use pdsat_solver::{Solver, SolverConfig, SolverStats, TestPolicy, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn proof_config() -> SolverConfig {
    SolverConfig {
        proof: true,
        time_accounting: false,
    }
}

fn warm_config() -> SolveModeConfig {
    SolveModeConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Warm,
        solver_config: proof_config(),
        ..SolveModeConfig::default()
    }
}

/// What the replaying reference reports for a batch, in `BatchResult`'s
/// layout.
struct Replayed {
    costs: Vec<f64>,
    verdicts: Vec<Option<VerdictSummary>>,
    models: Vec<(usize, Assignment)>,
    proofs: Vec<(usize, DratProof)>,
    conflict_counts: Vec<u64>,
    stats: SolverStats,
}

/// Solves `cubes` in order on one replaying solver.
fn replay(cnf: &Cnf, cubes: &[Cube]) -> Replayed {
    let mut solver = Solver::from_cnf_with_config(cnf, proof_config());
    solver.set_test_policy(TestPolicy {
        replay: true,
        ..TestPolicy::default()
    });
    let mut replayed = Replayed {
        costs: Vec::new(),
        verdicts: Vec::new(),
        models: Vec::new(),
        proofs: Vec::new(),
        conflict_counts: Vec::new(),
        stats: SolverStats::default(),
    };
    for (index, cube) in cubes.iter().enumerate() {
        let before = solver.stats().conflicts;
        let verdict = solver.solve_with_assumptions(cube.lits());
        replayed
            .costs
            .push((solver.stats().conflicts - before) as f64);
        let summary = match verdict {
            Verdict::Sat(model) => {
                replayed.models.push((index, model));
                VerdictSummary::Sat
            }
            Verdict::Unsat => {
                let proof = solver.unsat_certificate().expect("proof logging is on");
                replayed.proofs.push((index, proof));
                VerdictSummary::Unsat
            }
            Verdict::Unknown => VerdictSummary::Unknown,
        };
        replayed.verdicts.push(Some(summary));
    }
    assert!(solver.retained_assumptions().is_empty());
    replayed.conflict_counts = solver.conflict_counts().to_vec();
    replayed.stats = *solver.stats();
    replayed
}

/// Requires the oracle's batch — and the conflict tally of the oracle that
/// solved only it — to equal the replay's, and both sides' certificates to
/// pass the checker. Returns the number of UNSAT cubes.
fn assert_matches_replay(
    cnf: &Cnf,
    cubes: &[Cube],
    (reused, reused_conflicts): (&BatchResult, &[u64]),
    replayed: &Replayed,
    context: &str,
) -> usize {
    assert_eq!(reused.verdicts, replayed.verdicts, "{context}");
    // The cost metric is the conflict count.
    assert_eq!(
        reused.costs, replayed.costs,
        "{context}: costs diverged under trail reuse"
    );
    assert_eq!(reused.models, replayed.models, "{context}: models diverged");
    for (index, model) in &reused.models {
        assert!(cnf.is_satisfied_by(model));
        for &l in cubes[*index].lits() {
            assert_eq!(model.lit_value(l).to_bool(), Some(true));
        }
    }
    let unsat = reused.verdict_counts().1;
    for (label, proofs) in [("reuse", &reused.proofs), ("replay", &replayed.proofs)] {
        assert_eq!(
            proofs.len(),
            unsat,
            "{context}: {label} UNSAT cube without certificate"
        );
        for (index, proof) in proofs {
            assert_eq!(reused.verdicts[*index], Some(VerdictSummary::Unsat));
            check_unsat_proof(cnf, cubes[*index].lits(), proof).unwrap_or_else(|failure| {
                panic!(
                    "{context}: checker rejected {label} certificate for cube {index}: {failure}"
                )
            });
        }
    }
    assert_eq!(reused_conflicts, replayed.conflict_counts, "{context}");
    let (a, b) = (&reused.solver_stats, &replayed.stats);
    assert_eq!(a.conflicts, b.conflicts, "{context}");
    assert_eq!(a.decisions, b.decisions, "{context}");
    assert!(a.propagations <= b.propagations, "{context}");
    assert_eq!(b.reused_assumptions, 0, "{context}");
    unsat
}

#[test]
fn reuse_on_and_off_report_identical_verdicts_and_costs() {
    let mut rng = StdRng::seed_from_u64(0x9E05E);
    let mut reused_total = 0;
    let mut certified_unsat = 0usize;
    for round in 0..10 {
        let num_vars = 12 + (round % 4) * 2;
        let num_clauses = (num_vars as f64 * (3.4 + 0.3 * (round % 5) as f64)) as usize;
        let cnf = Cnf::random_3cnf(num_vars, num_clauses, &mut rng);
        let mut set_vars = Vec::new();
        while set_vars.len() < 3 + round % 3 {
            let v = Var::new(rng.gen_range(0..num_vars as u32));
            if !set_vars.contains(&v) {
                set_vars.push(v);
            }
        }
        let set = DecompositionSet::new(set_vars);
        // A shuffled mix of enumerated and repeated sampled cubes, so the
        // prefix schedule genuinely reorders and reuse genuinely fires.
        let mut cubes: Vec<Cube> = set.cubes().collect();
        cubes.extend(set.random_sample(8, &mut rng));
        for i in (1..cubes.len()).rev() {
            cubes.swap(i, rng.gen_range(0..=i));
        }

        let mut oracle = CubeOracle::new(&cnf, &warm_config());
        let reused = oracle.solve_batch(&cubes, None);
        let replayed = replay(&cnf, &cubes);
        certified_unsat += assert_matches_replay(
            &cnf,
            &cubes,
            (&reused, oracle.conflict_activity()),
            &replayed,
            &format!("round {round}"),
        );
        reused_total += reused.solver_stats.reused_assumptions;
    }
    assert!(
        reused_total > 0,
        "the families must actually exercise trail reuse"
    );
    assert!(
        certified_unsat > 0,
        "the families must actually exercise the certificate hook"
    );
}
