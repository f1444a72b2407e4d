//! A fresh estimator pays for each sampled cube once: the evaluator groups
//! each point's sample, so the repeats of a cube (the sample is drawn with
//! replacement) arrive back to back, and the fresh backend answers a repeat
//! from the solver that just solved it. Nothing a caller sees may move.
//!
//! On random 3-CNFs with samples much larger than their families, so that
//! repeats are common, every result — with certificates off and on, one
//! worker or a real pool of four — must equal the
//! reference of one `Solver::from_cnf_with_config` per drawn cube: costs to
//! the bit, verdicts, models, certificates, conflict participation, solver
//! statistics and the count of cubes solved. The evaluator is checked on the
//! sample it draws, reported in the order drawn; the oracle on that sample
//! grouped, as the evaluator submits it, on a pool that is not clamped to
//! the machine's CPUs (the evaluator's is).

use pdsat_cnf::{Assignment, Cnf, Cube, DratProof, Var};
use pdsat_core::{
    BackendKind, BatchConfig, CostMetric, CubeOracle, DecompositionSet, Evaluator, EvaluatorConfig,
    VerdictSummary,
};
use pdsat_solver::{Solver, SolverConfig, SolverStats, Verdict};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

const SAMPLE: usize = 40;
const SEED: u64 = 0x5A3E;
const CASES: u32 = 24;

/// The sample `Evaluator::evaluate_batch` draws for the point it evaluates
/// as its `evaluation`-th (the seeding of `predict.rs`).
fn drawn_sample(set: &DecompositionSet, evaluation: u64) -> Vec<Cube> {
    let seed = SEED
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(evaluation);
    set.random_sample(SAMPLE, &mut StdRng::seed_from_u64(seed))
}

/// The sample as the evaluator submits it: negative literal first, stable.
fn grouped(sample: &[Cube]) -> Vec<Cube> {
    let mut plan = sample.to_vec();
    plan.sort_by_key(|cube| {
        let polarities = cube.lits().iter().map(|l| l.is_positive());
        polarities.collect::<Vec<bool>>()
    });
    plan
}

fn solver_config(proof: bool) -> SolverConfig {
    SolverConfig {
        time_accounting: false,
        proof,
    }
}

/// What a solver built for one cube alone reports.
struct Reference {
    cost: f64,
    verdict: Verdict,
    stats: SolverStats,
    conflicts: Vec<u64>,
    proof: Option<DratProof>,
}

impl Reference {
    fn solve(cnf: &Cnf, cube: &Cube, proof: bool) -> Reference {
        let mut solver = Solver::from_cnf_with_config(cnf, solver_config(proof));
        let verdict = solver.solve_with_assumptions(cube.lits());
        Reference {
            cost: solver.stats().propagations as f64,
            verdict,
            stats: *solver.stats(),
            conflicts: solver.conflict_counts().to_vec(),
            proof: solver.unsat_certificate(),
        }
    }

    fn summary(&self) -> VerdictSummary {
        match self.verdict {
            Verdict::Sat(_) => VerdictSummary::Sat,
            Verdict::Unsat => VerdictSummary::Unsat,
            Verdict::Unknown => VerdictSummary::Unknown,
        }
    }
}

/// The references' statistics summed, and their conflict participation.
fn totals(references: &[&Reference], num_vars: usize) -> (SolverStats, Vec<u64>) {
    let mut stats = SolverStats::default();
    let mut conflicts = vec![0u64; num_vars];
    for reference in references {
        stats.absorb(&reference.stats);
        for (total, &c) in conflicts.iter_mut().zip(&reference.conflicts) {
            *total += c;
        }
    }
    (stats, conflicts)
}

/// How many cubes of a sample repeat one drawn before them, by the verdict
/// of the cube: satisfiable, unsatisfiable, undecided.
fn repeats(sample: &[Cube], references: &[Reference]) -> [usize; 3] {
    let mut counts = [0; 3];
    for (j, cube) in sample.iter().enumerate() {
        if sample[..j].contains(cube) {
            counts[references[j].summary() as usize] += 1;
        }
    }
    counts
}

/// The evaluator, on one worker or four (clamped to the machine), over a
/// neighbourhood of two points: each point's evaluation equals its drawn
/// sample's references in the order drawn.
fn check_evaluator(
    cnf: &Cnf,
    sets: &[DecompositionSet; 2],
    references: &[Vec<Reference>; 2],
    proof: bool,
    num_workers: usize,
) {
    let mut evaluator = Evaluator::new(
        cnf,
        EvaluatorConfig {
            sample_size: SAMPLE,
            cost: CostMetric::Propagations,
            solver_config: solver_config(proof),
            num_workers,
            seed: SEED,
            backend: BackendKind::Fresh,
        },
    );
    let evaluations = evaluator.evaluate_batch(sets);
    for (evaluation, refs) in evaluations.iter().zip(references) {
        let costs: Vec<u64> = refs.iter().map(|r| r.cost.to_bits()).collect();
        let observed: Vec<u64> = evaluation
            .observations
            .iter()
            .map(|c| c.to_bits())
            .collect();
        assert_eq!(observed, costs, "{num_workers} workers");
        let count = |kind| refs.iter().filter(|r| r.summary() == kind).count();
        let verdicts = &evaluation.verdicts;
        assert_eq!(verdicts.sat, count(VerdictSummary::Sat));
        assert_eq!(verdicts.unsat, count(VerdictSummary::Unsat));
        assert_eq!(verdicts.unknown, count(VerdictSummary::Unknown));
        let first_model = refs.iter().find_map(|r| r.verdict.model());
        assert_eq!(evaluation.model.as_ref(), first_model);
    }
    let all: Vec<&Reference> = references.iter().flatten().collect();
    let (stats, conflicts) = totals(&all, cnf.num_vars());
    assert_eq!(evaluator.conflict_activity(), conflicts.as_slice());
    assert_eq!(*evaluator.oracle().total_stats(), stats);
    assert_eq!(evaluator.cubes_solved(), (2 * SAMPLE) as u64);
}

/// The oracle, on one worker or a real pool of four, over both points'
/// samples grouped as the evaluator submits them: every column and side
/// list equals the references', cube by cube.
fn check_oracle(cnf: &Cnf, samples: &[Vec<Cube>; 2], proof: bool, num_workers: usize) {
    let plan: Vec<Cube> = samples.iter().flat_map(|s| grouped(s)).collect();
    let references: Vec<Reference> = plan
        .iter()
        .map(|cube| Reference::solve(cnf, cube, proof))
        .collect();
    let mut oracle = CubeOracle::new(
        cnf,
        BatchConfig {
            solver_config: solver_config(proof),
            cost: CostMetric::Propagations,
            num_workers,
            clamp_workers_to_cpus: false,
            backend: BackendKind::Fresh,
            ..BatchConfig::default()
        },
    );
    assert_eq!(oracle.num_workers(), num_workers);
    let result = oracle.solve_batch(&plan, None);
    let costs: Vec<u64> = references.iter().map(|r| r.cost.to_bits()).collect();
    let observed: Vec<u64> = result.costs.iter().map(|c| c.to_bits()).collect();
    assert_eq!(observed, costs, "{num_workers} workers");
    let verdicts: Vec<Option<VerdictSummary>> =
        references.iter().map(|r| Some(r.summary())).collect();
    assert_eq!(result.verdicts, verdicts);
    let models: Vec<(usize, Assignment)> = references
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.verdict.model().map(|m| (i, m.clone())))
        .collect();
    assert_eq!(result.models, models);
    let proofs: Vec<(usize, DratProof)> = references
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.proof.clone().map(|p| (i, p)))
        .collect();
    assert_eq!(result.proofs, proofs);
    assert_eq!(proofs.is_empty(), !proof || result.verdict_counts().1 == 0);
    let all: Vec<&Reference> = references.iter().collect();
    let (stats, conflicts) = totals(&all, cnf.num_vars());
    assert_eq!(result.var_conflict_totals, conflicts);
    assert_eq!(result.solver_stats, stats);
    assert_eq!(*oracle.total_stats(), stats);
    assert_eq!(oracle.cubes_solved(), plan.len() as u64);
}

/// Repeats seen over every case, by verdict: the suite must have exercised
/// answering a repeat of each kind.
static TALLY: Mutex<(u32, [usize; 3])> = Mutex::new((0, [0; 3]));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn a_repeated_cube_costs_and_answers_what_a_solver_per_cube_does(
        num_vars in 10usize..=18,
        density in 3.6f64..5.0,
        d in 2usize..=4,
        proof: bool,
        formula_seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(formula_seed);
        let cnf = Cnf::random_3cnf(num_vars, (num_vars as f64 * density) as usize, &mut rng);
        let mut random_set = || {
            let mut vars: Vec<Var> = (0..num_vars as u32).map(Var::new).collect();
            for i in 0..d {
                let j = rng.gen_range(i..vars.len());
                vars.swap(i, j);
            }
            DecompositionSet::new(vars[..d].iter().copied())
        };
        let sets = [random_set(), random_set()];
        let samples = [drawn_sample(&sets[0], 0), drawn_sample(&sets[1], 1)];
        let references = samples.each_ref().map(|sample| {
            sample
                .iter()
                .map(|cube| Reference::solve(&cnf, cube, proof))
                .collect::<Vec<_>>()
        });

        for num_workers in [1, 4] {
            check_evaluator(&cnf, &sets, &references, proof, num_workers);
            check_oracle(&cnf, &samples, proof, num_workers);
        }

        let case_repeats: Vec<[usize; 3]> = samples
            .iter()
            .zip(&references)
            .map(|(sample, refs)| repeats(sample, refs))
            .collect();
        // 2^d ≤ 16 cubes and 40 draws: every sample repeats some cube.
        for counts in &case_repeats {
            prop_assert!(counts.iter().sum::<usize>() > 0);
        }
        let mut tally = TALLY.lock().unwrap();
        tally.0 += 1;
        for counts in case_repeats {
            for (total, c) in tally.1.iter_mut().zip(counts) {
                *total += c;
            }
        }
        if tally.0 == CASES {
            let [sat, unsat, _] = tally.1;
            prop_assert!(sat > 0 && unsat > 0, "repeats by verdict: {:?}", tally.1);
        }
    }
}
