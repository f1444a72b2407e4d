//! Integration tests for the oracle's worker pool: one-worker vs wider pool
//! parity, warm-state survival across batches, the empty/short-batch edge
//! cases, the placement of results in the columns where it can go wrong
//! (stolen chunks, shuffled input, cubes re-solved after a panic), the
//! certificates of a warm pool that keeps its proof streams across batches,
//! and slots built from one load of the formula, in the first batch or in a
//! later, wider one.

use pdsat_checker::check_unsat_proof;
use pdsat_ciphers::{Grain, InstanceBuilder, A51};
use pdsat_cnf::{Cnf, Cube, Lit, Var};
use pdsat_core::{
    fault, BackendKind, BatchResult, CostMetric, CubeOracle, DecompositionSet, FaultPlan,
    OracleTestPolicy, SolveModeConfig, VerdictSummary,
};
use pdsat_solver::SolverConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A chain formula `x0 → x1 → … → x_{n-1}` — every cube except
/// `(first=1, last=0)` is satisfiable.
fn sat_chain(n: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    for i in 0..n - 1 {
        cnf.add_clause([
            Lit::negative(Var::new(i as u32)),
            Lit::positive(Var::new(i as u32 + 1)),
        ]);
    }
    cnf
}

/// An oracle of exactly `config.num_workers` slots — a real pool even on a
/// single-core machine — that injects `faults`.
fn exact_oracle(cnf: &Cnf, config: SolveModeConfig, faults: FaultPlan) -> CubeOracle {
    let policy = OracleTestPolicy {
        exact_workers: true,
        faults,
    };
    CubeOracle::with_test_policy(cnf, &config, policy)
}

#[test]
fn sequential_and_pool_runs_are_identical_for_fresh_backends() {
    // A fresh solver per cube makes every observation independent of
    // scheduling, so a fixed random sample must produce bit-identical
    // results whichever executor ran it.
    let cnf = Cnf::pigeonhole(6);
    let set = DecompositionSet::new((0..5).map(Var::new));
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let cubes = set.random_sample(24, &mut rng);

    let run = |workers: usize| {
        let config = SolveModeConfig {
            cost: CostMetric::Conflicts,
            backend: BackendKind::Fresh,
            num_workers: workers,
            ..SolveModeConfig::default()
        };
        let mut oracle = exact_oracle(&cnf, config, FaultPlan::default());
        let result = oracle.solve_batch(&cubes, None);
        (result, oracle.conflict_activity().to_vec())
    };
    let (seq, seq_conflicts) = run(1);
    let (par, par_conflicts) = run(4);

    // Identical per-cube observations, position by position.
    assert_eq!(seq.verdicts, par.verdicts);
    assert_eq!(seq.costs, par.costs);
    assert_eq!(seq_conflicts, par_conflicts);
    assert_eq!(seq.solver_stats.conflicts, par.solver_stats.conflicts);
    assert_eq!(seq.solver_stats.propagations, par.solver_stats.propagations);
    assert_eq!(seq.solver_stats.decisions, par.solver_stats.decisions);
}

#[test]
fn warm_pool_state_survives_across_batches() {
    // The regression this PR fixes: with `num_workers > 1`, warm backends
    // used to be rebuilt per batch, throwing away every learnt clause at
    // each point evaluation. With the persistent pool, the second identical
    // batch must be cheaper than the first — the workers' resident solvers
    // already hold learnt clauses that refute (parts of) the family.
    let cnf = Cnf::pigeonhole(7);
    let set = DecompositionSet::new((0..4).map(Var::new));
    let cubes: Vec<Cube> = set.cubes().collect();
    let config = SolveModeConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Warm,
        num_workers: 4,
        ..SolveModeConfig::default()
    };
    let mut oracle = exact_oracle(&cnf, config, FaultPlan::default());

    let first = oracle.solve_batch(&cubes, None);
    assert_whole_batch_is_solved(&first, cubes.len());
    assert!(
        first.solver_stats.conflicts > 0,
        "the family must be conflict-heavy for this test to mean anything"
    );
    // Which worker claims which cubes is scheduling-dependent (chunk
    // stealing), so a single repeat can legitimately cost *more* than the
    // first batch — a worker starved in batch 1 solves its stripe cold in
    // batch 2. What resident backends guarantee is that state accumulates:
    // after a few repeats every worker has seen the family, so the cheapest
    // repeat must beat the cold first batch.
    let mut cheapest_repeat = u64::MAX;
    for _ in 0..4 {
        let repeat = oracle.solve_batch(&cubes, None);
        // Verdicts are unaffected by the carryover.
        assert_eq!(first.verdicts, repeat.verdicts);
        cheapest_repeat = cheapest_repeat.min(repeat.solver_stats.conflicts);
    }
    assert!(
        cheapest_repeat < first.solver_stats.conflicts,
        "warm state did not survive the batch boundaries: cheapest repeated \
         batch cost {} conflicts vs {} for the first",
        cheapest_repeat,
        first.solver_stats.conflicts
    );
}

#[test]
fn warm_sequential_state_also_survives_across_batches() {
    // The 1-worker path keeps its single resident backend across batches too.
    let cnf = Cnf::pigeonhole(7);
    let set = DecompositionSet::new((0..4).map(Var::new));
    let cubes: Vec<Cube> = set.cubes().collect();
    let config = SolveModeConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Warm,
        num_workers: 1,
        ..SolveModeConfig::default()
    };
    let mut oracle = CubeOracle::new(&cnf, &config);
    let first = oracle.solve_batch(&cubes, None);
    let second = oracle.solve_batch(&cubes, None);
    assert!(first.solver_stats.conflicts > 0);
    assert!(second.solver_stats.conflicts < first.solver_stats.conflicts);
}

#[test]
fn empty_batches_and_short_batches_never_hang_the_pool() {
    let cnf = Cnf::pigeonhole(5);
    let config = SolveModeConfig {
        cost: CostMetric::Conflicts,
        num_workers: 6,
        backend: BackendKind::Fresh,
        ..SolveModeConfig::default()
    };
    let mut oracle = exact_oracle(&cnf, config, FaultPlan::default());
    assert_eq!(oracle.num_workers(), 6);

    // Empty batch: immediate, counted, pool untouched.
    let empty = oracle.solve_batch(&[], None);
    assert!(empty.costs.is_empty() && empty.verdicts.is_empty());
    assert_eq!(oracle.conflict_activity(), vec![0; cnf.num_vars()]);

    // Fewer cubes than workers: dispatch is clamped, drain terminates, all
    // results arrive.
    let set = DecompositionSet::new([Var::new(0), Var::new(1)]);
    let cubes: Vec<Cube> = set.cubes().collect(); // 4 cubes < 6 workers
    let short = oracle.solve_batch(&cubes, None);
    assert_whole_batch_is_solved(&short, 4);

    // Alternating empty and non-empty batches keeps working (the pool's
    // job/report channels stay balanced).
    let empty_again = oracle.solve_batch(&[], None);
    assert!(empty_again.verdicts.is_empty());
    let full = oracle.solve_batch(&cubes, None);
    assert_whole_batch_is_solved(&full, 4);
    assert_eq!(oracle.batches(), 4);
    assert_eq!(oracle.cubes_solved(), 8);
}

#[test]
fn single_cube_batches_on_a_wide_pool_stay_in_order() {
    // Degenerate chunking: 1 cube, many workers, many consecutive batches.
    let cnf = sat_chain(5);
    let cube = Cube::from_values(&[Var::new(0)], &[true]);
    let config = SolveModeConfig {
        num_workers: 8,
        backend: BackendKind::Fresh,
        ..SolveModeConfig::default()
    };
    let mut oracle = exact_oracle(&cnf, config, FaultPlan::default());
    for _ in 0..10 {
        let result = oracle.solve_batch(std::slice::from_ref(&cube), None);
        assert_eq!(result.verdicts, [Some(VerdictSummary::Sat)]);
        assert_eq!(result.models.len(), 1);
        assert_eq!(result.models[0].0, 0);
    }
    assert_eq!(oracle.cubes_solved(), 10);
}

/// A pigeonhole formula (5 pigeons, variables 2..22) that is only *there*
/// when the selectors `x0` and `x1` are both false: every clause carries
/// `x0 ∨ x1`. Over a decomposition set that starts with the two selectors,
/// the first quarter of the enumerated family — the first stripe of a
/// 4-worker pool — is conflict-bound and the other three quarters are decided
/// by propagation, so three workers drain their stripes at once and then
/// steal chunks out of the first one: every worker reports several runs.
/// Variables 22..30 are free padding that only widens the family.
fn skewed_family() -> (Cnf, Vec<Cube>) {
    let hole = Cnf::pigeonhole(5);
    let mut cnf = Cnf::new(30);
    let selectors = [Lit::positive(Var::new(0)), Lit::positive(Var::new(1))];
    for clause in hole.iter() {
        let shifted = clause
            .iter()
            .map(|l| Var::new(l.var().raw() + 2).lit(l.is_positive()));
        cnf.add_clause(selectors.into_iter().chain(shifted));
    }
    // Selectors, four pigeonhole variables, six padding variables: 4096 cubes.
    let set = DecompositionSet::new((0..6).chain(22..28).map(Var::new));
    (cnf, set.cubes().collect())
}

fn pool_of_four(backend: BackendKind) -> SolveModeConfig {
    SolveModeConfig {
        cost: CostMetric::Conflicts,
        backend,
        num_workers: 4,
        ..SolveModeConfig::default()
    }
}

/// Both columns are `n` long with every verdict `Some`, and the side lists
/// are strictly ascending by position: one model per `Sat` verdict, proofs
/// at `Unsat` positions only.
fn assert_whole_batch_is_solved(result: &BatchResult, n: usize) {
    assert_eq!(result.costs.len(), n);
    assert_eq!(result.verdicts.len(), n);
    assert!(result.verdicts.iter().all(Option::is_some));
    assert_side_lists_are_in_place(result);
}

fn assert_side_lists_are_in_place(result: &BatchResult) {
    let positions_of = |wanted| {
        let verdicts = result.verdicts.iter().enumerate();
        verdicts.filter_map(move |(i, v)| (*v == Some(wanted)).then_some(i))
    };
    assert!(
        positions_of(VerdictSummary::Sat).eq(result.models.iter().map(|(i, _)| *i)),
        "one model per satisfiable cube, ascending"
    );
    assert!(result.proofs.windows(2).all(|pair| pair[0].0 < pair[1].0));
    for (index, _) in &result.proofs {
        assert_eq!(result.verdicts[*index], Some(VerdictSummary::Unsat));
    }
}

/// Cost, verdict and model equal cube by cube.
fn assert_same_observations(reference: &BatchResult, other: &BatchResult) {
    assert_eq!(reference.costs, other.costs);
    assert_eq!(reference.verdicts, other.verdicts);
    assert_eq!(reference.models, other.models);
}

#[test]
fn stolen_chunks_are_placed_where_their_cubes_belong() {
    let (cnf, cubes) = skewed_family();
    let mut one_oracle = CubeOracle::new(
        &cnf,
        &SolveModeConfig {
            num_workers: 1,
            ..pool_of_four(BackendKind::Fresh)
        },
    );
    let one = one_oracle.solve_batch(&cubes, None);
    assert_whole_batch_is_solved(&one, cubes.len());
    // The skew the test relies on: all conflicts (the cost metric) sit in
    // the first quarter.
    let quarter = cubes.len() / 4;
    let hard = one.costs[..quarter].iter().filter(|&&c| c > 0.0).count();
    assert!(
        2 * hard > quarter,
        "{hard} of {quarter} cubes conflict-bound"
    );
    assert!(one.costs[quarter..].iter().all(|&c| c == 0.0));

    let mut oracle = exact_oracle(&cnf, pool_of_four(BackendKind::Fresh), FaultPlan::default());
    for batches in 1..=3 {
        let four = oracle.solve_batch(&cubes, None);
        assert_whole_batch_is_solved(&four, cubes.len());
        assert_same_observations(&one, &four);
        // Fresh costs are per cube, so the pool's tally after `batches`
        // batches is that many times the one batch of one worker.
        let expected: Vec<u64> = one_oracle
            .conflict_activity()
            .iter()
            .map(|c| c * batches)
            .collect();
        assert_eq!(oracle.conflict_activity(), expected);
    }
}

#[test]
fn an_order_permutation_still_returns_the_batch_in_cube_order() {
    fault::silence_injected_panics();
    // The skewed family shuffled, so neither adjacent cubes nor the stripes
    // of a pool have anything to do with the enumeration order: whatever the
    // input order, position `i` of the columns is the result of `cubes[i]`.
    let (cnf, mut cubes) = skewed_family();
    let mut rng = StdRng::seed_from_u64(0x0DE2);
    for i in (1..cubes.len()).rev() {
        cubes.swap(i, rng.gen_range(0..=i));
    }
    // Fresh observations depend on the cube alone, so equal observations
    // mean every result sits at the place of the cube it belongs to.
    let reference = CubeOracle::new(
        &cnf,
        &SolveModeConfig {
            num_workers: 1,
            ..pool_of_four(BackendKind::Fresh)
        },
    )
    .solve_batch(&cubes, None);
    assert_whole_batch_is_solved(&reference, cubes.len());

    // One worker, a pool that steals, and both with injected panics, whose
    // cubes come back through the re-solve on the calling thread.
    let plan = FaultPlan::seeded(3, 12, cubes.len() as u64);
    let planned = plan.solve_panics.len() as u64;
    for (backend, workers, fault_plan) in [
        (BackendKind::Warm, 1, FaultPlan::default()),
        (BackendKind::Fresh, 4, FaultPlan::default()),
        (BackendKind::Warm, 4, FaultPlan::default()),
        (BackendKind::Fresh, 1, plan.clone()),
        (BackendKind::Fresh, 4, plan),
    ] {
        let panics = if fault_plan.is_empty() { 0 } else { planned };
        let config = SolveModeConfig {
            num_workers: workers,
            ..pool_of_four(backend)
        };
        let result = exact_oracle(&cnf, config, fault_plan).solve_batch(&cubes, None);
        assert_whole_batch_is_solved(&result, cubes.len());
        if backend == BackendKind::Fresh {
            assert_same_observations(&reference, &result);
        } else {
            // Warm costs depend on who learnt what; verdicts do not.
            assert_eq!(reference.verdicts, result.verdicts);
        }
        assert_eq!(result.solver_stats.worker_panics, panics);
        assert_eq!(result.solver_stats.requeued_cubes, panics);
    }
}

#[test]
fn requeued_and_fallback_cubes_end_up_in_place() {
    fault::silence_injected_panics();
    let (cnf, cubes) = skewed_family();
    let fresh = pool_of_four(BackendKind::Fresh);
    let mut reference_oracle = exact_oracle(&cnf, fresh.clone(), FaultPlan::default());
    let reference = reference_oracle.solve_batch(&cubes, None);

    for seed in [3u64, 4, 9] {
        // Panics at seeded solve ordinals all through the batch; each
        // panicked cube comes back through the re-solve on the calling
        // thread, its model listed after everything else until the batch's
        // one sort.
        let plan = FaultPlan::seeded(seed, 12, cubes.len() as u64);
        let planned = plan.solve_panics.len() as u64;
        assert!(planned >= 2, "seed {seed} injects too little");
        let mut oracle = exact_oracle(&cnf, fresh.clone(), plan);
        let faulted = oracle.solve_batch(&cubes, None);
        assert_whole_batch_is_solved(&faulted, cubes.len());
        assert_same_observations(&reference, &faulted);
        assert_eq!(
            reference_oracle.conflict_activity(),
            oracle.conflict_activity()
        );
        assert_eq!(faulted.solver_stats.worker_panics, planned, "seed {seed}");
        assert_eq!(faulted.solver_stats.requeued_cubes, planned, "seed {seed}");
    }
}

#[test]
fn every_executor_returns_the_same_columns_and_ascending_side_lists() {
    fault::silence_injected_panics();
    // Fresh observations and certificates depend on the cube alone: one
    // worker, two and four must hand back the same columns and the same
    // position-ascending models and proofs — when chunks are stolen out of
    // the conflict-bound first quarter, and when injected panics send cubes
    // back through the re-solve on the calling thread (their models and
    // proofs listed last until the batch's one sort).
    let (cnf, cubes) = skewed_family();
    let run = |workers, fault_plan| {
        let config = SolveModeConfig {
            num_workers: workers,
            solver_config: SolverConfig {
                proof: true,
                ..SolverConfig::default()
            },
            ..pool_of_four(BackendKind::Fresh)
        };
        exact_oracle(&cnf, config, fault_plan).solve_batch(&cubes, None)
    };
    let reference = run(1, FaultPlan::default());
    assert_whole_batch_is_solved(&reference, cubes.len());
    assert!(!reference.models.is_empty() && !reference.proofs.is_empty());
    let faults = FaultPlan::seeded(3, 12, cubes.len() as u64);
    let planned = faults.solve_panics.len() as u64;
    for workers in [2, 4] {
        for plan in [FaultPlan::default(), faults.clone()] {
            let panics = if plan.is_empty() { 0 } else { planned };
            let result = run(workers, plan);
            assert_whole_batch_is_solved(&result, cubes.len());
            assert_same_observations(&reference, &result);
            assert_eq!(reference.proofs, result.proofs, "workers={workers}");
            assert_eq!(result.solver_stats.worker_panics, panics);
            assert_eq!(result.solver_stats.requeued_cubes, panics);
        }
    }
}

#[test]
fn warm_pool_certificates_check_batch_after_batch() {
    // Each resident warm solver keeps one proof stream for its whole life,
    // and which cubes feed it changes with every shuffled batch and every
    // stolen chunk. Whatever it has learnt by then, the certificate it hands
    // out for an UNSAT cube must check against the formula and that cube.
    // Cubes over the first 5 unknown state bits leave a real search inside
    // each sub-problem, so clauses are learnt and the streams grow.
    let mut a51_rng = StdRng::seed_from_u64(0x51A7_0A51);
    let a51 = InstanceBuilder::new(A51::new())
        .keystream_len(48)
        .known_suffix_of_second_register(50)
        .build_random(&mut a51_rng);
    let mut grain_rng = StdRng::seed_from_u64(0x51A7_62A1);
    let grain = InstanceBuilder::new(Grain::new())
        .keystream_len(28)
        .known_suffix_of_second_register(130)
        .build_random(&mut grain_rng);
    for (label, instance, mut rng) in [("a51", a51, a51_rng), ("grain", grain, grain_rng)] {
        let cnf = instance.cnf();
        let set = DecompositionSet::new(instance.unknown_state_vars().into_iter().take(5));
        let mut cubes: Vec<Cube> = set.cubes().collect();
        assert_eq!(cubes.len(), 32);

        let proving = |workers| SolveModeConfig {
            num_workers: workers,
            solver_config: SolverConfig {
                proof: true,
                ..SolverConfig::default()
            },
            ..pool_of_four(BackendKind::Warm)
        };
        let mut pool = exact_oracle(cnf, proving(4), FaultPlan::default());
        let mut one = CubeOracle::new(cnf, &proving(1));
        assert_eq!(pool.num_workers(), 4);
        let mut certified = 0;
        for pass in 0..3 {
            for i in (1..cubes.len()).rev() {
                cubes.swap(i, rng.gen_range(0..=i));
            }
            let result = pool.solve_batch(&cubes, None);
            let reference = one.solve_batch(&cubes, None);
            // Every SAT cube has its model listed, in place.
            assert_whole_batch_is_solved(&result, cubes.len());
            assert_eq!(result.verdicts, reference.verdicts, "{label}: pass {pass}");
            assert_eq!(
                result.verdict_counts().2,
                0,
                "{label}: pass {pass}: undecided"
            );
            for (index, model) in &result.models {
                let context = format!("{label}: pass {pass}, cube {index}");
                assert!(cnf.is_satisfied_by(model), "{context}");
                let mut cube = cubes[*index].lits().iter();
                assert!(
                    cube.all(|&l| model.lit_value(l).to_bool() == Some(true)),
                    "{context}"
                );
            }
            // Every UNSAT cube has its proof.
            assert_eq!(result.proofs.len(), result.verdict_counts().1);
            for (index, proof) in &result.proofs {
                check_unsat_proof(cnf, cubes[*index].lits(), proof).unwrap_or_else(|failure| {
                    panic!("{label}: pass {pass}, cube {index}: {failure}")
                });
                certified += 1;
            }
        }
        assert!(certified > 0, "{label}: no UNSAT cube to certify");
        assert!(
            pool.total_stats().conflicts > 0,
            "{label}: nothing was learnt"
        );
    }
}

/// A family a warm solver answers exactly as a freshly loaded one would,
/// whatever it solved before, so a warm pool of any width can be compared
/// with one worker cube by cube. Cube `i` assumes the head of chain `i` and
/// the negation of its tail: the chain's binary and ternary implications
/// (the ternaries through a root unit loaded after them) refute it by
/// propagation alone, with no decision, conflict or learnt clause, and no
/// two cubes share a first literal, so no worker reuses a trail.
fn history_free_family(chains: u32, len: u32) -> (Cnf, Vec<Cube>) {
    let var = |chain: u32, step: u32| Var::new(chain * len + step);
    let gate = Lit::positive(Var::new(chains * len));
    let mut cnf = Cnf::new(0);
    for chain in 0..chains {
        for step in 0..len - 1 {
            let (from, to) = (var(chain, step).positive(), var(chain, step + 1).positive());
            if step % 2 == 0 {
                cnf.add_clause([!from, to]);
            } else {
                cnf.add_clause([!from, !gate, to]);
            }
        }
    }
    cnf.add_clause([gate]);
    let cubes = (0..chains)
        .map(|chain| Cube::from_values(&[var(chain, 0), var(chain, len - 1)], &[true, false]))
        .collect();
    (cnf, cubes)
}

/// Everything a batch reports, compared whole, and the conflict tallies of
/// the two oracles that solved it.
fn assert_same_batch(
    (reference, reference_oracle): (&BatchResult, &CubeOracle),
    (other, other_oracle): (&BatchResult, &CubeOracle),
    what: &str,
) {
    assert_eq!(reference.costs, other.costs, "{what}");
    assert_eq!(reference.verdicts, other.verdicts, "{what}");
    assert_eq!(reference.models, other.models, "{what}");
    assert_eq!(reference.proofs, other.proofs, "{what}");
    assert_eq!(
        reference_oracle.conflict_activity(),
        other_oracle.conflict_activity(),
        "{what}"
    );
    assert_eq!(reference.solver_stats, other.solver_stats, "{what}");
}

/// `workers` workers of `backend`, certificates on, propagations as the cost.
fn with_proofs(backend: BackendKind, workers: usize) -> SolveModeConfig {
    SolveModeConfig {
        num_workers: workers,
        cost: CostMetric::Propagations,
        solver_config: SolverConfig {
            proof: true,
            ..SolverConfig::default()
        },
        backend,
    }
}

#[test]
fn pools_built_from_one_load_answer_like_one_worker() {
    // The slots of a first batch share one load: every slot but the last
    // gets a copy of the loaded solver. Either way every slot must start
    // where a solver of its own would.
    let (chains, chain_cubes) = history_free_family(24, 9);
    let (skewed, skewed_cubes) = skewed_family();
    let cases = [
        (BackendKind::Warm, &chains, &chain_cubes),
        (BackendKind::Fresh, &chains, &chain_cubes),
        (BackendKind::Fresh, &skewed, &skewed_cubes),
    ];
    for (backend, cnf, cubes) in cases {
        let mut one = CubeOracle::new(cnf, &with_proofs(backend, 1));
        let reference = one.solve_batch(cubes, None);
        assert_whole_batch_is_solved(&reference, cubes.len());
        assert!(!reference.proofs.is_empty());
        for workers in [2, 4] {
            let mut pool = exact_oracle(cnf, with_proofs(backend, workers), FaultPlan::default());
            let result = pool.solve_batch(cubes, None);
            assert_same_batch(
                (&reference, &one),
                (&result, &pool),
                &format!("{backend}, {workers} workers"),
            );
        }
    }
}

#[test]
fn a_later_wider_batch_builds_the_slots_the_first_did_not_reach() {
    let (cnf, cubes) = history_free_family(24, 9);
    for backend in [BackendKind::Warm, BackendKind::Fresh] {
        let mut one = CubeOracle::new(&cnf, &with_proofs(backend, 1));
        let mut pool = exact_oracle(&cnf, with_proofs(backend, 4), FaultPlan::default());
        // One cube reaches one slot; the rest reach all four, three of them
        // for the first time.
        for batch in [&cubes[..1], &cubes[1..]] {
            let reference = one.solve_batch(batch, None);
            let result = pool.solve_batch(batch, None);
            assert_same_batch((&reference, &one), (&result, &pool), &format!("{backend}"));
        }
    }
}
