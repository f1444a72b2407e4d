//! Integration tests for the oracle's worker pool: sequential vs pool
//! parity, warm-state survival across batches, the `stop_on_sat` contract,
//! the empty/short-batch edge cases, and the placement of results in the
//! columns where it can go wrong (stolen chunks, shuffled input, requeued and
//! fallback cubes, `stop_on_sat` subsets), and the certificates of a warm
//! pool that keeps its proof streams across batches.

use pdsat_checker::check_unsat_proof;
use pdsat_ciphers::{Grain, InstanceBuilder, A51};
use pdsat_cnf::{Cnf, Cube, Lit, Var};
use pdsat_core::{
    fault, BackendKind, BatchConfig, BatchResult, CostMetric, CubeOracle, DecompositionSet,
    FaultPlan, VerdictSummary,
};
use pdsat_solver::{InterruptFlag, SolverConfig};
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
        let config = BatchConfig {
            cost: CostMetric::Conflicts,
            backend: BackendKind::Fresh,
            num_workers: workers,
            // Force a real pool even on single-core test machines.
            clamp_workers_to_cpus: false,
            ..BatchConfig::default()
        };
        CubeOracle::new(&cnf, config).solve_batch(&cubes, None)
    };
    let seq = run(1);
    let par = run(4);

    // Identical per-cube observations, position by position.
    assert_eq!(seq.verdicts, par.verdicts);
    assert_eq!(seq.costs, par.costs);
    assert_eq!(seq.var_conflict_totals, par.var_conflict_totals);
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
    let config = BatchConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Warm,
        num_workers: 4,
        clamp_workers_to_cpus: false,
        ..BatchConfig::default()
    };
    let mut oracle = CubeOracle::new(&cnf, config);

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
    let config = BatchConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Warm,
        num_workers: 1,
        ..BatchConfig::default()
    };
    let mut oracle = CubeOracle::new(&cnf, config);
    let first = oracle.solve_batch(&cubes, None);
    let second = oracle.solve_batch(&cubes, None);
    assert!(first.solver_stats.conflicts > 0);
    assert!(second.solver_stats.conflicts < first.solver_stats.conflicts);
}

#[test]
fn stop_on_sat_reports_every_solved_cube_on_both_paths() {
    // Contract (see BatchResult docs): with stop_on_sat, the `Some`
    // verdicts are exactly the cubes solved before the stop was observed —
    // none dropped — and the batch stats cover exactly those cubes.
    // Sequentially they form a prefix.
    let cnf = sat_chain(10);
    let set = DecompositionSet::new((0..4).map(Var::new));
    let cubes: Vec<Cube> = set.cubes().collect();
    for workers in [1usize, 4] {
        let config = BatchConfig {
            cost: CostMetric::Conflicts,
            stop_on_sat: true,
            num_workers: workers,
            clamp_workers_to_cpus: false,
            ..BatchConfig::default()
        };
        let flag = InterruptFlag::new();
        let result = CubeOracle::new(&cnf, config).solve_batch(&cubes, Some(&flag));

        assert!(
            flag.is_raised(),
            "workers={workers}: SAT must raise the flag"
        );
        assert!(result.verdict_counts().0 >= 1, "workers={workers}");
        assert_eq!(result.costs.len(), cubes.len());
        assert_eq!(result.verdicts.len(), cubes.len());
        // Every reported cube was fully solved: the aggregate conflict
        // counter equals the sum of the cost column (nothing was
        // half-counted or silently dropped), which is zero wherever nothing
        // was solved.
        let reported: f64 = result.costs.iter().sum();
        assert_eq!(
            reported, result.solver_stats.conflicts as f64,
            "workers={workers}: stats must cover exactly the reported cubes"
        );
        for (cost, verdict) in result.costs.iter().zip(&result.verdicts) {
            assert!(verdict.is_some() || *cost == 0.0, "workers={workers}");
        }
        if workers == 1 {
            // Single worker: the solved cubes are a prefix of the batch.
            let solved = result.verdicts.iter().flatten().count();
            assert!(
                result.verdicts[..solved].iter().all(Option::is_some),
                "sequential results must form a prefix"
            );
        }
    }
}

#[test]
fn pre_raised_external_interrupt_stops_both_paths_before_any_work() {
    let cnf = sat_chain(8);
    let set = DecompositionSet::new((0..3).map(Var::new));
    let cubes: Vec<Cube> = set.cubes().collect();
    for workers in [1usize, 4] {
        let config = BatchConfig {
            stop_on_sat: true,
            num_workers: workers,
            clamp_workers_to_cpus: false,
            ..BatchConfig::default()
        };
        let flag = InterruptFlag::new();
        flag.raise();
        let result = CubeOracle::new(&cnf, config).solve_batch(&cubes, Some(&flag));
        assert!(
            result.verdicts.iter().all(Option::is_none),
            "workers={workers}: no cube may start under a pre-raised stop flag"
        );
        assert_eq!(result.solver_stats.conflicts, 0);
    }
}

#[test]
fn empty_batches_and_short_batches_never_hang_the_pool() {
    let cnf = Cnf::pigeonhole(5);
    let config = BatchConfig {
        cost: CostMetric::Conflicts,
        num_workers: 6,
        clamp_workers_to_cpus: false,
        ..BatchConfig::default()
    };
    let mut oracle = CubeOracle::new(&cnf, config);
    assert_eq!(oracle.num_workers(), 6);

    // Empty batch: immediate, counted, pool untouched.
    let empty = oracle.solve_batch(&[], None);
    assert!(empty.costs.is_empty() && empty.verdicts.is_empty());
    assert_eq!(empty.var_conflict_totals.len(), cnf.num_vars());

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
    let config = BatchConfig {
        num_workers: 8,
        clamp_workers_to_cpus: false,
        ..BatchConfig::default()
    };
    let mut oracle = CubeOracle::new(&cnf, config);
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
    for clause in hole.clauses() {
        let shifted = clause
            .iter()
            .map(|l| Var::new(l.var().raw() + 2).lit(l.is_positive()));
        cnf.add_clause(selectors.into_iter().chain(shifted));
    }
    // Selectors, four pigeonhole variables, six padding variables: 4096 cubes.
    let set = DecompositionSet::new((0..6).chain(22..28).map(Var::new));
    (cnf, set.cubes().collect())
}

fn pool_of_four(backend: BackendKind) -> BatchConfig {
    BatchConfig {
        cost: CostMetric::Conflicts,
        backend,
        num_workers: 4,
        clamp_workers_to_cpus: false,
        ..BatchConfig::default()
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
    let one = CubeOracle::new(
        &cnf,
        BatchConfig {
            num_workers: 1,
            ..pool_of_four(BackendKind::Fresh)
        },
    )
    .solve_batch(&cubes, None);
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

    let mut oracle = CubeOracle::new(&cnf, pool_of_four(BackendKind::Fresh));
    for _ in 0..3 {
        let four = oracle.solve_batch(&cubes, None);
        assert_whole_batch_is_solved(&four, cubes.len());
        assert_same_observations(&one, &four);
        assert_eq!(one.var_conflict_totals, four.var_conflict_totals);
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
        BatchConfig {
            num_workers: 1,
            ..pool_of_four(BackendKind::Fresh)
        },
    )
    .solve_batch(&cubes, None);
    assert_whole_batch_is_solved(&reference, cubes.len());

    // One worker, a pool that steals, and a pool whose first respawn fails
    // so the cubes in flight come back through the fallback.
    let plan = FaultPlan {
        respawn_failures: 1,
        ..FaultPlan::seeded(3, 12, cubes.len() as u64)
    };
    for (backend, workers, fault_plan) in [
        (BackendKind::Warm, 1, FaultPlan::none()),
        (BackendKind::Fresh, 4, FaultPlan::none()),
        (BackendKind::Warm, 4, FaultPlan::none()),
        (BackendKind::Fresh, 4, plan),
    ] {
        let faulted = !fault_plan.is_empty();
        let result = CubeOracle::new(
            &cnf,
            BatchConfig {
                num_workers: workers,
                fault_plan,
                ..pool_of_four(backend)
            },
        )
        .solve_batch(&cubes, None);
        assert_whole_batch_is_solved(&result, cubes.len());
        if backend == BackendKind::Fresh {
            assert_same_observations(&reference, &result);
        } else {
            // Warm costs depend on who learnt what; verdicts do not.
            assert_eq!(reference.verdicts, result.verdicts);
        }
        assert_eq!(result.solver_stats.worker_panics > 0, faulted);
    }
}

#[test]
fn requeued_and_fallback_cubes_end_up_in_place() {
    fault::silence_injected_panics();
    let (cnf, cubes) = skewed_family();
    let reference =
        CubeOracle::new(&cnf, pool_of_four(BackendKind::Fresh)).solve_batch(&cubes, None);

    for seed in [3u64, 4, 9] {
        // Panics at seeded solve ordinals all through the batch; the first
        // respawn fails, so one worker dies with part of a chunk in flight
        // (those cubes come back through the sequential fallback, their
        // models listed after everything else until the batch's one sort),
        // the later ones are requeued mid-run.
        let plan = FaultPlan {
            respawn_failures: 1,
            ..FaultPlan::seeded(seed, 12, cubes.len() as u64)
        };
        assert!(
            plan.solve_panics.len() >= 2,
            "seed {seed} injects too little"
        );
        let faulted = CubeOracle::new(
            &cnf,
            BatchConfig {
                fault_plan: plan,
                ..pool_of_four(BackendKind::Fresh)
            },
        )
        .solve_batch(&cubes, None);
        assert_whole_batch_is_solved(&faulted, cubes.len());
        assert_same_observations(&reference, &faulted);
        assert_eq!(reference.var_conflict_totals, faulted.var_conflict_totals);
        assert!(faulted.solver_stats.worker_panics >= 2, "seed {seed}");
        assert!(faulted.solver_stats.requeued_cubes >= 2, "seed {seed}");
    }
}

#[test]
fn every_executor_returns_the_same_columns_and_ascending_side_lists() {
    fault::silence_injected_panics();
    // Fresh observations and certificates depend on the cube alone: one
    // worker, two and four must hand back the same columns and the same
    // position-ascending models and proofs — when chunks are stolen out of
    // the conflict-bound first quarter, and when a worker dies on a failed
    // respawn (its cubes come back through the fallback, listed last until
    // the batch's one sort) and later panics are requeued mid-run.
    let (cnf, cubes) = skewed_family();
    let run = |workers, fault_plan| {
        let config = BatchConfig {
            num_workers: workers,
            fault_plan,
            solver_config: SolverConfig {
                proof: true,
                ..SolverConfig::default()
            },
            ..pool_of_four(BackendKind::Fresh)
        };
        CubeOracle::new(&cnf, config).solve_batch(&cubes, None)
    };
    let reference = run(1, FaultPlan::none());
    assert_whole_batch_is_solved(&reference, cubes.len());
    assert!(!reference.models.is_empty() && !reference.proofs.is_empty());
    let faults = FaultPlan {
        respawn_failures: 1,
        ..FaultPlan::seeded(3, 12, cubes.len() as u64)
    };
    for workers in [2, 4] {
        for plan in [FaultPlan::none(), faults.clone()] {
            let faulted = !plan.is_empty();
            let result = run(workers, plan);
            assert_whole_batch_is_solved(&result, cubes.len());
            assert_same_observations(&reference, &result);
            assert_eq!(reference.proofs, result.proofs, "workers={workers}");
            assert_eq!(result.solver_stats.requeued_cubes >= 2, faulted);
        }
    }
}

#[test]
fn stop_on_sat_on_a_pool_reports_a_sorted_duplicate_free_subset() {
    // Unit clauses pin the twelve set variables, so exactly one cube of the
    // family is satisfiable and every other one is refuted at once. It sits
    // in the second stripe: when its worker raises the flag the other three
    // are mid-stripe, and the result is a subset with gaps.
    let vars: Vec<Var> = (0..12).map(Var::new).collect();
    let target = 0b0110_1001_0110usize;
    let mut cnf = Cnf::new(13);
    for lit in Cube::from_bits(&vars, target as u64).lits() {
        cnf.add_clause([*lit]);
    }
    let cubes: Vec<Cube> = DecompositionSet::new(vars).cubes().collect();
    for backend in [BackendKind::Fresh, BackendKind::Warm] {
        let flag = InterruptFlag::new();
        let mut oracle = CubeOracle::new(
            &cnf,
            BatchConfig {
                stop_on_sat: true,
                ..pool_of_four(backend)
            },
        );
        let result = oracle.solve_batch(&cubes, Some(&flag));
        assert!(flag.is_raised());
        // The columns are sized for the whole batch; a position nobody
        // wrote reads `None` at cost zero, every decided verdict is its
        // cube's, and the undecided ones are at most the one cube each of
        // the other three workers held when the flag went up.
        assert_eq!(result.verdicts.len(), cubes.len());
        for (index, verdict) in result.verdicts.iter().enumerate() {
            match verdict {
                None => assert_eq!(result.costs[index], 0.0, "{backend}: cube {index}"),
                Some(VerdictSummary::Unknown) => {}
                Some(decided) => {
                    let sat = *decided == VerdictSummary::Sat;
                    assert_eq!(sat, index == target, "{backend}: cube {index}");
                }
            }
        }
        let solved = result.verdicts.iter().flatten().count();
        assert!(result.verdict_counts().2 <= 3, "{backend}: cut short");
        let reported: f64 = result.costs.iter().sum();
        assert_eq!(result.solver_stats.conflicts as f64, reported, "{backend}");
        assert_eq!(oracle.cubes_solved(), solved as u64);
        // The one model is reported; a cube the raised flag cut short is
        // `Unknown`, never a second `Sat`.
        assert_side_lists_are_in_place(&result);
        assert_eq!(result.models.len(), 1, "{backend}");
        assert_eq!(result.models[0].0, target, "{backend}");
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

        let proving = |workers| BatchConfig {
            num_workers: workers,
            solver_config: SolverConfig {
                proof: true,
                ..SolverConfig::default()
            },
            ..pool_of_four(BackendKind::Warm)
        };
        let mut pool = CubeOracle::new(cnf, proving(4));
        let mut one = CubeOracle::new(cnf, proving(1));
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
