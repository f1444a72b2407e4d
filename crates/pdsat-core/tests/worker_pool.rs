//! Integration tests for the oracle's worker pool: sequential vs pool
//! parity, warm-state survival across batches, the `stop_on_sat` contract,
//! the empty/short-batch edge cases, and the placement of outcomes where it
//! can go wrong (stolen chunks, shuffled input, requeued and fallback cubes,
//! `stop_on_sat` subsets), and the certificates of a warm pool that keeps
//! its proof streams across batches.

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

    assert_eq!(seq.outcomes.len(), par.outcomes.len());
    for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
        // Identical ordering and identical per-cube observations.
        assert_eq!(a.index, b.index);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.conflicts, b.conflicts);
    }
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
    assert_eq!(first.outcomes.len(), cubes.len());
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
        assert_eq!(repeat.outcomes.len(), cubes.len());
        // Verdicts are unaffected by the carryover.
        assert_eq!(first.verdict_counts(), repeat.verdict_counts());
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
    // Contract (see BatchResult docs): with stop_on_sat, outcomes are
    // exactly the cubes solved before the stop was observed — sorted by
    // index, none dropped — and the batch stats cover exactly those
    // outcomes. Sequentially the outcomes form a prefix.
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
        assert!(result.first_sat().is_some(), "workers={workers}");
        // Sorted by index, no duplicates.
        for pair in result.outcomes.windows(2) {
            assert!(pair[0].index < pair[1].index, "workers={workers}");
        }
        // Every reported outcome was fully solved: the aggregate conflict
        // counter equals the sum over reported outcomes (nothing was
        // half-counted or silently dropped).
        let outcome_conflicts: u64 = result.outcomes.iter().map(|o| o.conflicts).sum();
        assert_eq!(
            outcome_conflicts, result.solver_stats.conflicts,
            "workers={workers}: stats must cover exactly the reported outcomes"
        );
        if workers == 1 {
            // Single worker: the reported outcomes are a prefix of the batch.
            for (i, o) in result.outcomes.iter().enumerate() {
                assert_eq!(o.index, i, "sequential outcomes must form a prefix");
            }
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
            result.outcomes.is_empty(),
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
    assert!(empty.outcomes.is_empty());
    assert_eq!(empty.var_conflict_totals.len(), cnf.num_vars());

    // Fewer cubes than workers: dispatch is clamped, drain terminates, all
    // outcomes arrive.
    let set = DecompositionSet::new([Var::new(0), Var::new(1)]);
    let cubes: Vec<Cube> = set.cubes().collect(); // 4 cubes < 6 workers
    let short = oracle.solve_batch(&cubes, None);
    assert_eq!(short.outcomes.len(), 4);

    // Alternating empty and non-empty batches keeps working (the pool's
    // job/report channels stay balanced).
    let empty_again = oracle.solve_batch(&[], None);
    assert!(empty_again.outcomes.is_empty());
    let full = oracle.solve_batch(&cubes, None);
    assert_eq!(full.outcomes.len(), 4);
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
        assert_eq!(result.outcomes.len(), 1);
        assert_eq!(result.outcomes[0].index, 0);
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

/// Outcomes sorted by index with indices exactly `0..n`.
fn assert_indices_are_the_whole_batch(result: &BatchResult, n: usize) {
    assert_eq!(result.outcomes.len(), n);
    for (i, o) in result.outcomes.iter().enumerate() {
        assert_eq!(o.index, i, "outcome at place {i}");
    }
}

/// Index, cost, verdict, conflicts and model equal cube by cube.
fn assert_same_observations(reference: &BatchResult, other: &BatchResult) {
    assert_eq!(reference.outcomes.len(), other.outcomes.len());
    for (a, b) in reference.outcomes.iter().zip(&other.outcomes) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.cost, b.cost, "cube {}", a.index);
        assert_eq!(a.verdict, b.verdict, "cube {}", a.index);
        assert_eq!(a.conflicts, b.conflicts, "cube {}", a.index);
        assert_eq!(a.model, b.model, "cube {}", a.index);
    }
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
    assert_indices_are_the_whole_batch(&one, cubes.len());
    // The skew the test relies on: all conflicts sit in the first quarter.
    let quarter = cubes.len() / 4;
    let hard = one.outcomes[..quarter]
        .iter()
        .filter(|o| o.conflicts > 0)
        .count();
    assert!(
        2 * hard > quarter,
        "{hard} of {quarter} cubes conflict-bound"
    );
    assert!(one.outcomes[quarter..].iter().all(|o| o.conflicts == 0));

    let mut oracle = CubeOracle::new(&cnf, pool_of_four(BackendKind::Fresh));
    for _ in 0..3 {
        let four = oracle.solve_batch(&cubes, None);
        assert_indices_are_the_whole_batch(&four, cubes.len());
        assert_same_observations(&one, &four);
        assert_eq!(one.var_conflict_totals, four.var_conflict_totals);
    }
}

#[test]
fn an_order_permutation_still_returns_the_batch_in_cube_order() {
    fault::silence_injected_panics();
    // The skewed family shuffled, so neither adjacent cubes nor the stripes
    // of a pool have anything to do with the enumeration order: whatever the
    // input order, outcome `i` is the outcome of `cubes[i]`.
    let (cnf, mut cubes) = skewed_family();
    let mut rng = StdRng::seed_from_u64(0x0DE2);
    for i in (1..cubes.len()).rev() {
        cubes.swap(i, rng.gen_range(0..=i));
    }
    // Fresh observations depend on the cube alone, so equal observations
    // mean every outcome sits at the place of the cube it belongs to.
    let reference = CubeOracle::new(
        &cnf,
        BatchConfig {
            num_workers: 1,
            ..pool_of_four(BackendKind::Fresh)
        },
    )
    .solve_batch(&cubes, None);
    assert_indices_are_the_whole_batch(&reference, cubes.len());

    // One worker, a pool that steals, and a pool whose first respawn fails
    // so the cubes in flight come back through the fallback, appended.
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
        assert_indices_are_the_whole_batch(&result, cubes.len());
        if backend == BackendKind::Fresh {
            assert_same_observations(&reference, &result);
        } else {
            // Warm costs depend on who learnt what; verdicts do not.
            assert!(reference
                .outcomes
                .iter()
                .zip(&result.outcomes)
                .all(|(a, b)| a.verdict == b.verdict));
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
        // (those cubes come back through the sequential fallback, appended
        // after everything else), the later ones are requeued mid-run.
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
        assert_indices_are_the_whole_batch(&faulted, cubes.len());
        assert_same_observations(&reference, &faulted);
        assert_eq!(reference.var_conflict_totals, faulted.var_conflict_totals);
        assert!(faulted.solver_stats.worker_panics >= 2, "seed {seed}");
        assert!(faulted.solver_stats.requeued_cubes >= 2, "seed {seed}");
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
        assert!(result
            .outcomes
            .windows(2)
            .all(|pair| pair[0].index < pair[1].index));
        // Outcomes are placed in a buffer sized for the whole batch; what
        // comes out is the solved cubes alone, never a position nobody
        // wrote: every index is a cube's, every decided verdict is that
        // cube's, and the undecided ones are at most the one cube each of
        // the other three workers held when the flag went up.
        for o in &result.outcomes {
            assert!(o.index < cubes.len(), "{backend}: index {}", o.index);
            if o.verdict != VerdictSummary::Unknown {
                let sat = o.verdict == VerdictSummary::Sat;
                assert_eq!(sat, o.index == target, "{backend}: cube {}", o.index);
            }
        }
        assert!(result.verdict_counts().2 <= 3, "{backend}: placeholders");
        let reported: u64 = result.outcomes.iter().map(|o| o.conflicts).sum();
        assert_eq!(result.solver_stats.conflicts, reported, "{backend}");
        assert_eq!(oracle.cubes_solved(), result.outcomes.len() as u64);
        // The one model is reported; a cube the raised flag cut short is
        // `Unknown`, never a second `Sat`.
        assert_eq!(result.verdict_counts().0, 1, "{backend}");
        assert_eq!(result.first_sat().map(|o| o.index), Some(target));
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
            assert_indices_are_the_whole_batch(&result, cubes.len());
            for (outcome, expected) in result.outcomes.iter().zip(&reference.outcomes) {
                let context = format!("{label}: pass {pass}, cube {}", outcome.index);
                let cube = cubes[outcome.index].lits();
                assert_eq!(outcome.verdict, expected.verdict, "{context}");
                match outcome.verdict {
                    VerdictSummary::Sat => {
                        let model = outcome.model.as_ref().expect("a SAT cube has a model");
                        assert!(cnf.is_satisfied_by(model), "{context}");
                        assert!(
                            cube.iter()
                                .all(|&l| model.lit_value(l).to_bool() == Some(true)),
                            "{context}"
                        );
                    }
                    VerdictSummary::Unsat => {
                        let proof = outcome.proof.as_ref().expect("an UNSAT cube has a proof");
                        check_unsat_proof(cnf, cube, proof)
                            .unwrap_or_else(|failure| panic!("{context}: {failure}"));
                        certified += 1;
                    }
                    VerdictSummary::Unknown => panic!("{context}: undecided"),
                }
            }
        }
        assert!(certified > 0, "{label}: no UNSAT cube to certify");
        assert!(
            pool.total_stats().conflicts > 0,
            "{label}: nothing was learnt"
        );
    }
}
