//! Chaos suite for the oracle worker pool: injected backend panics must be
//! absorbed by a replacement backend and one re-solve of each panicked cube
//! on the calling thread, without changing a single observable result.

use pdsat_cnf::{Cnf, Cube, Lit, Var};
use pdsat_core::{
    fault, BackendKind, BatchResult, CostMetric, CubeOracle, DecompositionSet, FaultPlan,
    OracleTestPolicy, SolveModeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_cubes(cnf: &Cnf, set_size: usize, count: usize) -> Vec<Cube> {
    let set = DecompositionSet::new((0..set_size as u32).map(Var::new));
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let _ = cnf;
    set.random_sample(count, &mut rng)
}

/// A fresh-backend oracle of exactly `workers` slots, injecting `faults`.
fn oracle(cnf: &Cnf, workers: usize, faults: FaultPlan) -> CubeOracle {
    let config = SolveModeConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Fresh,
        num_workers: workers,
        ..SolveModeConfig::default()
    };
    let policy = OracleTestPolicy {
        exact_workers: true,
        faults,
    };
    CubeOracle::with_test_policy(cnf, &config, policy)
}

/// One batch on a new oracle: its result and the oracle's conflict tally.
fn run_with_plan(
    cnf: &Cnf,
    cubes: &[Cube],
    workers: usize,
    plan: FaultPlan,
) -> (BatchResult, Vec<u64>) {
    let mut oracle = oracle(cnf, workers, plan);
    let result = oracle.solve_batch(cubes, None);
    (result, oracle.conflict_activity().to_vec())
}

/// Asserts every per-cube observation and the oracles' conflict tallies
/// match between two runs.
fn assert_outcomes_identical(reference: (&BatchResult, &[u64]), faulted: (&BatchResult, &[u64])) {
    let ((reference, reference_conflicts), (faulted, faulted_conflicts)) = (reference, faulted);
    assert_eq!(reference.verdicts, faulted.verdicts);
    assert_eq!(reference.costs, faulted.costs);
    assert_eq!(reference.models, faulted.models);
    assert_eq!(reference_conflicts, faulted_conflicts);
}

#[test]
fn injected_worker_panic_changes_no_observable_result() {
    fault::silence_injected_panics();
    let cnf = Cnf::pigeonhole(6);
    let cubes = sample_cubes(&cnf, 5, 24);

    let (reference, reference_conflicts) = run_with_plan(&cnf, &cubes, 2, FaultPlan::default());
    assert_eq!(reference.verdicts.iter().flatten().count(), cubes.len());
    assert_eq!(reference.solver_stats.worker_panics, 0);
    assert_eq!(reference.solver_stats.requeued_cubes, 0);

    // Panic the backend on a handful of solve ordinals spread through the
    // batch; each panicked cube is re-solved exactly once on the calling
    // thread and Fresh backends are deterministic per cube, so the final
    // report must be indistinguishable from the fault-free run.
    let plan = FaultPlan {
        solve_panics: vec![0, 5, 11, 17],
    };
    let (faulted, faulted_conflicts) = run_with_plan(&cnf, &cubes, 2, plan);

    assert_outcomes_identical(
        (&reference, &reference_conflicts),
        (&faulted, &faulted_conflicts),
    );
    assert_eq!(
        faulted.solver_stats.worker_panics, 4,
        "every injected panic must be counted"
    );
    assert_eq!(
        faulted.solver_stats.requeued_cubes, 4,
        "every panicked cube must be requeued exactly once"
    );
}

#[test]
fn seeded_plans_reproduce_and_still_complete() {
    fault::silence_injected_panics();
    let cnf = Cnf::pigeonhole(6);
    let cubes = sample_cubes(&cnf, 5, 16);
    let (reference, reference_conflicts) = run_with_plan(&cnf, &cubes, 3, FaultPlan::default());

    for seed in 0..3u64 {
        let plan = FaultPlan::seeded(seed, 4, 16);
        assert_eq!(plan, FaultPlan::seeded(seed, 4, 16));
        let (faulted, faulted_conflicts) = run_with_plan(&cnf, &cubes, 3, plan.clone());
        assert_outcomes_identical(
            (&reference, &reference_conflicts),
            (&faulted, &faulted_conflicts),
        );
        // The plan's horizon is the batch length, so every ordinal fires.
        let planned = plan.solve_panics.len() as u64;
        assert_eq!(faulted.solver_stats.worker_panics, planned, "seed {seed}");
        assert_eq!(faulted.solver_stats.requeued_cubes, planned, "seed {seed}");
    }
}

/// Chains `x_{i,0} → … → x_{i,len-1}` and one cube per chain assuming its
/// head and the negation of its tail: refuted by propagation alone, with no
/// decision, conflict or learnt clause, and no two cubes share a first
/// literal, so a warm backend answers each exactly as a freshly loaded one
/// would, whatever it solved before.
fn chain_family(chains: u32, len: u32) -> (Cnf, Vec<Cube>) {
    let var = |chain: u32, step: u32| Var::new(chain * len + step);
    let mut cnf = Cnf::new(0);
    for chain in 0..chains {
        for step in 0..len - 1 {
            cnf.add_clause([
                Lit::negative(var(chain, step)),
                Lit::positive(var(chain, step + 1)),
            ]);
        }
    }
    let cubes = (0..chains)
        .map(|chain| Cube::from_values(&[var(chain, 0), var(chain, len - 1)], &[true, false]))
        .collect();
    (cnf, cubes)
}

#[test]
fn a_replacement_after_a_seeded_panic_answers_like_the_shared_load() {
    fault::silence_injected_panics();
    // The slots of the pool share one load; a replacement loads on its own.
    // Across a narrow first batch and a wide second one, with panics seeded
    // through both, every observation matches a fault-free worker.
    let (cnf, cubes) = chain_family(32, 7);
    let (narrow, wide) = cubes.split_at(2);
    for backend in [BackendKind::Fresh, BackendKind::Warm] {
        let config = |workers| SolveModeConfig {
            cost: CostMetric::Propagations,
            backend,
            num_workers: workers,
            ..SolveModeConfig::default()
        };
        let mut reference = CubeOracle::new(&cnf, &config(1));
        for (workers, seed) in [(2, 5u64), (4, 7)] {
            let plan = FaultPlan::seeded(seed, 6, cubes.len() as u64);
            let planned = plan.solve_panics.len() as u64;
            let policy = OracleTestPolicy {
                exact_workers: true,
                faults: plan,
            };
            let mut faulted = CubeOracle::with_test_policy(&cnf, &config(workers), policy);
            let mut panics = 0;
            for batch in [narrow, wide] {
                let expected = reference.solve_batch(batch, None);
                let result = faulted.solve_batch(batch, None);
                // Both oracles solved the same batches so far, so their
                // running tallies must agree after each.
                assert_outcomes_identical(
                    (&expected, reference.conflict_activity()),
                    (&result, faulted.conflict_activity()),
                );
                let stats = &result.solver_stats;
                assert_eq!(stats.worker_panics, stats.requeued_cubes);
                panics += stats.worker_panics;
            }
            assert_eq!(panics, planned, "{backend}, {workers} workers");
            assert!(panics > 0, "seed {seed} injects nothing");
        }
    }
}
