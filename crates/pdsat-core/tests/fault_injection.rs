//! Chaos suite for the oracle worker pool: injected backend panics must be
//! absorbed by quarantine + respawn + requeue without changing a single
//! observable result, and the documented last-resort paths (sequential
//! fallback, all-workers-dead panic) must engage exactly when specified.

use pdsat_cnf::{Cnf, Cube, Var};
use pdsat_core::{
    fault, BackendKind, BatchConfig, BatchResult, CostMetric, CubeOracle, DecompositionSet,
    FaultPlan,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_cubes(cnf: &Cnf, set_size: usize, count: usize) -> Vec<Cube> {
    let set = DecompositionSet::new((0..set_size as u32).map(Var::new));
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let _ = cnf;
    set.random_sample(count, &mut rng)
}

fn run_with_plan(cnf: &Cnf, cubes: &[Cube], workers: usize, plan: FaultPlan) -> BatchResult {
    let config = BatchConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Fresh,
        num_workers: workers,
        clamp_workers_to_cpus: false,
        fault_plan: plan,
        ..BatchConfig::default()
    };
    CubeOracle::new(cnf, config).solve_batch(cubes, None)
}

/// Asserts every per-cube observation matches between two runs.
fn assert_outcomes_identical(reference: &BatchResult, faulted: &BatchResult) {
    assert_eq!(reference.verdicts, faulted.verdicts);
    assert_eq!(reference.costs, faulted.costs);
    assert_eq!(reference.models, faulted.models);
    assert_eq!(reference.var_conflict_totals, faulted.var_conflict_totals);
}

#[test]
fn injected_worker_panic_changes_no_observable_result() {
    fault::silence_injected_panics();
    let cnf = Cnf::pigeonhole(6);
    let cubes = sample_cubes(&cnf, 5, 24);

    let reference = run_with_plan(&cnf, &cubes, 2, FaultPlan::none());
    assert_eq!(reference.verdicts.iter().flatten().count(), cubes.len());
    assert_eq!(reference.solver_stats.worker_panics, 0);
    assert_eq!(reference.solver_stats.requeued_cubes, 0);

    // Panic the backend on a handful of solve ordinals spread through the
    // batch; each panicked cube is retried exactly once on a respawned
    // backend and Fresh backends are deterministic per cube, so the final
    // report must be indistinguishable from the fault-free run.
    let plan = FaultPlan {
        solve_panics: vec![0, 5, 11, 17],
        ..FaultPlan::none()
    };
    let faulted = run_with_plan(&cnf, &cubes, 2, plan);

    assert_outcomes_identical(&reference, &faulted);
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
    let reference = run_with_plan(&cnf, &cubes, 3, FaultPlan::none());

    for seed in 0..3u64 {
        let plan = FaultPlan::seeded(seed, 4, 16);
        assert_eq!(plan, FaultPlan::seeded(seed, 4, 16));
        let faulted = run_with_plan(&cnf, &cubes, 3, plan.clone());
        assert_outcomes_identical(&reference, &faulted);
        // Every survived panic requeued at most one cube; retries shift
        // later ordinals, so only the bound (not the exact count) is a
        // stable property of a seeded plan.
        assert!(faulted.solver_stats.requeued_cubes <= faulted.solver_stats.worker_panics);
    }
}

#[test]
fn failed_respawn_falls_back_to_sequential_and_loses_nothing() {
    fault::silence_injected_panics();
    let cnf = Cnf::pigeonhole(6);
    let cubes = sample_cubes(&cnf, 5, 20);
    let reference = run_with_plan(&cnf, &cubes, 2, FaultPlan::none());

    // One worker panics early and its respawn fails too: the worker dies,
    // strands the rest of its claimed chunk, and the oracle's sequential
    // fallback must pick those cubes up on the calling thread.
    let plan = FaultPlan {
        solve_panics: vec![1],
        respawn_failures: u64::MAX,
    };
    let faulted = run_with_plan(&cnf, &cubes, 2, plan);

    assert_outcomes_identical(&reference, &faulted);
    assert_eq!(faulted.solver_stats.worker_panics, 1);
    assert!(
        faulted.solver_stats.requeued_cubes >= 1,
        "the stranded cubes must be re-run via the fallback"
    );
}

#[test]
#[should_panic(expected = "oracle worker threads are dead")]
fn batch_on_an_all_dead_pool_panics_with_the_pool_shape() {
    fault::silence_injected_panics();
    let cnf = Cnf::pigeonhole(5);
    let cubes = sample_cubes(&cnf, 4, 8);

    // Both workers panic on their first solve and every respawn fails, so
    // batch 1 completes via the fallback but leaves an empty pool; batch 2
    // must refuse loudly instead of hanging.
    let plan = FaultPlan {
        solve_panics: vec![0, 1],
        respawn_failures: u64::MAX,
    };
    let config = BatchConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Fresh,
        num_workers: 2,
        clamp_workers_to_cpus: false,
        fault_plan: plan,
        ..BatchConfig::default()
    };
    let mut oracle = CubeOracle::new(&cnf, config);
    let first = oracle.solve_batch(&cubes, None);
    assert_eq!(
        first.verdicts.iter().flatten().count(),
        cubes.len(),
        "batch 1 still completes through the fallback"
    );
    let _ = oracle.solve_batch(&cubes, None); // must panic: no workers left
}
