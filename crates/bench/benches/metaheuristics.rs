//! Metaheuristics benchmark (Table 1 / §3 ablation): how many points per
//! second the unified search engine traverses with each strategy under
//! identical evaluation budgets, and the batched-vs-sequential head-to-head
//! for neighborhood evaluation.
//!
//! `neighborhood_radius1_batched` vs `neighborhood_radius1_sequential` is the
//! head-to-head: lowering a whole radius-1 neighborhood into one
//! `CubeOracle` batch should not be slower than the point-at-a-time loop (it
//! amortizes the per-batch dispatch, the `num_vars`-sized conflict
//! accumulator and the stats merge across the whole neighborhood, and keeps
//! the worker pool busy across points).

use criterion::{criterion_group, criterion_main, Criterion};
use pdsat_bench::bench_a51_instance;
use pdsat_core::{
    Annealing, AnnealingConfig, BackendKind, CostMetric, DecompositionSet, DriverConfig, Evaluator,
    EvaluatorConfig, RandomRestart, RandomRestartConfig, SearchDriver, SearchLimits, SearchSpace,
    Tabu, TabuConfig,
};
use std::time::Duration;

fn evaluator_for(instance: &pdsat_ciphers::Instance, backend: BackendKind) -> Evaluator {
    Evaluator::new(
        instance.cnf(),
        EvaluatorConfig {
            sample_size: 10,
            cost: CostMetric::Conflicts,
            num_workers: 4,
            backend,
            ..EvaluatorConfig::default()
        },
    )
}

fn bench_metaheuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metaheuristics");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let instance = bench_a51_instance();
    let space = SearchSpace::new(instance.unknown_state_vars());
    let driver = SearchDriver::new(DriverConfig {
        limits: SearchLimits::unlimited().with_max_points(12),
        seed: 1,
        ..DriverConfig::default()
    });

    group.bench_function("simulated_annealing_12_points", |b| {
        b.iter(|| {
            let mut evaluator = evaluator_for(&instance, BackendKind::Fresh);
            let mut strategy = Annealing::new(&AnnealingConfig::default());
            let outcome = driver.run(&space, &space.full_point(), &mut strategy, &mut evaluator);
            assert!(outcome.points_evaluated <= 12);
            outcome.best_value
        });
    });

    group.bench_function("tabu_search_12_points", |b| {
        b.iter(|| {
            let mut evaluator = evaluator_for(&instance, BackendKind::Fresh);
            let mut strategy = Tabu::new(&TabuConfig::default());
            let outcome = driver.run(&space, &space.full_point(), &mut strategy, &mut evaluator);
            assert!(outcome.points_evaluated <= 12);
            outcome.best_value
        });
    });

    group.bench_function("random_restart_12_points", |b| {
        b.iter(|| {
            let mut evaluator = evaluator_for(&instance, BackendKind::Fresh);
            let mut strategy = RandomRestart::new(RandomRestartConfig::default());
            let outcome = driver.run(&space, &space.full_point(), &mut strategy, &mut evaluator);
            assert!(outcome.points_evaluated <= 12);
            outcome.best_value
        });
    });

    // The head-to-head: the same radius-1 neighborhood (12 points ×
    // 10 cubes), evaluated point-at-a-time vs as one oracle batch. A warm
    // backend isolates the per-batch overhead (the steady state of a long
    // search, where per-cube solving is cheap and dispatch dominates).
    let center = space.full_point();
    let sets: Vec<DecompositionSet> = space
        .neighborhood(&center, 1)
        .iter()
        .map(|p| space.decomposition_set(p))
        .collect();

    group.bench_function("neighborhood_radius1_sequential", |b| {
        let mut evaluator = evaluator_for(&instance, BackendKind::Warm);
        b.iter(|| {
            let mut total = 0.0;
            for set in &sets {
                total += evaluator.evaluate(set).value();
            }
            total
        });
    });

    group.bench_function("neighborhood_radius1_batched", |b| {
        let mut evaluator = evaluator_for(&instance, BackendKind::Warm);
        b.iter(|| {
            evaluator
                .evaluate_batch(&sets)
                .iter()
                .map(pdsat_core::PointEvaluation::value)
                .sum::<f64>()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_metaheuristics);
criterion_main!(benches);
