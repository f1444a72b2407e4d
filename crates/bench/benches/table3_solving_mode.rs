//! Table 3 benchmark: processing a whole decomposition family in solving
//! mode, with the fresh-backend vs warm-backend ablation and the worker
//! scaling check.
//!
//! Every benchmark holds one [`FamilySolver`] across iterations, so the
//! measured quantity is the steady-state cost of a family batch on the
//! oracle's *persistent* worker pool — resident backends included — exactly
//! the regime PDSAT runs in (its MiniSat workers live for the whole
//! cluster job). The rows are diagnostics; performance claims are made with
//! `benchmark/` (`BENCHMARK.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdsat_bench::{
    bench_bivium_instance, bench_grain_dispatch_instance, bench_grain_instance, start_set,
};
use pdsat_cnf::Cube;
use pdsat_core::{
    BackendKind, BatchConfig, CostMetric, CubeOracle, FamilySolver, FaultPlan, SolveModeConfig,
};
use pdsat_solver::SolverConfig;
use std::time::Duration;

fn bench_solving_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_solving_mode");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let bivium = bench_bivium_instance();
    let bivium_set = start_set(&bivium);
    let grain = bench_grain_instance();
    let grain_set = start_set(&grain);

    for backend in [BackendKind::Fresh, BackendKind::Warm] {
        group.bench_with_input(
            BenchmarkId::new("bivium_family_1024_cubes_backend", backend.name()),
            &backend,
            |b, &backend| {
                let config = SolveModeConfig {
                    cost: CostMetric::Conflicts,
                    backend,
                    ..SolveModeConfig::default()
                };
                let mut solver = FamilySolver::new(bivium.cnf(), &config);
                b.iter(|| {
                    let report = solver.solve_family(&bivium_set, None);
                    assert!(report.sat_count >= 1);
                    report.total_cost
                });
            },
        );
    }

    // The trail-reuse head-to-head on the warm backend: identical family,
    // identical prefix-aware schedule, `SolverConfig::trail_reuse` toggled.
    for (cipher, instance, set) in [
        ("bivium", &bivium, &bivium_set),
        ("grain", &grain, &grain_set),
    ] {
        for reuse in [false, true] {
            group.bench_with_input(
                BenchmarkId::new(
                    format!("{cipher}_family_1024_cubes_reuse"),
                    if reuse { "on" } else { "off" },
                ),
                &reuse,
                |b, &reuse| {
                    let config = SolveModeConfig {
                        cost: CostMetric::Conflicts,
                        solver_config: SolverConfig {
                            trail_reuse: reuse,
                            ..SolverConfig::default()
                        },
                        ..SolveModeConfig::default()
                    };
                    let mut solver = FamilySolver::new(instance.cnf(), &config);
                    b.iter(|| {
                        let report = solver.solve_family(set, None);
                        assert!(report.sat_count >= 1);
                        report.total_cost
                    });
                },
            );
        }
    }

    // The inprocessing head-to-head on the default (warm) backend: the
    // decomposition set is frozen, each worker's resident solver runs one
    // `simplify()` pass at construction, and the family is then processed as
    // usual. Preprocessing cost is paid inside `FamilySolver::new` (outside
    // the timed body), so the rows compare steady-state family cost with and
    // without the eliminated/subsumed/vivified clause database.
    for (cipher, instance, set) in [
        ("bivium", &bivium, &bivium_set),
        ("grain", &grain, &grain_set),
    ] {
        for simplify in [false, true] {
            group.bench_with_input(
                BenchmarkId::new(
                    format!("{cipher}_family_1024_cubes_simplify"),
                    if simplify { "on" } else { "off" },
                ),
                &simplify,
                |b, &simplify| {
                    let config = SolveModeConfig {
                        cost: CostMetric::Conflicts,
                        solver_config: SolverConfig {
                            simplify,
                            ..SolverConfig::default()
                        },
                        frozen_vars: set.vars().to_vec(),
                        ..SolveModeConfig::default()
                    };
                    let mut solver = FamilySolver::new(instance.cnf(), &config);
                    b.iter(|| {
                        let report = solver.solve_family(set, None);
                        assert!(report.sat_count >= 1);
                        report.total_cost
                    });
                },
            );
        }
    }

    // The inprocessing payoff on the *fresh* backend: without simplify every
    // cube reloads the clause database from the CNF (attach loop included);
    // with simplify each worker keeps one preprocessed template and clones
    // it per cube — a flat memcpy of the simplified arena.
    for simplify in [false, true] {
        group.bench_with_input(
            BenchmarkId::new(
                "bivium_family_1024_cubes_fresh_simplify",
                if simplify { "on" } else { "off" },
            ),
            &simplify,
            |b, &simplify| {
                let config = SolveModeConfig {
                    cost: CostMetric::Conflicts,
                    backend: BackendKind::Fresh,
                    solver_config: SolverConfig {
                        simplify,
                        ..SolverConfig::default()
                    },
                    frozen_vars: bivium_set.vars().to_vec(),
                    ..SolveModeConfig::default()
                };
                let mut solver = FamilySolver::new(bivium.cnf(), &config);
                b.iter(|| {
                    let report = solver.solve_family(&bivium_set, None);
                    assert!(report.sat_count >= 1);
                    report.total_cost
                });
            },
        );
    }

    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("grain_family_1024_cubes_workers", workers),
            &workers,
            |b, &workers| {
                let config = SolveModeConfig {
                    cost: CostMetric::Conflicts,
                    num_workers: workers,
                    ..SolveModeConfig::default()
                };
                let mut solver = FamilySolver::new(grain.cnf(), &config);
                b.iter(|| {
                    let report = solver.solve_family(&grain_set, None);
                    assert!(report.sat_count >= 1);
                    report.total_cost
                });
            },
        );
    }

    // The same scaling check where the executor is the cost: 2^18 cubes,
    // each decided by propagation (a 0.25 ms family cannot show a per-cube
    // dispatch cost). The two-worker row needs a second CPU to mean anything.
    let dispatch = bench_grain_dispatch_instance();
    let dispatch_set = start_set(&dispatch);
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for workers in [1usize, 2] {
        if workers > cpus {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::new("grain_family_262144_cubes_workers", workers),
            &workers,
            |b, &workers| {
                let config = SolveModeConfig {
                    cost: CostMetric::Conflicts,
                    num_workers: workers,
                    ..SolveModeConfig::default()
                };
                let mut solver = FamilySolver::new(dispatch.cnf(), &config);
                b.iter(|| {
                    let report = solver.solve_family(&dispatch_set, None);
                    assert_eq!(report.cubes_processed, 1 << 18);
                    assert!(report.sat_count >= 1);
                    report.total_cost
                });
            },
        );
    }

    // The clause-sharing head-to-head on a 4-worker pool: identical family,
    // `SolveModeConfig::clause_sharing` toggled. The `off` rows are gated at
    // ≤ 10 % regression vs the committed baseline (sharing off must stay
    // free), and `on` is gated against `off` head-to-head so the exchange
    // overhead stays bounded on single-core runners; the speedup gate
    // tightens once multi-core hardware runs the suite.
    for (cipher, instance, set) in [
        ("bivium", &bivium, &bivium_set),
        ("grain", &grain, &grain_set),
    ] {
        for sharing in [false, true] {
            group.bench_with_input(
                BenchmarkId::new(
                    format!("{cipher}_family_1024_cubes_sharing"),
                    if sharing { "on" } else { "off" },
                ),
                &sharing,
                |b, &sharing| {
                    let config = SolveModeConfig {
                        cost: CostMetric::Conflicts,
                        num_workers: 4,
                        clause_sharing: sharing,
                        ..SolveModeConfig::default()
                    };
                    let mut solver = FamilySolver::new(instance.cnf(), &config);
                    b.iter(|| {
                        let report = solver.solve_family(set, None);
                        assert!(report.sat_count >= 1);
                        report.total_cost
                    });
                },
            );
        }
    }

    // Fault-tolerance machinery overhead: the same 1024-cube family on a
    // 4-worker oracle pool with the fault plan empty (`off`, the production
    // default — the `catch_unwind` wrapper is the only addition over the
    // pre-fault-tolerance pool) vs armed with a plan whose ordinals never
    // fire (`armed` additionally pays the `FaultyBackend` wrapper and one
    // ordinal atomic per solve).
    let family_cubes: Vec<Cube> = bivium_set.cubes().collect();
    for armed in [false, true] {
        group.bench_with_input(
            BenchmarkId::new(
                "bivium_family_1024_cubes_fault_plan",
                if armed { "armed" } else { "off" },
            ),
            &armed,
            |b, &armed| {
                let config = BatchConfig {
                    cost: CostMetric::Conflicts,
                    num_workers: 4,
                    fault_plan: if armed {
                        FaultPlan {
                            // A scheduled panic at an ordinal no bench run
                            // reaches: the machinery is armed, nothing fires.
                            solve_panics: vec![u64::MAX],
                            ..FaultPlan::none()
                        }
                    } else {
                        FaultPlan::none()
                    },
                    ..BatchConfig::default()
                };
                let mut oracle = CubeOracle::new(bivium.cnf(), config);
                b.iter(|| {
                    let result = oracle.solve_batch(&family_cubes, None);
                    assert_eq!(result.outcomes.len(), family_cubes.len());
                    assert_eq!(result.solver_stats.worker_panics, 0);
                    result.solver_stats.conflicts
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_solving_mode);
criterion_main!(benches);
