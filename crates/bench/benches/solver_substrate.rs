//! Substrate benchmark: the CDCL solver (the algorithm `A`) on the workloads
//! the paper's estimator feeds it — weakened cipher inversion sub-problems
//! and a combinatorial UNSAT stress test.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pdsat_bench::{bench_a51_instance, bench_bivium_instance, start_set};
use pdsat_cnf::Cnf;
use pdsat_core::{BackendKind, BatchConfig, CostMetric, CubeOracle};
use pdsat_solver::{Solver, SolverConfig};
use std::time::Duration;

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_substrate");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900));

    group.bench_function("pigeonhole_7_unsat", |b| {
        let cnf = Cnf::pigeonhole(7);
        b.iter_batched(
            || Solver::from_cnf(&cnf),
            |mut solver| {
                assert!(solver.solve().is_unsat());
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("a51_weakened_full_solve", |b| {
        let instance = bench_a51_instance();
        b.iter_batched(
            || Solver::from_cnf(instance.cnf()),
            |mut solver| {
                assert!(solver.solve().is_sat());
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("bivium_weakened_cube_assumptions", |b| {
        // One random cube of the decomposition family, solved under
        // assumptions on a pre-loaded solver — the unit of work of the Monte
        // Carlo estimator. Trail reuse is off here on purpose: re-solving
        // the identical cube with reuse degenerates into a full-prefix match
        // that skips exactly the assumption replay this row exists to
        // measure (the reuse effect has its own `family_prefix_reuse` rows).
        let instance = bench_bivium_instance();
        let set = start_set(&instance);
        let cube = set.cube_from_index(5);
        let mut solver = Solver::from_cnf_with_config(
            instance.cnf(),
            SolverConfig {
                trail_reuse: false,
                ..SolverConfig::default()
            },
        );
        b.iter(|| {
            let verdict = solver.solve_with_assumptions(cube.lits());
            assert!(!verdict.is_unknown());
        });
    });

    // One persistent incremental solver processing the full 1024-cube
    // decomposition family in enumeration order, with and without
    // assumption-prefix trail reuse: the head-to-head isolates the per-cube
    // cost of replaying shared assumption prefixes and their unit
    // propagations (the dominant warm-path cost once a family's lemmas are
    // learnt).
    for reuse in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("family_prefix_reuse", if reuse { "on" } else { "off" }),
            &reuse,
            |b, &reuse| {
                let instance = bench_bivium_instance();
                let set = start_set(&instance);
                let cubes: Vec<_> = set.cubes().collect();
                let mut solver = Solver::from_cnf_with_config(
                    instance.cnf(),
                    SolverConfig {
                        trail_reuse: reuse,
                        time_accounting: false,
                        ..SolverConfig::default()
                    },
                );
                b.iter(|| {
                    let mut sat = 0u32;
                    for cube in &cubes {
                        if solver.solve_with_assumptions(cube.lits()).is_sat() {
                            sat += 1;
                        }
                    }
                    assert!(sat >= 1);
                    sat
                });
            },
        );
    }

    // The same persistent-solver family sweep with inprocessing toggled:
    // `on` freezes the decomposition set, runs one `simplify()` pass (BVE +
    // subsumption + vivification), then processes all 1024 cubes; `off` is
    // the plain sweep. The preprocessing itself runs in the setup phase, so
    // the head-to-head isolates the steady-state payoff of the smaller
    // clause database.
    for simplify in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("family_simplify", if simplify { "on" } else { "off" }),
            &simplify,
            |b, &simplify| {
                let instance = bench_bivium_instance();
                let set = start_set(&instance);
                let cubes: Vec<_> = set.cubes().collect();
                let mut solver = Solver::from_cnf_with_config(
                    instance.cnf(),
                    SolverConfig {
                        simplify,
                        time_accounting: false,
                        ..SolverConfig::default()
                    },
                );
                if simplify {
                    for &v in set.vars() {
                        solver.freeze(v);
                    }
                    solver.simplify();
                }
                b.iter(|| {
                    let mut sat = 0u32;
                    for cube in &cubes {
                        if solver.solve_with_assumptions(cube.lits()).is_sat() {
                            sat += 1;
                        }
                    }
                    assert!(sat >= 1);
                    sat
                });
            },
        );
    }

    // The same persistent-solver family sweep with DRAT proof logging
    // toggled. `on` prices recording every learnt/deleted clause into the
    // in-memory proof stream (the stream is truncated each iteration so it
    // cannot grow across criterion samples); `off` pins that the proof
    // plumbing is free when disabled, the bit-identical-search guarantee in
    // time form.
    for proof in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("family_proof", if proof { "on" } else { "off" }),
            &proof,
            |b, &proof| {
                let instance = bench_bivium_instance();
                let set = start_set(&instance);
                let cubes: Vec<_> = set.cubes().collect();
                let mut solver = Solver::from_cnf_with_config(
                    instance.cnf(),
                    SolverConfig {
                        proof,
                        time_accounting: false,
                        ..SolverConfig::default()
                    },
                );
                b.iter(|| {
                    solver.clear_proof();
                    let mut sat = 0u32;
                    for cube in &cubes {
                        if solver.solve_with_assumptions(cube.lits()).is_sat() {
                            sat += 1;
                        }
                    }
                    assert!(sat >= 1);
                    sat
                });
            },
        );
    }

    // The same 64 sub-problems through the two CubeOracle backends: the
    // fresh/warm gap isolates the per-cube cost of reloading the clause
    // database and relearning, i.e. what PDSAT's long-lived workers save.
    for backend in [BackendKind::Fresh, BackendKind::Warm] {
        group.bench_with_input(
            BenchmarkId::new("bivium_oracle_64_cubes_backend", backend.name()),
            &backend,
            |b, &backend| {
                let instance = bench_bivium_instance();
                let set = start_set(&instance);
                let cubes: Vec<_> = (0..64).map(|i| set.cube_from_index(i)).collect();
                let config = BatchConfig {
                    cost: CostMetric::Conflicts,
                    backend,
                    ..BatchConfig::default()
                };
                b.iter(|| {
                    // Throwaway oracle per iteration: this bench deliberately
                    // measures the one-shot path, backend construction
                    // (clause-DB loading) included.
                    let batch =
                        CubeOracle::new(instance.cnf(), config.clone()).solve_batch(&cubes, None);
                    assert_eq!(batch.outcomes.len(), 64);
                    batch.solver_stats.propagations
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
