//! Distributed-substrate benchmark (§4.2): the cluster list-scheduling
//! simulator and the sharded coordinator's sustained work-unit throughput on
//! family-sized job lists.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdsat_distrib::{
    simulate_cluster, synthetic_family_solver, ClusterConfig, Coordinator, CoordinatorConfig,
    LoopbackConfig, LoopbackTransport, RunStatus,
};
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn job_list(len: usize) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    (0..len).map(|_| rng.gen_range(0.01..2.0)).collect()
}

fn bench_distrib(c: &mut Criterion) {
    let mut group = c.benchmark_group("distrib_simulators");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900));

    for jobs in [1usize << 10, 1 << 14] {
        let costs = job_list(jobs);
        group.bench_with_input(
            BenchmarkId::new("cluster_480_cores", jobs),
            &costs,
            |b, costs| {
                let config = ClusterConfig::matrosov_15_nodes();
                b.iter(|| simulate_cluster(costs, &[], &config).makespan);
            },
        );
    }

    // Sustained coordinator throughput: one full family processed through
    // lease issue / expiry / quorum / checkpoint bookkeeping over the
    // chaotic loopback grid. One iteration completes `units` work units, so
    // median_ns / units is the per-work-unit coordination overhead — which
    // must not grow with the family: the three sizes are the curve.
    for units in [256usize, 4096, 65536] {
        let costs = job_list(units * 8);
        group.bench_with_input(
            BenchmarkId::new("coordinator_work_units_48_hosts", units),
            &costs,
            |b, costs| {
                let config = CoordinatorConfig {
                    work_unit_size: 8,
                    redundancy: 2,
                    lease_timeout: 2_000.0,
                };
                b.iter(|| {
                    let mut coordinator = Coordinator::new(3, costs.len(), &config);
                    let mut transport = LoopbackTransport::new(
                        LoopbackConfig {
                            num_clients: 48,
                            seed: 7,
                            poll_interval: 200.0,
                            ..LoopbackConfig::default()
                        },
                        synthetic_family_solver(3, costs.clone(), None),
                    );
                    let status = coordinator.run(&mut transport, None);
                    assert_eq!(status, RunStatus::Complete);
                    coordinator.stats().makespan
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_distrib);
criterion_main!(benches);
