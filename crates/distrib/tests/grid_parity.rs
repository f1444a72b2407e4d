//! Parity between the cluster model and the coordinator: with ideal hosts
//! (always on, perfectly reliable, reference speed) and no replication, the
//! coordinator reduces to greedy in-order list scheduling of work units, which
//! is what [`simulate_cluster`] computes over per-unit cost sums with one core
//! per host. The two must agree on the makespan, the assignment count and the
//! donated CPU time.
//!
//! This pins the coordinator's scheduling policy: any drift in dispatch order
//! or lease bookkeeping shows up as a makespan difference here.

use pdsat_distrib::{
    simulate_cluster, synthetic_family_solver, ClusterConfig, Coordinator, CoordinatorConfig,
    LoopbackConfig, LoopbackTransport, RunStatus,
};

fn ragged_costs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 37) % 11) as f64 * 0.6).collect()
}

fn parity_case(num_cubes: usize, work_unit_size: usize, num_hosts: usize) {
    let costs = ragged_costs(num_cubes);

    let unit_costs: Vec<f64> = costs
        .chunks(work_unit_size)
        .map(|unit| unit.iter().sum())
        .collect();
    let reference = simulate_cluster(
        &unit_costs,
        &[],
        &ClusterConfig {
            nodes: 1,
            cores_per_node: num_hosts,
            core_speed: 1.0,
        },
    );

    let config = CoordinatorConfig {
        work_unit_size,
        redundancy: 1,
        lease_timeout: 1e12,
    };
    let mut coordinator = Coordinator::new(2, num_cubes, &config);
    let mut transport = LoopbackTransport::new(
        LoopbackConfig {
            num_clients: num_hosts,
            seed: 5,
            poll_interval: 1e9,
            ideal_hosts: true,
            ..LoopbackConfig::default()
        },
        synthetic_family_solver(2, costs.clone(), None),
    );
    assert_eq!(coordinator.run(&mut transport, None), RunStatus::Complete);

    let stats = coordinator.stats();
    assert_eq!(reference.jobs, coordinator.num_units());
    assert_eq!(reference.jobs, stats.assignments, "one lease per unit");
    assert!(
        (reference.makespan - stats.makespan).abs() < 1e-9 * reference.makespan.max(1.0),
        "makespan parity: cluster {} vs coordinator {}",
        reference.makespan,
        stats.makespan
    );
    assert!(
        (reference.cpu_time - transport.stats().donated_cpu_time).abs()
            < 1e-9 * reference.cpu_time.max(1.0),
        "donated CPU parity: cluster {} vs coordinator {}",
        reference.cpu_time,
        transport.stats().donated_cpu_time
    );
    assert_eq!(stats.expired_leases, 0);
    assert_eq!(stats.invalid_results, 0);
}

#[test]
fn ideal_grid_makespans_match_list_scheduling() {
    // More units than hosts (queueing), fewer units than hosts (idle tail),
    // single host (pure sequential), and a non-dividing chunk size.
    parity_case(96, 4, 8);
    parity_case(12, 4, 16);
    parity_case(30, 7, 5);
    parity_case(25, 3, 1);
}
