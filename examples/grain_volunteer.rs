//! Processing a Grain decomposition family on distributed substrates: a
//! dedicated cluster and a SAT@home-style volunteer grid (the paper's §4.2
//! deployment, simulated).
//!
//! Run with `cargo run --release --example grain_volunteer`.

#![forbid(unsafe_code)]

use pdsat::ciphers::{Grain, InstanceBuilder};
use pdsat::core::{BackendKind, CostMetric, DecompositionSet, FamilySolver, SolveModeConfig};
use pdsat::distrib::{
    simulate_cluster, synthetic_family_solver, ClusterConfig, Coordinator, CoordinatorConfig,
    LoopbackConfig, LoopbackTransport, RunStatus,
};
use rand::SeedableRng;

fn main() {
    // Weakened Grain: 12 unknown state bits.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let instance = InstanceBuilder::new(Grain::new())
        .keystream_len(64)
        .known_suffix_of_second_register(148)
        .build_random(&mut rng);
    let set = DecompositionSet::new(instance.unknown_state_vars());
    println!(
        "Grain family: {} sub-problems over {} unknown state bits",
        1u64 << set.len(),
        set.len()
    );

    // Process the family once to obtain per-cube costs (measured in solver
    // propagations and mapped to "seconds" 1:1 for the simulation). Each cube
    // is a complete solver run, as it would be on a volunteer's machine.
    let report = FamilySolver::new(
        instance.cnf(),
        &SolveModeConfig {
            cost: CostMetric::Propagations,
            num_workers: 4,
            backend: BackendKind::Fresh,
            ..SolveModeConfig::default()
        },
    )
    .solve_family(&set, None);
    println!(
        "sequential cost: {:.1}, satisfiable sub-problems: {}",
        report.total_cost, report.sat_count
    );

    // Replay the family on the paper's 480-core cluster partition…
    let cluster = simulate_cluster(
        &report.per_cube_costs,
        &report.first_sat_index.map(|i| vec![i]).unwrap_or_default(),
        &ClusterConfig::matrosov_15_nodes(),
    );
    println!(
        "cluster (480 cores): makespan {:.3}, utilization {:.0}%, first SAT at {:?}",
        cluster.makespan,
        cluster.utilization * 100.0,
        cluster.first_sat_finish
    );

    // …and through the coordinator on a volunteer grid of 100 heterogeneous,
    // unreliable hosts with BOINC-style replication 2. Leases live for ~20
    // average work units, so a result that vanishes is re-issued.
    let work_unit_size = 16;
    let num_cubes = report.per_cube_costs.len();
    let mean_unit_cost = report.total_cost * work_unit_size as f64 / num_cubes as f64;
    let mut coordinator = Coordinator::new(
        set.len(),
        num_cubes,
        &CoordinatorConfig {
            work_unit_size,
            redundancy: 2,
            lease_timeout: (20.0 * mean_unit_cost).max(1.0),
        },
    );
    let mut transport = LoopbackTransport::new(
        LoopbackConfig {
            num_clients: 100,
            seed: 3,
            poll_interval: mean_unit_cost.max(1.0),
        },
        synthetic_family_solver(set.len(), report.per_cube_costs.clone(), None),
    );
    assert_eq!(coordinator.run(&mut transport, None), RunStatus::Complete);
    let grid = coordinator.stats();
    println!(
        "volunteer grid (100 hosts, replication 2): makespan {:.3}, donated CPU {:.1}, \
         re-issued leases {}, assignments {}",
        grid.makespan,
        transport.stats().donated_cpu_time,
        grid.expired_leases,
        grid.assignments
    );
    println!(
        "\nThe grid spends {:.1}× the CPU of the cluster (replication, stragglers, re-issues), \
         which is exactly the operational trade-off the paper describes for SAT@home.",
        transport.stats().donated_cpu_time / report.total_cost
    );
}
