//! Experiment: §4.2 of the paper — processing decomposition families in a
//! volunteer computing project (SAT@home).
//!
//! The paper solved 10 A5/1 inversion instances in SAT@home between December
//! 2011 and May 2012 (≈5 months at ≈2 TFLOPS) using the manual S1 set, and a
//! second series in 2014 with the tabu-found S3 set. We cannot run a BOINC
//! project, so this experiment drives the real pipeline end to end in
//! miniature:
//!
//! 1. the S3 set is found by one tabu search run (Algorithm 2) on the
//!    workload's evaluator;
//! 2. each family is processed by the distributed [`Coordinator`]: sharded
//!    into work units, leased to a simulated volunteer population
//!    (heavy-tailed speeds, churn, stragglers, duplicate and lost results),
//!    every unit solved for real by a fresh-backend [`FamilySolver`];
//! 3. the coordinator is **killed mid-run and resumed** from its
//!    text-serialized checkpoint, demonstrating that completed work units
//!    survive a crash;
//! 4. the ideal-cluster baseline is reported alongside for comparison.

use crate::scaled::{a51_manual_reference_set, CipherKind, ScaledWorkload};
use crate::text_table::{sci, TextTable};
use pdsat_cnf::Cube;
use pdsat_core::{
    BackendKind, DriverConfig, FamilySolver, SearchDriver, SearchLimits, SolveModeConfig, Tabu,
    TabuConfig,
};
use pdsat_distrib::{
    simulate_cluster, validate_unit_report, ClusterConfig, Coordinator, CoordinatorCheckpoint,
    CoordinatorConfig, LoopbackConfig, LoopbackTransport, RunStatus, WorkUnit,
};

/// Result of one coordinator deployment of a decomposition family.
#[derive(Debug, Clone, PartialEq)]
pub struct SatHomeRun {
    /// Which decomposition set was used ("S1 (manual)" or "S3 (tabu)").
    pub set_name: String,
    /// Size of the decomposition set.
    pub set_size: usize,
    /// Sequential (1-core) cost of the whole family, from the coordinator's
    /// aggregated report.
    pub sequential_cost: f64,
    /// Number of work units the family was sharded into.
    pub work_units: usize,
    /// Simulated wall-clock time until the last quorum, seconds.
    pub coordinator_makespan: f64,
    /// Leases handed out across both segments (replication + re-issues).
    pub assignments: usize,
    /// Leases that expired and were re-issued.
    pub reissued_leases: usize,
    /// Work units restored from the checkpoint after the simulated
    /// mid-run kill (0 when the run completed inside the first segment).
    pub resumed_units: usize,
    /// Makespan of the same family on an ideal dedicated cluster with as many
    /// cores as the grid has hosts.
    pub ideal_cluster_makespan: f64,
}

/// The full §4.2 experiment: both decomposition sets deployed on the same
/// synthetic volunteer population.
#[derive(Debug, Clone)]
pub struct SatHomeResult {
    /// The two runs (manual set, tabu set).
    pub runs: Vec<SatHomeRun>,
    /// Number of simulated volunteer hosts.
    pub hosts: usize,
}

impl SatHomeResult {
    /// Formats the result as a table.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(
            format!(
                "SAT@home simulation: coordinator processing A5/1 families on {} volunteer hosts",
                self.hosts
            ),
            &[
                "Set",
                "|X̃|",
                "Sequential cost",
                "Units",
                "Coordinator makespan",
                "Re-issues",
                "Resumed units",
                "Ideal cluster makespan",
            ],
        );
        for run in &self.runs {
            table.add_row([
                run.set_name.clone(),
                run.set_size.to_string(),
                sci(run.sequential_cost),
                run.work_units.to_string(),
                sci(run.coordinator_makespan),
                run.reissued_leases.to_string(),
                run.resumed_units.to_string(),
                sci(run.ideal_cluster_makespan),
            ]);
        }
        table
    }
}

/// Runs the scaled SAT@home experiment.
#[must_use]
pub fn run_sathome(workload: &ScaledWorkload, hosts: usize) -> SatHomeResult {
    assert_eq!(
        workload.cipher,
        CipherKind::A51,
        "§4.2 is an A5/1 experiment"
    );
    let instance = workload.build_instance();
    let space = workload.search_space(&instance);

    // The two sets the paper deployed: the manual S1 and the tabu-found S3.
    let manual = a51_manual_reference_set(&instance);
    let mut evaluator = workload.evaluator(&instance);
    let driver = SearchDriver::new(DriverConfig {
        limits: SearchLimits::unlimited().with_max_points(workload.search_points),
        seed: workload.seed,
    });
    let tabu_set = driver
        .run(
            &space,
            &space.full_point(),
            &mut Tabu::new(&TabuConfig::default()),
            &mut evaluator,
        )
        .best_set;

    // The coordinator solves every work unit with a *fresh* backend, so a
    // unit's report is a pure function of the unit — the property that makes
    // replicated results canonical and checkpoints reproducible.
    let unit_config = SolveModeConfig {
        cost: workload.cost_metric(),
        num_workers: workload.num_workers,
        backend: BackendKind::Fresh,
        ..SolveModeConfig::default()
    };

    let mut runs = Vec::new();
    for (name, set) in [("S1 (manual)", manual), ("S3 (tabu)", tabu_set)] {
        let cubes: Vec<Cube> = set.cubes().collect();
        let work_unit_size = 8;
        let mut unit_solver = FamilySolver::new(instance.cnf(), &unit_config);
        let mut solve_unit = |unit: &WorkUnit| {
            unit_solver.solve_cubes(
                &set,
                &cubes[unit.first_cube..unit.first_cube + unit.num_cubes],
                None,
            )
        };
        // BOINC deadlines are generous but commensurate with the work-unit
        // size. Unit costs are only known once units are solved, so probe
        // the first unit to calibrate the lease lifetime at ~20 units of
        // work (finite, or results that vanish would stall forever).
        let probe = solve_unit(&WorkUnit {
            id: 0,
            first_cube: 0,
            num_cubes: work_unit_size.min(cubes.len()),
        });
        let coordinator_config = CoordinatorConfig {
            work_unit_size,
            redundancy: 2,
            lease_timeout: (20.0 * probe.total_cost).max(1e-6),
        };
        let loopback = |seed: u64| LoopbackConfig {
            num_clients: hosts,
            seed,
            poll_interval: 120.0,
            ..LoopbackConfig::default()
        };

        // Every submitted result goes through the trust path at ingestion:
        // SAT claims are model-checked against the original formula (and any
        // shipped UNSAT certificate proof-checked) before counting toward
        // the quorum — redundancy handles chaos, validation handles forgery.
        let cnf = instance.cnf();
        let mut validate = |unit: &WorkUnit, report: &pdsat_core::SolveReport| {
            validate_unit_report(cnf, &set, unit, report)
        };

        // Segment one: run until the simulated kill (a small event budget).
        let mut coordinator = Coordinator::new(set.len(), cubes.len(), &coordinator_config);
        let mut transport = LoopbackTransport::new(loopback(workload.seed), &mut solve_unit);
        let kill_budget = 4 * (cubes.len().div_ceil(work_unit_size) as u64 + 1);
        let status = coordinator.run_validated(&mut transport, Some(kill_budget), &mut validate);
        let mut assignments = coordinator.stats().assignments;
        let mut reissued = coordinator.stats().expired_leases;
        let mut makespan = coordinator.stats().makespan;
        drop(transport);

        // Segment two: persist the checkpoint as text, restart from it with
        // a fresh coordinator and a fresh client population, finish the
        // family. Completed units are never recomputed.
        let mut resumed_units = 0;
        if status != RunStatus::Complete {
            let persisted = coordinator.checkpoint().to_text();
            let restored = CoordinatorCheckpoint::from_text(&persisted)
                .expect("the coordinator writes valid checkpoints");
            resumed_units = restored.completed.len();
            coordinator = Coordinator::resume(restored, &coordinator_config);
            let mut transport =
                LoopbackTransport::new(loopback(workload.seed ^ 0x5EED), &mut solve_unit);
            let status = coordinator.run_validated(&mut transport, None, &mut validate);
            assert_eq!(
                status,
                RunStatus::Complete,
                "replenished grids never starve"
            );
            assignments += coordinator.stats().assignments;
            reissued += coordinator.stats().expired_leases;
            makespan = coordinator.stats().makespan;
        }
        let report = coordinator
            .aggregate()
            .expect("a complete run aggregates the whole family");

        // Baseline over the same measured per-cube costs: the ideal
        // dedicated cluster.
        let cluster = simulate_cluster(
            &report.per_cube_costs,
            &[],
            &ClusterConfig {
                nodes: 1,
                cores_per_node: hosts.max(1),
                core_speed: 1.0,
            },
        );
        runs.push(SatHomeRun {
            set_name: name.to_string(),
            set_size: set.len(),
            sequential_cost: report.total_cost,
            work_units: coordinator.num_units(),
            coordinator_makespan: makespan,
            assignments,
            reissued_leases: reissued,
            resumed_units,
            ideal_cluster_makespan: cluster.makespan,
        });
    }

    SatHomeResult { runs, hosts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sathome_simulation_produces_two_consistent_runs() {
        let mut workload = ScaledWorkload::tiny(CipherKind::A51);
        workload.sample_size = 8;
        workload.search_points = 5;
        let result = run_sathome(&workload, 12);
        assert_eq!(result.runs.len(), 2);
        assert_eq!(result.hosts, 12);
        for run in &result.runs {
            assert!(run.set_size > 0);
            assert!(run.sequential_cost >= 0.0);
            assert!(run.work_units > 0);
            // The whole family completed through the coordinator.
            assert!(run.coordinator_makespan > 0.0);
            // Replication 2 means every unit was leased at least twice.
            assert!(run.assignments >= 2 * run.work_units);
            // Both substrates process the same measured costs: the grid does
            // not beat the ideal dedicated cluster by more than the hosts'
            // speed advantage (clamped ≤ 8×).
            assert!(8.0 * run.coordinator_makespan + 1e-9 >= run.ideal_cluster_makespan);
        }
        let rendered = result.table().render();
        assert!(rendered.contains("S1 (manual)"));
        assert!(rendered.contains("S3 (tabu)"));
    }

    #[test]
    #[should_panic(expected = "A5/1 experiment")]
    fn rejects_non_a51_workloads() {
        let _ = run_sathome(&ScaledWorkload::tiny(CipherKind::Grain), 4);
    }
}
