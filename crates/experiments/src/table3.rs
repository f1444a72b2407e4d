//! Experiment: Table 3 — weakened BiviumK / GrainK problems: predicted
//! versus real family processing time, and the time to find the satisfying
//! assignment.
//!
//! The paper fixes the last K cells of the second register (BiviumK /
//! GrainK), finds a decomposition set by predictive-function minimization on
//! instance 1 of each series, and then solves three instances per problem on
//! 480 cores, reporting the estimate (1 core and 480 cores), the real time to
//! process the whole family, and the time at which the satisfying assignment
//! was found. On average the real time deviates from the estimate by ≈8 %.
//!
//! The scaled experiment follows the same protocol with smaller K gaps,
//! shorter keystreams, deterministic cost (solver conflicts) and a simulated
//! cluster for the many-core column.

use crate::scaled::ScaledWorkload;
use crate::text_table::{sci, TextTable};
use pdsat_core::{
    BackendKind, DecompositionSet, DriverConfig, FamilyCounters, FamilySolver, SearchDriver,
    SearchLimits, SolveModeConfig, Tabu, TabuConfig,
};
use pdsat_distrib::{simulate_cluster, ClusterConfig};

/// Per-instance measurements of one weakened problem.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceMeasurement {
    /// Instance label ("inst. 1" …).
    pub label: String,
    /// Real sequential cost of processing the whole family (1 core).
    pub family_cost_one_core: f64,
    /// Simulated makespan of the family on the many-core cluster.
    pub family_makespan_cores: f64,
    /// Simulated time at which the first satisfiable cube finished on the
    /// cluster, if any cube is satisfiable.
    pub finding_sat_cores: Option<f64>,
    /// The family counters of the solving-mode run (trail reuse, the
    /// reserved v1 slots, panic recovery), summed over the family.
    pub counters: FamilyCounters,
}

/// One row of Table 3 (one weakened problem, three instances).
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Problem name, e.g. `Bivium167`.
    pub problem: String,
    /// Size of the decomposition set found on instance 1.
    pub set_size: usize,
    /// Predictive function value, 1 core.
    pub f_one_core: f64,
    /// Predictive function value extrapolated to the cluster.
    pub f_many_cores: f64,
    /// Per-instance measurements.
    pub instances: Vec<InstanceMeasurement>,
    /// Mean relative deviation of the real 1-core family cost from the
    /// estimate, in percent (the paper reports ≈8 % on average).
    pub mean_deviation_percent: f64,
}

/// The full result of the Table 3 experiment.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// One row per weakened problem.
    pub rows: Vec<Table3Row>,
    /// Number of simulated cluster cores used for the many-core columns.
    pub cores: usize,
}

impl Table3Result {
    /// Formats the result in the layout of the paper's Table 3.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(
            format!(
                "Table 3: solving weakened cryptanalysis problems (estimates vs. real costs, {} simulated cores)",
                self.cores
            ),
            &[
                "Problem",
                "|X̃best|",
                "F 1 core",
                &format!("F {} cores", self.cores),
                "Family (real, per instance)",
                "Finding SAT (per instance)",
                "Deviation %",
            ],
        );
        for row in &self.rows {
            let family = row
                .instances
                .iter()
                .map(|m| sci(m.family_makespan_cores))
                .collect::<Vec<_>>()
                .join(" / ");
            let finding = row
                .instances
                .iter()
                .map(|m| m.finding_sat_cores.map(sci).unwrap_or_else(|| "-".into()))
                .collect::<Vec<_>>()
                .join(" / ");
            table.add_row([
                row.problem.clone(),
                row.set_size.to_string(),
                sci(row.f_one_core),
                sci(row.f_many_cores),
                family,
                finding,
                format!("{:.1}", row.mean_deviation_percent),
            ]);
        }
        table
    }
}

/// The scaled analogues of the paper's six weakened problems
/// (Bivium16/14/12, Grain44/42/40). The names encode the number of *known*
/// state bits, as in the paper.
#[must_use]
pub fn default_table3_problems() -> Vec<ScaledWorkload> {
    let mut problems = Vec::new();
    for known in [170, 168, 166] {
        problems.push(ScaledWorkload {
            known_suffix: known,
            keystream_len: 64,
            sample_size: 40,
            search_points: 12,
            ..ScaledWorkload::bivium()
        });
    }
    for known in [153, 151, 149] {
        problems.push(ScaledWorkload {
            known_suffix: known,
            keystream_len: 56,
            sample_size: 40,
            search_points: 12,
            ..ScaledWorkload::grain()
        });
    }
    problems
}

/// Runs the Table 3 protocol for the given weakened problems.
///
/// # Panics
///
/// Panics if `instances_per_problem` is zero or the simulated cluster has no
/// cores.
#[must_use]
pub fn run_table3(
    problems: &[ScaledWorkload],
    instances_per_problem: usize,
    cluster: &ClusterConfig,
) -> Table3Result {
    assert!(
        instances_per_problem > 0,
        "at least one instance per problem"
    );
    let cores = cluster.cores();
    let mut rows = Vec::new();

    for workload in problems {
        let series = workload.build_series(instances_per_problem);
        let first = &series[0];
        let space = workload.search_space(first);
        let mut evaluator = workload.evaluator(first);

        // Find X̃_best on the first instance of the series (as in the paper).
        let driver = SearchDriver::new(DriverConfig {
            limits: SearchLimits::unlimited().with_max_points(workload.search_points),
            seed: workload.seed,
        });
        let mut tabu = Tabu::new(&TabuConfig::default());
        let outcome = driver.run(&space, &space.full_point(), &mut tabu, &mut evaluator);
        let best_set: DecompositionSet = outcome.best_set.clone();
        let f_one_core = outcome.best_value;
        let f_many_cores = f_one_core / cores as f64;

        // Solve all instances of the series over the same decomposition set.
        // The cost metric must match the evaluator's so the estimate and the
        // real family cost are comparable.
        let solve_config = SolveModeConfig {
            cost: workload.cost_metric(),
            num_workers: workload.num_workers,
            // The solving mode must measure costs on the same backend the
            // estimate was computed with, or the deviation column would mix
            // substrates: the workload's evaluator runs the fresh backend.
            backend: BackendKind::Fresh,
            ..SolveModeConfig::default()
        };
        let mut instances = Vec::new();
        let mut deviations = Vec::new();
        for (i, instance) in series.iter().enumerate() {
            let report =
                FamilySolver::new(instance.cnf(), &solve_config).solve_family(&best_set, None);
            let sat_indices: Vec<usize> = report
                .first_sat_index
                .map(|idx| vec![idx])
                .unwrap_or_default();
            let cluster_report = simulate_cluster(&report.per_cube_costs, &sat_indices, cluster);
            if f_one_core > 0.0 {
                deviations.push(100.0 * (report.total_cost - f_one_core).abs() / f_one_core);
            }
            instances.push(InstanceMeasurement {
                label: format!("inst. {}", i + 1),
                family_cost_one_core: report.total_cost,
                family_makespan_cores: cluster_report.makespan,
                finding_sat_cores: cluster_report.first_sat_finish,
                counters: report.counters,
            });
        }
        let mean_deviation_percent = if deviations.is_empty() {
            0.0
        } else {
            deviations.iter().sum::<f64>() / deviations.len() as f64
        };

        rows.push(Table3Row {
            problem: format!("{}{}", workload.cipher.name(), workload.known_suffix),
            set_size: best_set.len(),
            f_one_core,
            f_many_cores,
            instances,
            mean_deviation_percent,
        });
    }

    Table3Result { rows, cores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaled::CipherKind;

    fn tiny_problem(kind: CipherKind) -> ScaledWorkload {
        let mut w = ScaledWorkload::tiny(kind);
        w.sample_size = 10;
        w.search_points = 5;
        w
    }

    #[test]
    fn table3_protocol_produces_consistent_rows() {
        let problems = vec![
            tiny_problem(CipherKind::Bivium),
            tiny_problem(CipherKind::Grain),
        ];
        let cluster = ClusterConfig {
            nodes: 1,
            cores_per_node: 8,
            core_speed: 1.0,
        };
        let result = run_table3(&problems, 2, &cluster);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.cores, 8);
        for row in &result.rows {
            assert!(row.set_size > 0);
            assert!(row.f_one_core >= 0.0);
            assert!((row.f_many_cores - row.f_one_core / 8.0).abs() < 1e-9);
            assert_eq!(row.instances.len(), 2);
            for inst in &row.instances {
                // The weakened instances are satisfiable (the secret is a
                // model), so the solving mode must find the key.
                assert!(inst.finding_sat_cores.is_some());
                assert!(inst.finding_sat_cores.unwrap() <= inst.family_makespan_cores + 1e-9);
                // Many-core makespan never exceeds the 1-core cost.
                assert!(inst.family_makespan_cores <= inst.family_cost_one_core + 1e-9);
            }
            assert!(row.mean_deviation_percent >= 0.0);
        }
        let rendered = result.table().render();
        assert!(rendered.contains("Bivium"));
        assert!(rendered.contains("Grain"));
    }

    #[test]
    fn default_problem_list_matches_the_paper_structure() {
        let problems = default_table3_problems();
        assert_eq!(problems.len(), 6);
        assert!(problems[..3].iter().all(|p| p.cipher == CipherKind::Bivium));
        assert!(problems[3..].iter().all(|p| p.cipher == CipherKind::Grain));
        // Unknown parts stay small enough to enumerate.
        assert!(problems.iter().all(|p| p.unknown_bits() <= 14));
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_rejected() {
        let _ = run_table3(&[], 0, &ClusterConfig::matrosov_2_nodes());
    }
}
