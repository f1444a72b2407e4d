//! A simple model of a homogeneous computing cluster.
//!
//! The paper processes decomposition families on the "Academician V.M.
//! Matrosov" cluster (nodes of 32 cores; experiments use 64, 160 and 480-core
//! configurations). PDSAT's leader hands the next unsolved cube to whichever
//! computing process becomes free — i.e. list scheduling in enumeration
//! order — which is what this simulator reproduces.

/// Static description of a cluster partition: its cores, each as fast as
/// the core on which the per-cube costs were measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of cores in the partition.
    pub cores: usize,
}

impl ClusterConfig {
    /// The paper's 15-node (480-core) configuration used for Table 3: nodes
    /// of 32 cores (2 × AMD Opteron 6276).
    #[must_use]
    pub fn matrosov_15_nodes() -> ClusterConfig {
        ClusterConfig { cores: 15 * 32 }
    }
}

/// Outcome of simulating the processing of a family on a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterReport {
    /// Number of cores used.
    pub cores: usize,
    /// Number of jobs (cubes) processed.
    pub jobs: usize,
    /// Wall-clock time until the last job finishes (same unit as the input
    /// costs, typically seconds).
    pub makespan: f64,
    /// Total CPU time consumed.
    pub cpu_time: f64,
    /// Average core utilization over the makespan, in `[0, 1]`.
    pub utilization: f64,
    /// Wall-clock time at which the first job of `sat_indices` finished (the
    /// "Finding SAT" column of Table 3), if any such job exists.
    pub first_sat_finish: Option<f64>,
}

/// Simulates list scheduling of `per_cube_costs` (in enumeration order) on a
/// cluster: whenever a core becomes free it takes the next cube. `sat_indices`
/// marks which cubes are satisfiable so the report can include the time at
/// which the first satisfying assignment would have been found.
///
/// # Panics
///
/// Panics if the cluster has zero cores.
#[must_use]
pub fn simulate_cluster(
    per_cube_costs: &[f64],
    sat_indices: &[usize],
    config: &ClusterConfig,
) -> ClusterReport {
    let cores = config.cores;
    assert!(cores > 0, "a cluster needs at least one core");
    // `finish_times[c]` is the time at which core `c` becomes free.
    let mut finish_times = vec![0.0f64; cores];
    let mut first_sat_finish: Option<f64> = None;
    let mut cpu_time = 0.0;

    for (idx, &cost) in per_cube_costs.iter().enumerate() {
        cpu_time += cost;
        // The next free core (list scheduling).
        let (core, _) = finish_times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("at least one core");
        let finish = finish_times[core] + cost;
        finish_times[core] = finish;
        if sat_indices.contains(&idx) {
            first_sat_finish = Some(match first_sat_finish {
                Some(t) => t.min(finish),
                None => finish,
            });
        }
    }

    let makespan = finish_times.iter().copied().fold(0.0f64, f64::max);
    let utilization = if makespan > 0.0 {
        cpu_time / (makespan * cores as f64)
    } else {
        0.0
    };
    ClusterReport {
        cores,
        jobs: per_cube_costs.len(),
        makespan,
        cpu_time,
        utilization,
        first_sat_finish,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_have_expected_core_counts() {
        assert_eq!(ClusterConfig::matrosov_15_nodes().cores, 480);
    }

    #[test]
    fn single_core_makespan_is_the_total() {
        let config = ClusterConfig { cores: 1 };
        let costs = [1.0, 2.0, 3.0];
        let report = simulate_cluster(&costs, &[], &config);
        assert!((report.makespan - 6.0).abs() < 1e-12);
        assert!((report.utilization - 1.0).abs() < 1e-12);
        assert_eq!(report.jobs, 3);
        assert!(report.first_sat_finish.is_none());
    }

    #[test]
    fn equal_jobs_divide_evenly_over_cores() {
        let config = ClusterConfig { cores: 4 };
        let costs = vec![2.0; 16];
        let report = simulate_cluster(&costs, &[], &config);
        assert!((report.makespan - 8.0).abs() < 1e-12);
        assert!((report.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_respects_lower_bounds() {
        let config = ClusterConfig { cores: 3 };
        let costs = [10.0, 1.0, 1.0, 1.0, 1.0];
        let report = simulate_cluster(&costs, &[], &config);
        let total: f64 = costs.iter().sum();
        assert!(report.makespan >= total / 3.0 - 1e-12);
        assert!(report.makespan >= 10.0 - 1e-12);
        assert!(report.utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn first_sat_finish_tracks_the_earliest_sat_job() {
        let config = ClusterConfig { cores: 2 };
        let costs = [5.0, 1.0, 1.0, 1.0];
        // Jobs 0 and 3 are satisfiable. Job 3 finishes at time 3 on core 1;
        // job 0 finishes at time 5 on core 0.
        let report = simulate_cluster(&costs, &[0, 3], &config);
        assert!((report.first_sat_finish.unwrap() - 3.0).abs() < 1e-12);
        assert!(report.first_sat_finish.unwrap() <= report.makespan);
    }

    #[test]
    fn empty_family_is_trivial() {
        let report = simulate_cluster(&[], &[], &ClusterConfig { cores: 64 });
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.utilization, 0.0);
        assert_eq!(report.jobs, 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_is_rejected() {
        let config = ClusterConfig { cores: 0 };
        let _ = simulate_cluster(&[1.0], &[], &config);
    }
}
