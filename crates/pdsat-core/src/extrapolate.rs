//! Extrapolation of sequential estimates to parallel/distributed systems.
//!
//! "The value of the predictive function is always computed assuming that the
//! decomposition family will be processed by 1 CPU core. The fact that the
//! processing consists in solving independent subproblems makes it possible
//! to extrapolate the estimation obtained to an arbitrary parallel (or
//! distributed) computing system." (§4 of the paper.)

/// A simple model of a homogeneous parallel machine (a cluster partition or a
/// fixed number of volunteer hosts of equal speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelSystem {
    /// Number of CPU cores processing sub-problems (the paper uses 64, 160
    /// and 480-core configurations of the "Academician V.M. Matrosov"
    /// cluster).
    pub cores: usize,
    /// Speed of one core relative to the core the estimate was measured on
    /// (1.0 = identical hardware).
    pub relative_core_speed: f64,
}

impl ParallelSystem {
    /// A cluster partition of `cores` identical cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn cluster(cores: usize) -> ParallelSystem {
        assert!(cores > 0, "a parallel system has at least one core");
        ParallelSystem {
            cores,
            relative_core_speed: 1.0,
        }
    }

    /// Ideal (embarrassingly parallel) extrapolation of a sequential cost:
    /// divide by the number of cores and the relative speed.
    #[must_use]
    pub fn ideal_time(&self, sequential_cost: f64) -> f64 {
        sequential_cost / (self.cores as f64 * self.relative_core_speed)
    }

    /// Lower bound on the makespan of a list of independent sub-problem costs
    /// on this system: `max(total/cores, longest job)`, both corrected for
    /// core speed.
    #[must_use]
    pub fn makespan_lower_bound(&self, per_cube_costs: &[f64]) -> f64 {
        let total: f64 = per_cube_costs.iter().sum();
        let longest = per_cube_costs.iter().copied().fold(0.0f64, f64::max);
        (total / self.cores as f64).max(longest) / self.relative_core_speed
    }

    /// Greedy (LPT — longest processing time first) makespan estimate for a
    /// list of independent sub-problem costs: a 4/3-approximation of the
    /// optimal schedule, which is an accurate model of PDSAT's dynamic
    /// work-stealing distribution of cubes over cores.
    #[must_use]
    pub fn makespan_lpt(&self, per_cube_costs: &[f64]) -> f64 {
        if per_cube_costs.is_empty() {
            return 0.0;
        }
        let mut jobs: Vec<f64> = per_cube_costs.to_vec();
        jobs.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let mut loads = vec![0.0f64; self.cores];
        for job in jobs {
            // Assign to the least-loaded core.
            let (idx, _) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one core");
            loads[idx] += job;
        }
        loads.iter().copied().fold(0.0f64, f64::max) / self.relative_core_speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_time_divides_by_cores_and_speed() {
        let sys = ParallelSystem::cluster(480);
        assert!((sys.ideal_time(4800.0) - 10.0).abs() < 1e-12);
        let fast = ParallelSystem {
            cores: 10,
            relative_core_speed: 2.0,
        };
        assert!((fast.ideal_time(100.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_bounds_are_consistent() {
        let sys = ParallelSystem::cluster(4);
        let jobs = [8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let lower = sys.makespan_lower_bound(&jobs);
        let lpt = sys.makespan_lpt(&jobs);
        // The longest job dominates the lower bound here.
        assert!((lower - 8.0).abs() < 1e-12);
        assert!(lpt >= lower);
        assert!(lpt <= 4.0 / 3.0 * 8.0 + 1e-9 + jobs.iter().sum::<f64>() / 4.0);
    }

    #[test]
    fn lpt_balances_equal_jobs_perfectly() {
        let sys = ParallelSystem::cluster(8);
        let jobs = vec![2.0; 64];
        assert!((sys.makespan_lpt(&jobs) - 16.0).abs() < 1e-9);
        assert!((sys.makespan_lower_bound(&jobs) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn empty_job_list_has_zero_makespan() {
        let sys = ParallelSystem::cluster(3);
        assert_eq!(sys.makespan_lpt(&[]), 0.0);
        assert_eq!(sys.makespan_lower_bound(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_cluster_is_rejected() {
        let _ = ParallelSystem::cluster(0);
    }
}
