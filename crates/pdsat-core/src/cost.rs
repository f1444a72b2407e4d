//! Cost metrics for sub-problem observations.

use pdsat_solver::SolverStats;

/// How the random variable `ξ_{C,A}(X̃)` is measured for one sub-problem.
///
/// The paper uses wall-clock seconds of the (deterministic) solver. Wall
/// clock is what matters operationally, but it is noisy on shared machines,
/// so the reproduction also supports deterministic solver counters; with
/// those, repeated runs of an experiment produce bit-identical numbers.
/// The backend that solves a cube prices it under the oracle's metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostMetric {
    /// Wall-clock seconds spent solving the sub-problem (the paper's choice).
    #[default]
    WallSeconds,
    /// Number of conflicts.
    Conflicts,
    /// Number of unit propagations.
    Propagations,
}

impl CostMetric {
    /// The solver counter this metric prices a cube by, as `stats` has it;
    /// `None` for wall time, which the backend reads off the clock.
    pub(crate) fn counter(self, stats: &SolverStats) -> Option<u64> {
        match self {
            CostMetric::WallSeconds => None,
            CostMetric::Conflicts => Some(stats.conflicts),
            CostMetric::Propagations => Some(stats.propagations),
        }
    }
}

impl std::fmt::Display for CostMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CostMetric::WallSeconds => "wall-clock seconds",
            CostMetric::Conflicts => "conflicts",
            CostMetric::Propagations => "propagations",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_pick_the_right_counter() {
        let stats = SolverStats {
            conflicts: 10,
            decisions: 20,
            propagations: 30,
            ..SolverStats::default()
        };
        assert_eq!(CostMetric::WallSeconds.counter(&stats), None);
        assert_eq!(CostMetric::Conflicts.counter(&stats), Some(10));
        assert_eq!(CostMetric::Propagations.counter(&stats), Some(30));
    }

    #[test]
    fn metadata() {
        assert_eq!(CostMetric::default(), CostMetric::WallSeconds);
        assert_eq!(CostMetric::Propagations.to_string(), "propagations");
    }
}
