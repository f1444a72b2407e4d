//! Cost metrics for sub-problem observations.

use pdsat_solver::SolverStats;
use std::time::Duration;

/// How the random variable `ξ_{C,A}(X̃)` is measured for one sub-problem.
///
/// The paper uses wall-clock seconds of the (deterministic) solver. Wall
/// clock is what matters operationally, but it is noisy on shared machines,
/// so the reproduction also supports deterministic solver counters; with
/// those, repeated runs of an experiment produce bit-identical numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostMetric {
    /// Wall-clock seconds spent solving the sub-problem (the paper's choice).
    #[default]
    WallSeconds,
    /// Number of conflicts.
    Conflicts,
    /// Number of unit propagations.
    Propagations,
    /// Number of decisions.
    Decisions,
}

impl CostMetric {
    /// Extracts the cost of one solve call from the statistics delta and the
    /// measured elapsed time.
    #[must_use]
    pub fn measure(self, stats_delta: &SolverStats, elapsed: Duration) -> f64 {
        match self {
            CostMetric::WallSeconds => elapsed.as_secs_f64(),
            CostMetric::Conflicts => stats_delta.conflicts as f64,
            CostMetric::Propagations => stats_delta.propagations as f64,
            CostMetric::Decisions => stats_delta.decisions as f64,
        }
    }

    /// Unit label for reports.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            CostMetric::WallSeconds => "s",
            CostMetric::Conflicts => "conflicts",
            CostMetric::Propagations => "propagations",
            CostMetric::Decisions => "decisions",
        }
    }

    /// `true` when the metric is deterministic (independent of machine load).
    #[must_use]
    pub fn is_deterministic(self) -> bool {
        !matches!(self, CostMetric::WallSeconds)
    }
}

impl std::fmt::Display for CostMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CostMetric::WallSeconds => "wall-clock seconds",
            CostMetric::Conflicts => "conflicts",
            CostMetric::Propagations => "propagations",
            CostMetric::Decisions => "decisions",
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
        let elapsed = Duration::from_millis(1500);
        assert!((CostMetric::WallSeconds.measure(&stats, elapsed) - 1.5).abs() < 1e-12);
        assert_eq!(CostMetric::Conflicts.measure(&stats, elapsed), 10.0);
        assert_eq!(CostMetric::Propagations.measure(&stats, elapsed), 30.0);
        assert_eq!(CostMetric::Decisions.measure(&stats, elapsed), 20.0);
    }

    #[test]
    fn metadata() {
        assert_eq!(CostMetric::WallSeconds.unit(), "s");
        assert!(!CostMetric::WallSeconds.is_deterministic());
        assert!(CostMetric::Conflicts.is_deterministic());
        assert_eq!(CostMetric::default(), CostMetric::WallSeconds);
        assert_eq!(CostMetric::Propagations.to_string(), "propagations");
    }
}
