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
}

/// The solver counters a per-cube report carries: the two a [`CostMetric`]
/// can name, of which `conflicts` is also reported on its own. Read from the
/// solver before and after each solve, so the per-cube path copies and
/// subtracts two fields and leaves the full [`SolverStats`] to the
/// once-per-batch aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CubeCounters {
    /// Number of conflicts.
    pub conflicts: u64,
    /// Number of unit propagations.
    pub propagations: u64,
}

impl CubeCounters {
    /// The two counters as `stats` has them now.
    #[must_use]
    pub fn of(stats: &SolverStats) -> CubeCounters {
        CubeCounters {
            conflicts: stats.conflicts,
            propagations: stats.propagations,
        }
    }

    /// What was counted since `before` (an earlier reading of the same
    /// solver; saturating like [`SolverStats::delta_since`]).
    #[must_use]
    pub fn since(self, before: CubeCounters) -> CubeCounters {
        CubeCounters {
            conflicts: self.conflicts.saturating_sub(before.conflicts),
            propagations: self.propagations.saturating_sub(before.propagations),
        }
    }
}

impl CostMetric {
    /// Extracts the cost of one solve call from its counters and the
    /// measured elapsed time.
    #[must_use]
    pub fn measure(self, counters: CubeCounters, elapsed: Duration) -> f64 {
        match self {
            CostMetric::WallSeconds => elapsed.as_secs_f64(),
            CostMetric::Conflicts => counters.conflicts as f64,
            CostMetric::Propagations => counters.propagations as f64,
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
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_pick_the_right_counter() {
        let counters = CubeCounters {
            conflicts: 10,
            propagations: 30,
        };
        let elapsed = Duration::from_millis(1500);
        assert!((CostMetric::WallSeconds.measure(counters, elapsed) - 1.5).abs() < 1e-12);
        assert_eq!(CostMetric::Conflicts.measure(counters, elapsed), 10.0);
        assert_eq!(CostMetric::Propagations.measure(counters, elapsed), 30.0);
    }

    #[test]
    fn cube_counters_agree_with_the_full_stats_delta() {
        let before = SolverStats {
            conflicts: 3,
            decisions: 5,
            propagations: 7,
            restarts: 1,
            ..SolverStats::default()
        };
        let after = SolverStats {
            conflicts: 13,
            decisions: 25,
            propagations: 37,
            restarts: 4,
            ..SolverStats::default()
        };
        let delta = CubeCounters::of(&after).since(CubeCounters::of(&before));
        assert_eq!(delta, CubeCounters::of(&after.delta_since(&before)));
    }

    #[test]
    fn metadata() {
        assert!(!CostMetric::WallSeconds.is_deterministic());
        assert!(CostMetric::Conflicts.is_deterministic());
        assert_eq!(CostMetric::default(), CostMetric::WallSeconds);
        assert_eq!(CostMetric::Propagations.to_string(), "propagations");
    }
}
