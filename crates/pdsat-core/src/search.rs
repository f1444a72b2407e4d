//! Common types for the metaheuristic minimization of the predictive
//! function (§3 of the paper).

use crate::{DecompositionSet, Point};
use std::time::Duration;

/// Stopping criteria shared by both metaheuristics.
///
/// The paper runs PDSAT "for 1 day on 2–5 cluster nodes"; the reproduction's
/// experiments instead bound the number of evaluated points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchLimits {
    /// Maximum number of points whose predictive function value is computed.
    pub max_points: Option<usize>,
}

impl SearchLimits {
    /// No limits (the search only ends when its own termination condition
    /// fires — temperature threshold or empty tabu list).
    #[must_use]
    pub fn unlimited() -> SearchLimits {
        SearchLimits::default()
    }

    /// Limits the number of evaluated points.
    #[must_use]
    pub fn with_max_points(mut self, points: usize) -> SearchLimits {
        self.max_points = Some(points);
        self
    }

    /// `true` when the point limit is reached ("timeExceeded()" of the
    /// paper's pseudocode, counted in points).
    #[must_use]
    pub fn exceeded(&self, points_evaluated: usize) -> bool {
        self.max_points.is_some_and(|max| points_evaluated >= max)
    }

    /// How many more points may be evaluated before `max_points` is hit, or
    /// `None` when the point budget is unlimited.
    ///
    /// The [`SearchDriver`](crate::SearchDriver) uses this to truncate a
    /// neighborhood-sized proposal *inside* a batch: a strategy proposing 30
    /// points with 5 left in the budget gets exactly 5 evaluated, not 30.
    #[must_use]
    pub fn point_budget(&self, points_evaluated: usize) -> Option<usize> {
        self.max_points.map(|m| m.saturating_sub(points_evaluated))
    }
}

/// Why a search run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// The point budget was exhausted.
    PointLimit,
    /// Simulated annealing reached the minimal temperature.
    TemperatureFloor,
    /// Tabu search ran out of unchecked points (`L2 = ∅`).
    SpaceExhausted,
    /// The [`RandomRestart`](crate::RandomRestart) strategy spent its restart
    /// budget without finding a new basin to descend into.
    RestartsExhausted,
}

/// One evaluated point in the trajectory of a search.
#[derive(Debug, Clone)]
pub struct SearchStep {
    /// 0-based index of the evaluation.
    pub index: usize,
    /// The evaluated point.
    pub point: Point,
    /// Size of the corresponding decomposition set.
    pub set_size: usize,
    /// Predictive function value at the point.
    pub value: f64,
    /// Whether the point was accepted as the new centre (simulated annealing)
    /// or improved the best known value (tabu search).
    pub accepted: bool,
    /// Whether the point became the best seen so far.
    pub is_best: bool,
    /// Time since the start of the search when the evaluation finished.
    pub elapsed: Duration,
}

/// The result of one metaheuristic run: the pair `⟨χ_best, F_best⟩` returned
/// by Algorithms 1 and 2, plus the full trajectory for analysis.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best point found.
    pub best_point: Point,
    /// Decomposition set corresponding to the best point.
    pub best_set: DecompositionSet,
    /// Best (smallest) predictive function value found, `F_best`.
    pub best_value: f64,
    /// All evaluated points in evaluation order.
    pub history: Vec<SearchStep>,
    /// Number of points evaluated.
    pub points_evaluated: usize,
    /// Total wall-clock time of the search.
    pub wall_time: Duration,
    /// Why the search ended.
    pub stop_condition: StopCondition,
}

impl SearchOutcome {
    /// The best value observed after each evaluation (a non-increasing
    /// sequence useful for convergence plots).
    #[must_use]
    pub fn best_value_trace(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.history
            .iter()
            .map(|s| {
                best = best.min(s.value);
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_trigger_on_points() {
        let limits = SearchLimits::unlimited().with_max_points(10);
        assert!(!limits.exceeded(9));
        assert!(limits.exceeded(10));
        assert!(!SearchLimits::unlimited().exceeded(1_000_000));
    }

    #[test]
    fn best_value_trace_is_monotone() {
        use crate::SearchSpace;
        use pdsat_cnf::Var;
        let space = SearchSpace::new((0..3).map(Var::new));
        let mk = |i: usize, v: f64| SearchStep {
            index: i,
            point: space.full_point(),
            set_size: 3,
            value: v,
            accepted: false,
            is_best: false,
            elapsed: Duration::ZERO,
        };
        let outcome = SearchOutcome {
            best_point: space.full_point(),
            best_set: space.decomposition_set(&space.full_point()),
            best_value: 1.0,
            history: vec![mk(0, 5.0), mk(1, 7.0), mk(2, 2.0), mk(3, 3.0)],
            points_evaluated: 4,
            wall_time: Duration::ZERO,
            stop_condition: StopCondition::PointLimit,
        };
        assert_eq!(outcome.best_value_trace(), vec![5.0, 5.0, 2.0, 2.0]);
    }
}
