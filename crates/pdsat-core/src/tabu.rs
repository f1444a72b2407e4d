//! Tabu search minimization of the predictive function
//! (Algorithm 2 of the paper), as a [`Strategy`] for the [`SearchDriver`].

use crate::driver::{Evaluated, Observation, Proposal, SearchContext, Strategy};
use crate::search::StopCondition;
use crate::Point;
use rand::Rng;

/// Algorithm 2 has no parameters: its neighbourhoods have radius 1, and
/// `getNewCenter(L2)` picks by conflict activity. Stopping criteria and the
/// seed belong to the [`DriverConfig`](crate::DriverConfig) of the
/// [`SearchDriver`](crate::SearchDriver) that runs the strategy. The type
/// stays only because the `benchmark/` package calls
/// `Tabu::new(&TabuConfig::default())`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TabuConfig {}

/// Algorithm 2 as a [`Strategy`], over neighbourhoods of radius ρ = 1, as
/// in PDSAT.
///
/// Of the paper's two tabu lists only `L2`, the checked points with at least
/// one unchecked neighbour, is kept, because `getNewCenter` picks from it
/// alone. `L1`, the checked points whose whole neighbourhood has been
/// checked, is implicit: the checked points that are not in `L2`. A point's
/// value is never recomputed — exactly the purpose of the tabu lists, since
/// every `F` evaluation costs `N` SAT solver runs (the driver's memo cache
/// backs this invariant up mechanically).
#[derive(Debug, Clone)]
pub struct Tabu {
    center: Option<Point>,
    /// L2: checked points with unchecked neighbours.
    l2: Vec<Point>,
    /// Whether the best value improved since the last centre move.
    improved: bool,
}

impl Tabu {
    /// Creates the strategy; `TabuConfig` sets nothing.
    #[must_use]
    pub fn new(_config: &TabuConfig) -> Tabu {
        Tabu {
            center: None,
            l2: Vec::new(),
            improved: false,
        }
    }

    /// Whether every point of `point`'s neighbourhood has been evaluated.
    fn neighbourhood_checked(ctx: &SearchContext<'_>, point: &Point) -> bool {
        ctx.space
            .neighbors(point)
            .iter()
            .all(|p| ctx.is_evaluated(p))
    }

    /// markPointInTabuLists of the paper: a checked point joins L2 unless
    /// its own neighbourhood is already fully checked (then it is in the
    /// implicit L1).
    fn mark(&mut self, ctx: &SearchContext<'_>, point: Point) {
        if !Tabu::neighbourhood_checked(ctx, &point) {
            self.l2.push(point);
        }
    }

    /// `getNewCenter(L2)` of the paper: the point of `L2` whose
    /// decomposition set has the largest accumulated conflict activity, the
    /// heuristic PDSAT uses (§3), or `None` when `L2` is empty.
    fn pick_new_center(&self, ctx: &SearchContext<'_>) -> Option<Point> {
        self.l2
            .iter()
            .max_by_key(|p| {
                let set = ctx.space.decomposition_set(p);
                ctx.evaluator.activity_of_set(&set)
            })
            .cloned()
    }
}

impl Strategy for Tabu {
    fn initialize(&mut self, ctx: &mut SearchContext<'_>, start: &Evaluated) {
        // Full reset: a strategy instance may be reused across runs.
        self.l2.clear();
        self.improved = false;
        self.center = Some(start.point.clone());
        self.mark(ctx, start.point.clone());
    }

    fn propose(&mut self, ctx: &mut SearchContext<'_>) -> Proposal {
        let mut center = self
            .center
            .clone()
            .expect("initialize() runs before propose()");
        loop {
            let neighborhood = ctx.space.neighbors(&center);
            let unchecked: Vec<&Point> = neighborhood
                .iter()
                .filter(|p| !ctx.is_evaluated(p))
                .collect();
            if !unchecked.is_empty() {
                let candidate = unchecked[ctx.rng.gen_range(0..unchecked.len())].clone();
                self.center = Some(center);
                return Proposal::Evaluate(candidate);
            }
            // The neighbourhood of χ_center is checked: move to the improved
            // best point, or ask getNewCenter(L2) for a fresh centre. Every
            // L2 point has an unchecked neighbour (initialize and observe
            // keep no other), so getNewCenter never picks an exhausted
            // centre.
            if self.improved {
                center = ctx.best_point.clone();
                self.improved = false;
                continue;
            }
            match self.pick_new_center(ctx) {
                Some(next) => center = next,
                None => return Proposal::Stop(StopCondition::SpaceExhausted),
            }
        }
    }

    fn observe(&mut self, ctx: &mut SearchContext<'_>, evaluated: &Evaluated) -> Observation {
        let candidate = &evaluated.point;

        // markPointInTabuLists, then points of L2 whose neighbourhood just
        // became fully checked leave it for the implicit L1.
        self.mark(ctx, candidate.clone());
        self.l2.retain(|p| !Tabu::neighbourhood_checked(ctx, p));

        let is_best = evaluated.value < ctx.best_value;
        if is_best {
            self.improved = true;
        }
        Observation {
            accepted: is_best,
            stop: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SearchDriver;
    use crate::search::{SearchLimits, SearchOutcome};
    use crate::{CostMetric, DriverConfig, Evaluator, EvaluatorConfig, SearchSpace};
    use pdsat_cnf::{Cnf, Var};
    use std::collections::HashSet;

    /// Drives a [`Tabu`] strategy through the [`SearchDriver`] — the one way
    /// to run Algorithm 2 since the deprecated `TabuSearch::minimize` shim
    /// was removed.
    fn minimize(
        config: &TabuConfig,
        limits: SearchLimits,
        seed: u64,
        space: &SearchSpace,
        evaluator: &mut Evaluator,
    ) -> SearchOutcome {
        let driver = SearchDriver::new(DriverConfig { limits, seed });
        driver.run(
            space,
            &space.full_point(),
            &mut Tabu::new(config),
            evaluator,
        )
    }

    fn evaluator(cnf: &Cnf, sample: usize) -> Evaluator {
        Evaluator::new(
            cnf,
            EvaluatorConfig {
                sample_size: sample,
                cost: CostMetric::Conflicts,
                ..EvaluatorConfig::default()
            },
        )
    }

    #[test]
    fn tabu_never_reevaluates_a_point() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..7).map(Var::new));
        let mut eval = evaluator(&cnf, 8);
        let outcome = minimize(
            &TabuConfig::default(),
            SearchLimits::unlimited().with_max_points(30),
            5,
            &space,
            &mut eval,
        );
        let mut seen = HashSet::new();
        for step in &outcome.history {
            assert!(
                seen.insert(step.point.clone()),
                "point evaluated twice: {}",
                step.point
            );
        }
        assert_eq!(eval.evaluations() as usize, outcome.points_evaluated);
    }

    #[test]
    fn tabu_improves_on_the_starting_point() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..8).map(Var::new));
        let mut eval = evaluator(&cnf, 16);
        let outcome = minimize(
            &TabuConfig::default(),
            SearchLimits::unlimited().with_max_points(50),
            2,
            &space,
            &mut eval,
        );
        assert!(outcome.best_value <= outcome.history[0].value);
        assert!(outcome.points_evaluated <= 50);
        assert_eq!(
            outcome.best_set,
            space.decomposition_set(&outcome.best_point)
        );
    }

    #[test]
    fn exhausting_a_tiny_space_stops_cleanly() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..3).map(Var::new));
        let mut eval = evaluator(&cnf, 4);
        let outcome = minimize(
            &TabuConfig::default(),
            SearchLimits::unlimited(),
            1,
            &space,
            &mut eval,
        );
        // The space has 2^3 = 8 points; all of them end up evaluated.
        assert_eq!(outcome.points_evaluated, 8);
        assert_eq!(outcome.stop_condition, StopCondition::SpaceExhausted);
    }

    #[test]
    fn a_start_point_without_neighbours_exhausts_the_space() {
        // The start point of a 0-dimensional space has an empty, hence
        // fully checked, neighbourhood: it stays out of L2, so getNewCenter
        // finds L2 empty instead of picking the start point forever.
        let cnf = Cnf::pigeonhole(3);
        let space = SearchSpace::new(std::iter::empty());
        let mut eval = evaluator(&cnf, 1);
        let outcome = minimize(
            &TabuConfig::default(),
            SearchLimits::unlimited(),
            0,
            &space,
            &mut eval,
        );
        assert_eq!(outcome.points_evaluated, 1);
        assert_eq!(outcome.stop_condition, StopCondition::SpaceExhausted);
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..6).map(Var::new));
        let run = || {
            let mut eval = evaluator(&cnf, 8);
            let out = minimize(
                &TabuConfig::default(),
                SearchLimits::unlimited().with_max_points(25),
                77,
                &space,
                &mut eval,
            );
            (out.best_point.clone(), out.best_value, out.points_evaluated)
        };
        assert_eq!(run(), run());
    }
}
