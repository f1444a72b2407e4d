//! Tabu search minimization of the predictive function
//! (Algorithm 2 of the paper), as a [`Strategy`] for the [`SearchDriver`].

use crate::driver::{Evaluated, Observation, Proposal, SearchContext, Strategy};
use crate::search::StopCondition;
use crate::Point;
use rand::Rng;
use std::collections::HashSet;

/// How `getNewCenter(L2)` picks the next centre when the current
/// neighbourhood is exhausted without improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NewCenterHeuristic {
    /// The point of `L2` whose decomposition set has the largest accumulated
    /// conflict activity — the heuristic PDSAT uses (§3 of the paper).
    #[default]
    ConflictActivity,
    /// The point of `L2` with the best (smallest) predictive function value.
    BestValue,
    /// A uniformly random point of `L2` (ablation baseline).
    Random,
}

/// Parameters of Algorithm 2: the move rule. Stopping criteria and the seed
/// belong to the [`DriverConfig`](crate::DriverConfig) of the
/// [`SearchDriver`](crate::SearchDriver) that runs the strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct TabuConfig {
    /// Heuristic used by `getNewCenter`.
    pub new_center: NewCenterHeuristic,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            new_center: NewCenterHeuristic::ConflictActivity,
        }
    }
}

/// Algorithm 2 as a [`Strategy`], over neighbourhoods of radius ρ = 1, as
/// in PDSAT.
///
/// The two tabu lists of the paper are maintained explicitly: `L1` holds
/// points whose whole neighbourhood has been checked, `L2` holds checked
/// points with at least one unchecked neighbour. A point's value is never
/// recomputed — exactly the purpose of the tabu lists, since every `F`
/// evaluation costs `N` SAT solver runs (the driver's memo cache backs this
/// invariant up mechanically).
#[derive(Debug, Clone)]
pub struct Tabu {
    heuristic: NewCenterHeuristic,
    center: Option<Point>,
    /// L1: checked points whose neighbourhood is fully checked.
    l1: HashSet<Point>,
    /// L2: checked points with unchecked neighbours.
    l2: Vec<Point>,
    /// Whether the best value improved since the last centre move.
    improved: bool,
}

impl Tabu {
    /// Creates the strategy from the move rule of `config`.
    #[must_use]
    pub fn new(config: &TabuConfig) -> Tabu {
        Tabu {
            heuristic: config.new_center,
            center: None,
            l1: HashSet::new(),
            l2: Vec::new(),
            improved: false,
        }
    }

    /// Whether every point of `point`'s neighbourhood has been evaluated.
    fn neighbourhood_checked(&self, ctx: &SearchContext<'_>, point: &Point) -> bool {
        ctx.space
            .neighbors(point)
            .iter()
            .all(|p| ctx.is_evaluated(p))
    }

    /// markPointInTabuLists of the paper: a checked point joins L2, or L1
    /// when its own neighbourhood is already fully checked.
    fn mark(&mut self, ctx: &SearchContext<'_>, point: Point) {
        if self.neighbourhood_checked(ctx, &point) {
            self.l1.insert(point);
        } else {
            self.l2.push(point);
        }
    }

    /// `getNewCenter(L2)` of the paper.
    fn pick_new_center(&self, ctx: &mut SearchContext<'_>) -> Option<Point> {
        if self.l2.is_empty() {
            return None;
        }
        match self.heuristic {
            NewCenterHeuristic::Random => {
                Some(self.l2[ctx.rng.gen_range(0..self.l2.len())].clone())
            }
            NewCenterHeuristic::BestValue => self
                .l2
                .iter()
                .min_by(|a, b| {
                    let va = ctx.value_of(a).unwrap_or(f64::INFINITY);
                    let vb = ctx.value_of(b).unwrap_or(f64::INFINITY);
                    va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .cloned(),
            NewCenterHeuristic::ConflictActivity => self
                .l2
                .iter()
                .max_by_key(|p| {
                    let set = ctx.space.decomposition_set(p);
                    ctx.evaluator.activity_of_set(&set)
                })
                .cloned(),
        }
    }
}

impl Strategy for Tabu {
    fn initialize(&mut self, ctx: &mut SearchContext<'_>, start: &Evaluated) {
        // Full reset: a strategy instance may be reused across runs.
        self.l1.clear();
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
                return Proposal::Evaluate(vec![candidate]);
            }
            // The neighbourhood of χ_center is checked: move to the improved
            // best point, or ask getNewCenter(L2) for a fresh centre. Every
            // L2 point has an unchecked neighbour (initialize and observe
            // keep the others in L1), so getNewCenter never picks an
            // exhausted centre.
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

    fn observe(&mut self, ctx: &mut SearchContext<'_>, results: &[Evaluated]) -> Observation {
        assert_eq!(results.len(), 1, "tabu search proposes single points");
        let evaluated = &results[0];
        let candidate = &evaluated.point;

        // markPointInTabuLists, then points of L2 whose neighbourhood just
        // became fully checked migrate to L1.
        self.mark(ctx, candidate.clone());
        let (checked, open): (Vec<Point>, Vec<Point>) = std::mem::take(&mut self.l2)
            .into_iter()
            .partition(|p| self.neighbourhood_checked(ctx, p));
        self.l1.extend(checked);
        self.l2 = open;

        let is_best = evaluated.value < ctx.best_value;
        if is_best {
            self.improved = true;
        }
        Observation {
            accepted: vec![is_best],
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
        // fully checked, neighbourhood: it goes to L1, so getNewCenter finds
        // L2 empty instead of picking the start point forever.
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
    fn all_new_center_heuristics_work() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..5).map(Var::new));
        for heuristic in [
            NewCenterHeuristic::ConflictActivity,
            NewCenterHeuristic::BestValue,
            NewCenterHeuristic::Random,
        ] {
            let mut eval = evaluator(&cnf, 4);
            let config = TabuConfig {
                new_center: heuristic,
            };
            let outcome = minimize(
                &config,
                SearchLimits::unlimited().with_max_points(20),
                9,
                &space,
                &mut eval,
            );
            assert!(outcome.points_evaluated >= 1);
            assert!(outcome.best_value.is_finite());
        }
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
