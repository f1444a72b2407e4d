//! Batched greedy descent with random restarts — the scenario-diversity
//! strategy of the unified search engine.
//!
//! The paper's metaheuristics walk one point at a time, which leaves the
//! oracle's worker pool idle between evaluations. On the cluster, PDSAT
//! evaluates the points of a neighbourhood *in parallel*; [`RandomRestart`]
//! is the strategy-level counterpart: it proposes the whole unchecked
//! neighbourhood of the current centre in one batch (which the
//! [`SearchDriver`](crate::SearchDriver) lowers into a single `CubeOracle`
//! batch), moves greedily to the best improving neighbour, and when stuck in
//! a local minimum restarts from a random point of the space — a portfolio
//! of independent descents inside one run.

use crate::driver::{Evaluated, Observation, Proposal, SearchContext, Strategy};
use crate::search::StopCondition;
use crate::Point;
use rand::Rng;

/// Parameters of the [`RandomRestart`] strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomRestartConfig {
    /// Neighbourhood radius ρ of the greedy descent (PDSAT uses 1).
    pub radius: usize,
    /// Total restart budget: after this many restarts fail to open a new
    /// descent, the strategy stops with
    /// [`StopCondition::RestartsExhausted`]. Together with the driver's
    /// limits this bounds the run even on an unlimited budget.
    pub max_restarts: usize,
}

impl Default for RandomRestartConfig {
    fn default() -> Self {
        RandomRestartConfig {
            radius: 1,
            max_restarts: 16,
        }
    }
}

/// Greedy neighbourhood descent with random restarts (see the module docs).
///
/// Unlike [`Annealing`](crate::Annealing) and [`Tabu`](crate::Tabu), every
/// descent step proposes a whole neighbourhood, so the evaluation cost of a
/// step is one *batched* oracle call instead of `|N_ρ(χ)|` sequential ones.
#[derive(Debug, Clone)]
pub struct RandomRestart {
    config: RandomRestartConfig,
    center: Option<Point>,
    center_value: f64,
    restarts: usize,
    /// The last proposal was a restart point (observe must adopt it as the
    /// new centre unconditionally).
    awaiting_restart: bool,
}

impl RandomRestart {
    /// Creates the strategy.
    ///
    /// # Panics
    ///
    /// Panics if the configured radius is zero.
    #[must_use]
    pub fn new(config: RandomRestartConfig) -> RandomRestart {
        assert!(
            config.radius >= 1,
            "the neighbourhood radius must be positive"
        );
        RandomRestart {
            config,
            center: None,
            center_value: f64::INFINITY,
            restarts: 0,
            awaiting_restart: false,
        }
    }

    /// Number of restarts performed so far.
    #[must_use]
    pub fn restarts(&self) -> usize {
        self.restarts
    }
}

impl Strategy for RandomRestart {
    fn initialize(&mut self, _ctx: &mut SearchContext<'_>, start: &Evaluated) {
        // Full reset: a strategy instance may be reused across runs.
        self.restarts = 0;
        self.awaiting_restart = false;
        self.center = Some(start.point.clone());
        self.center_value = start.value;
    }

    fn propose(&mut self, ctx: &mut SearchContext<'_>) -> Proposal {
        let mut center = self
            .center
            .clone()
            .expect("initialize() runs before propose()");
        loop {
            let neighborhood = ctx.space.neighborhood(&center, self.config.radius);
            let unchecked: Vec<Point> = neighborhood
                .iter()
                .filter(|p| !ctx.is_evaluated(p))
                .cloned()
                .collect();
            if !unchecked.is_empty() {
                self.center = Some(center);
                self.awaiting_restart = false;
                // The whole unchecked neighbourhood, as one oracle batch.
                return Proposal::Evaluate(unchecked);
            }
            // Fully-known neighbourhood: descend through memoized values for
            // free while possible.
            let best_known = neighborhood
                .iter()
                .filter_map(|p| ctx.value_of(p).map(|v| (p, v)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((point, value)) = best_known {
                if value < self.center_value {
                    center = point.clone();
                    self.center_value = value;
                    continue;
                }
            }
            // Local minimum: restart from a random point.
            if self.restarts >= self.config.max_restarts || ctx.space.dimension() == 0 {
                return Proposal::Stop(StopCondition::RestartsExhausted);
            }
            self.restarts += 1;
            // A uniformly random cardinality per restart: maximum scenario
            // diversity.
            let ones = ctx.rng.gen_range(1..=ctx.space.dimension());
            let restart = ctx.space.random_point_with_ones(ones, ctx.rng);
            self.center = Some(center);
            self.awaiting_restart = true;
            return Proposal::Evaluate(vec![restart]);
        }
    }

    fn observe(&mut self, _ctx: &mut SearchContext<'_>, results: &[Evaluated]) -> Observation {
        if self.awaiting_restart {
            // Adopt the restart point as the new centre unconditionally: the
            // next proposal descends from there.
            self.awaiting_restart = false;
            let evaluated = &results[0];
            self.center = Some(evaluated.point.clone());
            self.center_value = evaluated.value;
            return Observation::advance(vec![true]);
        }
        // Neighbourhood batch: greedy move to the best improving neighbour.
        let mut accepted = vec![false; results.len()];
        let mut best: Option<(usize, f64)> = None;
        for (i, evaluated) in results.iter().enumerate() {
            if evaluated.value < self.center_value
                && best.is_none_or(|(_, bv)| evaluated.value < bv)
            {
                best = Some((i, evaluated.value));
            }
        }
        if let Some((i, value)) = best {
            accepted[i] = true;
            self.center = Some(results[i].point.clone());
            self.center_value = value;
        }
        Observation::advance(accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CostMetric, DriverConfig, Evaluator, EvaluatorConfig, SearchDriver, SearchLimits,
        SearchSpace,
    };
    use pdsat_cnf::{Cnf, Var};

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
    fn descends_and_respects_the_point_budget() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..8).map(Var::new));
        let mut eval = evaluator(&cnf, 8);
        let driver = SearchDriver::new(DriverConfig {
            limits: SearchLimits::unlimited().with_max_points(30),
            seed: 3,
        });
        let mut strategy = RandomRestart::new(RandomRestartConfig::default());
        let outcome = driver.run(&space, &space.full_point(), &mut strategy, &mut eval);
        assert!(outcome.points_evaluated <= 30);
        assert!(outcome.best_value <= outcome.history[0].value);
        // Whole neighbourhoods ride in single oracle batches: strictly fewer
        // batches than evaluated points.
        assert!(eval.oracle().batches() < eval.evaluations());
    }

    #[test]
    fn restart_budget_terminates_an_unlimited_run() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..4).map(Var::new));
        let mut eval = evaluator(&cnf, 4);
        let driver = SearchDriver::new(DriverConfig {
            limits: SearchLimits::unlimited(),
            seed: 5,
        });
        let mut strategy = RandomRestart::new(RandomRestartConfig {
            max_restarts: 3,
            ..RandomRestartConfig::default()
        });
        let outcome = driver.run(&space, &space.full_point(), &mut strategy, &mut eval);
        assert_eq!(outcome.stop_condition, StopCondition::RestartsExhausted);
        assert_eq!(strategy.restarts(), 3);
        // The space has 16 points; the driver's memo cache guarantees no
        // point was paid for twice even though restarts may revisit.
        assert!(eval.evaluations() <= 16);
    }

    #[test]
    fn reproducible_for_a_fixed_seed() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..6).map(Var::new));
        let run = || {
            let mut eval = evaluator(&cnf, 8);
            let driver = SearchDriver::new(DriverConfig {
                limits: SearchLimits::unlimited().with_max_points(25),
                seed: 11,
            });
            let mut strategy = RandomRestart::new(RandomRestartConfig::default());
            let out = driver.run(&space, &space.full_point(), &mut strategy, &mut eval);
            let trajectory: Vec<(String, u64)> = out
                .history
                .iter()
                .map(|s| (s.point.to_string(), s.value.to_bits()))
                .collect();
            (trajectory, out.best_value.to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_is_rejected() {
        let _ = RandomRestart::new(RandomRestartConfig {
            radius: 0,
            ..RandomRestartConfig::default()
        });
    }
}
