//! Simulated annealing minimization of the predictive function
//! (Algorithm 1 of the paper), as a [`Strategy`] for the [`SearchDriver`].

use crate::driver::{Evaluated, Observation, Proposal, SearchContext, Strategy};
use crate::search::StopCondition;
use crate::Point;
use rand::Rng;

/// Initial temperature `T₀`.
const INITIAL_TEMPERATURE: f64 = 1.0;
/// Cooling factor `Q`: `T_{i+1} = Q · T_i`.
const COOLING_FACTOR: f64 = 0.95;
/// Temperature threshold `T_inf` below which the search stops
/// (`temperatureLimitReached()`); `Q^k < T_inf` first holds at `k = 135`.
const MIN_TEMPERATURE: f64 = 1e-3;

/// Algorithm 1 as a [`Strategy`]: the transition `χ_i → χ_{i+1}` picks an
/// unchecked point of the radius-`ρ` neighbourhood of the current centre,
/// accepts improving points unconditionally and worsening points with the
/// Metropolis probability, grows `ρ` when the whole neighbourhood is checked
/// without an accepted transition, and cools the temperature after every
/// evaluation. Unlike the pseudocode (which overwrites `⟨χ_best, F_best⟩` on
/// every accepted transition, including uphill ones), the driver tracks the
/// best point *ever evaluated* — clearly the intended output.
///
/// Each proposal is one point, as every step of Algorithm 1 checks one; the
/// parallelism is inside the point, across its sample's sub-problems. The
/// temperature starts at `T₀ = 1`, is multiplied by `Q = 0.95` after every
/// evaluation, and the search stops once it is below `T_inf = 10⁻³`.
#[derive(Debug, Clone)]
pub struct Annealing {
    temperature: f64,
    center: Option<Point>,
    center_value: f64,
    radius: usize,
    /// The neighbourhood the last proposal was drawn from, re-checked after
    /// a rejected transition to decide whether the radius grows.
    last_neighborhood: Vec<Point>,
}

impl Annealing {
    /// Creates the strategy at the initial temperature.
    #[must_use]
    pub fn new() -> Annealing {
        Annealing {
            temperature: INITIAL_TEMPERATURE,
            center: None,
            center_value: f64::INFINITY,
            radius: 1,
            last_neighborhood: Vec::new(),
        }
    }
}

impl Default for Annealing {
    fn default() -> Self {
        Annealing::new()
    }
}

impl Strategy for Annealing {
    fn initialize(&mut self, _ctx: &mut SearchContext<'_>, start: &Evaluated) {
        // Full reset: a strategy instance may be reused across runs.
        self.temperature = INITIAL_TEMPERATURE;
        self.center = Some(start.point.clone());
        self.center_value = start.value;
        self.radius = 1;
        self.last_neighborhood.clear();
    }

    fn propose(&mut self, ctx: &mut SearchContext<'_>) -> Proposal {
        if self.temperature < MIN_TEMPERATURE {
            return Proposal::Stop(StopCondition::TemperatureFloor);
        }
        let center = self
            .center
            .clone()
            .expect("initialize() runs before propose()");
        loop {
            let neighborhood = ctx.space.neighborhood(&center, self.radius);
            let unchecked: Vec<&Point> = neighborhood
                .iter()
                .filter(|p| !ctx.is_evaluated(p))
                .collect();
            if unchecked.is_empty() {
                // The whole neighbourhood is checked without an accepted
                // transition: enlarge the radius (lines 13-14 of Alg. 1).
                if self.radius >= ctx.space.dimension() {
                    return Proposal::Stop(StopCondition::SpaceExhausted);
                }
                self.radius += 1;
                continue;
            }
            let candidate = unchecked[ctx.rng.gen_range(0..unchecked.len())].clone();
            self.last_neighborhood = neighborhood;
            return Proposal::Evaluate(candidate);
        }
    }

    fn observe(&mut self, ctx: &mut SearchContext<'_>, evaluated: &Evaluated) -> Observation {
        let value = evaluated.value;

        let accepted = if value < self.center_value {
            true
        } else {
            // The predictive function takes astronomically large values
            // (4.45·10⁸ s for A5/1 in the paper), so the increase is taken
            // relative to `F(χ)`, which makes `T₀ ≈ 1` a sensible schedule
            // for any instance; a centre with `F = 0` falls back to the
            // pseudocode's absolute `ΔF`.
            let mut delta = value - self.center_value;
            if self.center_value > 0.0 {
                delta /= self.center_value;
            }
            let probability = (-delta / self.temperature).exp();
            ctx.rng.gen_bool(probability.clamp(0.0, 1.0))
        };

        // decreaseTemperature() — after every checked point, as in the
        // pseudocode (line 15).
        self.temperature *= COOLING_FACTOR;

        let mut stop = None;
        if accepted {
            self.center = Some(evaluated.point.clone());
            self.center_value = value;
            self.radius = 1;
            if self.temperature < MIN_TEMPERATURE {
                stop = Some(StopCondition::TemperatureFloor);
            }
        } else {
            let all_checked = self.last_neighborhood.iter().all(|p| ctx.is_evaluated(p));
            if all_checked {
                if self.radius >= ctx.space.dimension() {
                    stop = Some(StopCondition::SpaceExhausted);
                } else {
                    self.radius += 1;
                }
            }
        }
        Observation { accepted, stop }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SearchDriver;
    use crate::search::{SearchLimits, SearchOutcome};
    use crate::{CostMetric, DriverConfig, Evaluator, EvaluatorConfig, SearchSpace};
    use pdsat_cnf::{Cnf, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Drives an [`Annealing`] strategy through the [`SearchDriver`] — the
    /// one way to run Algorithm 1 since the deprecated
    /// `SimulatedAnnealing::minimize` shim was removed.
    fn minimize(
        limits: SearchLimits,
        seed: u64,
        space: &SearchSpace,
        start: &Point,
        evaluator: &mut Evaluator,
    ) -> SearchOutcome {
        let driver = SearchDriver::new(DriverConfig { limits, seed });
        driver.run(space, start, &mut Annealing::new(), evaluator)
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
    fn annealing_improves_on_the_starting_point() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..8).map(Var::new));
        let start = space.full_point();
        let mut eval = evaluator(&cnf, 16);
        let outcome = minimize(
            SearchLimits::unlimited().with_max_points(40),
            3,
            &space,
            &start,
            &mut eval,
        );
        assert!(outcome.points_evaluated <= 40);
        assert!(outcome.best_value <= outcome.history[0].value);
        assert_eq!(
            outcome.best_set,
            space.decomposition_set(&outcome.best_point)
        );
        assert!(!outcome.history.is_empty());
        // The trace never increases.
        let trace = outcome.best_value_trace();
        assert!(trace.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn annealing_is_reproducible_for_a_fixed_seed() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..6).map(Var::new));
        let start = space.full_point();
        let run = |seed| {
            let mut eval = evaluator(&cnf, 8);
            let out = minimize(
                SearchLimits::unlimited().with_max_points(20),
                seed,
                &space,
                &start,
                &mut eval,
            );
            (out.best_point.clone(), out.best_value)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn temperature_floor_stops_the_search() {
        // T = 0.95^k after k checked points first drops below 10⁻³ at
        // k = 135: the start point and 135 steps, on a space of 1024 points
        // that is far from exhausted by then.
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..10).map(Var::new));
        let start = space.full_point();
        let mut eval = evaluator(&cnf, 2);
        let outcome = minimize(SearchLimits::unlimited(), 1, &space, &start, &mut eval);
        assert_eq!(outcome.stop_condition, StopCondition::TemperatureFloor);
        assert_eq!(outcome.points_evaluated, 136);
    }

    #[test]
    fn point_limit_is_respected_exactly() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..6).map(Var::new));
        let start = space.full_point();
        let mut eval = evaluator(&cnf, 4);
        let outcome = minimize(
            SearchLimits::unlimited().with_max_points(5),
            11,
            &space,
            &start,
            &mut eval,
        );
        assert_eq!(outcome.points_evaluated, 5);
        assert_eq!(outcome.stop_condition, StopCondition::PointLimit);
    }

    /// Observes one worse point from a centre of value `center`, at
    /// temperature 1, with the RNG seeded `seed`. Returns whether the point
    /// was accepted and whether `gen_bool(p_expected)`, drawn from a clone
    /// of the same RNG, accepts it.
    fn observe_worse(center: f64, worse: f64, p_expected: f64, seed: u64) -> (bool, bool) {
        let space = SearchSpace::new((0..4).map(Var::new));
        let start = space.full_point();
        let eval = evaluator(&Cnf::pigeonhole(2), 1);
        let values = HashMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = rng.clone();
        let mut annealing = Annealing::new();
        let mut ctx = SearchContext {
            space: &space,
            rng: &mut rng,
            values: &values,
            best_point: &start,
            best_value: center,
            evaluator: &eval,
        };
        let center = Evaluated {
            point: start.clone(),
            value: center,
        };
        annealing.initialize(&mut ctx, &center);
        let mut next = start.clone();
        next.flip(0);
        let worse = Evaluated {
            point: next,
            value: worse,
        };
        let observation = annealing.observe(&mut ctx, &worse);
        let expected = reference.gen_bool(p_expected);
        // One draw from the run's stream, no more.
        assert_eq!(rng, reference);
        (observation.accepted, expected)
    }

    #[test]
    fn a_worse_point_is_accepted_by_the_relative_metropolis_rule() {
        // F > 0: the increase is taken relative to F, p = exp(−(ΔF/F)/T).
        // The absolute rule, p = exp(−5), would accept almost never.
        let relative = (-(15.0 - 10.0) / 10.0_f64).exp();
        // F = 0: the increase is taken as it is, p = exp(−ΔF/T).
        let absolute = (-0.5_f64).exp();
        for (center, worse, p) in [(10.0, 15.0, relative), (0.0, 0.5, absolute)] {
            let mut accepted = 0;
            for seed in 0..64 {
                let (got, expected) = observe_worse(center, worse, p, seed);
                assert_eq!(got, expected, "F = {center}, seed {seed}");
                accepted += usize::from(got);
            }
            // Both outcomes occur, so the comparison above pins the rule.
            assert!((16..48).contains(&accepted), "F = {center}: {accepted}/64");
        }
    }

    #[test]
    #[should_panic(expected = "start point must live in the search space")]
    fn dimension_mismatch_panics() {
        let cnf = Cnf::pigeonhole(5);
        let space = SearchSpace::new((0..6).map(Var::new));
        let other = SearchSpace::new((0..4).map(Var::new));
        let mut eval = evaluator(&cnf, 2);
        let _ = minimize(
            SearchLimits::unlimited(),
            0,
            &space,
            &other.full_point(),
            &mut eval,
        );
    }
}
