//! The unified metaheuristic search engine (§3 of the paper).
//!
//! PDSAT minimizes the predictive function `F` with several metaheuristics
//! that share everything except the move rule: they all walk points of a
//! [`SearchSpace`], pay `N` sub-problem solves per new point, keep the best
//! pair `⟨χ_best, F_best⟩`, and stop on the same global limits. The seed
//! reproduction duplicated that shared loop in `SimulatedAnnealing` and
//! `TabuSearch`; this module owns it once:
//!
//! * [`SearchDriver`] runs the loop — limit enforcement (including *inside*
//!   a neighborhood-sized batch), best-pair tracking, the single RNG stream,
//!   the dedup/memo cache of visited points and the trajectory trace.
//! * [`Strategy`] is the move rule: `propose` returns the next batch of
//!   points to evaluate (one point for the classic sequential walks, a whole
//!   neighborhood for batch strategies), `observe` digests the evaluated
//!   batch and updates the strategy's internal state.
//!
//! Multi-point proposals are lowered through
//! [`Evaluator::evaluate_batch_memoized`] into **one** `CubeOracle` batch —
//! one sample plan per point, concatenated and sticky-striped across the
//! oracle's worker pool — so neighbor evaluations finally use the
//! pool *across* points, not just within one (the paper evaluates the
//! neighborhood of a point in parallel on the cluster).
//!
//! # Batch semantics
//!
//! A proposal is processed in order with these guarantees:
//!
//! 1. **Dedup.** Duplicate points inside one proposal are evaluated once
//!    (first occurrence wins); points already visited this run are answered
//!    from the driver's memo cache and still appear in the history.
//! 2. **Point-budget truncation.** When `max_points` leaves fewer slots than
//!    the proposal holds, the proposal is truncated to the remaining budget —
//!    a large neighborhood can no longer blow past the limit.
//! 3. `observe` always sees exactly the evaluated points, in proposal order.

use crate::search::{SearchLimits, SearchOutcome, SearchStep, StopCondition};
use crate::{Evaluator, Point, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// One evaluated point, as handed to [`Strategy::observe`].
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The evaluated point.
    pub point: Point,
    /// The predictive function value `F` at the point.
    pub value: f64,
}

/// What a strategy wants next.
#[derive(Debug, Clone)]
pub enum Proposal {
    /// Evaluate these points (in order; must be non-empty). A single point
    /// reproduces the classic sequential walk; a whole neighborhood flows
    /// through the batched oracle path.
    Evaluate(Vec<Point>),
    /// Terminate the search with the given strategy-level stop condition.
    Stop(StopCondition),
}

/// What a strategy concluded from an evaluated batch.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Per-point acceptance flags, aligned with the batch handed to
    /// [`Strategy::observe`] (recorded in the trajectory as
    /// [`SearchStep::accepted`]).
    pub accepted: Vec<bool>,
    /// A stop the strategy wants honored *before* the next limits check —
    /// e.g. annealing's temperature floor right after an accepted move, which
    /// Algorithm 1 reports even when the point budget is exhausted too.
    pub stop: Option<StopCondition>,
}

impl Observation {
    /// Continue searching; `accepted` flags the points the strategy adopted.
    #[must_use]
    pub fn advance(accepted: Vec<bool>) -> Observation {
        Observation {
            accepted,
            stop: None,
        }
    }

    /// Record the flags, then stop with `condition`.
    #[must_use]
    pub fn stop(accepted: Vec<bool>, condition: StopCondition) -> Observation {
        Observation {
            accepted,
            stop: Some(condition),
        }
    }
}

/// Read access to the driver's shared search state, handed to every
/// [`Strategy`] call.
///
/// The context exposes exactly what the paper's move rules consume: the
/// space, the single RNG stream, the memo of visited points, the incumbent
/// best pair, and the evaluator's accumulated conflict activity (the tabu
/// `getNewCenter` heuristic).
pub struct SearchContext<'a> {
    /// The search space being explored.
    pub space: &'a SearchSpace,
    /// The run's RNG stream (seeded from [`DriverConfig::seed`]; all
    /// stochastic choices of all strategies draw from this one stream, which
    /// is what makes a fixed-seed run reproducible).
    pub rng: &'a mut StdRng,
    /// Values of every point evaluated so far this run (the dedup cache).
    pub values: &'a HashMap<Point, f64>,
    /// Best point found so far.
    pub best_point: &'a Point,
    /// Best (smallest) value found so far.
    pub best_value: f64,
    /// The evaluator (read-only: e.g. conflict activity for tabu's
    /// `getNewCenter`).
    pub evaluator: &'a Evaluator,
}

impl SearchContext<'_> {
    /// Whether `point` has already been evaluated this run.
    #[must_use]
    pub fn is_evaluated(&self, point: &Point) -> bool {
        self.values.contains_key(point)
    }

    /// The memoized value of `point`, if it was evaluated this run.
    #[must_use]
    pub fn value_of(&self, point: &Point) -> Option<f64> {
        self.values.get(point).copied()
    }
}

/// A metaheuristic move rule driven by the [`SearchDriver`].
///
/// The driver owns the loop; a strategy only decides *where to go next*
/// ([`propose`](Strategy::propose)) and *what to make of the results*
/// ([`observe`](Strategy::observe)). Implementations: [`Annealing`]
/// (Algorithm 1), [`Tabu`] (Algorithm 2) and [`RandomRestart`] (batched
/// greedy descent with random restarts).
///
/// [`Annealing`]: crate::Annealing
/// [`Tabu`]: crate::Tabu
/// [`RandomRestart`]: crate::RandomRestart
pub trait Strategy {
    /// Called once per run with the evaluated starting point, before the
    /// first `propose`. Implementations must fully reset their internal
    /// state here: a strategy instance handed to several `run` calls behaves
    /// like a freshly constructed one on each.
    fn initialize(&mut self, ctx: &mut SearchContext<'_>, start: &Evaluated);

    /// The next batch of points to evaluate, or a stop condition. A returned
    /// `Proposal::Evaluate` must hold at least one point.
    fn propose(&mut self, ctx: &mut SearchContext<'_>) -> Proposal;

    /// Digest an evaluated batch (the — possibly truncated — prefix of the
    /// last proposal, in order). `ctx.values` already contains the new
    /// points; `ctx.best_value` is still the best *before* this batch.
    fn observe(&mut self, ctx: &mut SearchContext<'_>, results: &[Evaluated]) -> Observation;
}

/// Configuration of the [`SearchDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct DriverConfig {
    /// Global stopping criteria, enforced between proposals *and* inside a
    /// batch (see the module docs).
    pub limits: SearchLimits,
    /// Seed of the run's single RNG stream.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            limits: SearchLimits::unlimited(),
            seed: 0,
        }
    }
}

/// The unified search engine: owns the loop every metaheuristic shares.
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Cnf, Lit, Var};
/// use pdsat_core::{
///     Annealing, AnnealingConfig, CostMetric, DriverConfig, Evaluator, EvaluatorConfig,
///     SearchDriver, SearchLimits, SearchSpace,
/// };
///
/// // A tiny chain formula.
/// let mut cnf = Cnf::new(4);
/// for i in 0..3u32 {
///     cnf.add_clause([Lit::negative(Var::new(i)), Lit::positive(Var::new(i + 1))]);
/// }
/// let space = SearchSpace::new((0..4).map(Var::new));
/// let mut evaluator = Evaluator::new(
///     &cnf,
///     EvaluatorConfig { sample_size: 4, cost: CostMetric::Propagations, ..Default::default() },
/// );
/// let driver = SearchDriver::new(DriverConfig {
///     limits: SearchLimits::unlimited().with_max_points(10),
///     seed: 1,
/// });
/// let mut strategy = Annealing::new(&AnnealingConfig::default());
/// let outcome = driver.run(&space, &space.full_point(), &mut strategy, &mut evaluator);
/// assert!(outcome.points_evaluated <= 10);
/// assert!(outcome.best_value.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct SearchDriver {
    config: DriverConfig,
}

impl SearchDriver {
    /// Creates a driver with the given configuration.
    #[must_use]
    pub fn new(config: DriverConfig) -> SearchDriver {
        SearchDriver { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// Runs `strategy` from `start` over `space`, evaluating the predictive
    /// function with `evaluator`.
    ///
    /// The evaluator should be long-lived (ideally shared with other
    /// searches over the same instance): it owns the oracle's persistent
    /// worker pool, so every batch reuses the same resident backends, and
    /// its memoized point cache answers points another search already paid
    /// for.
    ///
    /// # Panics
    ///
    /// Panics if `start` has a different dimension than `space`, or if the
    /// strategy proposes an empty batch or returns misaligned acceptance
    /// flags.
    pub fn run<S: Strategy + ?Sized>(
        &self,
        space: &SearchSpace,
        start: &Point,
        strategy: &mut S,
        evaluator: &mut Evaluator,
    ) -> SearchOutcome {
        assert_eq!(
            start.dimension(),
            space.dimension(),
            "start point must live in the search space"
        );
        let limits = &self.config.limits;
        let begin = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut history: Vec<SearchStep> = Vec::new();

        let mut values: HashMap<Point, f64> = HashMap::new();
        let mut best_point = start.clone();
        let mut best_value = f64::INFINITY;

        let start_results =
            evaluate_points(space, evaluator, &mut values, std::slice::from_ref(start));
        let start_eval = &start_results[0];
        {
            let is_best = start_eval.value < best_value;
            if is_best {
                best_value = start_eval.value;
                best_point = start.clone();
            }
            history.push(SearchStep {
                index: 0,
                point: start.clone(),
                set_size: start.ones(),
                value: start_eval.value,
                accepted: true,
                is_best,
                elapsed: begin.elapsed(),
            });
        }
        {
            let mut ctx = SearchContext {
                space,
                rng: &mut rng,
                values: &values,
                best_point: &best_point,
                best_value,
                evaluator,
            };
            strategy.initialize(&mut ctx, start_eval);
        }

        let stop = loop {
            if limits.exceeded(history.len()) {
                break StopCondition::PointLimit;
            }

            let proposal = {
                let mut ctx = SearchContext {
                    space,
                    rng: &mut rng,
                    values: &values,
                    best_point: &best_point,
                    best_value,
                    evaluator,
                };
                strategy.propose(&mut ctx)
            };
            let mut points = match proposal {
                Proposal::Stop(condition) => break condition,
                Proposal::Evaluate(points) => points,
            };
            assert!(!points.is_empty(), "strategy proposed an empty batch");

            // Dedup inside the proposal (first occurrence wins).
            if points.len() > 1 {
                let mut seen = std::collections::HashSet::with_capacity(points.len());
                points.retain(|p| seen.insert(p.clone()));
            }

            // Partial-batch truncation: the point budget is enforced inside
            // the batch, not only between proposals.
            // A truncated batch fills the budget, so the next limits check
            // stops the run.
            if let Some(budget) = limits.point_budget(history.len()) {
                points.truncate(budget);
            }

            let results = evaluate_points(space, evaluator, &mut values, &points);

            let observation = {
                let mut ctx = SearchContext {
                    space,
                    rng: &mut rng,
                    values: &values,
                    best_point: &best_point,
                    best_value,
                    evaluator,
                };
                strategy.observe(&mut ctx, &results)
            };
            assert_eq!(
                observation.accepted.len(),
                results.len(),
                "strategy returned misaligned acceptance flags"
            );

            for (evaluated, &accepted) in results.iter().zip(&observation.accepted) {
                let is_best = evaluated.value < best_value;
                if is_best {
                    best_value = evaluated.value;
                    best_point = evaluated.point.clone();
                }
                history.push(SearchStep {
                    index: history.len(),
                    point: evaluated.point.clone(),
                    set_size: evaluated.point.ones(),
                    value: evaluated.value,
                    accepted,
                    is_best,
                    elapsed: begin.elapsed(),
                });
            }

            // Strategy-level stops fire before the next limits check (the
            // pseudocode's ordering).
            if let Some(condition) = observation.stop {
                break condition;
            }
        };

        let best_set = space.decomposition_set(&best_point);
        SearchOutcome {
            best_point,
            best_set,
            best_value,
            points_evaluated: history.len(),
            history,
            wall_time: begin.elapsed(),
            stop_condition: stop,
        }
    }
}

/// Resolves `points` to values: memo hits are free, misses are lowered into
/// one batched oracle call via [`Evaluator::evaluate_batch_memoized`].
fn evaluate_points(
    space: &SearchSpace,
    evaluator: &mut Evaluator,
    values: &mut HashMap<Point, f64>,
    points: &[Point],
) -> Vec<Evaluated> {
    // `points` is already duplicate-free (the driver dedups every proposal),
    // so a memo lookup is the only filter needed.
    let mut miss_points: Vec<Point> = Vec::new();
    let mut miss_sets = Vec::new();
    for point in points {
        if !values.contains_key(point) {
            miss_points.push(point.clone());
            miss_sets.push(space.decomposition_set(point));
        }
    }
    if !miss_sets.is_empty() {
        let evaluations = evaluator.evaluate_batch_memoized(&miss_sets);
        for (point, evaluation) in miss_points.into_iter().zip(&evaluations) {
            values.insert(point, evaluation.value());
        }
    }
    points
        .iter()
        .map(|point| Evaluated {
            point: point.clone(),
            value: values[point],
        })
        .collect()
}
