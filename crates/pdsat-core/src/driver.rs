//! The unified metaheuristic search engine (§3 of the paper).
//!
//! PDSAT minimizes the predictive function `F` with several metaheuristics
//! that share everything except the move rule: they all walk points of a
//! [`SearchSpace`], pay `N` sub-problem solves per new point, keep the best
//! pair `⟨χ_best, F_best⟩`, and stop on the same global limits. The seed
//! reproduction duplicated that shared loop in `SimulatedAnnealing` and
//! `TabuSearch`; this module owns it once:
//!
//! * [`SearchDriver`] runs the loop — limit enforcement, best-pair tracking,
//!   the single RNG stream, the memo of visited points and the trajectory
//!   trace.
//! * [`Strategy`] is the move rule: `propose` returns the next point to
//!   evaluate, `observe` digests its value and updates the strategy's
//!   internal state.
//!
//! A search step is one point, as in Algorithms 1–2: the driver checks the
//! point limit before every `propose`, so a proposed point always fits the
//! budget. A point already visited this run is answered from the driver's
//! memo; a new one goes through [`Evaluator::evaluate_memoized`], whose
//! sample is one `CubeOracle` batch spread over the oracle's worker pool.

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
    /// Evaluate this point.
    Evaluate(Point),
    /// Terminate the search with the given strategy-level stop condition.
    Stop(StopCondition),
}

/// What a strategy concluded from an evaluated point.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Whether the strategy adopted the point (recorded in the trajectory as
    /// [`SearchStep::accepted`]).
    pub accepted: bool,
    /// A stop the strategy wants honored *before* the next limits check —
    /// e.g. annealing's temperature floor right after an accepted move, which
    /// Algorithm 1 reports even when the point budget is exhausted too.
    pub stop: Option<StopCondition>,
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
    /// Values of every point evaluated so far this run (the memo).
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
}

/// A metaheuristic move rule driven by the [`SearchDriver`].
///
/// The driver owns the loop; a strategy only decides *where to go next*
/// ([`propose`](Strategy::propose)) and *what to make of the results*
/// ([`observe`](Strategy::observe)). Implementations: [`Annealing`]
/// (Algorithm 1) and [`Tabu`] (Algorithm 2).
///
/// [`Annealing`]: crate::Annealing
/// [`Tabu`]: crate::Tabu
pub trait Strategy {
    /// Called once per run with the evaluated starting point, before the
    /// first `propose`. Implementations must fully reset their internal
    /// state here: a strategy instance handed to several `run` calls behaves
    /// like a freshly constructed one on each.
    fn initialize(&mut self, ctx: &mut SearchContext<'_>, start: &Evaluated);

    /// The next point to evaluate, or a stop condition.
    fn propose(&mut self, ctx: &mut SearchContext<'_>) -> Proposal;

    /// Digest the evaluated point of the last proposal. `ctx.values` already
    /// contains it; `ctx.best_value` is still the best *before* it.
    fn observe(&mut self, ctx: &mut SearchContext<'_>, evaluated: &Evaluated) -> Observation;
}

/// Configuration of the [`SearchDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct DriverConfig {
    /// Global stopping criteria, checked before every proposal.
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
///     Annealing, CostMetric, DriverConfig, Evaluator, EvaluatorConfig, SearchDriver,
///     SearchLimits, SearchSpace,
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
/// let mut strategy = Annealing::new();
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

    /// Runs `strategy` from `start` over `space`, evaluating the predictive
    /// function with `evaluator`.
    ///
    /// The evaluator should be long-lived (ideally shared with other
    /// searches over the same instance): it owns the oracle's persistent
    /// worker pool, so every point's sample reuses the same resident
    /// backends, and its memoized point cache answers points another search
    /// already paid for.
    ///
    /// # Panics
    ///
    /// Panics if `start` has a different dimension than `space`.
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

        let start_eval = evaluate_point(space, evaluator, &mut values, start.clone());
        let is_best = start_eval.value < best_value;
        if is_best {
            best_value = start_eval.value;
            best_point = start.clone();
        }
        history.push(SearchStep {
            index: 0,
            point: start.clone(),
            value: start_eval.value,
            accepted: true,
            is_best,
        });
        {
            let mut ctx = SearchContext {
                space,
                rng: &mut rng,
                values: &values,
                best_point: &best_point,
                best_value,
                evaluator,
            };
            strategy.initialize(&mut ctx, &start_eval);
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
            let point = match proposal {
                Proposal::Stop(condition) => break condition,
                Proposal::Evaluate(point) => point,
            };

            let evaluated = evaluate_point(space, evaluator, &mut values, point);

            let observation = {
                let mut ctx = SearchContext {
                    space,
                    rng: &mut rng,
                    values: &values,
                    best_point: &best_point,
                    best_value,
                    evaluator,
                };
                strategy.observe(&mut ctx, &evaluated)
            };

            let is_best = evaluated.value < best_value;
            if is_best {
                best_value = evaluated.value;
                best_point = evaluated.point.clone();
            }
            history.push(SearchStep {
                index: history.len(),
                point: evaluated.point,
                value: evaluated.value,
                accepted: observation.accepted,
                is_best,
            });

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

/// Resolves `point` to its value: a point visited this run is answered from
/// the run's memo, a new one through [`Evaluator::evaluate_memoized`].
fn evaluate_point(
    space: &SearchSpace,
    evaluator: &mut Evaluator,
    values: &mut HashMap<Point, f64>,
    point: Point,
) -> Evaluated {
    let value = match values.get(&point) {
        Some(&value) => value,
        None => {
            let value = evaluator
                .evaluate_memoized(&space.decomposition_set(&point))
                .value();
            values.insert(point.clone(), value);
            value
        }
    };
    Evaluated { point, value }
}
