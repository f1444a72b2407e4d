//! The predictive function `F_{C,A}(X̃)` (eq. (5) of the paper) and its
//! evaluator.

mod cache;

use crate::oracle::{BackendKind, BatchConfig, BatchResult, CubeOracle, VerdictSummary};
use crate::{CostMetric, DecompositionSet, PredictiveEstimate};
use cache::PointCache;
use pdsat_cnf::{Assignment, Cnf, Cube, Var};
use pdsat_solver::{Budget, InterruptFlag, SolverConfig};
use rand::SeedableRng;
use std::ops::Range;
use std::time::Duration;

/// Configuration of the predictive-function evaluator.
#[derive(Debug, Clone)]
pub struct EvaluatorConfig {
    /// Sample size `N` (the paper uses 10⁴ for A5/1 and 10⁵ for
    /// Bivium/Grain; scaled-down experiments use much smaller values).
    pub sample_size: usize,
    /// Cost metric recorded per sampled sub-problem.
    pub cost: CostMetric,
    /// Resource budget per sampled sub-problem (unlimited by default; a
    /// per-cube budget is useful early in the search when very bad points
    /// would otherwise dominate the running time).
    pub per_cube_budget: Budget,
    /// Solver configuration (the deterministic algorithm `A`).
    pub solver_config: SolverConfig,
    /// Number of worker threads used to process a sample.
    pub num_workers: usize,
    /// Base random seed; together with the evaluation counter it determines
    /// the random sample drawn for each point.
    pub seed: u64,
    /// Which backend solves the sampled cubes.
    /// [`BackendKind::Fresh`] by default: a fresh solver per sampled cube
    /// keeps the observations `ζ_j` identically distributed, which is what
    /// the Monte Carlo argument of the paper assumes.
    /// [`BackendKind::Warm`] trades a small bias for a large speed-up (the
    /// benchmark suite quantifies the difference).
    pub backend: BackendKind,
}

impl Default for EvaluatorConfig {
    fn default() -> Self {
        EvaluatorConfig {
            sample_size: 100,
            cost: CostMetric::default(),
            per_cube_budget: Budget::unlimited(),
            solver_config: SolverConfig::default(),
            num_workers: 1,
            seed: 0,
            backend: BackendKind::Fresh,
        }
    }
}

/// Counts of sub-problem verdicts inside one sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleVerdicts {
    /// Satisfiable sub-problems.
    pub sat: usize,
    /// Unsatisfiable sub-problems.
    pub unsat: usize,
    /// Undecided sub-problems (per-cube budget exhausted).
    pub unknown: usize,
}

/// The result of evaluating the predictive function at one point of the
/// search space.
#[derive(Debug, Clone)]
pub struct PointEvaluation {
    /// The decomposition set that was evaluated.
    pub set: DecompositionSet,
    /// The Monte Carlo estimate, including `F` itself
    /// ([`PredictiveEstimate::value`]).
    pub estimate: PredictiveEstimate,
    /// Raw per-sub-problem costs `ζ_1 … ζ_N`.
    pub observations: Vec<f64>,
    /// Verdict counts over the sample.
    pub verdicts: SampleVerdicts,
    /// A model found incidentally (some sampled sub-problem was satisfiable).
    pub model: Option<Assignment>,
    /// Wall-clock time spent evaluating this point.
    pub wall_time: Duration,
}

impl PointEvaluation {
    /// The predictive function value `F_{C,A}(X̃)`.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.estimate.value
    }
}

/// Evaluator of the predictive function for a fixed SAT instance.
///
/// The evaluator is a [`CubeOracle`] client: every sampled sub-problem goes
/// through the oracle's worker pool and configured backend — the pool's
/// backends are created once when the evaluator is built and survive
/// across every point evaluation, so with
/// [`BackendKind::Warm`] the learnt clauses and VSIDS state accumulated at
/// one search-space point keep paying off at the next. It accumulates
/// per-variable conflict activity over everything it solves (the tabu search
/// uses that activity to pick new neighbourhood centres, §3 of the paper) and
/// memoizes completed evaluations behind
/// [`evaluate_memoized`](Evaluator::evaluate_memoized), so independent
/// searches over the same instance never re-pay for a revisited point.
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Cnf, Lit, Var};
/// use pdsat_core::{CostMetric, DecompositionSet, Evaluator, EvaluatorConfig};
///
/// // A tiny chain formula.
/// let mut cnf = Cnf::new(4);
/// for i in 0..3u32 {
///     cnf.add_clause([Lit::negative(Var::new(i)), Lit::positive(Var::new(i + 1))]);
/// }
/// let config = EvaluatorConfig {
///     sample_size: 8,
///     cost: CostMetric::Propagations,
///     ..EvaluatorConfig::default()
/// };
/// let mut evaluator = Evaluator::new(&cnf, config);
/// let set = DecompositionSet::new([Var::new(0), Var::new(1)]);
/// let eval = evaluator.evaluate(&set);
/// assert_eq!(eval.observations.len(), 8);
/// assert!(eval.value() >= 0.0);
/// ```
#[derive(Debug)]
pub struct Evaluator {
    oracle: CubeOracle,
    point_cache: PointCache,
    config: EvaluatorConfig,
    evaluations: u64,
    conflict_activity: Vec<u64>,
    total_solve_wall: Duration,
}

impl Evaluator {
    /// Creates an evaluator for the given formula.
    #[must_use]
    pub fn new(cnf: &Cnf, config: EvaluatorConfig) -> Evaluator {
        let num_vars = cnf.num_vars();
        let batch_config = BatchConfig {
            solver_config: config.solver_config.clone(),
            budget: config.per_cube_budget.clone(),
            cost: config.cost,
            num_workers: config.num_workers,
            stop_on_sat: false,
            backend: config.backend,
            ..BatchConfig::default()
        };
        Evaluator {
            oracle: CubeOracle::new(cnf, batch_config),
            point_cache: PointCache::new(),
            config,
            evaluations: 0,
            conflict_activity: vec![0; num_vars],
            total_solve_wall: Duration::ZERO,
        }
    }

    /// The formula being analysed.
    #[must_use]
    pub fn cnf(&self) -> &Cnf {
        self.oracle.cnf()
    }

    /// The evaluator configuration.
    #[must_use]
    pub fn config(&self) -> &EvaluatorConfig {
        &self.config
    }

    /// The oracle every sampled sub-problem routes through.
    #[must_use]
    pub fn oracle(&self) -> &CubeOracle {
        &self.oracle
    }

    /// Number of points actually evaluated so far (cache hits from
    /// [`evaluate_memoized`](Evaluator::evaluate_memoized) do not count).
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Number of point lookups answered from the memoized cache.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.point_cache.hits()
    }

    /// Number of sub-problems solved so far.
    #[must_use]
    pub fn cubes_solved(&self) -> u64 {
        self.oracle.cubes_solved()
    }

    /// Total wall-clock time spent solving sub-problems.
    #[must_use]
    pub fn total_solve_wall(&self) -> Duration {
        self.total_solve_wall
    }

    /// Accumulated per-variable conflict participation over every
    /// sub-problem solved by this evaluator.
    #[must_use]
    pub fn conflict_activity(&self) -> &[u64] {
        &self.conflict_activity
    }

    /// Total accumulated conflict activity of the variables of `set` — the
    /// quantity maximized by the tabu heuristic `getNewCenter`.
    #[must_use]
    pub fn activity_of_set(&self, set: &DecompositionSet) -> u64 {
        set.vars()
            .iter()
            .map(|v| self.conflict_activity.get(v.index()).copied().unwrap_or(0))
            .sum()
    }

    /// Evaluates the predictive function at `set` using a fresh random sample
    /// of `N = config.sample_size` cubes:
    /// [`evaluate_batch`](Self::evaluate_batch) over the one set.
    pub fn evaluate(&mut self, set: &DecompositionSet) -> PointEvaluation {
        self.evaluate_batch(std::slice::from_ref(set))
            .pop()
            .expect("one evaluation per set")
    }

    /// Evaluates `set` through the memoizing point cache: a point
    /// that any search sharing this evaluator has already paid for is
    /// answered instantly with the stored evaluation
    /// ([`evaluate_batch_memoized`](Self::evaluate_batch_memoized) over the
    /// one set).
    ///
    /// The metaheuristics use this entry point. [`evaluate`](Self::evaluate)
    /// and the exhaustive cross-check bypass the cache on purpose (they are
    /// asked for a *fresh* measurement) and do not populate it, so sampled
    /// and exhaustive values are never conflated.
    pub fn evaluate_memoized(&mut self, set: &DecompositionSet) -> PointEvaluation {
        self.evaluate_batch_memoized(std::slice::from_ref(set))
            .pop()
            .expect("one evaluation per set")
    }

    /// Evaluates the predictive function at `set` on a caller-provided sample
    /// (used by tests, by the exhaustive cross-check and by ablations that
    /// reuse one sample across configurations). The cubes are solved in the
    /// order given.
    pub fn evaluate_with_sample(
        &mut self,
        set: &DecompositionSet,
        cubes: &[Cube],
        interrupt: Option<&InterruptFlag>,
    ) -> PointEvaluation {
        let batch = self.oracle.solve_batch(cubes, interrupt);

        for (acc, &c) in self
            .conflict_activity
            .iter_mut()
            .zip(&batch.var_conflict_totals)
        {
            *acc += c;
        }
        self.evaluations += 1;
        self.total_solve_wall += batch.wall_time;

        summarize_outcomes(set, &batch, 0..cubes.len(), batch.wall_time)
    }

    /// Evaluates the predictive function at every set of `sets` with fresh
    /// random samples, lowering the whole neighborhood into **one**
    /// [`CubeOracle`] batch: one sample plan per point, concatenated and
    /// dispatched to the oracle's worker pool in a single call.
    ///
    /// Compared to a per-point loop over [`evaluate`](Self::evaluate), the
    /// batched path pays the oracle's per-batch costs (dispatch, the
    /// `num_vars`-sized conflict accumulator, stats merging) once instead of
    /// once per point, and lets the pool's sticky-striped workers run the
    /// whole neighborhood without idling between points. With the
    /// deterministic [`BackendKind::Fresh`](crate::BackendKind::Fresh)
    /// backend the returned values are bit-identical to the sequential loop
    /// (each point draws the same per-evaluation sample, reported in the
    /// order drawn); a warm backend may legitimately report different *costs*
    /// because its learnt-clause state now flows across the whole batch. For
    /// a warm backend each point's sample is solved — and reported — sorted,
    /// so consecutive cubes share the longest assumption prefixes and the
    /// solver's trail reuse skips most of the per-cube replay; points are
    /// never interleaved (a warm solver's learnt-clause locality follows the
    /// set).
    pub fn evaluate_batch(&mut self, sets: &[DecompositionSet]) -> Vec<PointEvaluation> {
        if sets.is_empty() {
            return Vec::new();
        }
        // One sample plan per point. The per-evaluation RNG makes repeated
        // runs of a whole search reproducible while different points get
        // independent samples: point k of the batch draws exactly the sample
        // it would draw as the k-th single-set call.
        let mut plan: Vec<Cube> = Vec::with_capacity(sets.len() * self.config.sample_size);
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(sets.len());
        for (k, set) in sets.iter().enumerate() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                self.config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(self.evaluations + k as u64),
            );
            let mut cubes = set.random_sample(self.config.sample_size, &mut rng);
            if self.config.backend == BackendKind::Warm {
                // Negative literal first, the binary counting order of
                // `DecompositionSet::cubes`. Stable: equal cubes keep the
                // order drawn.
                cubes.sort_by_cached_key(|cube| {
                    let polarities = cube.lits().iter().map(|l| l.is_positive());
                    polarities.collect::<Vec<bool>>()
                });
            }
            let from = plan.len();
            plan.extend(cubes);
            ranges.push(from..plan.len());
        }

        let batch = self.oracle.solve_batch(&plan, None);
        for (acc, &c) in self
            .conflict_activity
            .iter_mut()
            .zip(&batch.var_conflict_totals)
        {
            *acc += c;
        }
        self.evaluations += sets.len() as u64;
        self.total_solve_wall += batch.wall_time;

        // Results sit in plan order, so each point's range of the columns
        // is contiguous. The batch's wall time is apportioned equally
        // (per-point wall clocks are not observable inside one pooled batch).
        let per_point_wall = batch.wall_time / sets.len() as u32;
        ranges
            .into_iter()
            .zip(sets)
            .map(|(range, set)| summarize_outcomes(set, &batch, range, per_point_wall))
            .collect()
    }

    /// The memoized counterpart of [`evaluate_batch`](Self::evaluate_batch):
    /// sets already in the point cache are answered instantly, the
    /// misses (deduplicated) are evaluated in one oracle batch and stored.
    ///
    /// This is the entry point the [`SearchDriver`](crate::SearchDriver)
    /// lowers neighborhood proposals through.
    pub fn evaluate_batch_memoized(&mut self, sets: &[DecompositionSet]) -> Vec<PointEvaluation> {
        // Slot k of `resolved` is either a finished evaluation (cache hit)
        // or the index of the deduplicated miss that will provide it.
        let mut resolved: Vec<Result<PointEvaluation, usize>> = Vec::with_capacity(sets.len());
        let mut miss_sets: Vec<DecompositionSet> = Vec::new();
        let mut miss_index: std::collections::HashMap<Vec<Var>, usize> =
            std::collections::HashMap::new();
        for set in sets {
            if let Some(hit) = self.point_cache.lookup(set.vars()) {
                resolved.push(Ok(hit.clone()));
            } else if let Some(&j) = miss_index.get(set.vars()) {
                resolved.push(Err(j));
            } else {
                miss_index.insert(set.vars().to_vec(), miss_sets.len());
                resolved.push(Err(miss_sets.len()));
                miss_sets.push(set.clone());
            }
        }

        let evaluations = self.evaluate_batch(&miss_sets);
        for evaluation in &evaluations {
            self.point_cache
                .store(evaluation.set.vars().to_vec(), evaluation.clone());
        }
        resolved
            .into_iter()
            .map(|slot| match slot {
                Ok(evaluation) => evaluation,
                Err(j) => evaluations[j].clone(),
            })
            .collect()
    }

    /// Evaluates the *exact* value of `t_{C,A}(X̃)` by enumerating the whole
    /// decomposition family instead of sampling (only feasible for small
    /// sets; used to validate the Monte Carlo estimate).
    ///
    /// # Panics
    ///
    /// Panics if the set has more than 63 variables.
    pub fn evaluate_exhaustively(&mut self, set: &DecompositionSet) -> PointEvaluation {
        let cubes: Vec<Cube> = set.cubes().collect();
        self.evaluate_with_sample(set, &cubes, None)
    }
}

/// Builds a [`PointEvaluation`] from one point's range of a batch's columns
/// (shared by the sequential and batched evaluation paths). The evaluator
/// never sets `stop_on_sat`, so every cube of the range is solved.
fn summarize_outcomes(
    set: &DecompositionSet,
    batch: &BatchResult,
    range: Range<usize>,
    wall_time: Duration,
) -> PointEvaluation {
    let observations = batch.costs[range.clone()].to_vec();
    let estimate = PredictiveEstimate::from_observations(set.len(), &observations);
    let mut verdicts = SampleVerdicts::default();
    for verdict in batch.verdicts[range.clone()].iter().flatten() {
        match verdict {
            VerdictSummary::Sat => verdicts.sat += 1,
            VerdictSummary::Unsat => verdicts.unsat += 1,
            VerdictSummary::Unknown => verdicts.unknown += 1,
        }
    }
    // The point's first model, if it has one: a neighbourhood batch of an
    // easy formula can carry a model per cube, so the list is searched, not
    // scanned from its start.
    let first = batch
        .models
        .partition_point(|&(index, _)| index < range.start);
    let model = batch.models[first..]
        .first()
        .filter(|&&(index, _)| index < range.end)
        .map(|(_, model)| model.clone());
    PointEvaluation {
        set: set.clone(),
        estimate,
        observations,
        verdicts,
        model,
        wall_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsat_cnf::Lit;

    fn conflicts_config(n: usize) -> EvaluatorConfig {
        EvaluatorConfig {
            sample_size: n,
            cost: CostMetric::Conflicts,
            ..EvaluatorConfig::default()
        }
    }

    #[test]
    fn exhaustive_evaluation_equals_true_total() {
        // With the whole family as the sample, F equals the exact total cost:
        // 2^d · (1/2^d) Σ ζ = Σ ζ.
        let cnf = Cnf::pigeonhole(5);
        let mut evaluator = Evaluator::new(&cnf, conflicts_config(0));
        let set = DecompositionSet::new((0..4).map(Var::new));
        let eval = evaluator.evaluate_exhaustively(&set);
        assert_eq!(eval.observations.len(), 16);
        let total: f64 = eval.observations.iter().sum();
        assert!((eval.value() - total).abs() < 1e-9);
        assert_eq!(eval.verdicts.sat, 0);
        assert_eq!(eval.verdicts.unsat, 16);
    }

    #[test]
    fn sampled_estimate_is_close_to_exhaustive_value_for_uniform_costs() {
        let cnf = Cnf::pigeonhole(5);
        let set = DecompositionSet::new((0..4).map(Var::new));
        let mut evaluator = Evaluator::new(&cnf, conflicts_config(64));
        let sampled = evaluator.evaluate(&set);
        let exact = evaluator.evaluate_exhaustively(&set);
        // The sample is 4× the family size (with replacement), so the
        // estimate should be within a factor of 2 of the truth for this
        // well-behaved distribution.
        assert!(sampled.value() > 0.0);
        assert!(sampled.value() < 2.0 * exact.value() + 1e-9);
        assert!(sampled.value() > 0.25 * exact.value());
    }

    #[test]
    fn evaluation_counters_and_activity_accumulate() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..3).map(Var::new));
        let mut evaluator = Evaluator::new(&cnf, conflicts_config(8));
        assert_eq!(evaluator.evaluations(), 0);
        let _ = evaluator.evaluate(&set);
        let _ = evaluator.evaluate(&set);
        assert_eq!(evaluator.evaluations(), 2);
        assert_eq!(evaluator.cubes_solved(), 16);
        assert!(
            evaluator.activity_of_set(&set) <= evaluator.conflict_activity().iter().sum::<u64>()
        );
        assert!(evaluator.conflict_activity().iter().any(|&c| c > 0));
    }

    #[test]
    fn memoized_evaluation_pays_only_once_per_point() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..3).map(Var::new));
        let mut evaluator = Evaluator::new(&cnf, conflicts_config(8));
        let first = evaluator.evaluate_memoized(&set);
        let cubes_after_first = evaluator.cubes_solved();
        let second = evaluator.evaluate_memoized(&set);
        // The second call is a cache hit: no new evaluation, no new cubes,
        // bit-identical result.
        assert_eq!(evaluator.evaluations(), 1);
        assert_eq!(evaluator.cubes_solved(), cubes_after_first);
        assert_eq!(evaluator.cache_hits(), 1);
        assert_eq!(first.value(), second.value());
        assert_eq!(first.observations, second.observations);
        // A different point is a miss and gets evaluated.
        let other = DecompositionSet::new((0..2).map(Var::new));
        let _ = evaluator.evaluate_memoized(&other);
        assert_eq!(evaluator.evaluations(), 2);
    }

    #[test]
    fn plain_evaluate_bypasses_the_cache() {
        let cnf = Cnf::pigeonhole(4);
        let set = DecompositionSet::new((0..3).map(Var::new));
        let mut evaluator = Evaluator::new(&cnf, conflicts_config(4));
        let _ = evaluator.evaluate(&set);
        let _ = evaluator.evaluate(&set);
        // Both calls really evaluated (fresh samples each time).
        assert_eq!(evaluator.evaluations(), 2);
        assert_eq!(evaluator.cache_hits(), 0);
    }

    #[test]
    fn satisfiable_instances_produce_models() {
        // Chain formula: every cube is satisfiable.
        let mut cnf = Cnf::new(5);
        for i in 0..4u32 {
            cnf.add_clause([Lit::negative(Var::new(i)), Lit::positive(Var::new(i + 1))]);
        }
        let set = DecompositionSet::new([Var::new(0), Var::new(4)]);
        let mut evaluator = Evaluator::new(&cnf, conflicts_config(6));
        let eval = evaluator.evaluate(&set);
        // The chain makes the cube (x0=1, x4=0) unsatisfiable; all other
        // cubes are satisfiable, so a random sample of 6 contains SAT and
        // possibly UNSAT observations but never Unknown ones.
        assert!(eval.verdicts.sat >= 1);
        assert_eq!(eval.verdicts.sat + eval.verdicts.unsat, 6);
        assert_eq!(eval.verdicts.unknown, 0);
        let model = eval.model.expect("some model is kept");
        assert!(cnf.is_satisfied_by(&model));
    }

    #[test]
    fn each_point_of_a_batch_keeps_the_first_model_of_its_own_range() {
        use VerdictSummary::{Sat, Unsat};
        let verdicts = [Unsat, Sat, Unsat, Unsat, Sat, Sat];
        let model_at = |index: usize| (index, Assignment::from_bools(&[index == 1]));
        let batch = BatchResult {
            costs: vec![1.0; 6],
            verdicts: verdicts.map(Some).to_vec(),
            models: vec![model_at(1), model_at(4), model_at(5)],
            proofs: Vec::new(),
            var_conflict_totals: Vec::new(),
            solver_stats: Default::default(),
            wall_time: Duration::ZERO,
        };
        let set = DecompositionSet::new([Var::new(0)]);
        for (range, sat, first) in [(0..2, 1, Some(1)), (2..4, 0, None), (4..6, 2, Some(4))] {
            let point = summarize_outcomes(&set, &batch, range.clone(), Duration::ZERO);
            assert_eq!(point.observations.len(), 2);
            assert_eq!(point.verdicts.sat, sat, "{range:?}");
            assert_eq!(
                point.model,
                first.map(|index| model_at(index).1),
                "{range:?}"
            );
        }
    }

    #[test]
    fn larger_sets_scale_the_estimate_by_two_to_the_d() {
        // For a formula where every cube costs essentially the same, doubling
        // the set size roughly doubles F (2^{d+1}·mean vs 2^d·mean).
        let cnf = Cnf::pigeonhole(5);
        let mut evaluator = Evaluator::new(&cnf, conflicts_config(32));
        let small = DecompositionSet::new((0..2).map(Var::new));
        let large = DecompositionSet::new((0..6).map(Var::new));
        let f_small = evaluator.evaluate_exhaustively(&small).value();
        let f_large = evaluator.evaluate(&large).value();
        // Not exact (harder cubes get cheaper), but the scale factor must be
        // visible: F(large) should exceed F(small).
        assert!(
            f_large > f_small * 0.5,
            "f_large={f_large} f_small={f_small}"
        );
    }

    #[test]
    fn same_seed_gives_identical_estimates() {
        let cnf = Cnf::pigeonhole(5);
        let set = DecompositionSet::new((0..4).map(Var::new));
        let run = || {
            let mut evaluator = Evaluator::new(&cnf, conflicts_config(16));
            evaluator.evaluate(&set).value()
        };
        assert_eq!(run(), run());
    }
}
