//! Driver-level integration tests: fixed-seed trajectories pinned against
//! the pre-refactor `SimulatedAnnealing::minimize` / `TabuSearch::minimize`
//! implementations, batched-vs-sequential evaluation parity, in-batch limit
//! enforcement, and reuse of strategy instances and of evaluators across
//! runs.

use pdsat_cnf::{Cnf, Var};
use pdsat_core::{
    Annealing, AnnealingConfig, CostMetric, DriverConfig, Evaluator, EvaluatorConfig,
    RandomRestart, RandomRestartConfig, SearchDriver, SearchLimits, SearchOutcome, SearchSpace,
    StopCondition, Strategy, Tabu, TabuConfig,
};
use std::time::Duration;

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

fn driver(limits: SearchLimits, seed: u64) -> SearchDriver {
    SearchDriver::new(DriverConfig { limits, seed })
}

/// `(point, value, accepted, is_best)` per step.
type GoldenStep = (&'static str, f64, bool, bool);

/// `(point, value bits, accepted, is_best)` per step: equal trajectories are
/// bit-identical.
type Step = (String, u64, bool, bool);

fn trajectory(outcome: &SearchOutcome) -> Vec<Step> {
    outcome
        .history
        .iter()
        .map(|s| {
            (
                s.point.to_string(),
                s.value.to_bits(),
                s.accepted,
                s.is_best,
            )
        })
        .collect()
}

fn assert_trajectory(outcome: &SearchOutcome, golden: &[GoldenStep]) {
    assert_eq!(
        outcome.history.len(),
        golden.len(),
        "trajectory length diverged from the pre-refactor implementation"
    );
    for (step, &(point, value, accepted, is_best)) in outcome.history.iter().zip(golden) {
        assert_eq!(step.point.to_string(), point, "step {}", step.index);
        assert_eq!(step.value, value, "step {} value", step.index);
        assert_eq!(step.accepted, accepted, "step {} accepted", step.index);
        assert_eq!(step.is_best, is_best, "step {} is_best", step.index);
    }
}

/// Golden trajectory captured from the pre-refactor
/// `SimulatedAnnealing::minimize` (seed 7, max 20 points, 6-dim space over
/// Cnf::pigeonhole(5), sample 8, conflicts metric). The driver must reproduce it
/// bit-for-bit: same points in the same order, same `F` values, same
/// accepted/is_best flags, same stop condition.
const GOLDEN_ANNEAL: &[GoldenStep] = &[
    ("111111", 80.0, true, true),
    ("011111", 60.0, true, true),
    ("011110", 22.0, true, true),
    ("011010", 38.0, false, false),
    ("111110", 48.0, false, false),
    ("010110", 38.0, true, false),
    ("010100", 33.5, true, false),
    ("010101", 29.999999999999996, true, false),
    ("010001", 42.0, false, false),
    ("000101", 38.0, false, false),
    ("110101", 26.0, true, false),
    ("110111", 36.0, true, false),
    ("110011", 40.0, true, false),
    ("111011", 28.0, true, false),
    ("101011", 44.0, false, false),
    ("011011", 28.000000000000004, true, false),
    ("001011", 30.0, true, false),
    ("001010", 44.0, false, false),
    ("000011", 37.5, true, false),
    ("000111", 12.0, true, true),
];

/// Golden trajectory captured from the pre-refactor `TabuSearch::minimize`
/// (seed 77, max 25 points, same fixture).
const GOLDEN_TABU: &[GoldenStep] = &[
    ("111111", 80.0, true, true),
    ("111110", 44.0, true, true),
    ("011111", 52.0, false, false),
    ("111011", 32.0, true, true),
    ("101111", 48.0, false, false),
    ("110111", 64.0, false, false),
    ("111101", 56.0, false, false),
    ("011011", 26.0, true, true),
    ("111010", 44.0, false, false),
    ("110011", 26.000000000000004, false, false),
    ("101011", 34.0, false, false),
    ("111001", 24.0, true, true),
    ("111000", 36.0, false, false),
    ("101001", 38.0, false, false),
    ("110001", 45.0, false, false),
    ("011001", 20.999999999999996, true, true),
    ("011000", 36.0, false, false),
    ("001001", 44.0, false, false),
    ("011101", 38.0, false, false),
    ("010001", 21.0, false, false),
    ("010111", 62.00000000000001, false, false),
    ("001111", 28.0, false, false),
    ("011110", 48.0, false, false),
    ("101110", 44.0, false, false),
    ("100111", 28.0, false, false),
];

#[test]
fn annealing_through_the_driver_matches_the_pre_refactor_trajectory() {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));
    let mut eval = evaluator(&cnf, 8);
    let mut strategy = Annealing::new(&AnnealingConfig::default());
    let outcome = driver(SearchLimits::unlimited().with_max_points(20), 7).run(
        &space,
        &space.full_point(),
        &mut strategy,
        &mut eval,
    );
    assert_trajectory(&outcome, GOLDEN_ANNEAL);
    assert_eq!(outcome.stop_condition, StopCondition::PointLimit);
    assert_eq!(outcome.best_value, 12.0);
}

#[test]
fn tabu_through_the_driver_matches_the_pre_refactor_trajectory() {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));
    let mut eval = evaluator(&cnf, 8);
    let mut strategy = Tabu::new(&TabuConfig::default());
    let outcome = driver(SearchLimits::unlimited().with_max_points(25), 77).run(
        &space,
        &space.full_point(),
        &mut strategy,
        &mut eval,
    );
    assert_trajectory(&outcome, GOLDEN_TABU);
    assert_eq!(outcome.stop_condition, StopCondition::PointLimit);
    assert_eq!(outcome.best_value, 20.999999999999996);
}

#[test]
fn edge_case_stop_conditions_match_the_pre_refactor_loops() {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..3).map(Var::new));

    // Tabu exhausts the 2^3 space exactly as before (8 distinct points, then
    // SpaceExhausted), in the pre-refactor visiting order.
    let mut eval = evaluator(&cnf, 4);
    let mut tabu = Tabu::new(&TabuConfig::default());
    let outcome =
        driver(SearchLimits::unlimited(), 1).run(&space, &space.full_point(), &mut tabu, &mut eval);
    let visited: Vec<String> = outcome
        .history
        .iter()
        .map(|s| s.point.to_string())
        .collect();
    assert_eq!(
        visited,
        ["111", "101", "011", "110", "010", "001", "100", "000"]
    );
    assert_eq!(outcome.stop_condition, StopCondition::SpaceExhausted);

    // Annealing with an aggressive schedule hits the temperature floor after
    // the same two evaluations the old loop performed.
    let mut eval = evaluator(&cnf, 4);
    let mut annealing = Annealing::new(&AnnealingConfig {
        initial_temperature: 1.0,
        cooling_factor: 0.1,
        min_temperature: 0.5,
        ..AnnealingConfig::default()
    });
    let outcome = driver(SearchLimits::unlimited(), 1).run(
        &space,
        &space.full_point(),
        &mut annealing,
        &mut eval,
    );
    assert_eq!(outcome.stop_condition, StopCondition::TemperatureFloor);
    assert_eq!(outcome.points_evaluated, 2);
    assert_eq!(outcome.history[0].point.to_string(), "111");
    assert_eq!(outcome.history[1].point.to_string(), "101");
}

#[test]
fn batched_evaluation_matches_the_sequential_loop_on_a_fresh_backend() {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..8).map(Var::new));
    let center = space.full_point();
    let sets: Vec<_> = space
        .neighborhood(&center, 1)
        .iter()
        .map(|p| space.decomposition_set(p))
        .collect();

    // Sequential: one oracle batch per point.
    let mut seq = evaluator(&cnf, 8);
    let seq_evals: Vec<_> = sets.iter().map(|s| seq.evaluate(s)).collect();

    // Batched: the whole radius-1 neighborhood in one oracle batch.
    let mut bat = evaluator(&cnf, 8);
    let bat_evals = bat.evaluate_batch(&sets);

    assert_eq!(seq_evals.len(), bat_evals.len());
    for (a, b) in seq_evals.iter().zip(&bat_evals) {
        assert_eq!(a.value(), b.value(), "set {:?}", a.set.vars());
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.verdicts, b.verdicts);
    }
    // Same totals, radically different batch counts.
    assert_eq!(seq.evaluations(), bat.evaluations());
    assert_eq!(seq.cubes_solved(), bat.cubes_solved());
    assert_eq!(seq.conflict_activity(), bat.conflict_activity());
    assert_eq!(seq.oracle().batches(), sets.len() as u64);
    assert_eq!(bat.oracle().batches(), 1);
}

#[test]
fn batch_memoization_dedups_inside_and_across_batches() {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..5).map(Var::new));
    let a = space.decomposition_set(&space.full_point());
    let b = space.decomposition_set(&space.point_from_vars([Var::new(0), Var::new(2)]));
    let mut eval = evaluator(&cnf, 8);

    // Duplicates inside one batch are evaluated once.
    let evals = eval.evaluate_batch_memoized(&[a.clone(), b.clone(), a.clone()]);
    assert_eq!(evals.len(), 3);
    assert_eq!(evals[0].value(), evals[2].value());
    assert_eq!(evals[0].observations, evals[2].observations);
    assert_eq!(eval.evaluations(), 2);

    // A later batch re-requesting the same sets is free.
    let again = eval.evaluate_batch_memoized(&[b, a]);
    assert_eq!(eval.evaluations(), 2);
    assert_eq!(again[0].value(), evals[1].value());
    assert_eq!(again[1].value(), evals[0].value());
}

#[test]
fn point_budget_truncates_inside_a_neighborhood_batch() {
    let cnf = Cnf::pigeonhole(5);
    // Dimension 10: the first RandomRestart proposal is the whole radius-1
    // neighborhood (10 points), far larger than the remaining budget.
    let space = SearchSpace::new((0..10).map(Var::new));
    let mut eval = evaluator(&cnf, 4);
    let mut strategy = RandomRestart::new(RandomRestartConfig::default());
    let outcome = driver(SearchLimits::unlimited().with_max_points(4), 9).run(
        &space,
        &space.full_point(),
        &mut strategy,
        &mut eval,
    );
    // Start + exactly 3 of the 10 proposed neighbors: the batch was cut at
    // the budget, not evaluated wholesale.
    assert_eq!(outcome.points_evaluated, 4);
    assert_eq!(outcome.stop_condition, StopCondition::PointLimit);
    assert_eq!(eval.evaluations(), 4);
}

#[test]
fn zero_time_limit_stops_before_any_proposal() {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));
    let mut eval = evaluator(&cnf, 4);
    let mut strategy = RandomRestart::new(RandomRestartConfig::default());
    let outcome = driver(SearchLimits::unlimited().with_time_limit(Duration::ZERO), 3).run(
        &space,
        &space.full_point(),
        &mut strategy,
        &mut eval,
    );
    // The starting point is always evaluated; the limit fires before the
    // first neighborhood proposal.
    assert_eq!(outcome.points_evaluated, 1);
    assert_eq!(outcome.stop_condition, StopCondition::TimeLimit);
}

#[test]
fn time_sliced_batches_produce_the_same_trajectory() {
    // Dimension 10: every RandomRestart proposal is a whole radius-1
    // neighborhood of 10 points, more than one time slice. With a generous
    // time limit the batch is cut into slices but the limit never fires; the
    // trajectory must be identical to the run without a time limit.
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..10).map(Var::new));
    let run = |limits: SearchLimits| {
        let mut eval = evaluator(&cnf, 4);
        let mut strategy = RandomRestart::new(RandomRestartConfig::default());
        let outcome = driver(limits, 13).run(&space, &space.full_point(), &mut strategy, &mut eval);
        (trajectory(&outcome), eval.oracle().batches())
    };
    let (unsliced, unsliced_batches) = run(SearchLimits::unlimited().with_max_points(25));
    let (sliced, sliced_batches) = run(SearchLimits::unlimited()
        .with_max_points(25)
        .with_time_limit(Duration::from_secs(3600)));
    assert_eq!(unsliced, sliced);
    assert!(
        sliced_batches > unsliced_batches,
        "a 10-point proposal must reach the oracle in more than one slice"
    );
}

#[test]
fn a_second_run_on_the_same_evaluator_is_answered_by_its_point_cache() {
    // The evaluator memoizes every point it paid for, so a repeated search on
    // it reproduces the trajectory bit for bit without solving a cube.
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));
    let mut eval = evaluator(&cnf, 8);
    let d = driver(SearchLimits::unlimited().with_max_points(12), 5);
    let run = |eval: &mut Evaluator| {
        d.run(
            &space,
            &space.full_point(),
            &mut Tabu::new(&TabuConfig::default()),
            eval,
        )
    };
    let first = run(&mut eval);
    let (evaluations, cubes_solved) = (eval.evaluations(), eval.cubes_solved());
    assert_eq!(evaluations as usize, first.points_evaluated);
    let second = run(&mut eval);
    assert_eq!(trajectory(&first), trajectory(&second));
    assert_eq!(first.stop_condition, second.stop_condition);
    assert_eq!(eval.evaluations(), evaluations);
    assert_eq!(eval.cubes_solved(), cubes_solved);
}

/// Asserts that `Strategy::initialize` fully resets an instance: driving
/// the same strategy object through two identical runs (fresh evaluators,
/// same seed) gives the trajectory and stop condition of a freshly built one.
fn assert_reusable<S: Strategy>(
    name: &str,
    max_points: usize,
    seed: u64,
    new_strategy: impl Fn() -> S,
) {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));
    let run = |strategy: &mut S| {
        let outcome = driver(SearchLimits::unlimited().with_max_points(max_points), seed).run(
            &space,
            &space.full_point(),
            strategy,
            &mut evaluator(&cnf, 8),
        );
        (trajectory(&outcome), outcome.stop_condition)
    };
    let mut reused = new_strategy();
    let first = run(&mut reused);
    assert_eq!(first, run(&mut reused), "{name}: reused instance");
    assert_eq!(first, run(&mut new_strategy()), "{name}: fresh instance");
}

#[test]
fn strategy_instances_are_reusable_across_driver_runs() {
    // Default configurations, the setup the experiment binaries use.
    assert_reusable("annealing", 18, 21, || {
        Annealing::new(&AnnealingConfig::default())
    });
    assert_reusable("tabu", 18, 21, || Tabu::new(&TabuConfig::default()));
    assert_reusable("random restart", 18, 21, || {
        RandomRestart::new(RandomRestartConfig::default())
    });
}

#[test]
fn strategy_instances_are_reusable_across_runs() {
    // Tuned configurations: fast cooling and a bounded restart count.
    assert_reusable("annealing", 15, 4, || {
        Annealing::new(&AnnealingConfig {
            cooling_factor: 0.5,
            ..AnnealingConfig::default()
        })
    });
    assert_reusable("tabu", 15, 4, || Tabu::new(&TabuConfig::default()));
    assert_reusable("random restart", 15, 4, || {
        RandomRestart::new(RandomRestartConfig {
            max_restarts: 2,
            ..RandomRestartConfig::default()
        })
    });
}
