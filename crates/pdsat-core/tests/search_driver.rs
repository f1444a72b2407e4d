//! Driver-level integration tests: fixed-seed trajectories pinned against
//! the pre-refactor `SimulatedAnnealing::minimize` / `TabuSearch::minimize`
//! implementations, batched-vs-sequential evaluation parity, in-batch limit
//! enforcement, and checkpoint/resume.

use pdsat_cnf::{Cnf, Var};
use pdsat_core::{
    Annealing, AnnealingConfig, CostMetric, DriverConfig, Evaluator, EvaluatorConfig,
    RandomRestart, RandomRestartConfig, SearchCheckpoint, SearchDriver, SearchLimits,
    SearchOutcome, SearchSpace, StopCondition, Tabu, TabuConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    SearchDriver::new(DriverConfig {
        limits,
        seed,
        ..DriverConfig::default()
    })
}

/// `(point, value, accepted, is_best)` per step.
type GoldenStep = (&'static str, f64, bool, bool);

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
fn strategy_instances_are_reusable_across_driver_runs() {
    // The contract the removed `minimize` shims used to paper over:
    // `Strategy::initialize` fully resets an instance, so driving the same
    // strategy object through two identical runs gives the same trajectory
    // as a freshly built one.
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));
    let start = space.full_point();

    let limits = SearchLimits::unlimited().with_max_points(18);
    let sa_config = AnnealingConfig::default();
    let mut reused = Annealing::new(&sa_config);
    let run_with = |strategy: &mut Annealing| {
        let mut eval = evaluator(&cnf, 8);
        driver(limits.clone(), 21).run(&space, &start, strategy, &mut eval)
    };
    let first = run_with(&mut reused);
    let again = run_with(&mut reused);
    let fresh = run_with(&mut Annealing::new(&sa_config));
    for other in [&again, &fresh] {
        assert_eq!(first.history.len(), other.history.len());
        for (a, b) in first.history.iter().zip(&other.history) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.value, b.value);
            assert_eq!(a.accepted, b.accepted);
        }
        assert_eq!(first.best_point, other.best_point);
        assert_eq!(first.best_value, other.best_value);
    }

    let tabu_config = TabuConfig::default();
    let mut reused = Tabu::new(&tabu_config);
    let run_with = |strategy: &mut Tabu| {
        let mut eval = evaluator(&cnf, 8);
        driver(limits.clone(), 21).run(&space, &start, strategy, &mut eval)
    };
    let first = run_with(&mut reused);
    let again = run_with(&mut reused);
    let fresh = run_with(&mut Tabu::new(&tabu_config));
    for other in [&again, &fresh] {
        assert_eq!(first.best_point, other.best_point);
        assert_eq!(first.best_value, other.best_value);
        assert_eq!(first.points_evaluated, other.points_evaluated);
    }
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
    // With a generous time limit the slicing machinery is active but never
    // fires; the trajectory must be identical to the unsliced run.
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..8).map(Var::new));
    let run = |limits: SearchLimits, time_slice: usize| {
        let mut eval = evaluator(&cnf, 4);
        let mut strategy = RandomRestart::new(RandomRestartConfig::default());
        let driver = SearchDriver::new(DriverConfig {
            limits,
            seed: 13,
            time_slice,
        });
        let out = driver.run(&space, &space.full_point(), &mut strategy, &mut eval);
        out.history
            .iter()
            .map(|s| (s.point.to_string(), s.value.to_bits(), s.accepted))
            .collect::<Vec<_>>()
    };
    let unsliced = run(SearchLimits::unlimited().with_max_points(25), 8);
    let sliced = run(
        SearchLimits::unlimited()
            .with_max_points(25)
            .with_time_limit(Duration::from_secs(3600)),
        2,
    );
    assert_eq!(unsliced, sliced);
}

#[test]
fn checkpoint_resume_answers_visited_points_for_free() {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));
    let mut eval = evaluator(&cnf, 8);
    let mut strategy = Tabu::new(&TabuConfig::default());
    let first = driver(SearchLimits::unlimited().with_max_points(12), 5).run(
        &space,
        &space.full_point(),
        &mut strategy,
        &mut eval,
    );
    let checkpoint = first.checkpoint();
    assert_eq!(checkpoint.visited.len(), first.points_evaluated);
    assert_eq!(checkpoint.best_value, first.best_value);

    // Resume with a fresh evaluator: the warm-started driver memo answers
    // every checkpointed point without paying the oracle, and the incumbent
    // best survives even when this run never visits a better point.
    let mut fresh_eval = evaluator(&cnf, 8);
    let mut strategy = Tabu::new(&TabuConfig::default());
    let resumed = driver(SearchLimits::unlimited().with_max_points(12), 5).run_resumed(
        &space,
        &space.full_point(),
        &mut strategy,
        &mut fresh_eval,
        Some(&checkpoint),
    );
    assert!(resumed.best_value <= first.best_value);
    assert!(
        (fresh_eval.evaluations() as usize) < resumed.points_evaluated,
        "at least the checkpointed prefix must come from the memo cache"
    );
}

#[test]
fn strategy_instances_are_reusable_across_runs() {
    // initialize() must fully reset strategy state: the second run of a
    // reused instance reproduces the first run exactly (same seed, fresh
    // evaluators).
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));
    let d = driver(SearchLimits::unlimited().with_max_points(15), 4);
    let trajectory = |outcome: &SearchOutcome| {
        outcome
            .history
            .iter()
            .map(|s| (s.point.to_string(), s.value.to_bits()))
            .collect::<Vec<_>>()
    };

    let mut annealing = Annealing::new(&AnnealingConfig {
        cooling_factor: 0.5,
        ..AnnealingConfig::default()
    });
    let mut eval = evaluator(&cnf, 8);
    let first = d.run(&space, &space.full_point(), &mut annealing, &mut eval);
    let mut eval = evaluator(&cnf, 8);
    let second = d.run(&space, &space.full_point(), &mut annealing, &mut eval);
    assert_eq!(trajectory(&first), trajectory(&second));
    assert_eq!(first.stop_condition, second.stop_condition);

    let mut tabu = Tabu::new(&TabuConfig::default());
    let mut eval = evaluator(&cnf, 8);
    let first = d.run(&space, &space.full_point(), &mut tabu, &mut eval);
    let mut eval = evaluator(&cnf, 8);
    let second = d.run(&space, &space.full_point(), &mut tabu, &mut eval);
    assert_eq!(trajectory(&first), trajectory(&second));

    let mut restart = RandomRestart::new(RandomRestartConfig {
        max_restarts: 2,
        ..RandomRestartConfig::default()
    });
    let mut eval = evaluator(&cnf, 8);
    let first = d.run(&space, &space.full_point(), &mut restart, &mut eval);
    let mut eval = evaluator(&cnf, 8);
    let second = d.run(&space, &space.full_point(), &mut restart, &mut eval);
    assert_eq!(trajectory(&first), trajectory(&second));
    assert_eq!(first.stop_condition, second.stop_condition);
}

#[test]
fn absorb_chains_checkpoints_without_losing_coverage() {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));

    let mut eval = evaluator(&cnf, 8);
    let mut strategy = Tabu::new(&TabuConfig::default());
    let first = driver(SearchLimits::unlimited().with_max_points(10), 5).run(
        &space,
        &space.full_point(),
        &mut strategy,
        &mut eval,
    );
    let mut checkpoint = first.checkpoint();
    let first_points: Vec<String> = checkpoint
        .visited
        .iter()
        .map(|v| v.point.to_string())
        .collect();

    // A resumed run with a different seed explores new territory; absorbing
    // its outcome must keep every point the first run paid for.
    let mut strategy = Tabu::new(&TabuConfig::default());
    let second = driver(SearchLimits::unlimited().with_max_points(10), 99).run_resumed(
        &space,
        &space.full_point(),
        &mut strategy,
        &mut eval,
        Some(&checkpoint),
    );
    checkpoint.absorb(&second);

    let merged: std::collections::HashSet<String> = checkpoint
        .visited
        .iter()
        .map(|v| v.point.to_string())
        .collect();
    for point in &first_points {
        assert!(merged.contains(point), "absorb dropped {point}");
    }
    for step in &second.history {
        assert!(merged.contains(&step.point.to_string()));
    }
    assert!(checkpoint.best_value <= first.best_value.min(second.best_value));
    // No duplicates in the merged coverage.
    assert_eq!(merged.len(), checkpoint.visited.len());
    // A checkpoint grown by resume + absorb is one the loader accepts.
    assert_eq!(
        SearchCheckpoint::from_text(&checkpoint.to_text()),
        Ok(checkpoint)
    );
}

#[test]
#[should_panic(expected = "checkpoint dimension must match")]
fn mismatched_checkpoint_is_rejected() {
    let cnf = Cnf::pigeonhole(5);
    let space = SearchSpace::new((0..6).map(Var::new));
    let other = SearchSpace::new((0..4).map(Var::new));
    let mut eval = evaluator(&cnf, 4);
    let mut strategy = Tabu::new(&TabuConfig::default());
    let outcome = driver(SearchLimits::unlimited().with_max_points(3), 1).run(
        &other,
        &other.full_point(),
        &mut strategy,
        &mut eval,
    );
    let checkpoint = outcome.checkpoint();
    let mut strategy = Tabu::new(&TabuConfig::default());
    let _ = driver(SearchLimits::unlimited().with_max_points(3), 1).run_resumed(
        &space,
        &space.full_point(),
        &mut strategy,
        &mut eval,
        Some(&checkpoint),
    );
}

/// The text of a short real search over a 4-dimensional space: something for
/// the hostile cases below to damage.
fn valid_checkpoint_text(cnf: &Cnf, space: &SearchSpace) -> String {
    let mut strategy = Tabu::new(&TabuConfig::default());
    let outcome = driver(SearchLimits::unlimited().with_max_points(5), 3).run(
        space,
        &space.full_point(),
        &mut strategy,
        &mut evaluator(cnf, 4),
    );
    outcome.checkpoint().to_text()
}

/// Values, points and non-fields that sit on the edges the loader has to
/// mind: −∞, +∞, NaN, repeated and out-of-range indices, overflowing numbers.
const HOSTILE_FIELDS: [&str; 14] = [
    "-",
    "0",
    "3",
    "4",
    "0,0",
    "1,2,3,0",
    "4096",
    "18446744073709551616",
    "fff0000000000000",
    "7ff0000000000000",
    "7ff8000000000000",
    "0000000000000000",
    "zz",
    "",
];

/// Texts that loaded `Ok` before the loader checked the incumbent against
/// the visited list: −∞ at the empty point with nothing visited, and a NaN
/// incumbent over a point listed twice.
const FORGED_TEXTS: [&str; 3] = [
    "pdsat-search-checkpoint v1\ndimension 4\nbest fff0000000000000 -\n",
    "pdsat-search-checkpoint v1\ndimension 4\nbest 7ff8000000000000 0\n\
     visited 7ff8000000000000 0\nvisited 4000000000000000 0\n",
    "pdsat-search-checkpoint v1\ndimension 4\nbest 4000000000000000 0\n\
     visited 4000000000000000 0\nvisited 4008000000000000 0\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_checkpoint_text_never_panics_the_loader_or_forges_a_resumed_incumbent(
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cnf = Cnf::pigeonhole(4);
        let space = SearchSpace::new((0..4).map(Var::new));
        let valid = valid_checkpoint_text(&cnf, &space);
        prop_assert!(SearchCheckpoint::from_text(&valid).is_ok());
        let mut bytes = valid.clone().into_bytes();
        match rng.gen_range(0..5u32) {
            // Arbitrary bytes.
            0 => {
                bytes = (0..rng.gen_range(0..200usize))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect();
            }
            // A valid text with some bytes overwritten, then cut short.
            1 => {
                for _ in 0..rng.gen_range(1..6usize) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.gen_range(0..=255u8);
                }
                bytes.truncate(rng.gen_range(0..=bytes.len()));
            }
            // A valid text with whole fields replaced by hostile ones.
            2 => {
                let mut lines: Vec<Vec<String>> = valid
                    .lines()
                    .map(|line| line.split(' ').map(str::to_string).collect())
                    .collect();
                for _ in 0..rng.gen_range(1..4usize) {
                    let line = rng.gen_range(1..lines.len());
                    let field = rng.gen_range(1..lines[line].len());
                    lines[line][field] =
                        HOSTILE_FIELDS[rng.gen_range(0..HOSTILE_FIELDS.len())].to_string();
                }
                let damaged: Vec<String> = lines.iter().map(|fields| fields.join(" ")).collect();
                bytes = damaged.join("\n").into_bytes();
            }
            // A valid text with whole lines repeated, dropped or swapped.
            3 => {
                let mut lines: Vec<&str> = valid.lines().collect();
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..lines.len());
                    match rng.gen_range(0..3u32) {
                        0 => lines.insert(at, lines[at]),
                        1 if lines.len() > 1 => {
                            lines.remove(at);
                        }
                        _ => {
                            let other = rng.gen_range(0..lines.len());
                            lines.swap(at, other);
                        }
                    }
                }
                bytes = lines.join("\n").into_bytes();
            }
            // The known forgeries, which must not load at all.
            _ => {
                let forged = FORGED_TEXTS[rng.gen_range(0..FORGED_TEXTS.len())];
                prop_assert!(SearchCheckpoint::from_text(forged).is_err(), "{}", forged);
                bytes = forged.as_bytes().to_vec();
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        // Resuming validates the dimension itself (by panicking, see
        // `mismatched_checkpoint_is_rejected`); that check is the caller's.
        let loaded = SearchCheckpoint::from_text(&text)
            .ok()
            .filter(|checkpoint| checkpoint.dimension == space.dimension());
        if let Some(checkpoint) = loaded {
            let mut strategy = Tabu::new(&TabuConfig::default());
            let resumed = driver(SearchLimits::unlimited().with_max_points(3), seed).run_resumed(
                &space,
                &space.full_point(),
                &mut strategy,
                &mut evaluator(&cnf, 4),
                Some(&checkpoint),
            );
            // Whatever loaded, the search reports an incumbent something
            // supports: a pair the checkpoint lists or one this run evaluated.
            let reported = (&resumed.best_point, resumed.best_value.to_bits());
            prop_assert!(!resumed.best_value.is_nan());
            prop_assert!(
                checkpoint
                    .visited
                    .iter()
                    .map(|v| (&v.point, v.value.to_bits()))
                    .chain(resumed.history.iter().map(|s| (&s.point, s.value.to_bits())))
                    .any(|pair| pair == reported),
                "unsupported incumbent {:?} from {:?}",
                reported,
                text
            );
        }
    }
}
