//! Cross-crate integration tests: the full PDSAT pipeline on weakened
//! cryptanalysis instances — encode, search for a decomposition set, estimate
//! its cost, process the family, recover the key and compare estimate vs
//! reality.

use pdsat::ciphers::{Bivium, Grain, Instance, InstanceBuilder, StreamCipher, A51};
use pdsat::core::{
    Annealing, CostMetric, DriverConfig, Evaluator, EvaluatorConfig, FamilySolver, SearchDriver,
    SearchLimits, SearchSpace, SolveModeConfig, Tabu, TabuConfig,
};
use rand::SeedableRng;

fn evaluator(instance: &Instance, sample: usize) -> Evaluator {
    Evaluator::new(
        instance.cnf(),
        EvaluatorConfig {
            sample_size: sample,
            cost: CostMetric::Conflicts,
            num_workers: 2,
            ..EvaluatorConfig::default()
        },
    )
}

fn full_pipeline<C: StreamCipher + Copy>(cipher: C, instance: Instance) {
    let space = SearchSpace::new(instance.unknown_state_vars());
    let mut eval = evaluator(&instance, 10);

    // Search for a decomposition set with tabu search through the driver.
    let driver = SearchDriver::new(DriverConfig {
        limits: SearchLimits::unlimited().with_max_points(10),
        seed: 1,
    });
    let mut tabu = Tabu::new(&TabuConfig::default());
    let outcome = driver.run(&space, &space.full_point(), &mut tabu, &mut eval);
    assert!(outcome.best_value.is_finite());
    assert!(!outcome.best_set.is_empty() || space.dimension() == 0);

    // Process the family of the best set.
    let report = FamilySolver::new(
        instance.cnf(),
        &SolveModeConfig {
            cost: CostMetric::Conflicts,
            num_workers: 2,
            ..SolveModeConfig::default()
        },
    )
    .solve_family(&outcome.best_set, None);
    assert_eq!(
        report.cubes_processed as u128,
        1u128 << outcome.best_set.len()
    );
    assert!(report.sat_count >= 1, "the secret state is a model");

    // The recovered state reproduces the keystream.
    let model = report
        .model
        .expect("satisfying sub-problem produces a model");
    let state = instance.state_from_model(&model);
    assert_eq!(
        cipher.keystream(&state, instance.keystream().len()),
        instance.keystream()
    );
}

#[test]
fn a51_pipeline_recovers_the_key() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let cipher = A51::new();
    let instance = InstanceBuilder::new(cipher)
        .keystream_len(32)
        .known_suffix_of_second_register(56)
        .build_random(&mut rng);
    full_pipeline(cipher, instance);
}

#[test]
fn bivium_pipeline_recovers_the_key() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let cipher = Bivium::new();
    let instance = InstanceBuilder::new(cipher)
        .keystream_len(40)
        .known_suffix_of_second_register(170)
        .build_random(&mut rng);
    full_pipeline(cipher, instance);
}

#[test]
fn grain_pipeline_recovers_the_key() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let cipher = Grain::new();
    let instance = InstanceBuilder::new(cipher)
        .keystream_len(32)
        .known_suffix_of_second_register(153)
        .build_random(&mut rng);
    full_pipeline(cipher, instance);
}

#[test]
fn estimate_tracks_the_real_family_cost() {
    // The headline property of the paper: F(X̃) predicts t_{C,A}(X̃). On a
    // small instance we can compare the Monte Carlo estimate with the exact
    // enumeration.
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let instance = InstanceBuilder::new(Bivium::new())
        .keystream_len(48)
        .known_suffix_of_second_register(168)
        .build_random(&mut rng);
    let set = pdsat::core::DecompositionSet::new(instance.unknown_state_vars());

    let mut eval = Evaluator::new(
        instance.cnf(),
        EvaluatorConfig {
            sample_size: 128,
            cost: CostMetric::Propagations,
            num_workers: 2,
            ..EvaluatorConfig::default()
        },
    );
    let estimate = eval.evaluate(&set).value();
    let exact = eval.evaluate_exhaustively(&set).value();
    assert!(exact > 0.0);
    let ratio = estimate / exact;
    assert!(
        (0.5..2.0).contains(&ratio),
        "sampled estimate should be within 2x of the truth, got ratio {ratio}"
    );
}

#[test]
fn simulated_annealing_and_tabu_find_comparable_sets() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(15);
    let instance = InstanceBuilder::new(A51::new())
        .keystream_len(32)
        .known_suffix_of_second_register(55)
        .build_random(&mut rng);
    let space = SearchSpace::new(instance.unknown_state_vars());
    let limits = SearchLimits::unlimited().with_max_points(12);

    let driver = SearchDriver::new(DriverConfig { limits, seed: 2 });

    let mut eval_sa = evaluator(&instance, 8);
    let mut annealing = Annealing::new();
    let sa_outcome = driver.run(&space, &space.full_point(), &mut annealing, &mut eval_sa);

    let mut eval_tabu = evaluator(&instance, 8);
    let mut tabu = Tabu::new(&TabuConfig::default());
    let tabu_outcome = driver.run(&space, &space.full_point(), &mut tabu, &mut eval_tabu);

    // Both metaheuristics at least do not regress from the starting point
    // (their first evaluated point).
    assert!(sa_outcome.best_value <= sa_outcome.history[0].value);
    assert!(tabu_outcome.best_value <= tabu_outcome.history[0].value);
    // Tabu never re-evaluates: its history has pairwise distinct points.
    let mut seen = std::collections::HashSet::new();
    for step in &tabu_outcome.history {
        assert!(seen.insert(step.point.clone()));
    }
}

#[test]
fn solving_mode_interruption_stops_early() {
    use pdsat::solver::InterruptFlag;
    let mut rng = rand::rngs::StdRng::seed_from_u64(16);
    let instance = InstanceBuilder::new(Grain::new())
        .keystream_len(32)
        .known_suffix_of_second_register(150)
        .build_random(&mut rng);
    let set = pdsat::core::DecompositionSet::new(instance.unknown_state_vars());
    let flag = InterruptFlag::new();
    flag.raise();
    let report = FamilySolver::new(
        instance.cnf(),
        &SolveModeConfig {
            cost: CostMetric::Conflicts,
            ..SolveModeConfig::default()
        },
    )
    .solve_family(&set, Some(&flag));
    // With the flag already raised every sub-problem is abandoned immediately.
    assert_eq!(report.sat_count, 0);
    assert_eq!(report.unknown_count, report.cubes_processed);
}
