//! Logical cryptanalysis of (weakened) A5/1, end to end:
//!
//! 1. encode "given 64 keystream bits, find the register state" as SAT,
//! 2. search for a good decomposition set with tabu search (Algorithm 2),
//! 3. estimate the family cost with the predictive function,
//! 4. process the whole family in solving mode and recover the key,
//! 5. verify that the recovered state reproduces the observed keystream.
//!
//! Run with `cargo run --release --example a51_cryptanalysis`.

#![forbid(unsafe_code)]

use pdsat::ciphers::{InstanceBuilder, StreamCipher, A51};
use pdsat::core::{
    BackendKind, CostMetric, DriverConfig, Evaluator, EvaluatorConfig, FamilySolver, SearchDriver,
    SearchLimits, SearchSpace, SolveModeConfig, Tabu, TabuConfig,
};
use rand::SeedableRng;

fn main() {
    let cipher = A51::new();
    // Weakened instance: 48 of the 64 state bits are revealed, 16 remain
    // unknown (the full-strength problem is the same code path, just 2^48
    // times more work).
    let mut rng = rand::rngs::StdRng::seed_from_u64(2015);
    let instance = InstanceBuilder::new(cipher)
        .keystream_len(64)
        .known_suffix_of_second_register(48)
        .build_random(&mut rng);
    println!(
        "A5/1 inversion instance: {} clauses, {} unknown state bits, {} keystream bits",
        instance.cnf().num_clauses(),
        instance.unknown_state_vars().len(),
        instance.keystream().len()
    );

    // Search space: 2^(unknown state bits) — the Strong UP-backdoor set.
    let space = SearchSpace::new(instance.unknown_state_vars());
    let mut evaluator = Evaluator::new(
        instance.cnf(),
        EvaluatorConfig {
            sample_size: 40,
            cost: CostMetric::Propagations,
            num_workers: 4,
            ..EvaluatorConfig::default()
        },
    );

    // Tabu search for a decomposition set with a small predictive value,
    // driven by the unified search engine.
    let driver = SearchDriver::new(DriverConfig {
        limits: SearchLimits::unlimited().with_max_points(20),
        ..DriverConfig::default()
    });
    let mut tabu = Tabu::new(&TabuConfig::default());
    let outcome = driver.run(&space, &space.full_point(), &mut tabu, &mut evaluator);
    println!(
        "tabu search evaluated {} points; best set has {} variables, F = {:.1} propagations",
        outcome.points_evaluated,
        outcome.best_set.len(),
        outcome.best_value
    );

    // Solving mode over the best set.
    let report = FamilySolver::new(
        instance.cnf(),
        &SolveModeConfig {
            cost: CostMetric::Propagations,
            num_workers: 4,
            // Fresh backend, like the estimator, so that the measured
            // family cost is directly comparable with the prediction.
            backend: BackendKind::Fresh,
            ..SolveModeConfig::default()
        },
    )
    .solve_family(&outcome.best_set, None);
    println!(
        "processed {} sub-problems, total cost {:.1} propagations, {} satisfiable",
        report.cubes_processed, report.total_cost, report.sat_count
    );

    // Recover and verify the key.
    let model = report
        .model
        .expect("the secret state is a model, so one must be found");
    let state = instance.state_from_model(&model);
    assert_eq!(
        cipher.keystream(&state, instance.keystream().len()),
        instance.keystream(),
        "recovered state must reproduce the observed keystream"
    );
    println!(
        "recovered a state reproducing all {} keystream bits ✓",
        instance.keystream().len()
    );
    let deviation =
        100.0 * (report.total_cost - outcome.best_value).abs() / report.total_cost.max(1.0);
    println!("predictive function deviated from the real family cost by {deviation:.1}%");
}
