//! Bivium time estimations (the paper's Table 2 situation): compare a fixed,
//! hand-picked decomposition strategy against a metaheuristically optimized
//! set, at different Monte Carlo sample sizes, and check both against the
//! exact family cost.
//!
//! Run with `cargo run --release --example bivium_estimation`.

#![forbid(unsafe_code)]

use pdsat::ciphers::{Bivium, InstanceBuilder};
use pdsat::core::{
    CostMetric, DecompositionSet, DriverConfig, Evaluator, EvaluatorConfig, SearchDriver,
    SearchLimits, SearchSpace, Tabu, TabuConfig,
};
use rand::SeedableRng;

fn main() {
    // Weakened Bivium: 12 unknown state bits, 80 keystream bits.
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let instance = InstanceBuilder::new(Bivium::new())
        .keystream_len(80)
        .known_suffix_of_second_register(165)
        .build_random(&mut rng);
    let unknown = instance.unknown_state_vars();
    println!(
        "Bivium instance: {} clauses, {} unknown state bits",
        instance.cnf().num_clauses(),
        unknown.len()
    );

    let make_evaluator = |n: usize| {
        Evaluator::new(
            instance.cnf(),
            EvaluatorConfig {
                sample_size: n,
                cost: CostMetric::Propagations,
                num_workers: 4,
                ..EvaluatorConfig::default()
            },
        )
    };

    // Strategy 1 (Eibach-et-al. style): the last 9 unknown cells of the
    // second register, small sample.
    let fixed = DecompositionSet::new(unknown.iter().rev().take(9).copied());
    let mut small = make_evaluator(10);
    let fixed_estimate = small.evaluate(&fixed);
    let fixed_exact = small.evaluate_exhaustively(&fixed);
    println!(
        "fixed strategy   : |X̃| = {:2}, N = 10  → F = {:10.1}   (exact {:10.1})",
        fixed.len(),
        fixed_estimate.value(),
        fixed_exact.value()
    );

    // Strategy 2 (PDSAT): tabu-optimized set, large sample.
    let space = SearchSpace::new(unknown.clone());
    let mut evaluator = make_evaluator(80);
    let driver = SearchDriver::new(DriverConfig {
        limits: SearchLimits::unlimited().with_max_points(25),
        ..DriverConfig::default()
    });
    let mut tabu = Tabu::new(&TabuConfig::default());
    let outcome = driver.run(&space, &space.full_point(), &mut tabu, &mut evaluator);
    let best_exact = evaluator.evaluate_exhaustively(&outcome.best_set);
    println!(
        "tabu-optimized   : |X̃| = {:2}, N = 80  → F = {:10.1}   (exact {:10.1})",
        outcome.best_set.len(),
        outcome.best_value,
        best_exact.value()
    );

    println!(
        "\nAs in the paper's Table 2, the optimized set together with the larger sample \
         gives the smaller and more accurate estimate."
    );
}
