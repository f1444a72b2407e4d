//! Who orders the estimator's samples: the fresh estimator solves and reports
//! each sample in the order drawn, the warm estimator sorts each point's
//! sample itself (the oracle solves cubes in the order given).
//!
//! The numbers below were recorded at the commit before the oracle's batch
//! permutation was deleted, where the oracle prefix-sorted every warm batch
//! run by run: one worker, so warm costs are deterministic.

use pdsat_cnf::{Cnf, Var};
use pdsat_core::{BackendKind, CostMetric, DecompositionSet, Evaluator, EvaluatorConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance() -> (Cnf, [DecompositionSet; 2]) {
    let cnf = Cnf::random_3cnf(70, 300, &mut StdRng::seed_from_u64(0xF1E6));
    let a = DecompositionSet::new([3, 11, 19, 27, 40, 58].map(Var::new));
    let b = DecompositionSet::new([5, 11, 23, 31, 44, 52, 66].map(Var::new));
    (cnf, [a, b])
}

fn evaluator(cnf: &Cnf, backend: BackendKind) -> Evaluator {
    let config = EvaluatorConfig {
        sample_size: 24,
        cost: CostMetric::Propagations,
        num_workers: 1,
        seed: 0x5EED,
        backend,
        ..EvaluatorConfig::default()
    };
    Evaluator::new(cnf, config)
}

#[test]
fn fresh_observations_keep_the_order_drawn() {
    let (cnf, [a, b]) = instance();
    let mut fresh = evaluator(&cnf, BackendKind::Fresh);
    assert_eq!(
        fresh.evaluate(&a).observations,
        [
            106.0, 144.0, 333.0, 18.0, 198.0, 206.0, 42.0, 33.0, 232.0, 20.0, 187.0, 380.0, 320.0,
            113.0, 49.0, 208.0, 20.0, 87.0, 187.0, 65.0, 68.0, 42.0, 206.0, 278.0,
        ]
    );
    assert_eq!(
        fresh.evaluate(&b).observations,
        [
            384.0, 36.0, 165.0, 49.0, 119.0, 188.0, 119.0, 17.0, 53.0, 115.0, 182.0, 8.0, 58.0,
            109.0, 126.0, 98.0, 77.0, 75.0, 95.0, 58.0, 129.0, 8.0, 8.0, 8.0,
        ]
    );
}

#[test]
fn warm_batches_solve_each_points_sample_sorted_and_never_interleave_points() {
    let (cnf, sets) = instance();
    let mut warm = evaluator(&cnf, BackendKind::Warm);
    let evaluations = warm.evaluate_batch(&sets);
    // Warm costs depend on everything solved before, so equal multisets and
    // an equal reuse count mean the same cubes in the same order.
    let recorded: [([f64; 24], f64); 2] = [
        (
            [
                0.0, 0.0, 0.0, 16.0, 16.0, 18.0, 23.0, 38.0, 38.0, 38.0, 40.0, 58.0, 73.0, 78.0,
                95.0, 100.0, 109.0, 136.0, 141.0, 164.0, 172.0, 176.0, 187.0, 235.0,
            ],
            5202.666666666666,
        ),
        (
            [
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 9.0, 10.0, 12.0, 14.0, 34.0, 37.0, 37.0, 42.0,
                50.0, 50.0, 63.0, 79.0, 86.0, 103.0, 106.0, 118.0, 206.0,
            ],
            5658.666666666668,
        ),
    ];
    for (evaluation, (costs, value)) in evaluations.iter().zip(recorded) {
        let mut observed = evaluation.observations.clone();
        observed.sort_by(f64::total_cmp);
        assert_eq!(observed, costs);
        assert!((evaluation.value() - value).abs() <= 1e-9 * value);
    }
    assert_eq!(warm.oracle().total_stats().reused_assumptions, 154);
    assert_eq!(warm.oracle().total_stats().saved_propagations, 212);
}
