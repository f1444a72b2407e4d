//! Who orders the estimator's samples: the fresh estimator solves and reports
//! each sample in the order drawn, the warm estimator sorts each point's
//! sample itself (the oracle solves cubes in the order given).
//!
//! The numbers below were recorded at the commit that gave ternary clauses
//! watch lists of their own (solver policy: every cost of this all-ternary
//! formula moved with propagation order; the evaluator, the oracle and the
//! sample RNG were untouched): one worker, so warm costs are deterministic.

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
            138.0, 154.0, 370.0, 18.0, 170.0, 309.0, 42.0, 33.0, 293.0, 20.0, 162.0, 395.0, 302.0,
            48.0, 49.0, 176.0, 20.0, 89.0, 147.0, 70.0, 67.0, 42.0, 309.0, 250.0,
        ]
    );
    assert_eq!(
        fresh.evaluate(&b).observations,
        [
            354.0, 37.0, 160.0, 50.0, 119.0, 144.0, 119.0, 17.0, 52.0, 114.0, 173.0, 8.0, 122.0,
            112.0, 118.0, 94.0, 86.0, 77.0, 100.0, 122.0, 123.0, 8.0, 8.0, 8.0,
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
                0.0, 0.0, 0.0, 0.0, 1.0, 5.0, 27.0, 29.0, 32.0, 47.0, 53.0, 55.0, 62.0, 71.0, 75.0,
                75.0, 99.0, 102.0, 115.0, 116.0, 147.0, 204.0, 253.0, 302.0,
            ],
            4986.666666666665,
        ),
        (
            [
                0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 7.0, 8.0, 14.0, 24.0, 24.0, 28.0, 42.0, 43.0, 47.0,
                48.0, 53.0, 58.0, 84.0, 88.0, 99.0, 104.0, 126.0, 140.0,
            ],
            5557.333333333333,
        ),
    ];
    for (evaluation, (costs, value)) in evaluations.iter().zip(recorded) {
        let mut observed = evaluation.observations.clone();
        observed.sort_by(f64::total_cmp);
        assert_eq!(observed, costs);
        assert!((evaluation.value() - value).abs() <= 1e-9 * value);
    }
    assert_eq!(warm.oracle().total_stats().reused_assumptions, 153);
    assert_eq!(warm.oracle().total_stats().saved_propagations, 210);
}
