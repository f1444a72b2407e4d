//! Quickstart: estimate the cost of a SAT partitioning with the Monte Carlo
//! predictive function, then check the estimate by actually processing the
//! whole decomposition family.
//!
//! Run with `cargo run --release --example quickstart`.

#![forbid(unsafe_code)]

use pdsat::cnf::{Cnf, Var};
use pdsat::core::{
    CostMetric, DecompositionSet, Evaluator, EvaluatorConfig, FamilySolver, SolveModeConfig,
};

fn main() {
    // The instance we want to split: Cnf::pigeonhole(8), hard enough to feel.
    let cnf = Cnf::pigeonhole(8);
    println!(
        "instance: {} variables, {} clauses",
        cnf.num_vars(),
        cnf.num_clauses()
    );

    // A decomposition set: the first 8 variables.
    let set = DecompositionSet::new((0..8).map(Var::new));
    println!(
        "decomposition set: {} variables → {} sub-problems",
        set.len(),
        1u64 << set.len()
    );

    // Estimate the total cost of the family from a random sample of 32 cubes
    // (the predictive function F of the paper, eq. 5). We measure cost in
    // solver conflicts so the run is deterministic.
    let mut evaluator = Evaluator::new(
        &cnf,
        EvaluatorConfig {
            sample_size: 32,
            cost: CostMetric::Conflicts,
            ..EvaluatorConfig::default()
        },
    );
    let estimate = evaluator.evaluate(&set);
    // The ± is eq. (3)'s δ·σ/√N, with δ from Student's t at N − 1 = 31
    // degrees of freedom (2.04; the normal 1.96 under-covers at this N).
    println!(
        "Monte Carlo estimate: F = {:.1} ± {:.1} conflicts at 95% confidence (mean {:.2} per cube)",
        estimate.value(),
        estimate.estimate.confidence_half_width(0.95),
        estimate.estimate.mean_cost,
    );

    // Now process the whole family and compare.
    let report = FamilySolver::new(
        &cnf,
        &SolveModeConfig {
            cost: CostMetric::Conflicts,
            num_workers: 4,
            ..SolveModeConfig::default()
        },
    )
    .solve_family(&set, None);
    println!(
        "actual family cost: {:.1} conflicts over {} sub-problems ({} satisfiable)",
        report.total_cost, report.cubes_processed, report.sat_count
    );
    let deviation = 100.0 * (report.total_cost - estimate.value()).abs() / report.total_cost;
    println!("estimate deviates from the actual cost by {deviation:.1}%");
}
