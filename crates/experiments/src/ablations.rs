//! Ablation studies for the design choices discussed in §3 of the paper.
//!
//! The paper motivates two choices qualitatively: tabu search "traverses
//! more points of the search space per time unit" than simulated annealing
//! (ablation A), and the accuracy of the estimate grows with the sample size
//! `N` (Table 2's message, ablation B). These experiments quantify each
//! claim on scaled instances.

use crate::scaled::{tabu, ScaledWorkload};
use crate::text_table::{sci, TextTable};
use pdsat_core::{Annealing, DecompositionSet, Evaluator, EvaluatorConfig, Strategy};

/// Comparison of the two metaheuristics under the same evaluation budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaheuristicComparison {
    /// Algorithm name.
    pub algorithm: String,
    /// Points evaluated.
    pub points: usize,
    /// Best predictive-function value found.
    pub best_value: f64,
    /// Size of the best decomposition set.
    pub best_set_size: usize,
    /// Wall-clock seconds of the search.
    pub wall_seconds: f64,
}

/// Effect of the Monte Carlo sample size on the estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSizeEffect {
    /// Sample size `N`.
    pub sample_size: usize,
    /// Estimated predictive function value.
    pub estimate: f64,
    /// Exact family cost.
    pub exact: f64,
    /// Relative error in percent.
    pub relative_error_percent: f64,
}

/// All ablation results.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Simulated annealing vs tabu search.
    pub metaheuristics: Vec<MetaheuristicComparison>,
    /// Estimate quality as a function of the sample size.
    pub sample_sizes: Vec<SampleSizeEffect>,
}

impl AblationResult {
    /// Formats all ablations as text tables.
    #[must_use]
    pub fn tables(&self) -> Vec<TextTable> {
        let mut out = Vec::new();

        let mut t1 = TextTable::new(
            "Ablation A: search strategies under the same point budget",
            &["Algorithm", "Points", "Best F", "|X̃best|", "Wall s"],
        );
        for row in &self.metaheuristics {
            t1.add_row([
                row.algorithm.clone(),
                row.points.to_string(),
                sci(row.best_value),
                row.best_set_size.to_string(),
                format!("{:.3}", row.wall_seconds),
            ]);
        }
        out.push(t1);

        let mut t2 = TextTable::new(
            "Ablation B: sample size N vs estimation error (paper Table 2's message)",
            &["N", "Estimate", "Exact", "Relative error %"],
        );
        for row in &self.sample_sizes {
            t2.add_row([
                row.sample_size.to_string(),
                sci(row.estimate),
                sci(row.exact),
                format!("{:.1}", row.relative_error_percent),
            ]);
        }
        out.push(t2);

        out
    }
}

/// Runs every ablation on one scaled workload.
#[must_use]
pub fn run_ablations(workload: &ScaledWorkload) -> AblationResult {
    let instance = workload.build_instance();

    // --- Ablation A: the paper's two strategies under the same point budget. --
    // Each search gets a fresh evaluator, so the comparison is not
    // contaminated by cross-search memoization.
    let strategies: [(&str, &mut dyn Strategy); 2] = [
        ("simulated annealing", &mut Annealing::new()),
        ("tabu search", &mut tabu()),
    ];
    let metaheuristics = strategies
        .into_iter()
        .map(|(algorithm, strategy)| {
            let mut evaluator = workload.evaluator(&instance);
            let outcome = workload.search(&instance, strategy, &mut evaluator);
            MetaheuristicComparison {
                algorithm: algorithm.to_string(),
                points: outcome.points_evaluated,
                best_value: outcome.best_value,
                best_set_size: outcome.best_set.len(),
                wall_seconds: outcome.wall_time.as_secs_f64(),
            }
        })
        .collect();

    // --- Ablation B: sample size vs estimation error. ------------------------
    // Use a moderate decomposition set (the starting set restricted to at most
    // 10 variables) so the exact value is computable. The workload's
    // propagation count, unlike conflicts, is non-zero even for sub-problems
    // decided by unit propagation alone, so the relative error is well
    // defined on every instance size.
    let space = workload.search_space(&instance);
    let base_set = space.decomposition_set(&space.full_point());
    let small_set = DecompositionSet::new(base_set.vars().iter().copied().take(10));
    let exact = workload
        .evaluator(&instance)
        .evaluate_exhaustively(&small_set)
        .value();
    let mut sample_sizes = Vec::new();
    for factor in [1usize, 4, 16, 64] {
        let n = factor.max(1) * 4;
        let mut evaluator = Evaluator::new(
            instance.cnf(),
            EvaluatorConfig {
                sample_size: n,
                seed: workload.seed + factor as u64,
                ..workload.evaluator_config()
            },
        );
        let estimate = evaluator.evaluate(&small_set).value();
        let relative_error_percent = if exact > 0.0 {
            100.0 * (estimate - exact).abs() / exact
        } else {
            0.0
        };
        sample_sizes.push(SampleSizeEffect {
            sample_size: n,
            estimate,
            exact,
            relative_error_percent,
        });
    }

    AblationResult {
        metaheuristics,
        sample_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaled::CipherKind;

    #[test]
    fn ablations_cover_both_studies() {
        let mut workload = ScaledWorkload::tiny(CipherKind::Bivium);
        workload.sample_size = 8;
        workload.search_points = 6;
        let result = run_ablations(&workload);
        assert_eq!(result.metaheuristics.len(), 2);
        assert_eq!(result.sample_sizes.len(), 4);
        for row in &result.metaheuristics {
            assert!(row.points <= 6);
            assert!(row.best_value.is_finite());
        }
        for row in &result.sample_sizes {
            assert!(row.exact > 0.0);
            assert!(row.relative_error_percent >= 0.0);
        }
        let tables = result.tables();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].render().contains("tabu search"));
        assert!(tables[1].render().contains("Relative error"));
    }
}
