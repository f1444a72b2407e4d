//! Experiment: Table 2 — time estimations for the Bivium cryptanalysis
//! problem obtained with different strategies and sample sizes.
//!
//! The paper contrasts three published estimates: Eibach et al.'s fixed
//! 45-variable strategy with N = 10² samples (1.637·10¹³ s), the
//! CryptoMiniSat-based extrapolations of Soos et al. with N = 10²–10³
//! (9.718·10¹⁰ s), and PDSAT's tabu-optimized set with N = 10⁵
//! (3.769·10¹⁰ s). The qualitative claim is that a better decomposition set
//! together with a larger sample yields a smaller (and more trustworthy)
//! estimate.  The scaled experiment reproduces the three-strategy comparison
//! on a weakened Bivium instance and, because the instance is small, also
//! reports the *exact* family cost so the estimation error is visible.

use crate::scaled::{bivium_fixed_strategy_set, CipherKind, ScaledWorkload};
use crate::text_table::{sci, TextTable};
use pdsat_core::{
    DecompositionSet, DriverConfig, Evaluator, EvaluatorConfig, SearchDriver, SearchLimits, Tabu,
    TabuConfig,
};

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Which published approach the row is the analogue of.
    pub source: String,
    /// Decomposition-set strategy.
    pub strategy: String,
    /// Size of the decomposition set.
    pub set_size: usize,
    /// Sample size `N`.
    pub sample_size: usize,
    /// The time estimation (predictive function value).
    pub estimate: f64,
    /// Exact total family cost (available because the scaled instance is
    /// small enough to enumerate), for measuring the estimation error.
    pub exact: Option<f64>,
}

/// The full result of the Table 2 experiment.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Rows in the order of the paper's table.
    pub rows: Vec<Table2Row>,
    /// The tabu-optimized decomposition set of the last row.
    pub best_set: DecompositionSet,
}

impl Table2Result {
    /// Formats the result as the paper's Table 2 (with the extra exact-value
    /// column made possible by the scaled instance).
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(
            "Table 2: time estimations for the Bivium cryptanalysis problem",
            &["Source", "Strategy", "|X̃|", "N", "Estimate", "Exact total"],
        );
        for row in &self.rows {
            table.add_row([
                row.source.clone(),
                row.strategy.clone(),
                row.set_size.to_string(),
                row.sample_size.to_string(),
                sci(row.estimate),
                row.exact.map(sci).unwrap_or_else(|| "-".to_string()),
            ]);
        }
        table
    }
}

/// Runs the scaled Table 2 experiment.
#[must_use]
pub fn run_table2(workload: &ScaledWorkload) -> Table2Result {
    assert_eq!(
        workload.cipher,
        CipherKind::Bivium,
        "Table 2 is a Bivium experiment"
    );
    let instance = workload.build_instance();
    let space = workload.search_space(&instance);

    // Row 1: the fixed "last cells of the second register" strategy with a
    // small sample (the analogue of Eibach et al., N = 10²).
    let small_n = (workload.sample_size / 10).max(4);
    let mut small_evaluator = Evaluator::new(
        instance.cnf(),
        EvaluatorConfig {
            sample_size: small_n,
            ..workload.evaluator(&instance).config().clone()
        },
    );
    let fixed_k = (workload.unknown_bits() * 3 / 4).max(1);
    let fixed_set = bivium_fixed_strategy_set(&instance, fixed_k);
    let fixed_eval = small_evaluator.evaluate(&fixed_set);
    let fixed_exact = exact_if_feasible(&mut small_evaluator, &fixed_set);

    // Row 2: the full starting backdoor set with a medium sample (the
    // analogue of the CryptoMiniSat-based estimates of Soos et al.).
    let medium_n = (workload.sample_size / 2).max(8);
    let mut medium_evaluator = Evaluator::new(
        instance.cnf(),
        EvaluatorConfig {
            sample_size: medium_n,
            ..workload.evaluator(&instance).config().clone()
        },
    );
    let start_set = space.decomposition_set(&space.full_point());
    let start_eval = medium_evaluator.evaluate(&start_set);
    let start_exact = exact_if_feasible(&mut medium_evaluator, &start_set);

    // Row 3: PDSAT — tabu-optimized set with the full sample size.
    let mut evaluator = workload.evaluator(&instance);
    let driver = SearchDriver::new(DriverConfig {
        limits: SearchLimits::unlimited().with_max_points(workload.search_points),
        seed: workload.seed,
    });
    let mut tabu = Tabu::new(&TabuConfig::default());
    let outcome = driver.run(&space, &space.full_point(), &mut tabu, &mut evaluator);
    let best_exact = exact_if_feasible(&mut evaluator, &outcome.best_set);

    let rows = vec![
        Table2Row {
            source: "Eibach et al. [5] analogue".to_string(),
            strategy: "fixed: last cells of register B".to_string(),
            set_size: fixed_set.len(),
            sample_size: small_n,
            estimate: fixed_eval.value(),
            exact: fixed_exact,
        },
        Table2Row {
            source: "Soos et al. [18,19] analogue".to_string(),
            strategy: "starting backdoor set, medium sample".to_string(),
            set_size: start_set.len(),
            sample_size: medium_n,
            estimate: start_eval.value(),
            exact: start_exact,
        },
        Table2Row {
            source: "PDSAT (this work)".to_string(),
            strategy: "tabu-optimized set".to_string(),
            set_size: outcome.best_set.len(),
            sample_size: workload.sample_size,
            estimate: outcome.best_value,
            exact: best_exact,
        },
    ];

    Table2Result {
        rows,
        best_set: outcome.best_set,
    }
}

/// Computes the exact family cost when the set is small enough to enumerate
/// quickly (≤ 2¹⁴ cubes).
fn exact_if_feasible(evaluator: &mut Evaluator, set: &DecompositionSet) -> Option<f64> {
    if set.len() <= 14 {
        Some(evaluator.evaluate_exhaustively(set).value())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_table2_reproduces_the_ordering() {
        let workload = ScaledWorkload::tiny(CipherKind::Bivium);
        let result = run_table2(&workload);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.estimate.is_finite() && row.estimate >= 0.0);
            assert!(row.set_size > 0);
        }
        // The headline shape of the paper's Table 2: optimizing the
        // decomposition set does not make the estimate worse than the naive
        // starting set (on full-strength instances it is orders of magnitude
        // better; on tiny instances, where the per-cube cost is dominated by
        // fixed propagation work, the margin shrinks to ~0).
        let start = result.rows[1].estimate.max(1.0);
        let pdsat = result.rows[2].estimate.max(1.0);
        assert!(
            pdsat <= start * 1.25,
            "optimized estimate ({pdsat}) should not exceed the starting-set estimate ({start})"
        );
        let rendered = result.table().render();
        assert!(rendered.contains("PDSAT"));
        assert!(rendered.contains("Eibach"));
    }

    #[test]
    fn exact_totals_are_reported_for_small_sets() {
        let workload = ScaledWorkload::tiny(CipherKind::Bivium);
        let result = run_table2(&workload);
        // The tiny workload has ≤ 8 unknown bits, so every set is enumerable.
        assert!(result.rows.iter().all(|r| r.exact.is_some()));
        // The estimate is within an order of magnitude of the exact value for
        // the optimized set (Monte Carlo with a reasonable sample).
        let last = &result.rows[2];
        let exact = last.exact.unwrap().max(1.0);
        let ratio = last.estimate.max(1.0) / exact;
        assert!(ratio > 0.05 && ratio < 20.0, "ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "Bivium experiment")]
    fn rejects_non_bivium_workloads() {
        let _ = run_table2(&ScaledWorkload::tiny(CipherKind::Grain));
    }
}
