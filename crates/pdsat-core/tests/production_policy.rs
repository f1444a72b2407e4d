//! `OracleTestPolicy::default()` is the production oracle — a pool capped at
//! the machine's parallelism, no fault injected: an oracle built with it by
//! `CubeOracle::with_test_policy` reports what `CubeOracle::new`'s does.

use pdsat_cnf::{Cnf, Cube, Var};
use pdsat_core::{
    BackendKind, CostMetric, CubeOracle, DecompositionSet, OracleTestPolicy, SolveModeConfig,
};
use pdsat_solver::SolverConfig;

#[test]
fn the_default_policy_is_production() {
    let policy = OracleTestPolicy::default();
    assert!(!policy.exact_workers && policy.faults.is_empty());
    let cnf = Cnf::pigeonhole(5);
    let cubes: Vec<Cube> = DecompositionSet::new((0..4).map(Var::new))
        .cubes()
        .collect();
    let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Warm costs depend on which worker solved what; fresh ones do not.
    for (backend, num_workers) in [(BackendKind::Warm, 1), (BackendKind::Fresh, 64)] {
        let proof = SolverConfig {
            proof: true,
            ..SolverConfig::default()
        };
        let config = SolveModeConfig {
            solver_config: proof,
            cost: CostMetric::Conflicts,
            num_workers,
            backend,
        };
        let mut untouched = CubeOracle::new(&cnf, &config);
        let mut set = CubeOracle::with_test_policy(&cnf, &config, policy.clone());
        assert_eq!(untouched.num_workers(), num_workers.min(hardware));
        assert_eq!(set.num_workers(), untouched.num_workers());
        for _ in 0..2 {
            let (a, b) = (
                untouched.solve_batch(&cubes, None),
                set.solve_batch(&cubes, None),
            );
            assert_eq!(
                (a.costs, a.verdicts, a.models),
                (b.costs, b.verdicts, b.models)
            );
            assert_eq!(a.proofs, b.proofs);
            assert_eq!(untouched.conflict_activity(), set.conflict_activity());
            assert_eq!(a.solver_stats, b.solver_stats);
        }
    }
}
