//! Oracle-level differential suite for trail reuse: a warm backend with
//! `SolverConfig::trail_reuse` on and one with it off process identical
//! randomized cube families (same prefix-aware schedule) and must report
//! bit-identical verdicts and per-cube conflict costs — reuse only skips
//! the deterministic replay of shared assumption prefixes, never changes
//! the search.
//!
//! Proof logging is on for the reuse-enabled oracle, so the suite doubles
//! as the differential certificate hook at the oracle level: every UNSAT
//! cube outcome must carry a DRAT certificate the independent checker
//! accepts against the original formula with the cube seeded as roots.

use pdsat_checker::check_unsat_proof;
use pdsat_cnf::{Cnf, Cube, Var};
use pdsat_core::{
    BackendKind, BatchConfig, CostMetric, CubeOracle, DecompositionSet, VerdictSummary,
};
use pdsat_solver::{Budget, SolverConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn warm_config(trail_reuse: bool, budget: Budget) -> BatchConfig {
    BatchConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Warm,
        budget,
        solver_config: SolverConfig {
            trail_reuse,
            proof: true,
            ..SolverConfig::default()
        },
        ..BatchConfig::default()
    }
}

#[test]
fn reuse_on_and_off_report_identical_verdicts_and_costs() {
    let mut rng = StdRng::seed_from_u64(0x9E05E);
    let mut reused_total = 0;
    let mut certified_unsat = 0usize;
    for round in 0..10 {
        let num_vars = 12 + (round % 4) * 2;
        let num_clauses = (num_vars as f64 * (3.4 + 0.3 * (round % 5) as f64)) as usize;
        let cnf = Cnf::random_3cnf(num_vars, num_clauses, &mut rng);
        let mut set_vars = Vec::new();
        while set_vars.len() < 3 + round % 3 {
            let v = Var::new(rng.gen_range(0..num_vars as u32));
            if !set_vars.contains(&v) {
                set_vars.push(v);
            }
        }
        let set = DecompositionSet::new(set_vars);
        // A shuffled mix of enumerated and repeated sampled cubes, so the
        // prefix schedule genuinely reorders and reuse genuinely fires.
        let mut cubes: Vec<Cube> = set.cubes().collect();
        cubes.extend(set.random_sample(8, &mut rng));
        for i in (1..cubes.len()).rev() {
            cubes.swap(i, rng.gen_range(0..=i));
        }

        let mut on = CubeOracle::new(&cnf, warm_config(true, Budget::unlimited()));
        let mut off = CubeOracle::new(&cnf, warm_config(false, Budget::unlimited()));
        let a = on.solve_batch(&cubes, None);
        let b = off.solve_batch(&cubes, None);

        assert_eq!(a.verdicts, b.verdicts, "round {round}");
        // The cost metric is the conflict count.
        assert_eq!(
            a.costs, b.costs,
            "round {round}: costs diverged under trail reuse"
        );
        let unsat = a.verdict_counts().1;
        certified_unsat += unsat;
        for (label, result) in [("reuse-on", &a), ("reuse-off", &b)] {
            assert_eq!(
                result.proofs.len(),
                unsat,
                "round {round}: {label} UNSAT cube without certificate"
            );
            for (index, proof) in &result.proofs {
                assert_eq!(result.verdicts[*index], Some(VerdictSummary::Unsat));
                check_unsat_proof(&cnf, cubes[*index].lits(), proof).unwrap_or_else(|failure| {
                    panic!(
                        "round {round}: checker rejected {label} certificate for cube {index}: {failure}"
                    )
                });
            }
        }
        assert_eq!(a.models, b.models, "round {round}: models diverged");
        assert_eq!(a.models.len(), a.verdict_counts().0);
        for (index, model) in &a.models {
            assert!(cnf.is_satisfied_by(model));
            for &l in cubes[*index].lits() {
                assert_eq!(model.lit_value(l).to_bool(), Some(true));
            }
        }
        assert_eq!(a.var_conflict_totals, b.var_conflict_totals);
        assert_eq!(a.solver_stats.conflicts, b.solver_stats.conflicts);
        assert_eq!(a.solver_stats.decisions, b.solver_stats.decisions);
        assert!(a.solver_stats.propagations <= b.solver_stats.propagations);
        assert_eq!(b.solver_stats.reused_assumptions, 0);
        reused_total += a.solver_stats.reused_assumptions;
    }
    assert!(
        reused_total > 0,
        "the families must actually exercise trail reuse"
    );
    assert!(
        certified_unsat > 0,
        "the families must actually exercise the certificate hook"
    );
}

#[test]
fn reuse_parity_holds_under_conflict_budgets() {
    // Conflict budgets bite at identical points for both solvers (conflict
    // counts are bit-identical under reuse), so even Unknown verdicts and
    // partial costs must agree.
    let mut rng = StdRng::seed_from_u64(0xB0D6E7);
    let cnf = Cnf::random_3cnf(16, 76, &mut rng);
    let set = DecompositionSet::new((0..4).map(|i| Var::new(i * 3)));
    let cubes: Vec<Cube> = set.cubes().collect();
    let budget = Budget::unlimited().with_conflict_limit(2);

    let a = CubeOracle::new(&cnf, warm_config(true, budget.clone())).solve_batch(&cubes, None);
    let b = CubeOracle::new(&cnf, warm_config(false, budget)).solve_batch(&cubes, None);
    assert_eq!(a.verdicts, b.verdicts);
    assert_eq!(a.costs, b.costs);
    assert_eq!(
        a.proofs.len(),
        a.verdict_counts().1,
        "UNSAT cube without certificate"
    );
    for (index, proof) in &a.proofs {
        check_unsat_proof(&cnf, cubes[*index].lits(), proof)
            .unwrap_or_else(|failure| panic!("cube {index}: {failure}"));
    }
    assert_eq!(a.solver_stats.conflicts, b.solver_stats.conflicts);
}
