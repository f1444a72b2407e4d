//! Differential test: the fresh and warm backends are interchangeable as far
//! as *answers* are concerned.
//!
//! The `CubeBackend` contract (DESIGN.md) guarantees that, run to completion,
//! the two backends decide every cube of a family identically — learnt-clause
//! carryover is satisfiability-preserving and assumptions are retracted
//! between cubes — so verdict counts and the `first_sat` index always agree.
//! Models agree bit-for-bit when the satisfying cube is the first cube the
//! warm worker touches (its state is then identical to a fresh solver's);
//! for later cubes carried-over learnt clauses may steer the search to a
//! *different but equally valid* model, which is all the contract promises.
//! Costs are *not* required to match (that is the whole point of the warm
//! backend). Every cube runs to a verdict unless the batch is interrupted;
//! a pre-raised interrupt is the one cutoff, and both backends must report
//! it identically.

use pdsat_cnf::{Cnf, Cube, Var};
use pdsat_core::{
    fault, BackendKind, BatchResult, CostMetric, CubeOracle, DecompositionSet, FaultPlan,
    OracleTestPolicy, SolveModeConfig, VerdictSummary,
};
use pdsat_solver::{InterruptFlag, SolverConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random decomposition set of `d` distinct variables.
fn random_set(num_vars: usize, d: usize, rng: &mut StdRng) -> DecompositionSet {
    let mut vars = Vec::new();
    while vars.len() < d {
        let v = Var::new(rng.gen_range(0..num_vars) as u32);
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    DecompositionSet::new(vars)
}

fn run(cnf: &Cnf, cubes: &[Cube], backend: BackendKind) -> pdsat_core::BatchResult {
    let config = SolveModeConfig {
        cost: CostMetric::Conflicts,
        backend,
        ..SolveModeConfig::default()
    };
    CubeOracle::new(cnf, &config).solve_batch(cubes, None)
}

#[test]
fn backends_agree_on_random_families() {
    let mut rng = StdRng::seed_from_u64(0x0BAC_0FF5);
    let mut sat_families = 0;
    let mut identical_models = 0;
    for round in 0..12 {
        // Densities straddling the 3-SAT threshold (~4.27) so the families
        // mix SAT and UNSAT sub-problems.
        let num_vars = 12 + (round % 4) * 2;
        let num_clauses = (num_vars as f64 * (3.4 + 0.35 * (round % 5) as f64)) as usize;
        let cnf = Cnf::random_3cnf(num_vars, num_clauses, &mut rng);
        let set = random_set(num_vars, 3 + round % 3, &mut rng);
        let cubes: Vec<Cube> = set.cubes().collect();

        let fresh = run(&cnf, &cubes, BackendKind::Fresh);
        let warm = run(&cnf, &cubes, BackendKind::Warm);

        assert_eq!(
            fresh.verdict_counts(),
            warm.verdict_counts(),
            "round {round}: verdict counts diverge"
        );
        assert_eq!(
            fresh.verdicts, warm.verdicts,
            "round {round}: a cube decided differently"
        );
        // Equal verdicts put the first model of both at the first SAT cube.
        let first_sat = fresh
            .verdicts
            .iter()
            .position(|v| *v == Some(VerdictSummary::Sat));
        assert_eq!(first_sat, fresh.models.first().map(|(index, _)| *index));
        assert_eq!(first_sat, warm.models.first().map(|(index, _)| *index));
        if let Some(index) = first_sat {
            sat_families += 1;
            let (ma, mb) = (&fresh.models[0].1, &warm.models[0].1);
            // Both models must satisfy C ∧ cube …
            for m in [ma, mb] {
                assert!(cnf.is_satisfied_by(m), "round {round}: invalid model");
                for &l in cubes[index].lits() {
                    assert_eq!(m.lit_value(l).to_bool(), Some(true));
                }
            }
            // … and when the satisfying cube is the first one the warm
            // worker touched, its solver state equals a fresh solver's,
            // so the models are bit-identical.
            if index == 0 {
                assert_eq!(ma, mb, "round {round}: first-cube models diverge");
                identical_models += 1;
            }
        }
    }
    // The instance mix must actually exercise both halves of the SAT side of
    // the contract: families with a satisfying cube at all, and families
    // whose first cube is the satisfying one (bit-identical model case).
    assert!(
        sat_families >= 3,
        "only {sat_families} satisfiable families"
    );
    assert!(
        identical_models >= 1,
        "no family exercised the identical-model case"
    );
}

#[test]
fn backends_agree_under_a_pre_raised_interrupt() {
    let mut rng = StdRng::seed_from_u64(0x1234);
    let cnf = Cnf::random_3cnf(12, 54, &mut rng);
    let set = random_set(12, 3, &mut rng);
    let cubes: Vec<Cube> = set.cubes().collect();

    let flag = InterruptFlag::new();
    flag.raise();
    // On one worker and on a real pool of four, every cube is still claimed
    // and reported: abandoned as Unknown before any search, with no model.
    for backend in [BackendKind::Fresh, BackendKind::Warm] {
        for workers in [1, 4] {
            let config = SolveModeConfig {
                cost: CostMetric::Conflicts,
                backend,
                num_workers: workers,
                ..SolveModeConfig::default()
            };
            let result =
                CubeOracle::with_test_policy(&cnf, &config, exact_workers(FaultPlan::default()))
                    .solve_batch(&cubes, Some(&flag));
            let context = format!("{backend}, workers={workers}");
            assert_eq!(result.verdicts.len(), cubes.len(), "{context}");
            assert!(
                result
                    .verdicts
                    .iter()
                    .all(|&v| v == Some(VerdictSummary::Unknown)),
                "{context}"
            );
            assert!(result.models.is_empty(), "{context}");
            assert!(result.costs.iter().all(|&c| c == 0.0), "{context}");
            assert_eq!(result.solver_stats.conflicts, 0, "{context}");
        }
    }
}

#[test]
fn warm_backend_is_no_more_expensive_over_whole_families() {
    // The performance half of the contract on a conflict-heavy family:
    // carried-over learnt clauses make the warm total conflict count at most
    // the fresh total.
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let cnf = Cnf::random_3cnf(16, 72, &mut rng);
    let set = random_set(16, 4, &mut rng);
    let cubes: Vec<Cube> = set.cubes().collect();
    let fresh = run(&cnf, &cubes, BackendKind::Fresh);
    let warm = run(&cnf, &cubes, BackendKind::Warm);
    let fresh_total: f64 = fresh.costs.iter().sum();
    let warm_total: f64 = warm.costs.iter().sum();
    assert!(
        warm_total <= fresh_total + 1e-9,
        "warm {warm_total} vs fresh {fresh_total}"
    );
}

/// What the rebuild-per-cube fresh backend (one `Solver::from_cnf` per cube)
/// returned for the family of [`fresh_fixture_family`]: the per-cube
/// propagation costs and conflict counts, and an FNV-1a digest of the `Debug`
/// text of the result's columns and side lists (costs, verdicts, models, DRAT
/// certificates) and of the per-variable conflict totals. Recorded at the
/// commit that gave ternary clauses watch lists of their own (solver policy:
/// propagation order moved every count), from a loop of exactly that shape —
/// a `Solver::from_cnf_with_config` per cube, its stats delta, verdict,
/// model or `unsat_certificate`, and `conflict_counts` summed — whose output
/// the untouched `FreshBackend` matched digest for digest. The digest alone
/// was re-recorded from the same loop when certificates began carrying the
/// antecedent hints of every learnt clause (the loop reproduced the old
/// digest, `0x7527_26a7_1889_e0d3`, on the tree before that change); the
/// costs did not move.
struct FreshFixture {
    costs: [f64; 16],
    conflicts: [f64; 16],
    digest: u64,
}

const FRESH_FIXTURE: FreshFixture = FreshFixture {
    costs: [
        579.0, 133.0, 197.0, 79.0, 312.0, 486.0, 197.0, 189.0, 453.0, 312.0, 205.0, 332.0, 293.0,
        407.0, 150.0, 195.0,
    ],
    conflicts: [
        32.0, 8.0, 11.0, 4.0, 18.0, 36.0, 13.0, 12.0, 27.0, 15.0, 12.0, 18.0, 17.0, 19.0, 8.0, 10.0,
    ],
    digest: 0xb04e_0079_f8a3_3c29,
};

fn fresh_fixture_family() -> (Cnf, Vec<Cube>) {
    let mut rng = StdRng::seed_from_u64(0xF1E6);
    let cnf = Cnf::random_3cnf(70, 300, &mut rng);
    let cubes = random_set(70, 4, &mut rng).cubes().collect();
    (cnf, cubes)
}

/// A pool of exactly `num_workers` slots that injects `faults`.
fn exact_workers(faults: FaultPlan) -> OracleTestPolicy {
    OracleTestPolicy {
        exact_workers: true,
        faults,
    }
}

fn fresh_fixture_oracle(
    cnf: &Cnf,
    cost: CostMetric,
    workers: usize,
    fault_plan: FaultPlan,
) -> CubeOracle {
    let config = SolveModeConfig {
        cost,
        backend: BackendKind::Fresh,
        solver_config: SolverConfig {
            proof: true,
            ..SolverConfig::default()
        },
        num_workers: workers,
    };
    CubeOracle::with_test_policy(cnf, &config, exact_workers(fault_plan))
}

/// Requires one batch's columns and side lists, and `conflicts`, its share
/// of the oracle's per-variable conflict tally, to match the fixture.
fn assert_matches_fixture(result: &BatchResult, conflicts: &[u64], context: &str) {
    assert_eq!(result.costs, FRESH_FIXTURE.costs, "{context}");
    let text = format!(
        "{:?}{:?}{:?}{:?}{:?}",
        result.costs, result.verdicts, result.models, result.proofs, conflicts
    );
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(digest, FRESH_FIXTURE.digest, "{context}");
}

#[test]
fn fresh_oracle_reproduces_the_rebuild_per_cube_fixture_batch_after_batch() {
    let (cnf, cubes) = fresh_fixture_family();
    let mut oracle = fresh_fixture_oracle(&cnf, CostMetric::Propagations, 1, FaultPlan::default());
    let mut counting = fresh_fixture_oracle(&cnf, CostMetric::Conflicts, 1, FaultPlan::default());
    let mut tally = vec![0; cnf.num_vars()];
    for batch in 0..2 {
        let result = oracle.solve_batch(&cubes, None);
        let (sat, unsat, unknown) = result.verdict_counts();
        assert!(sat > 0 && unsat > 0 && unknown == 0);
        let now = oracle.conflict_activity();
        let conflicts: Vec<u64> = now.iter().zip(&tally).map(|(n, t)| n - t).collect();
        tally = now.to_vec();
        assert_matches_fixture(&result, &conflicts, &format!("batch {batch}"));
        let conflicts = counting.solve_batch(&cubes, None).costs;
        assert_eq!(conflicts, FRESH_FIXTURE.conflicts, "batch {batch}");
    }
}

#[test]
fn fresh_oracle_reproduces_the_fixture_across_a_mid_family_solve_panic() {
    fault::silence_injected_panics();
    let (cnf, cubes) = fresh_fixture_family();
    // The panicking worker's backend is quarantined and a replacement (with
    // a template of its own) re-solves the cube.
    let plan = FaultPlan {
        solve_panics: vec![6],
    };
    let mut oracle = fresh_fixture_oracle(&cnf, CostMetric::Propagations, 2, plan);
    let result = oracle.solve_batch(&cubes, None);
    assert_eq!(result.solver_stats.worker_panics, 1);
    assert_eq!(result.solver_stats.requeued_cubes, 1);
    assert_matches_fixture(&result, oracle.conflict_activity(), "panic on solve 6");
}
