//! Oracle-level differential suite for cooperative clause sharing: a real
//! 4-worker pool of warm backends with `BatchConfig::clause_sharing` on and
//! one with it off process identical permuted cube families and must report
//! identical verdicts — sharing moves learnt clauses between workers, never
//! answers. Costs and models may legitimately differ (imports steer the
//! search), so the suite asserts semantic parity: per-cube verdicts,
//! sat/unsat counts, model validity against the formula and the cube, and —
//! with proof logging on — that every UNSAT certificate produced *with
//! sharing on* still passes the independent checker. Imports are logged as
//! DRAT additions, so a passing certificate is machine-checked evidence
//! that every imported clause was logically implied for the family.
//!
//! The families run multiple batches on the same persistent oracle: the
//! workers drain the exchange at `begin_batch`, so clauses exported while
//! solving batch N are imported at the start of batch N+1. A single batch
//! would drain an empty ring and never observe an import.

use pdsat_checker::check_unsat_proof;
use pdsat_ciphers::{Grain, InstanceBuilder, A51};
use pdsat_cnf::{Cnf, Cube, Var};
use pdsat_core::{
    BackendKind, BatchConfig, CostMetric, CubeOracle, DecompositionSet, VerdictSummary,
};
use pdsat_solver::{Budget, SolverConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A 4-worker pool of warm backends with proof logging, forced past the
/// CPU clamp so the pool (and the exchange) is real even on small boxes.
fn pool_config(clause_sharing: bool) -> BatchConfig {
    BatchConfig {
        cost: CostMetric::Conflicts,
        backend: BackendKind::Warm,
        num_workers: 4,
        clamp_workers_to_cpus: false,
        clause_sharing,
        solver_config: SolverConfig {
            proof: true,
            ..SolverConfig::default()
        },
        budget: Budget::unlimited(),
        ..BatchConfig::default()
    }
}

fn shuffled<T: Clone>(items: &[T], rng: &mut StdRng) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// Runs `batches` permuted passes over the family on both oracles and
/// checks semantic parity per batch. Returns the number of UNSAT
/// certificates the checker accepted from the sharing-on oracle.
fn assert_sharing_parity(
    label: &str,
    cnf: &Cnf,
    cubes: &[Cube],
    batches: usize,
    rng: &mut StdRng,
) -> usize {
    let shared_cnf = Arc::new(cnf.clone());
    let mut on = CubeOracle::from_arc(Arc::clone(&shared_cnf), pool_config(true));
    let mut off = CubeOracle::from_arc(shared_cnf, pool_config(false));
    let mut certified_unsat = 0usize;

    for batch in 0..batches {
        let order = shuffled(cubes, rng);
        let a = on.solve_batch(&order, None);
        let b = off.solve_batch(&order, None);

        assert_eq!(a.outcomes.len(), b.outcomes.len(), "{label}: batch {batch}");
        assert_eq!(
            a.verdict_counts(),
            b.verdict_counts(),
            "{label}: batch {batch} verdict counts diverged under sharing"
        );
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.index, y.index);
            assert_eq!(
                x.verdict, y.verdict,
                "{label}: batch {batch} cube {} verdict diverged under sharing",
                x.index
            );
            // Models may differ between the runs (imports steer the
            // search), but each must satisfy the formula and the cube.
            for (side, outcome) in [("sharing-on", x), ("sharing-off", y)] {
                if let Some(model) = &outcome.model {
                    assert!(
                        cnf.is_satisfied_by(model),
                        "{label}: batch {batch} {side} model violates the formula"
                    );
                    for &l in order[outcome.index].lits() {
                        assert_eq!(model.lit_value(l).to_bool(), Some(true));
                    }
                }
            }
            assert_eq!(
                x.model.is_some(),
                y.model.is_some(),
                "{label}: batch {batch} cube {} model presence diverged",
                x.index
            );
            if x.verdict == VerdictSummary::Unsat {
                certified_unsat += 1;
                let proof = x.proof.as_ref().unwrap_or_else(|| {
                    panic!("{label}: batch {batch} sharing-on UNSAT cube without certificate")
                });
                check_unsat_proof(cnf, order[x.index].lits(), proof).unwrap_or_else(|failure| {
                    panic!(
                        "{label}: batch {batch} checker rejected sharing-on certificate \
                         for cube {}: {failure}",
                        x.index
                    )
                });
            }
        }
        // The delta invariant: every clause fetched from the exchange is
        // either attached or counted as dropped, never silently lost.
        assert_eq!(b.solver_stats.exported_clauses, 0);
        assert_eq!(b.solver_stats.imported_clauses, 0);
        assert_eq!(b.solver_stats.import_dropped, 0);
    }

    let stats = on.total_stats();
    assert!(
        stats.exported_clauses > 0,
        "{label}: the family must actually exercise the export hook"
    );
    assert!(
        stats.imported_clauses > 0,
        "{label}: later batches must actually import clauses exported earlier \
         (the pool-path begin_batch drain)"
    );
    let off_stats = off.total_stats();
    assert_eq!(off_stats.exported_clauses, 0);
    assert_eq!(off_stats.imported_clauses, 0);
    certified_unsat
}

/// Cubes over the first 5 unknown state bits: each sub-problem keeps a
/// real search inside (the remaining unknown bits), so clauses are actually
/// learnt and shared. Decomposing over *all* unknown bits would make every
/// sub-problem propagation-only and nothing would ever be learnt. The
/// cipher/keystream/suffix combinations are picked where the searches
/// conflict a few hundred times per pass — Bivium propagates too well at
/// this scale to ever conflict, so the suite pairs A5/1 (irregular
/// clocking) with Grain (nonlinear feedback).
fn family_cubes(unknown: &[Var]) -> Vec<Cube> {
    let set = DecompositionSet::new(unknown.iter().copied().take(5));
    set.cubes().collect()
}

#[test]
fn sharing_parity_on_a51_family() {
    let mut rng = StdRng::seed_from_u64(0x51A7_0A51);
    let instance = InstanceBuilder::new(A51::new())
        .keystream_len(48)
        .known_suffix_of_second_register(50)
        .build_random(&mut rng);
    let cubes = family_cubes(&instance.unknown_state_vars());
    assert_eq!(cubes.len(), 32, "5 of 14 unknown bits → 32 cubes");
    let certified = assert_sharing_parity("a51", instance.cnf(), &cubes, 3, &mut rng);
    assert!(
        certified > 0,
        "the weakened family must exercise the certificate hook"
    );
}

#[test]
fn sharing_parity_on_grain_family() {
    let mut rng = StdRng::seed_from_u64(0x51A7_62A1);
    let instance = InstanceBuilder::new(Grain::new())
        .keystream_len(28)
        .known_suffix_of_second_register(130)
        .build_random(&mut rng);
    let cubes = family_cubes(&instance.unknown_state_vars());
    assert_eq!(cubes.len(), 32, "5 of 30 unknown bits → 32 cubes");
    let certified = assert_sharing_parity("grain", instance.cnf(), &cubes, 3, &mut rng);
    assert!(
        certified > 0,
        "the weakened family must exercise the certificate hook"
    );
}

proptest! {
    // Each case spins up two 4-thread pools and replays the family twice,
    // so keep the case count small; the cipher tests above carry the
    // volume, this one carries the input diversity.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every clause a worker imports is RUP-probed and logged as a DRAT
    /// addition, so the end-to-end property "imports are logically implied"
    /// reduces to: on arbitrary families, sharing-on verdicts match
    /// sharing-off and every sharing-on UNSAT certificate — additions
    /// included — passes the independent checker.
    #[test]
    fn imported_clauses_are_implied_on_random_families(
        seed in 0u64..1_000_000_000,
        num_vars in 10usize..=16,
        density in 38u32..=46,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_clauses = num_vars * density as usize / 10;
        let cnf = Cnf::random_3cnf(num_vars, num_clauses, &mut rng);
        let mut set_vars = Vec::new();
        while set_vars.len() < 4 {
            let v = Var::new(rng.gen_range(0..num_vars as u32));
            if !set_vars.contains(&v) {
                set_vars.push(v);
            }
        }
        let set = DecompositionSet::new(set_vars);
        let mut cubes: Vec<Cube> = set.cubes().collect();
        cubes.extend(set.random_sample(8, &mut rng));

        let shared_cnf = Arc::new(cnf.clone());
        let mut on = CubeOracle::from_arc(Arc::clone(&shared_cnf), pool_config(true));
        let mut off = CubeOracle::from_arc(shared_cnf, pool_config(false));
        for _ in 0..2 {
            let order = shuffled(&cubes, &mut rng);
            let a = on.solve_batch(&order, None);
            let b = off.solve_batch(&order, None);
            prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
            for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
                prop_assert_eq!(x.index, y.index);
                prop_assert_eq!(x.verdict, y.verdict);
                if let Some(model) = &x.model {
                    prop_assert!(cnf.is_satisfied_by(model));
                }
                if x.verdict == VerdictSummary::Unsat {
                    let proof = x.proof.as_ref().expect("UNSAT cube without certificate");
                    let checked = check_unsat_proof(&cnf, order[x.index].lits(), proof);
                    prop_assert!(
                        checked.is_ok(),
                        "checker rejected a certificate containing imports: {:?}",
                        checked
                    );
                }
            }
        }
    }
}
