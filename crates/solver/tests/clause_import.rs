//! Regression suite for the solver side of cooperative clause sharing:
//! the export hook in conflict analysis, the root-level import entry point,
//! the immediate application of imported units, the assumption-prefix
//! invalidation rule shared with `add_clause`, and the DRAT logging of
//! accepted imports (certificates must stay checkable).

use pdsat_checker::check_unsat_proof;
use pdsat_cnf::{Cnf, DratStep, Lit};
use pdsat_solver::{ShareChannel, SharedClause, Solver, SolverConfig, Verdict};
use std::sync::Arc;
use std::sync::Mutex;

fn lit(d: i64) -> Lit {
    Lit::from_dimacs(d)
}

/// A loopback channel: everything exported is handed back on the next fetch.
#[derive(Default)]
struct VecChannel {
    clauses: Mutex<Vec<SharedClause>>,
}

impl ShareChannel for VecChannel {
    fn export(&self, lits: &[Lit], lbd: u32) {
        self.clauses.lock().unwrap().push(SharedClause {
            lits: lits.to_vec(),
            lbd,
        });
    }

    fn fetch(&self, out: &mut Vec<SharedClause>) {
        out.append(&mut self.clauses.lock().unwrap());
    }
}

#[test]
fn imported_unit_tightens_root_trail() {
    // x0 → x1 → x2; importing the unit [x0] must propagate the whole chain
    // at the root, so refuting ¬x2 afterwards costs no search at all.
    let mut cnf = Cnf::new(3);
    cnf.add_clause([lit(-1), lit(2)]);
    cnf.add_clause([lit(-2), lit(3)]);
    let mut solver = Solver::from_cnf(&cnf);
    assert!(solver.import_clauses([SharedClause {
        lits: vec![lit(1)],
        lbd: 1,
    }]));
    assert_eq!(solver.stats().imported_clauses, 1);
    assert_eq!(solver.stats().import_dropped, 0);

    let before = *solver.stats();
    assert_eq!(solver.solve_with_assumptions(&[lit(-3)]), Verdict::Unsat);
    let delta = solver.stats().delta_since(&before);
    assert_eq!(
        delta.decisions, 0,
        "the imported unit must already decide the query at the root"
    );
    assert_eq!(delta.conflicts, 0);

    // The formula stays satisfiable and the model honors the import.
    match solver.solve() {
        Verdict::Sat(model) => {
            assert!(cnf.is_satisfied_by(&model));
            assert_eq!(model.lit_value(lit(1)).to_bool(), Some(true));
            assert_eq!(model.lit_value(lit(3)).to_bool(), Some(true));
        }
        other => panic!("expected SAT, got {other:?}"),
    }
}

#[test]
fn import_invalidates_retained_assumption_prefix() {
    // Same rule as `add_clause`: a foreign clause may be falsified or unit
    // under the retained assumption levels, so the import must drop them.
    let mut cnf = Cnf::new(4);
    cnf.add_clause([lit(1), lit(2), lit(3)]);
    cnf.add_clause([lit(-1), lit(4)]);
    let mut solver = Solver::from_cnf(&cnf);
    assert!(solver.solve_with_assumptions(&[lit(1), lit(2)]).is_sat());
    assert_eq!(solver.retained_assumptions(), &[lit(1), lit(2)]);

    assert!(solver.import_clauses([SharedClause {
        lits: vec![lit(-2), lit(-4)],
        lbd: 2,
    }]));
    assert!(
        solver.retained_assumptions().is_empty(),
        "import must invalidate the saved assumption prefix"
    );
    assert!(solver.solve_with_assumptions(&[lit(1), lit(2)]).is_unsat());
}

#[test]
fn export_hook_offers_units_binaries_and_glue() {
    let cnf = Cnf::pigeonhole(5);
    let channel = Arc::new(VecChannel::default());
    let config = SolverConfig {
        share_lbd_max: 2,
        ..SolverConfig::default()
    };
    let mut solver = Solver::from_cnf_with_config(&cnf, config.clone());
    solver.set_share_channel(Some(channel.clone()));
    assert!(solver.solve().is_unsat());
    assert!(solver.stats().conflicts > 0);

    let exported = channel.clauses.lock().unwrap();
    assert_eq!(solver.stats().exported_clauses, exported.len() as u64);
    assert!(
        !exported.is_empty(),
        "a conflict-rich UNSAT solve must export something"
    );
    for clause in exported.iter() {
        assert!(
            clause.lits.len() <= 2 || clause.lbd <= config.share_lbd_max,
            "exported clause violates the filter: {} lits, lbd {}",
            clause.lits.len(),
            clause.lbd
        );
    }
}

#[test]
fn no_channel_means_no_exports() {
    let mut solver = Solver::from_cnf(&Cnf::pigeonhole(5));
    assert!(solver.solve().is_unsat());
    assert_eq!(solver.stats().exported_clauses, 0);
}

#[test]
fn accepted_imports_are_logged_and_certificates_check() {
    // Exporter solves PHP(4) and publishes its learnt clauses; a proof-logging
    // importer attaches them, and every accepted import must appear as a DRAT
    // addition that keeps the final UNSAT certificate checkable.
    let cnf = Cnf::pigeonhole(4);
    let channel = Arc::new(VecChannel::default());
    let mut exporter = Solver::from_cnf(&cnf);
    exporter.set_share_channel(Some(channel.clone()));
    assert!(exporter.solve().is_unsat());

    let mut fetched = Vec::new();
    channel.fetch(&mut fetched);
    assert!(!fetched.is_empty());

    let mut importer = Solver::from_cnf_with_config(
        &cnf,
        SolverConfig {
            proof: true,
            ..SolverConfig::default()
        },
    );
    let steps_before = importer.proof_steps().unwrap().len();
    importer.import_clauses(fetched.iter().cloned());
    let stats = *importer.stats();
    assert_eq!(
        stats.imported_clauses + stats.import_dropped,
        fetched.len() as u64,
        "every fetched clause is either attached or counted as dropped"
    );
    assert!(
        stats.imported_clauses > 0,
        "some glue must be RUP-importable"
    );
    // An imported unit may complete the refutation at the root, appending
    // the empty clause; count only proper clause additions.
    let additions = importer.proof_steps().unwrap()[steps_before..]
        .iter()
        .filter(|s| matches!(s, DratStep::Add(l) if !l.is_empty()))
        .count();
    assert_eq!(
        additions as u64, stats.imported_clauses,
        "exactly the accepted imports are logged as DRAT additions"
    );

    assert!(importer.solve().is_unsat());
    let proof = importer
        .unsat_certificate()
        .expect("proof-logging UNSAT solver must produce a certificate");
    check_unsat_proof(&cnf, &[], &proof)
        .unwrap_or_else(|failure| panic!("checker rejected certificate with imports: {failure}"));
}

#[test]
fn non_rup_imports_are_dropped_only_under_proof_logging() {
    // (x2 ∨ x3) does not follow by unit propagation from (x0 ∨ x1), so a
    // proof-logging importer must refuse it (an unloggable addition), while a
    // plain importer trusts the channel contract and attaches it.
    let mut cnf = Cnf::new(4);
    cnf.add_clause([lit(1), lit(2)]);
    let foreign = SharedClause {
        lits: vec![lit(3), lit(4)],
        lbd: 2,
    };

    let mut proving = Solver::from_cnf_with_config(
        &cnf,
        SolverConfig {
            proof: true,
            ..SolverConfig::default()
        },
    );
    assert!(proving.import_clauses([foreign.clone()]));
    assert_eq!(proving.stats().imported_clauses, 0);
    assert_eq!(proving.stats().import_dropped, 1);

    let mut plain = Solver::from_cnf(&cnf);
    assert!(plain.import_clauses([foreign]));
    assert_eq!(plain.stats().imported_clauses, 1);
    assert_eq!(plain.stats().import_dropped, 0);
}

#[test]
fn satisfied_and_eliminated_imports_are_dropped() {
    let mut cnf = Cnf::new(3);
    cnf.add_clause([lit(1)]);
    cnf.add_clause([lit(1), lit(2), lit(3)]);
    let mut solver = Solver::from_cnf(&cnf);
    // Already satisfied at the root by the unit x0.
    assert!(solver.import_clauses([SharedClause {
        lits: vec![lit(1), lit(2)],
        lbd: 2,
    }]));
    assert_eq!(solver.stats().imported_clauses, 0);
    assert_eq!(solver.stats().import_dropped, 1);
}
