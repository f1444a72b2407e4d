//! What entering a solve call counts, pinned on a formula small enough to
//! count by hand: the verdict and the `propagations`, `decisions`,
//! `reused_assumptions` and `saved_propagations` each call adds, for an
//! assumption the root refutes, assumptions the root already satisfies, a
//! repeated cube, a shared prefix and assumptions on variables the solver
//! does not know yet. An unknown variable is created when a solve first
//! establishes its assumption, so a cube refuted before reaching it leaves
//! the solver's size as it was.
//!
//! The formula, over x1..x5: `x4` (a unit), `¬x4 ∨ ¬x5`, `¬x1 ∨ x2` and
//! `¬x2 ∨ ¬x4 ∨ x3`. Loading propagates `x4` and then `¬x5`: two
//! propagations at the root, before any call.

use pdsat_cnf::{Cnf, Lit};
use pdsat_solver::{Solver, SolverStats, Verdict};

fn lit(d: i64) -> Lit {
    Lit::from_dimacs(d)
}

fn loaded() -> Solver {
    let mut cnf = Cnf::new(5);
    for clause in [&[4][..], &[-4, -5], &[-1, 2], &[-2, -4, 3]] {
        cnf.add_clause(clause.iter().map(|&d| lit(d)));
    }
    let solver = Solver::from_cnf(&cnf);
    assert_eq!(solver.stats().propagations, 2, "x4, then ¬x5, at the root");
    solver
}

/// What one call added: propagations, decisions, reused assumptions, saved
/// propagations.
fn entry(solver: &mut Solver, cube: &[i64]) -> (Verdict, [u64; 4]) {
    let before: SolverStats = *solver.stats();
    let cube: Vec<Lit> = cube.iter().map(|&d| lit(d)).collect();
    let verdict = solver.solve_with_assumptions(&cube);
    let d = solver.stats().delta_since(&before);
    assert_eq!(
        (d.conflicts, d.restarts),
        (0, 0),
        "no search in these calls"
    );
    let counts = [
        d.propagations,
        d.decisions,
        d.reused_assumptions,
        d.saved_propagations,
    ];
    (verdict, counts)
}

#[test]
fn an_assumption_false_at_the_root_is_refuted_without_propagating() {
    let mut s = loaded();
    let (verdict, counts) = entry(&mut s, &[5]);
    assert_eq!(verdict, Verdict::Unsat);
    assert_eq!(counts, [0, 0, 0, 0]);
    assert!(s.is_ok(), "an assumption's refutation is not the formula's");
    assert!(s.retained_assumptions().is_empty());
}

#[test]
fn assumptions_true_at_the_root_only_open_levels() {
    let mut s = loaded();
    // Both levels open empty; the three free variables are decided, one
    // propagation each.
    let (verdict, counts) = entry(&mut s, &[4, -5]);
    assert!(verdict.is_sat());
    assert_eq!(counts, [3, 3, 0, 0]);
    assert_eq!(s.retained_assumptions(), [lit(4), lit(-5)]);
    // Entered again, both levels are reused; they hold no literal.
    let (verdict, counts) = entry(&mut s, &[4, -5]);
    assert!(verdict.is_sat());
    assert_eq!(counts, [3, 3, 2, 0]);
}

#[test]
fn a_repeated_cube_reuses_its_whole_trail() {
    let mut s = loaded();
    // x1, then x2 by a binary clause and x3 by a ternary one: three
    // propagations, and nothing is left to decide.
    let (verdict, counts) = entry(&mut s, &[1]);
    assert!(verdict.is_sat());
    assert_eq!(counts, [3, 0, 0, 0]);
    // The repeat finds its level in place and propagates nothing.
    let (verdict, counts) = entry(&mut s, &[1]);
    assert!(verdict.is_sat());
    assert_eq!(counts, [0, 0, 1, 3]);
}

#[test]
fn a_shared_prefix_is_kept_and_the_rest_is_replayed() {
    let mut s = loaded();
    let (verdict, counts) = entry(&mut s, &[1, 3]);
    assert!(verdict.is_sat());
    assert_eq!(counts, [3, 0, 0, 0]);
    assert_eq!(s.retained_assumptions(), [lit(1), lit(3)]);
    // The first level is kept with its three literals; `¬x3` is false there.
    let (verdict, counts) = entry(&mut s, &[1, -3]);
    assert_eq!(verdict, Verdict::Unsat);
    assert_eq!(counts, [0, 0, 1, 3]);
    assert_eq!(s.retained_assumptions(), [lit(1)]);
    // A different first literal keeps nothing: `¬x1`, then `x2`, which
    // implies `x3`, and every variable is assigned without a decision.
    let (verdict, counts) = entry(&mut s, &[-1, 2]);
    assert!(verdict.is_sat());
    assert_eq!(counts, [3, 0, 0, 0]);
}

#[test]
fn an_assumption_on_an_unknown_variable_creates_it() {
    let mut s = loaded();
    assert_eq!(s.num_vars(), 5);
    let (verdict, counts) = entry(&mut s, &[-7]);
    assert_eq!(s.num_vars(), 7);
    let model = verdict.model().expect("satisfiable");
    assert_eq!(model.num_vars(), 7);
    assert_eq!(model.lit_value(lit(-7)).to_bool(), Some(true));
    // `¬x7`, then x1, x2, x3 and x6 decided in the default phase, false,
    // which implies nothing: one propagation each.
    assert_eq!(counts, [5, 4, 0, 0]);
}

#[test]
fn an_unknown_variable_behind_a_refuted_assumption_is_not_created() {
    let mut s = loaded();
    // `x5` is false at the root: the call stops there, before `x7` is
    // reached, without propagating.
    let (verdict, counts) = entry(&mut s, &[5, 7]);
    assert_eq!(verdict, Verdict::Unsat);
    assert_eq!(counts, [0, 0, 0, 0]);
    assert_eq!(s.num_vars(), 5);
    assert!(s.retained_assumptions().is_empty());
    // `¬x5` is true at the root and opens an empty level; `x7` is reached,
    // created and propagated, then x1, x2, x3 and x6 are decided false, one
    // propagation each.
    let (verdict, counts) = entry(&mut s, &[-5, 7]);
    assert_eq!(s.num_vars(), 7);
    let model = verdict.model().expect("satisfiable");
    assert_eq!(model.num_vars(), 7);
    assert_eq!(model.lit_value(lit(7)).to_bool(), Some(true));
    assert_eq!(model.lit_value(lit(-6)).to_bool(), Some(true));
    assert_eq!(counts, [5, 4, 0, 0]);
    assert_eq!(s.retained_assumptions(), [lit(-5), lit(7)]);
}

#[test]
fn an_unknown_variable_between_known_assumptions_holds_its_level() {
    let mut s = loaded();
    // x1, then x2 and x3 by propagation; `x7` is created and propagated on
    // a level of its own; `x3` is already true and opens an empty one; x6,
    // the one free variable left, is decided false.
    let (verdict, counts) = entry(&mut s, &[1, 7, 3]);
    assert_eq!(s.num_vars(), 7);
    let model = verdict.model().expect("satisfiable");
    assert_eq!(model.num_vars(), 7);
    assert_eq!(model.lit_value(lit(7)).to_bool(), Some(true));
    assert_eq!(counts, [5, 1, 0, 0]);
    assert_eq!(s.retained_assumptions(), [lit(1), lit(7), lit(3)]);
    // The first two levels are kept with their four literals; `¬x3` is
    // false there.
    let (verdict, counts) = entry(&mut s, &[1, 7, -3]);
    assert_eq!(verdict, Verdict::Unsat);
    assert_eq!(counts, [0, 0, 2, 4]);
    assert_eq!(s.retained_assumptions(), [lit(1), lit(7)]);
}
