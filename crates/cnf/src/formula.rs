//! CNF formulas.

use crate::{Assignment, Cube, Lit, Value, Var};
use rand::Rng;
use std::fmt;

/// A formula in conjunctive normal form over variables `x_0 … x_{n-1}`.
///
/// The formula owns its clauses; it is the exchange format between the
/// encoders (`pdsat-circuit` / `pdsat-ciphers`), the solver and the
/// partitioning machinery. The clauses are stored back to back in one
/// literal array, with one end offset per clause: clause `i` is
/// `lits[ends[i - 1]..ends[i]]` (from 0 for the first), so a formula is two
/// allocations however many clauses it has, and a copy is two memcpys.
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Assignment, Cnf, Lit, Value, Var};
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause([Lit::positive(Var::new(0)), Lit::positive(Var::new(1))]);
/// cnf.add_clause([Lit::negative(Var::new(0))]);
/// let model = Assignment::from_bools(&[false, true]);
/// assert_eq!(cnf.evaluate(&model), Value::True);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    /// Every clause's literals, in clause order.
    lits: Vec<Lit>,
    /// Where each clause's literals end in `lits`.
    ends: Vec<usize>,
}

impl Cnf {
    /// Creates an empty formula over `num_vars` variables.
    #[must_use]
    pub fn new(num_vars: usize) -> Cnf {
        Cnf {
            num_vars,
            lits: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// The pigeonhole formula `PHP(pigeons → pigeons − 1)`: variable
    /// `i · holes + j` puts pigeon `i` into hole `j`, one clause per pigeon
    /// (it sits somewhere) then one per hole and pigeon pair (they do not
    /// share it). Unsatisfiable and hard for resolution — the workspace's
    /// stock small-but-conflict-heavy fixture, whose clause order several
    /// recorded parity fixtures depend on.
    ///
    /// # Panics
    ///
    /// Panics if `pigeons` is zero.
    #[must_use]
    pub fn pigeonhole(pigeons: usize) -> Cnf {
        let holes = pigeons - 1;
        let var = |i: usize, j: usize| Lit::positive(Var::new((i * holes + j) as u32));
        let mut cnf = Cnf::new(pigeons * holes);
        for i in 0..pigeons {
            cnf.add_clause((0..holes).map(|j| var(i, j)));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    cnf.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        cnf
    }

    /// A random formula of `num_clauses` clauses, each over exactly three
    /// distinct variables (no accidental units) — the workspace's stock
    /// conflict-rich random fixture. Per clause the three variables are
    /// drawn first, then the three polarities; seeded tests and their
    /// recorded fixtures depend on that draw order.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars < 3` and a clause is asked for.
    pub fn random_3cnf<R: Rng + ?Sized>(num_vars: usize, num_clauses: usize, rng: &mut R) -> Cnf {
        assert!(
            num_vars >= 3 || num_clauses == 0,
            "a 3-CNF clause needs three distinct variables"
        );
        let mut cnf = Cnf::new(num_vars);
        for _ in 0..num_clauses {
            let mut vars: Vec<u32> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.gen_range(0..num_vars) as u32;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            cnf.add_clause(
                vars.into_iter()
                    .map(|v| Lit::new(Var::new(v), rng.gen_bool(0.5))),
            );
        }
        cnf
    }

    /// A random formula of `num_clauses` clauses of 1 to `max_len` literals
    /// (units, repeated variables and tautologies included — input
    /// diversity for differential tests). Per clause the length is drawn
    /// first, then variable and polarity literal by literal; seeded tests
    /// depend on that draw order.
    pub fn random_cnf<R: Rng + ?Sized>(
        num_vars: usize,
        num_clauses: usize,
        max_len: usize,
        rng: &mut R,
    ) -> Cnf {
        let mut cnf = Cnf::new(num_vars);
        for _ in 0..num_clauses {
            let len = rng.gen_range(1..=max_len);
            cnf.add_clause((0..len).map(|_| {
                let var = Var::new(rng.gen_range(0..num_vars) as u32);
                Lit::new(var, rng.gen_bool(0.5))
            }));
        }
        cnf
    }

    /// Number of variables the formula ranges over.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Total number of literal occurrences.
    #[must_use]
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// `true` when the formula has no clauses (and is trivially satisfiable).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The literals of clause `i`, in the order they were added.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_clauses()`.
    #[must_use]
    pub fn clause(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.lits[start..self.ends[i]]
    }

    /// Iterates over the clauses in order, each as its literals.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let clause = &self.lits[start..end];
            start = end;
            clause
        })
    }

    /// Grows the variable range to at least `num_vars`.
    pub fn ensure_vars(&mut self, num_vars: usize) {
        self.num_vars = self.num_vars.max(num_vars);
    }

    /// Allocates and returns a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Adds a clause, growing the variable range if needed.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let start = self.lits.len();
        self.lits.extend(lits);
        if let Some(max) = self.lits[start..].iter().map(|l| l.var().index()).max() {
            self.ensure_vars(max + 1);
        }
        self.ends.push(self.lits.len());
    }

    /// Adds a unit clause fixing `lit` to true.
    pub fn add_unit(&mut self, lit: Lit) {
        self.add_clause([lit]);
    }

    /// Evaluates the formula under a (partial) assignment.
    ///
    /// Returns [`Value::False`] as soon as some clause is falsified,
    /// [`Value::True`] when every clause is satisfied, and
    /// [`Value::Unassigned`] otherwise.
    #[must_use]
    pub fn evaluate(&self, assignment: &Assignment) -> Value {
        let mut undecided = false;
        'clauses: for clause in self.iter() {
            let mut open = false;
            for &lit in clause {
                match assignment.lit_value(lit) {
                    Value::True => continue 'clauses,
                    Value::False => {}
                    Value::Unassigned => open = true,
                }
            }
            if !open {
                return Value::False; // every literal false, or no literal at all
            }
            undecided = true;
        }
        if undecided {
            Value::Unassigned
        } else {
            Value::True
        }
    }

    /// `true` iff `assignment` is a model of the formula (requires the
    /// assignment to determine every clause).
    #[must_use]
    pub fn is_satisfied_by(&self, assignment: &Assignment) -> bool {
        self.evaluate(assignment) == Value::True
    }

    /// Returns the formula `C[X̃/α]` obtained by substituting the values of a
    /// cube and simplifying: satisfied clauses are dropped and falsified
    /// literals are removed from the remaining clauses.
    ///
    /// The variable numbering is preserved, so models of the simplified
    /// formula extend to models of `C ∧ cube` by applying the cube.
    #[must_use]
    pub fn assign_cube(&self, cube: &Cube) -> Cnf {
        let mut values: Vec<Option<bool>> = vec![None; self.num_vars];
        for lit in cube.iter() {
            if lit.var().index() < self.num_vars {
                values[lit.var().index()] = Some(lit.is_positive());
            }
        }
        let mut out = Cnf::new(self.num_vars);
        'clauses: for clause in self.iter() {
            let start = out.lits.len();
            for &lit in clause {
                match values[lit.var().index()] {
                    Some(v) if v == lit.is_positive() => {
                        // clause satisfied
                        out.lits.truncate(start);
                        continue 'clauses;
                    }
                    Some(_) => {} // literal falsified
                    None => out.lits.push(lit),
                }
            }
            out.ends.push(out.lits.len());
        }
        out
    }

    /// Exhaustively checks satisfiability by enumerating all `2^n`
    /// assignments. Only intended for tests and tiny formulas.
    ///
    /// Returns a model when one exists.
    ///
    /// # Panics
    ///
    /// Panics if the formula has more than 24 variables.
    #[must_use]
    pub fn brute_force_model(&self) -> Option<Assignment> {
        assert!(
            self.num_vars <= 24,
            "brute force only supported up to 24 variables"
        );
        let n = self.num_vars;
        for bits in 0u64..(1u64 << n) {
            let values: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            let a = Assignment::from_bools(&values);
            if self.is_satisfied_by(&a) {
                return Some(a);
            }
        }
        None
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "⊤");
        }
        let parts: Vec<String> = self
            .iter()
            .map(|clause| match clause {
                [] => "⊥".to_string(),
                lits => {
                    let lits: Vec<String> = lits.iter().map(Lit::to_string).collect();
                    format!("({})", lits.join(" ∨ "))
                }
            })
            .collect();
        write!(f, "{}", parts.join(" ∧ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    /// Number of models of `cnf`, by exhaustive enumeration.
    fn model_count(cnf: &Cnf) -> u64 {
        let n = cnf.num_vars();
        assert!(n <= 24, "brute force only supported up to 24 variables");
        (0u64..1 << n)
            .filter(|bits| {
                let values: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                cnf.is_satisfied_by(&Assignment::from_bools(&values))
            })
            .count() as u64
    }

    /// Recorded parity fixtures depend on this exact clause order.
    #[test]
    fn pigeonhole_lists_pigeon_clauses_then_hole_conflicts() {
        let clauses: Vec<Vec<i64>> = Cnf::pigeonhole(3)
            .iter()
            .map(|c| c.iter().copied().map(Lit::to_dimacs).collect())
            .collect();
        let expected: [&[i64]; 9] = [
            &[1, 2],
            &[3, 4],
            &[5, 6],
            &[-1, -3],
            &[-1, -5],
            &[-3, -5],
            &[-2, -4],
            &[-2, -6],
            &[-4, -6],
        ];
        assert_eq!(clauses, expected);
    }

    #[test]
    fn var_range_grows_with_clauses() {
        let mut cnf = Cnf::new(0);
        cnf.add_clause([lit(3), lit(-7)]);
        assert_eq!(cnf.num_vars(), 7);
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.num_literals(), 2);
        let v = cnf.new_var();
        assert_eq!(v.index(), 7);
        assert_eq!(cnf.num_vars(), 8);
    }

    #[test]
    fn evaluation_tracks_clause_status() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1), lit(2)]);
        let mut a = Assignment::new(2);
        assert_eq!(cnf.evaluate(&a), Value::Unassigned);
        a.assign(Var::new(1), true);
        assert_eq!(cnf.evaluate(&a), Value::True);
        a.assign(Var::new(1), false);
        a.assign(Var::new(0), true);
        assert_eq!(cnf.evaluate(&a), Value::False);
    }

    #[test]
    fn assign_cube_simplifies() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x3) with x1 = true →  (x3)
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1), lit(3)]);
        let cube = Cube::from_lits([lit(1)]);
        let simplified = cnf.assign_cube(&cube);
        assert_eq!(simplified.num_clauses(), 1);
        assert_eq!(simplified.clause(0), &[lit(3)]);
        assert_eq!(simplified.num_vars(), 3);
    }

    #[test]
    fn assign_cube_can_produce_empty_clause() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([lit(1)]);
        let cube = Cube::from_lits([lit(-1)]);
        let simplified = cnf.assign_cube(&cube);
        assert_eq!(simplified.num_clauses(), 1);
        assert!(simplified.clause(0).is_empty());
        assert!(simplified.brute_force_model().is_none());
    }

    #[test]
    fn brute_force_finds_models() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(1), lit(2), lit(3)]);
        cnf.add_clause([lit(-1)]);
        cnf.add_clause([lit(-2)]);
        let model = cnf.brute_force_model().expect("satisfiable");
        assert!(cnf.is_satisfied_by(&model));
        assert_eq!(model.value(Var::new(2)), Value::True);
        assert_eq!(model_count(&cnf), 1);
    }

    #[test]
    fn a_clause_evaluates_under_partial_assignment() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(1), lit(-2)]);
        let mut a = Assignment::new(2);
        assert_eq!(cnf.evaluate(&a), Value::Unassigned);
        a.assign(Var::new(0), false);
        assert_eq!(cnf.evaluate(&a), Value::Unassigned);
        a.assign(Var::new(1), true);
        assert_eq!(cnf.evaluate(&a), Value::False);
        a.assign(Var::new(1), false);
        assert_eq!(cnf.evaluate(&a), Value::True);
    }

    #[test]
    fn an_empty_clause_is_false() {
        let mut cnf = Cnf::new(0);
        assert_eq!(cnf.evaluate(&Assignment::new(0)), Value::True);
        cnf.add_clause([]);
        assert_eq!(cnf.num_clauses(), 1);
        assert!(cnf.clause(0).is_empty());
        assert_eq!(cnf.evaluate(&Assignment::new(0)), Value::False);
    }

    #[test]
    fn display_is_readable() {
        let mut cnf = Cnf::new(2);
        assert_eq!(cnf.to_string(), "⊤");
        cnf.add_clause([lit(1), lit(-2)]);
        cnf.add_clause([lit(2)]);
        cnf.add_clause([]);
        assert_eq!(cnf.to_string(), "(x1 ∨ ¬x2) ∧ (x2) ∧ ⊥");
    }

    /// A formula as one `Vec` per clause, the layout the flat one replaces.
    fn clause_list(codes: &[Vec<usize>]) -> Vec<Vec<Lit>> {
        codes
            .iter()
            .map(|c| c.iter().map(|&code| Lit::from_code(code)).collect())
            .collect()
    }

    /// The variable count a clause list needs: one past its largest index.
    fn vars_of(clauses: &[Vec<Lit>]) -> usize {
        clauses
            .iter()
            .flatten()
            .map(|l| l.var().index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// `Value` of `clauses` under `assignment`, clause by clause.
    fn evaluate_list(clauses: &[Vec<Lit>], assignment: &Assignment) -> Value {
        let values: Vec<Value> = clauses
            .iter()
            .map(|c| {
                let lits: Vec<Value> = c.iter().map(|&l| assignment.lit_value(l)).collect();
                if lits.contains(&Value::True) {
                    Value::True
                } else if lits.contains(&Value::Unassigned) {
                    Value::Unassigned
                } else {
                    Value::False
                }
            })
            .collect();
        if values.contains(&Value::False) {
            Value::False
        } else if values.contains(&Value::Unassigned) {
            Value::Unassigned
        } else {
            Value::True
        }
    }

    /// `cnf` holds exactly `clauses`, over `num_vars` variables.
    fn assert_holds(cnf: &Cnf, clauses: &[Vec<Lit>], num_vars: usize) {
        assert_eq!(cnf.num_vars(), num_vars);
        assert_eq!(cnf.num_clauses(), clauses.len());
        assert_eq!(cnf.is_empty(), clauses.is_empty());
        assert_eq!(
            cnf.num_literals(),
            clauses.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(cnf.iter().len(), clauses.len());
        assert!(cnf.iter().eq(clauses.iter().map(Vec::as_slice)));
        for (i, clause) in clauses.iter().enumerate() {
            assert_eq!(cnf.clause(i), clause.as_slice());
        }
    }

    proptest! {
        /// The flat formula answers every query as a list of clauses does,
        /// empty clauses and units included.
        #[test]
        fn the_flat_formula_agrees_with_a_clause_list(
            codes in prop::collection::vec(prop::collection::vec(0usize..16, 0..5), 0..12),
            cube in prop::collection::vec(0usize..20, 0..5),
            values in prop::collection::vec(0u8..3, 12..13),
        ) {
            let clauses = clause_list(&codes);
            let mut cnf = Cnf::new(0);
            for clause in &clauses {
                cnf.add_clause(clause.iter().copied());
            }
            assert_holds(&cnf, &clauses, vars_of(&clauses));

            // A cube over distinct variables, some beyond the formula's.
            let mut fixed: Vec<Lit> = Vec::new();
            for lit in cube.into_iter().map(Lit::from_code) {
                if fixed.iter().all(|f| f.var() != lit.var()) {
                    fixed.push(lit);
                }
            }
            let reduced: Vec<Vec<Lit>> = clauses
                .iter()
                .filter(|c| !c.iter().any(|l| fixed.contains(l)))
                .map(|c| c.iter().copied().filter(|l| !fixed.contains(&!*l)).collect())
                .collect();
            let simplified = cnf.assign_cube(&Cube::from_lits(fixed));
            assert_holds(&simplified, &reduced, cnf.num_vars());

            let mut assignment = Assignment::new(cnf.num_vars());
            for (i, &value) in values.iter().take(cnf.num_vars()).enumerate() {
                if value > 0 {
                    assignment.assign(Var::new(i as u32), value == 2);
                }
            }
            prop_assert_eq!(cnf.evaluate(&assignment), evaluate_list(&clauses, &assignment));
        }

        /// Splitting on any cube preserves the model count:
        /// #models(C) = Σ_α #models(C[X̃/α] ∧ cube-consistent extension).
        #[test]
        fn cube_split_preserves_model_count(seed in 0u64..500) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(3..7usize);
            let mut cnf = Cnf::new(n);
            for _ in 0..rng.gen_range(2..8usize) {
                let len = rng.gen_range(1..4usize);
                let mut clause = Vec::new();
                for _ in 0..len {
                    let v = rng.gen_range(0..n) as u32;
                    clause.push(Lit::new(Var::new(v), rng.gen_bool(0.5)));
                }
                cnf.add_clause(clause);
            }
            let d = rng.gen_range(1..=n.min(3));
            let set: Vec<Var> = (0..d as u32).map(Var::new).collect();
            let total = model_count(&cnf);
            let mut split_total = 0u64;
            for idx in 0..(1u64 << d) {
                let cube = Cube::from_bits(&set, idx);
                let sub = cnf.assign_cube(&cube);
                // Count models of the sub-formula that agree with the cube on X̃.
                let mut with_cube = sub.clone();
                for &l in cube.lits() {
                    with_cube.add_unit(l);
                }
                split_total += model_count(&with_cube);
            }
            prop_assert_eq!(total, split_total);
        }
    }
}
