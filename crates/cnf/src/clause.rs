//! Clauses: disjunctions of literals.

use crate::{Assignment, Lit, Value};
use std::fmt;

/// A disjunction of literals.
///
/// Clauses are plain data: the solver crate keeps its own arena-allocated
/// clause representation for performance, while `Clause` is the exchange
/// format used by encoders, the DIMACS reader and tests.
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Clause, Lit, Var};
/// let c: Clause = [Lit::positive(Var::new(0)), Lit::negative(Var::new(3))]
///     .into_iter()
///     .collect();
/// assert_eq!(c.len(), 2);
/// assert!(!c.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates an empty clause (which is unsatisfiable).
    #[must_use]
    pub fn new() -> Clause {
        Clause { lits: Vec::new() }
    }

    /// Creates a clause from literals.
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Clause {
        Clause {
            lits: lits.into_iter().collect(),
        }
    }

    /// Creates the unit clause `{lit}`.
    #[must_use]
    pub fn unit(lit: Lit) -> Clause {
        Clause { lits: vec![lit] }
    }

    /// Number of literals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` when the clause has no literals (the empty clause is false).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Literals of this clause.
    #[must_use]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Adds a literal to the clause.
    pub fn push(&mut self, lit: Lit) {
        self.lits.push(lit);
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> impl Iterator<Item = Lit> + '_ {
        self.lits.iter().copied()
    }

    /// `true` if the clause contains `lit`.
    #[must_use]
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.contains(&lit)
    }

    /// Evaluates the clause under a (partial) assignment.
    ///
    /// Returns [`Value::True`] if some literal is satisfied, [`Value::False`]
    /// if all literals are falsified, and [`Value::Unassigned`] otherwise.
    #[must_use]
    pub fn evaluate(&self, assignment: &Assignment) -> Value {
        let mut undecided = false;
        for &lit in &self.lits {
            match assignment.lit_value(lit) {
                Value::True => return Value::True,
                Value::False => {}
                Value::Unassigned => undecided = true,
            }
        }
        if undecided {
            Value::Unassigned
        } else {
            Value::False
        }
    }

    /// Removes duplicate literals and reports whether the clause is a
    /// tautology (contains both `l` and `¬l`).
    ///
    /// Returns `true` when the clause is tautological; in that case the clause
    /// contents are left in an unspecified (but valid) state and the clause
    /// should be dropped by the caller.
    pub fn normalize(&mut self) -> bool {
        self.lits.sort_unstable();
        self.lits.dedup();
        self.lits
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1])
    }

    /// Largest variable index mentioned in the clause, if any.
    #[must_use]
    pub fn max_var_index(&self) -> Option<usize> {
        self.lits.iter().map(|l| l.var().index()).max()
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<T: IntoIterator<Item = Lit>>(iter: T) -> Self {
        Clause::from_lits(iter)
    }
}

impl Extend<Lit> for Clause {
    fn extend<T: IntoIterator<Item = Lit>>(&mut self, iter: T) {
        self.lits.extend(iter);
    }
}

impl From<Vec<Lit>> for Clause {
    fn from(lits: Vec<Lit>) -> Self {
        Clause { lits }
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = Lit;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Lit>>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter().copied()
    }
}

impl IntoIterator for Clause {
    type Item = Lit;
    type IntoIter = std::vec::IntoIter<Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.into_iter()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "⊥");
        }
        let parts: Vec<String> = self.lits.iter().map(|l| l.to_string()).collect();
        write!(f, "({})", parts.join(" ∨ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn construction_and_queries() {
        let mut c = Clause::new();
        assert!(c.is_empty());
        c.push(lit(1));
        c.push(lit(-2));
        assert_eq!(c.len(), 2);
        assert!(c.contains(lit(-2)));
        assert!(!c.contains(lit(2)));
        assert_eq!(c.max_var_index(), Some(1));
    }

    #[test]
    fn evaluate_under_partial_assignment() {
        let c = Clause::from_lits([lit(1), lit(-2)]);
        let mut a = Assignment::new(2);
        assert_eq!(c.evaluate(&a), Value::Unassigned);
        a.assign(Var::new(0), false);
        assert_eq!(c.evaluate(&a), Value::Unassigned);
        a.assign(Var::new(1), true);
        assert_eq!(c.evaluate(&a), Value::False);
        a.assign(Var::new(1), false);
        assert_eq!(c.evaluate(&a), Value::True);
    }

    #[test]
    fn empty_clause_is_false() {
        let c = Clause::new();
        let a = Assignment::new(0);
        assert_eq!(c.evaluate(&a), Value::False);
        assert_eq!(c.to_string(), "⊥");
    }

    #[test]
    fn normalize_removes_duplicates_and_detects_tautology() {
        let mut c = Clause::from_lits([lit(1), lit(1), lit(-3)]);
        assert!(!c.normalize());
        assert_eq!(c.len(), 2);

        let mut t = Clause::from_lits([lit(2), lit(-2)]);
        assert!(t.normalize());
    }

    #[test]
    fn display_is_readable() {
        let c = Clause::from_lits([lit(1), lit(-2)]);
        assert_eq!(c.to_string(), "(x1 ∨ ¬x2)");
    }

    #[test]
    fn collect_and_iterate() {
        let c: Clause = [lit(3), lit(-1)].into_iter().collect();
        let back: Vec<Lit> = c.iter().collect();
        assert_eq!(back, vec![lit(3), lit(-1)]);
        let owned: Vec<Lit> = c.into_iter().collect();
        assert_eq!(owned.len(), 2);
    }
}
