//! Partial assignments of truth values to variables.

use crate::{Lit, Value, Var};
use std::fmt;

/// A partial assignment over a fixed set of variables `x_0 … x_{n-1}`.
///
/// Used both as the output of the SAT solver (a model, i.e. a total
/// assignment) and as scratch space when evaluating formulas.
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Assignment, Value, Var};
/// let mut a = Assignment::new(4);
/// a.assign(Var::new(1), true);
/// assert_eq!(a.value(Var::new(1)), Value::True);
/// assert_eq!(a.value(Var::new(0)), Value::Unassigned);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    values: Vec<Option<bool>>,
}

impl Assignment {
    /// Creates an assignment over `num_vars` variables, all unassigned.
    #[must_use]
    pub fn new(num_vars: usize) -> Assignment {
        Assignment {
            values: vec![None; num_vars],
        }
    }

    /// Creates a total assignment from a vector of Boolean values.
    #[must_use]
    pub fn from_bools(values: &[bool]) -> Assignment {
        Assignment {
            values: values.iter().map(|&b| Some(b)).collect(),
        }
    }

    /// Number of variables this assignment ranges over.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    #[must_use]
    pub fn value(&self, var: Var) -> Value {
        match self.values[var.index()] {
            Some(true) => Value::True,
            Some(false) => Value::False,
            None => Value::Unassigned,
        }
    }

    /// Value of a literal under this assignment.
    ///
    /// # Panics
    ///
    /// Panics if the literal's variable is out of range.
    #[must_use]
    pub fn lit_value(&self, lit: Lit) -> Value {
        let v = self.value(lit.var());
        if lit.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// Assigns `value` to `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn assign(&mut self, var: Var, value: bool) {
        self.values[var.index()] = Some(value);
    }

    /// Makes the literal true (assigns its variable accordingly).
    pub fn assign_lit(&mut self, lit: Lit) {
        self.assign(lit.var(), lit.is_positive());
    }

    /// Clears all assignments.
    pub fn clear(&mut self) {
        self.values.iter_mut().for_each(|v| *v = None);
    }

    /// Iterator over `(Var, bool)` pairs for all assigned variables.
    pub fn iter(&self) -> impl Iterator<Item = (Var, bool)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|b| (Var::new(i as u32), b)))
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (var, val) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}={}", var, u8::from(val))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_unassign_cycle() {
        let mut a = Assignment::new(3);
        assert_eq!(a.iter().count(), 0);
        a.assign(Var::new(0), true);
        a.assign(Var::new(1), false);
        a.assign(Var::new(2), true);
        assert_eq!(a.iter().count(), 3);
        a.clear();
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn literal_values_respect_polarity() {
        let mut a = Assignment::new(1);
        let v = Var::new(0);
        a.assign(v, false);
        assert_eq!(a.lit_value(Lit::positive(v)), Value::False);
        assert_eq!(a.lit_value(Lit::negative(v)), Value::True);
        let fresh = Assignment::new(1);
        assert_eq!(fresh.lit_value(Lit::negative(v)), Value::Unassigned);
    }

    #[test]
    fn assign_lit_sets_polarity() {
        let mut a = Assignment::new(2);
        a.assign_lit(Lit::negative(Var::new(1)));
        assert_eq!(a.value(Var::new(1)), Value::False);
        a.assign_lit(Lit::positive(Var::new(1)));
        assert_eq!(a.value(Var::new(1)), Value::True);
    }

    #[test]
    fn from_bools_is_total() {
        let a = Assignment::from_bools(&[true, false]);
        assert_eq!(a.num_vars(), 2);
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(pairs, vec![(Var::new(0), true), (Var::new(1), false)]);
    }

    #[test]
    fn display_lists_assigned_vars() {
        let mut a = Assignment::new(3);
        a.assign(Var::new(2), true);
        assert_eq!(a.to_string(), "{x3=1}");
    }
}
