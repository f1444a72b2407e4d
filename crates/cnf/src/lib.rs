//! Propositional CNF machinery shared by the PDSAT reproduction.
//!
//! This crate provides the basic vocabulary of the whole workspace:
//!
//! * [`Var`] and [`Lit`] — Boolean variables and literals with a compact
//!   integer representation (the same encoding MiniSat uses: a literal is
//!   `2·var + sign`).
//! * [`Clause`] — a disjunction of literals.
//! * [`Cnf`] — a formula in conjunctive normal form together with the number
//!   of variables it ranges over.
//! * [`Assignment`] — a partial assignment `X → {true, false, unassigned}`.
//! * [`Cube`] — a conjunction of literals; fixing a cube over a decomposition
//!   set produces one member of a decomposition family (one sub-problem of a
//!   partitioning in the sense of Semenov & Zaikin, PaCT 2015).
//! * [`dimacs`] — reading and writing the DIMACS CNF exchange format.
//! * [`drat`] — DRAT proof steps ([`DratStep`], [`DratProof`]) and the
//!   standard text codec, shared by the solver's proof logger and the
//!   standalone certificate checker.
//!
//! # Example
//!
//! ```
//! use pdsat_cnf::{Cnf, Lit, Var};
//!
//! // (x1 ∨ ¬x2) ∧ (x2 ∨ x3)
//! let mut cnf = Cnf::new(3);
//! cnf.add_clause([Lit::positive(Var::new(0)), Lit::negative(Var::new(1))]);
//! cnf.add_clause([Lit::positive(Var::new(1)), Lit::positive(Var::new(2))]);
//! assert_eq!(cnf.num_clauses(), 2);
//! assert_eq!(cnf.num_vars(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod clause;
mod cube;
pub mod dimacs;
pub mod drat;
mod formula;
mod var;

pub use assignment::Assignment;
pub use clause::Clause;
pub use cube::Cube;
pub use drat::{DratProof, DratStep};
pub use formula::Cnf;
pub use var::{Lit, Var};

/// Truth value of a variable or formula under a (partial) assignment.
///
/// The `Unassigned` value is used both for unassigned variables and for
/// clauses/formulas whose value is not yet determined by a partial assignment.
///
/// The discriminants are part of the contract: `pdsat_solver`'s ternary
/// propagation multiplies two of them (and asserts these three numbers at
/// compile time), so they are spelled out rather than left to declaration
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// The variable/clause/formula evaluates to true.
    True = 0,
    /// The variable/clause/formula evaluates to false.
    False = 1,
    /// The value is not determined by the current partial assignment.
    Unassigned = 2,
}

impl Value {
    /// Logical negation; `Unassigned` is a fixed point.
    #[must_use]
    pub fn negate(self) -> Value {
        match self {
            Value::True => Value::False,
            Value::False => Value::True,
            Value::Unassigned => Value::Unassigned,
        }
    }

    /// Converts to `Some(bool)` when determined, `None` when unassigned.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Value::True => Some(true),
            Value::False => Some(false),
            Value::Unassigned => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        if b {
            Value::True
        } else {
            Value::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_negation_roundtrip() {
        assert_eq!(Value::True.negate(), Value::False);
        assert_eq!(Value::False.negate(), Value::True);
        assert_eq!(Value::Unassigned.negate(), Value::Unassigned);
        assert_eq!(Value::True.negate().negate(), Value::True);
    }

    #[test]
    fn value_bool_conversions() {
        assert_eq!(Value::from(true), Value::True);
        assert_eq!(Value::from(false), Value::False);
        assert_eq!(Value::True.to_bool(), Some(true));
        assert_eq!(Value::False.to_bool(), Some(false));
        assert_eq!(Value::Unassigned.to_bool(), None);
    }
}
