//! Variables and literals.

use crate::dimacs::MAX_VARS;
use std::fmt;

/// A Boolean variable, identified by a zero-based index.
///
/// Variables are cheap `Copy` handles; the formula they belong to defines how
/// many of them exist. In DIMACS output variable `Var::new(i)` is printed as
/// `i + 1`.
///
/// # Example
///
/// ```
/// use pdsat_cnf::Var;
/// let v = Var::new(4);
/// assert_eq!(v.index(), 4);
/// assert_eq!(v.to_dimacs(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable with the given zero-based index.
    #[must_use]
    pub fn new(index: u32) -> Var {
        Var(index)
    }

    /// Zero-based index of this variable.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw `u32` index.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// One-based DIMACS identifier.
    #[must_use]
    pub fn to_dimacs(self) -> i64 {
        i64::from(self.0) + 1
    }

    /// The positive literal of this variable.
    #[must_use]
    pub fn positive(self) -> Lit {
        Lit::positive(self)
    }

    /// The negative literal of this variable.
    #[must_use]
    pub fn negative(self) -> Lit {
        Lit::negative(self)
    }

    /// The literal of this variable with the given polarity
    /// (`true` → positive literal).
    #[must_use]
    pub fn lit(self, polarity: bool) -> Lit {
        Lit::new(self, polarity)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.to_dimacs())
    }
}

impl From<u32> for Var {
    fn from(index: u32) -> Self {
        Var::new(index)
    }
}

/// A literal: a variable together with a polarity.
///
/// Internally encoded as `2·var + sign` where `sign == 1` means the literal is
/// negated; this is the conventional MiniSat packing and makes literals usable
/// directly as array indices (e.g. in watch lists).
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Lit, Var};
/// let v = Var::new(2);
/// let p = Lit::positive(v);
/// let n = !p;
/// assert_eq!(n, Lit::negative(v));
/// assert_eq!(p.var(), n.var());
/// assert!(p.is_positive() && n.is_negative());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal over `var` with the given polarity
    /// (`true` → positive literal).
    #[must_use]
    pub fn new(var: Var, polarity: bool) -> Lit {
        Lit(var.raw() << 1 | u32::from(!polarity))
    }

    /// The positive (unnegated) literal of `var`.
    #[must_use]
    pub fn positive(var: Var) -> Lit {
        Lit::new(var, true)
    }

    /// The negative (negated) literal of `var`.
    #[must_use]
    pub fn negative(var: Var) -> Lit {
        Lit::new(var, false)
    }

    /// The variable this literal refers to.
    #[must_use]
    pub fn var(self) -> Var {
        Var::new(self.0 >> 1)
    }

    /// `true` if the literal is unnegated.
    #[must_use]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// `true` if the literal is negated.
    #[must_use]
    pub fn is_negative(self) -> bool {
        !self.is_positive()
    }

    /// Polarity of the literal: `true` for a positive literal.
    #[must_use]
    pub fn polarity(self) -> bool {
        self.is_positive()
    }

    /// Compact code `2·var + sign`; useful for indexing per-literal tables.
    #[must_use]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its [`code`](Lit::code).
    #[must_use]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Signed DIMACS representation (`±(var+1)`).
    #[must_use]
    pub fn to_dimacs(self) -> i64 {
        let v = self.var().to_dimacs();
        if self.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Builds a literal from a signed DIMACS integer read from outside the
    /// program: `None` for `0`, for `i64::MIN` and for any variable above
    /// [`dimacs::MAX_VARS`](crate::dimacs::MAX_VARS). Every parser of
    /// untrusted text (DIMACS, DRAT, the `pdsat` command line) converts
    /// through this one check, so a hostile identifier can neither wrap into
    /// another variable nor size a table.
    #[must_use]
    pub fn try_from_dimacs(dimacs: i64) -> Option<Lit> {
        let index = dimacs.checked_abs()? - 1; // -1 for `0`
        let index = usize::try_from(index).ok().filter(|&i| i < MAX_VARS)?;
        Some(Lit::new(Var::new(index as u32), dimacs > 0))
    }

    /// Builds a literal from a signed DIMACS integer the program wrote
    /// itself (fixtures, tests).
    ///
    /// # Panics
    ///
    /// Panics where [`try_from_dimacs`](Lit::try_from_dimacs) returns `None`.
    #[must_use]
    pub fn from_dimacs(dimacs: i64) -> Lit {
        Lit::try_from_dimacs(dimacs)
            .expect("DIMACS literals are non-zero and within dimacs::MAX_VARS")
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬")?;
        }
        write!(f, "{}", self.var())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn literal_packing_matches_minisat_convention() {
        let v = Var::new(3);
        assert_eq!(Lit::positive(v).code(), 6);
        assert_eq!(Lit::negative(v).code(), 7);
        assert_eq!(Lit::from_code(6), Lit::positive(v));
    }

    #[test]
    fn negation_is_involution() {
        let l = Lit::negative(Var::new(10));
        assert_eq!(!!l, l);
        assert_ne!(!l, l);
        assert_eq!((!l).var(), l.var());
    }

    #[test]
    fn dimacs_conversions() {
        assert_eq!(Lit::from_dimacs(5), Lit::positive(Var::new(4)));
        assert_eq!(Lit::from_dimacs(-5), Lit::negative(Var::new(4)));
        assert_eq!(Lit::from_dimacs(-5).to_dimacs(), -5);
        assert_eq!(Lit::from_dimacs(1).var(), Var::new(0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimacs_literal_panics() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Var::new(0).to_string(), "x1");
        assert_eq!(Lit::negative(Var::new(0)).to_string(), "¬x1");
        assert_eq!(Lit::positive(Var::new(2)).to_string(), "x3");
    }

    #[test]
    fn checked_conversion_rejects_everything_outside_the_cap() {
        let cap = MAX_VARS as i64;
        for d in [cap, -cap] {
            assert_eq!(Lit::try_from_dimacs(d).map(Lit::to_dimacs), Some(d));
        }
        for d in [0, cap + 1, -(cap + 1), 1 << 32, i64::MIN, i64::MAX] {
            assert_eq!(Lit::try_from_dimacs(d), None, "{d}");
        }
    }

    proptest! {
        #[test]
        fn dimacs_roundtrip(d in 1i64..=MAX_VARS as i64, above in MAX_VARS as i64 + 1..=i64::MAX) {
            prop_assert_eq!(Lit::try_from_dimacs(d).map(Lit::to_dimacs), Some(d));
            prop_assert_eq!(Lit::try_from_dimacs(-d).map(Lit::to_dimacs), Some(-d));
            prop_assert_eq!(Lit::try_from_dimacs(above), None);
            prop_assert_eq!(Lit::try_from_dimacs(-above), None);
        }

        #[test]
        fn code_roundtrip(idx in 0u32..1_000_000, pol: bool) {
            let l = Lit::new(Var::new(idx), pol);
            prop_assert_eq!(Lit::from_code(l.code()), l);
            prop_assert_eq!(l.var().raw(), idx);
            prop_assert_eq!(l.polarity(), pol);
        }
    }
}
