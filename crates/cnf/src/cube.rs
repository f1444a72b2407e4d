//! Cubes: conjunctions of literals used to split a SAT instance.

use crate::{Assignment, Lit, Value, Var};
use std::fmt;

/// A conjunction of literals over pairwise-distinct variables.
///
/// In the partitioning approach of Semenov & Zaikin a decomposition set
/// `X̃ = {x_{i_1}, …, x_{i_d}}` and a truth assignment
/// `(α_1, …, α_d) ∈ {0,1}^d` determine the sub-problem
/// `C[X̃/(α_1, …, α_d)]`; the cube is exactly the conjunction
/// `x_{i_1}^{α_1} ∧ … ∧ x_{i_d}^{α_d}` (the minterm `G_j` of the paper).
/// Solving the sub-problem amounts to solving `C` under the cube's literals
/// as assumptions.
///
/// # Example
///
/// ```
/// use pdsat_cnf::{Cube, Var};
/// let cube = Cube::from_bits(&[Var::new(0), Var::new(5), Var::new(7)], 0b101);
/// // bit 0 is the *last* variable, mirroring binary notation (α_1 … α_d).
/// assert_eq!(cube.lits().len(), 3);
/// assert_eq!(cube.to_string(), "x1 ∧ ¬x6 ∧ x8");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Cube {
    lits: Vec<Lit>,
}

impl Cube {
    /// Creates an empty cube (the trivial partitioning into one part).
    #[must_use]
    pub fn new() -> Cube {
        Cube { lits: Vec::new() }
    }

    /// Creates a cube from literals.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if two literals mention the same variable.
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Cube {
        let lits: Vec<Lit> = lits.into_iter().collect();
        debug_assert!(
            {
                let mut vars: Vec<_> = lits.iter().map(|l| l.var()).collect();
                vars.sort_unstable();
                vars.windows(2).all(|w| w[0] != w[1])
            },
            "cube literals must mention distinct variables"
        );
        Cube { lits }
    }

    /// Creates the cube assigning the `d` variables of `vars` to the values
    /// given by `values` (`values[k]` is the polarity of `vars[k]`).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn from_values(vars: &[Var], values: &[bool]) -> Cube {
        assert_eq!(
            vars.len(),
            values.len(),
            "one value per decomposition variable"
        );
        Cube::from_lits(vars.iter().zip(values).map(|(&v, &b)| v.lit(b)))
    }

    /// Creates the cube assigning the `d = vars.len()` variables to the bits
    /// of `index`, where bit `d-1-k` of `index` gives the value of `vars[k]`
    /// (i.e. `index` written in binary is `α_1 α_2 … α_d`).
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() > 64`.
    #[must_use]
    pub fn from_bits(vars: &[Var], index: u64) -> Cube {
        let d = vars.len();
        assert!(d <= 64, "at most 64 variables per enumerated cube");
        Cube::from_lits(
            vars.iter()
                .enumerate()
                .map(|(k, &v)| v.lit((index >> (d - 1 - k)) & 1 == 1)),
        )
    }

    /// Literals of the cube.
    #[must_use]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals (the `d` of the decomposition).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` when the cube contains no literal.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Variables assigned by this cube, in cube order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.lits.iter().map(|l| l.var())
    }

    /// Adds one literal to the cube.
    pub fn push(&mut self, lit: Lit) {
        self.lits.push(lit);
    }

    /// Applies the cube to an assignment (sets each cube variable).
    pub fn apply_to(&self, assignment: &mut Assignment) {
        for &lit in &self.lits {
            assignment.assign_lit(lit);
        }
    }

    /// Evaluates the cube under an assignment: true iff all literals are true.
    #[must_use]
    pub fn evaluate(&self, assignment: &Assignment) -> Value {
        let mut undecided = false;
        for &lit in &self.lits {
            match assignment.lit_value(lit) {
                Value::False => return Value::False,
                Value::Unassigned => undecided = true,
                Value::True => {}
            }
        }
        if undecided {
            Value::Unassigned
        } else {
            Value::True
        }
    }

    /// `true` iff the two cubes assign some shared variable opposite values.
    ///
    /// Two distinct cubes over the *same* decomposition set always conflict,
    /// which is what makes a decomposition family a partitioning.
    #[must_use]
    pub fn conflicts_with(&self, other: &Cube) -> bool {
        self.lits.iter().any(|l| other.lits.contains(&!*l))
    }

    /// The cube's literals as a vector of solver assumptions.
    #[must_use]
    pub fn to_assumptions(&self) -> Vec<Lit> {
        self.lits.clone()
    }
}

impl FromIterator<Lit> for Cube {
    fn from_iter<T: IntoIterator<Item = Lit>>(iter: T) -> Self {
        Cube::from_lits(iter)
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "⊤");
        }
        let parts: Vec<String> = self.lits.iter().map(|l| l.to_string()).collect();
        write!(f, "{}", parts.join(" ∧ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(n: u32) -> Vec<Var> {
        (0..n).map(Var::new).collect()
    }

    #[test]
    fn from_bits_orders_like_binary_notation() {
        let vs = vars(3);
        let cube = Cube::from_bits(&vs, 0b011);
        assert_eq!(
            cube.lits(),
            &[
                Lit::negative(vs[0]),
                Lit::positive(vs[1]),
                Lit::positive(vs[2])
            ]
        );
    }

    #[test]
    fn distinct_cubes_over_same_set_conflict() {
        let vs = vars(4);
        for i in 0..16u64 {
            for j in 0..16u64 {
                let a = Cube::from_bits(&vs, i);
                let b = Cube::from_bits(&vs, j);
                assert_eq!(a.conflicts_with(&b), i != j, "i={i} j={j}");
            }
        }
    }

    #[test]
    fn apply_and_evaluate() {
        let vs = vars(3);
        let cube = Cube::from_bits(&vs, 0b101);
        let mut a = Assignment::new(3);
        assert_eq!(cube.evaluate(&a), Value::Unassigned);
        cube.apply_to(&mut a);
        assert_eq!(cube.evaluate(&a), Value::True);
        a.assign(vs[0], false);
        assert_eq!(cube.evaluate(&a), Value::False);
    }

    #[test]
    fn from_values_matches_from_bits() {
        let vs = vars(3);
        assert_eq!(
            Cube::from_values(&vs, &[true, false, true]),
            Cube::from_bits(&vs, 0b101)
        );
    }

    #[test]
    fn empty_cube_is_top() {
        let c = Cube::new();
        assert!(c.is_empty());
        assert_eq!(c.to_string(), "⊤");
        assert_eq!(c.evaluate(&Assignment::new(0)), Value::True);
    }

    #[test]
    #[should_panic(expected = "one value per decomposition variable")]
    fn mismatched_values_panic() {
        let _ = Cube::from_values(&vars(2), &[true]);
    }
}
