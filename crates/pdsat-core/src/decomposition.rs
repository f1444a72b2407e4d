//! Decomposition sets and the partitionings (decomposition families) they
//! induce.

use pdsat_cnf::{Cube, Var};
use rand::Rng;
use std::fmt;

/// A decomposition set `X̃ ⊆ X`: the variables on which the SAT instance is
/// split.
///
/// The 2^d assignments of the `d` variables of the set induce the
/// *decomposition family* `Δ_C(X̃)` — a partitioning of the original instance
/// into 2^d sub-problems (see §2 of the paper).
///
/// # Example
///
/// ```
/// use pdsat_core::DecompositionSet;
/// use pdsat_cnf::Var;
/// let set = DecompositionSet::new([Var::new(3), Var::new(1), Var::new(3)]);
/// assert_eq!(set.len(), 2); // duplicates are removed
/// assert_eq!(set.cube_count(), Some(4));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DecompositionSet {
    vars: Vec<Var>,
}

impl DecompositionSet {
    /// Creates a decomposition set from variables (duplicates are removed,
    /// order is normalized to ascending).
    pub fn new<I: IntoIterator<Item = Var>>(vars: I) -> DecompositionSet {
        let mut vars: Vec<Var> = vars.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        DecompositionSet { vars }
    }

    /// The empty decomposition set (trivial partitioning with one part).
    #[must_use]
    pub fn empty() -> DecompositionSet {
        DecompositionSet { vars: Vec::new() }
    }

    /// Number of variables `d` in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// `true` when the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The variables of the set in ascending order.
    #[must_use]
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// `true` if the set contains `var`.
    #[must_use]
    pub fn contains(&self, var: Var) -> bool {
        self.vars.binary_search(&var).is_ok()
    }

    /// Number of sub-problems in the induced partitioning, `2^d`, or `None`
    /// when it does not fit in a `u128`.
    #[must_use]
    pub fn cube_count(&self) -> Option<u128> {
        if self.vars.len() < 128 {
            Some(1u128 << self.vars.len())
        } else {
            None
        }
    }

    /// The `index`-th cube of the family (bit `d-1-k` of `index` gives the
    /// value of the `k`-th variable).
    ///
    /// # Panics
    ///
    /// Panics if the set has more than 64 variables.
    #[must_use]
    pub fn cube_from_index(&self, index: u64) -> Cube {
        Cube::from_bits(&self.vars, index)
    }

    /// Iterator over the full decomposition family (all `2^d` cubes).
    ///
    /// The enumeration is in binary counting order over the set's (sorted)
    /// variables, which is a depth-first traversal of the assignment trie —
    /// consecutive cubes share the longest possible assumption prefix on
    /// average, so this order is already optimal for the warm backend's
    /// assumption-trail reuse (a Gray-code walk has the identical
    /// shared-prefix profile).
    ///
    /// # Panics
    ///
    /// Panics if the set has more than 63 variables (enumerating such a
    /// family is infeasible anyway; the Monte Carlo estimator exists for
    /// exactly that reason).
    #[must_use]
    pub fn cubes(&self) -> CubeIter<'_> {
        assert!(
            self.vars.len() <= 63,
            "full enumeration is limited to 63 variables"
        );
        CubeIter {
            set: self,
            next: 0,
            end: 1u64 << self.vars.len(),
        }
    }

    /// Draws one cube uniformly at random (one `α ∈ {0,1}^d`).
    pub fn random_cube<R: Rng + ?Sized>(&self, rng: &mut R) -> Cube {
        let values: Vec<bool> = (0..self.vars.len()).map(|_| rng.gen_bool(0.5)).collect();
        Cube::from_values(&self.vars, &values)
    }

    /// Draws a random sample of `n` cubes (the random sample of eq. (4) in
    /// the paper). Sampling is with replacement, matching the i.i.d.
    /// assumption of the Monte Carlo method.
    pub fn random_sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Cube> {
        (0..n).map(|_| self.random_cube(rng)).collect()
    }

    /// Union with another set.
    #[must_use]
    pub fn union(&self, other: &DecompositionSet) -> DecompositionSet {
        DecompositionSet::new(self.vars.iter().chain(other.vars.iter()).copied())
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &DecompositionSet) -> DecompositionSet {
        DecompositionSet::new(self.vars.iter().copied().filter(|v| !other.contains(*v)))
    }
}

impl FromIterator<Var> for DecompositionSet {
    fn from_iter<T: IntoIterator<Item = Var>>(iter: T) -> Self {
        DecompositionSet::new(iter)
    }
}

impl fmt::Display for DecompositionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over all cubes of a decomposition family.
#[derive(Debug)]
pub struct CubeIter<'a> {
    set: &'a DecompositionSet,
    next: u64,
    end: u64,
}

impl Iterator for CubeIter<'_> {
    type Item = Cube;

    fn next(&mut self) -> Option<Cube> {
        if self.next >= self.end {
            return None;
        }
        let cube = self.set.cube_from_index(self.next);
        self.next += 1;
        Some(cube)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.end - self.next) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for CubeIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn vars(ids: &[u32]) -> DecompositionSet {
        DecompositionSet::new(ids.iter().map(|&i| Var::new(i)))
    }

    #[test]
    fn construction_normalizes() {
        let set = vars(&[5, 1, 5, 3]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.vars(), &[Var::new(1), Var::new(3), Var::new(5)]);
        assert!(set.contains(Var::new(3)));
        assert!(!set.contains(Var::new(2)));
        assert_eq!(set.to_string(), "{x2, x4, x6}");
    }

    #[test]
    fn family_enumeration_is_complete_and_disjoint() {
        let set = vars(&[0, 1, 2]);
        let cubes: Vec<Cube> = set.cubes().collect();
        assert_eq!(cubes.len(), 8);
        assert_eq!(set.cubes().len(), 8);
        for (i, a) in cubes.iter().enumerate() {
            for (j, b) in cubes.iter().enumerate() {
                assert_eq!(a.conflicts_with(b), i != j);
            }
        }
    }

    #[test]
    fn cube_count_overflows_gracefully() {
        assert_eq!(vars(&[0]).cube_count(), Some(2));
        assert_eq!(DecompositionSet::empty().cube_count(), Some(1));
        let big = DecompositionSet::new((0..200).map(Var::new));
        assert_eq!(big.cube_count(), None);
    }

    #[test]
    fn random_sample_has_requested_size_and_correct_support() {
        let set = vars(&[2, 4, 6, 8]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sample = set.random_sample(100, &mut rng);
        assert_eq!(sample.len(), 100);
        for cube in &sample {
            assert_eq!(cube.len(), 4);
            let cube_vars: Vec<Var> = cube.vars().collect();
            assert_eq!(cube_vars, set.vars());
        }
        // With 100 draws over 16 cubes, at least two distinct cubes appear.
        let distinct: std::collections::HashSet<_> =
            sample.iter().map(|c| c.lits().to_vec()).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn union_and_difference() {
        let a = vars(&[1, 2, 3]);
        let b = vars(&[3, 4]);
        assert_eq!(a.union(&b), vars(&[1, 2, 3, 4]));
        assert_eq!(a.difference(&b), vars(&[1, 2]));
        assert_eq!(b.difference(&a), vars(&[4]));
    }

    #[test]
    fn collect_from_iterator() {
        let set: DecompositionSet = (0..5).map(Var::new).collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    #[should_panic(expected = "full enumeration")]
    fn oversized_enumeration_panics() {
        let set = DecompositionSet::new((0..64).map(Var::new));
        let _ = set.cubes();
    }
}
