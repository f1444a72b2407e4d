//! The search space of decomposition sets and points in it.
//!
//! A point `χ ∈ {0,1}^m` is the characteristic vector of a decomposition set
//! relative to a fixed *universe* of candidate variables. Following §3 of the
//! paper, the universe is usually not all of `X` but the starting backdoor
//! set `X̃_start` (the circuit input / state variables), so the search space
//! is `2^{X̃_start}`.

use crate::DecompositionSet;
use pdsat_cnf::Var;
use rand::Rng;
use std::fmt;

/// The universe of candidate decomposition variables.
///
/// # Example
///
/// ```
/// use pdsat_core::SearchSpace;
/// use pdsat_cnf::Var;
/// let space = SearchSpace::new((0..4).map(Var::new));
/// let full = space.full_point();
/// assert_eq!(space.decomposition_set(&full).len(), 4);
/// assert_eq!(space.neighborhood(&full, 1).len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    universe: Vec<Var>,
}

impl SearchSpace {
    /// Creates a search space over the given candidate variables (duplicates
    /// removed, order normalized).
    pub fn new<I: IntoIterator<Item = Var>>(universe: I) -> SearchSpace {
        let set = DecompositionSet::new(universe);
        SearchSpace {
            universe: set.vars().to_vec(),
        }
    }

    /// Number of candidate variables (the dimension of the space).
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.universe.len()
    }

    /// The point selecting every candidate variable (χ = 1…1, i.e.
    /// `X̃_start` itself).
    #[must_use]
    pub fn full_point(&self) -> Point {
        Point {
            bits: vec![true; self.universe.len()],
        }
    }

    /// The point selecting no variable.
    #[must_use]
    pub fn empty_point(&self) -> Point {
        Point {
            bits: vec![false; self.universe.len()],
        }
    }

    /// A uniformly random point with exactly `ones` selected variables.
    ///
    /// # Panics
    ///
    /// Panics if `ones > dimension()`.
    pub fn random_point_with_ones<R: Rng + ?Sized>(&self, ones: usize, rng: &mut R) -> Point {
        assert!(
            ones <= self.dimension(),
            "cannot select more variables than the universe holds"
        );
        let mut indices: Vec<usize> = (0..self.dimension()).collect();
        // Partial Fisher–Yates shuffle.
        for i in 0..ones {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        let mut point = self.empty_point();
        for &i in indices.iter().take(ones) {
            point.bits[i] = true;
        }
        point
    }

    /// The decomposition set selected by `point`.
    ///
    /// # Panics
    ///
    /// Panics if the point has a different dimension than the space.
    #[must_use]
    pub fn decomposition_set(&self, point: &Point) -> DecompositionSet {
        assert_eq!(
            point.dimension(),
            self.dimension(),
            "point/space dimension mismatch"
        );
        DecompositionSet::new(
            point
                .bits
                .iter()
                .zip(&self.universe)
                .filter(|(&b, _)| b)
                .map(|(_, &v)| v),
        )
    }

    /// All points at Hamming distance exactly 1 from `center`.
    #[must_use]
    pub fn neighbors(&self, center: &Point) -> Vec<Point> {
        (0..self.dimension())
            .map(|i| {
                let mut p = center.clone();
                p.flip(i);
                p
            })
            .collect()
    }

    /// The neighborhood `N_ρ(χ)`: all points at Hamming distance between 1
    /// and `radius` from `center` (the center itself is excluded).
    ///
    /// The size grows as `Σ_{k=1..ρ} C(m, k)`; radius 1 (the value used by
    /// PDSAT) gives `m` points.
    #[must_use]
    pub fn neighborhood(&self, center: &Point, radius: usize) -> Vec<Point> {
        let mut result = Vec::new();
        let mut frontier = vec![center.clone()];
        let mut seen: std::collections::HashSet<Point> = std::collections::HashSet::new();
        seen.insert(center.clone());
        for _ in 0..radius {
            let mut next_frontier = Vec::new();
            for p in &frontier {
                for q in self.neighbors(p) {
                    if seen.insert(q.clone()) {
                        result.push(q.clone());
                        next_frontier.push(q);
                    }
                }
            }
            frontier = next_frontier;
        }
        result
    }
}

/// A point of the search space: the characteristic vector `χ` of a
/// decomposition set over the universe of a [`SearchSpace`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Point {
    bits: Vec<bool>,
}

impl Point {
    /// Dimension of the point (length of the characteristic vector).
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.bits.len()
    }

    /// Flips coordinate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn flip(&mut self, i: usize) {
        self.bits[i] = !self.bits[i];
    }

    /// Hamming distance to another point.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn hamming_distance(&self, other: &Point) -> usize {
        assert_eq!(self.dimension(), other.dimension(), "dimension mismatch");
        self.bits
            .iter()
            .zip(&other.bits)
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bits {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn space(n: u32) -> SearchSpace {
        SearchSpace::new((0..n).map(Var::new))
    }

    #[test]
    fn points_map_to_decomposition_sets() {
        let s = space(5);
        let mut p = s.empty_point();
        p.flip(1);
        p.flip(3);
        assert_eq!(s.decomposition_set(&p).len(), 2);
        let set = s.decomposition_set(&p);
        assert_eq!(set.vars(), &[Var::new(1), Var::new(3)]);
        assert_eq!(s.decomposition_set(&s.full_point()).len(), 5);
        assert!(s.decomposition_set(&s.empty_point()).is_empty());
    }

    #[test]
    fn radius_one_neighborhood_flips_each_coordinate() {
        let s = space(4);
        let c = s.full_point();
        let n1 = s.neighborhood(&c, 1);
        assert_eq!(n1.len(), 4);
        for p in &n1 {
            assert_eq!(p.hamming_distance(&c), 1);
            assert_eq!(s.decomposition_set(p).len(), 3);
        }
    }

    #[test]
    fn radius_two_neighborhood_has_binomial_size() {
        let s = space(6);
        let c = s.empty_point();
        let n2 = s.neighborhood(&c, 2);
        // C(6,1) + C(6,2) = 6 + 15 = 21.
        assert_eq!(n2.len(), 21);
        assert!(n2.iter().all(|p| {
            let d = p.hamming_distance(&c);
            (1..=2).contains(&d)
        }));
        // No duplicates.
        let unique: std::collections::HashSet<_> = n2.iter().cloned().collect();
        assert_eq!(unique.len(), n2.len());
    }

    #[test]
    fn random_point_respects_cardinality() {
        let s = space(20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for ones in [0, 1, 7, 20] {
            let p = s.random_point_with_ones(ones, &mut rng);
            assert_eq!(s.decomposition_set(&p).len(), ones);
        }
    }

    #[test]
    fn display_and_flip() {
        let s = space(3);
        let mut p = s.empty_point();
        p.flip(1);
        assert_eq!(p.to_string(), "010");
        assert!(p.bits[1]);
        p.flip(1);
        assert!(s.decomposition_set(&p).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dimensions_panic() {
        let a = space(3).full_point();
        let b = space(4).full_point();
        let _ = a.hamming_distance(&b);
    }
}
